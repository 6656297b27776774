"""Manifests: JSON documents describing an executed run, service
session, or load-generator run.

A run manifest is the engine's flight recorder -- written beside the
result cache (or wherever ``manifest_path`` points), it captures
everything needed to audit a sweep after the fact: the content hash of
the plan, which schemes and seeds ran, per-unit wall-clock timings and
cache provenance, a merged metric snapshot (including the per-phase
``repro_phase_seconds`` timers), and each scheme's coverage-over-time
curve.  Service-session manifests (``kind: "service-session"``) and load
reports (``kind: "load-report"``) are the other two kinds.

Each kind's shape is one declarative field table (:class:`Rule`), and
:func:`validate_manifest` walks a payload against the table its ``kind``
selects (no external jsonschema dependency); CI validates every kind it
emits on every push.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "SERVICE_MANIFEST_SCHEMA_VERSION",
    "LOAD_REPORT_SCHEMA_VERSION",
    "ManifestError",
    "build_manifest",
    "build_service_manifest",
    "merge_metric_snapshots",
    "plan_hash",
    "validate_manifest",
    "ensure_valid_manifest",
    "write_manifest",
    "load_manifest",
]

#: Bumped when the manifest payload shape changes.
MANIFEST_SCHEMA_VERSION = 2

#: Bumped when the service-session manifest shape changes.
SERVICE_MANIFEST_SCHEMA_VERSION = 1

#: Bumped when the load-report manifest shape changes.
LOAD_REPORT_SCHEMA_VERSION = 1


class ManifestError(ValueError):
    """A manifest failed structural validation."""


def plan_hash(unit_keys: Iterable[str]) -> str:
    """Content hash of a run plan: the ordered unit keys, hashed."""
    digest = hashlib.sha256()
    for key in unit_keys:
        digest.update(key.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def merge_metric_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold several registry snapshots into one aggregate snapshot.

    Counters, histograms, and timers sum across runs (per label set);
    gauges -- end-state readings like final coverage -- are averaged, with
    the run count recorded in the family help suffix being unnecessary
    since units are listed individually anyway.
    """
    merged: Dict[str, Any] = {}
    gauge_counts: Dict[str, Dict[str, int]] = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            into = merged.get(name)
            if into is None:
                into = merged[name] = {
                    "kind": family["kind"],
                    "help": family.get("help", ""),
                    "samples": [],
                }
                gauge_counts[name] = {}
            by_labels = {
                json.dumps(s["labels"], sort_keys=True): s for s in into["samples"]
            }
            for sample in family.get("samples", []):
                label_key = json.dumps(sample.get("labels", {}), sort_keys=True)
                existing = by_labels.get(label_key)
                if existing is None:
                    new = {"labels": dict(sample.get("labels", {})),
                           "value": _copy_value(sample["value"])}
                    into["samples"].append(new)
                    by_labels[label_key] = new
                    if family["kind"] == "gauge":
                        gauge_counts[name][label_key] = 1
                else:
                    _merge_value(
                        family["kind"], existing, sample["value"],
                        gauge_counts[name], label_key,
                    )
    # Turn gauge sums into means.
    for name, family in merged.items():
        if family["kind"] != "gauge":
            continue
        for sample in family["samples"]:
            label_key = json.dumps(sample["labels"], sort_keys=True)
            count = gauge_counts[name].get(label_key, 1)
            if count > 1:
                sample["value"] = sample["value"] / count
    return merged


def _copy_value(value: Any) -> Any:
    if isinstance(value, dict):
        copied = dict(value)
        if "buckets" in copied:
            copied["buckets"] = dict(copied["buckets"])
        return copied
    return value


def _merge_value(
    kind: str,
    existing: Dict[str, Any],
    incoming: Any,
    gauge_counts: Dict[str, int],
    label_key: str,
) -> None:
    if kind in ("counter",):
        existing["value"] += incoming
    elif kind == "gauge":
        existing["value"] += incoming
        gauge_counts[label_key] = gauge_counts.get(label_key, 1) + 1
    elif kind == "histogram":
        value = existing["value"]
        for bound, count in incoming["buckets"].items():
            value["buckets"][bound] = value["buckets"].get(bound, 0) + count
        value["count"] += incoming["count"]
        value["sum"] += incoming["sum"]
    elif kind == "timer":
        value = existing["value"]
        if incoming["count"]:
            value["min"] = (
                incoming["min"] if not value["count"] else min(value["min"], incoming["min"])
            )
            value["max"] = max(value["max"], incoming["max"])
        value["count"] += incoming["count"]
        value["sum"] += incoming["sum"]
    else:  # unknown kinds pass through first-wins
        pass


def build_manifest(
    outcomes: Sequence[Any],
    generator: str = "repro",
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest for a finished run plan.

    *outcomes* are the engine's ``UnitOutcome`` objects (duck-typed:
    ``unit``, ``result``, ``duration_s``, ``cached``, ``telemetry``).
    """
    units: List[Dict[str, Any]] = []
    telemetry_snapshots: List[Dict[str, Any]] = []
    coverage_by_scheme: Dict[str, List[Dict[str, float]]] = {}
    for outcome in outcomes:
        unit = outcome.unit
        telemetry = getattr(outcome, "telemetry", None)
        entry: Dict[str, Any] = {
            "scheme": unit.scheme,
            "seed": unit.spec.seed,
            "key": unit.key(),
            "duration_s": outcome.duration_s,
            "cached": outcome.cached,
            "result": {
                "point_coverage": outcome.result.final_point_coverage,
                "aspect_coverage_deg": outcome.result.final_aspect_coverage_deg,
                "delivered_photos": outcome.result.delivered_photos,
                "created_photos": outcome.result.created_photos,
                "contacts_processed": outcome.result.contacts_processed,
                "center_contacts": outcome.result.center_contacts,
            },
            "telemetry": telemetry,
        }
        units.append(entry)
        if telemetry:
            telemetry_snapshots.append(telemetry.get("metrics", {}))
            curve = telemetry.get("coverage_curve") or []
            if curve and unit.scheme not in coverage_by_scheme:
                coverage_by_scheme[unit.scheme] = curve

    schemes: List[str] = []
    for outcome in outcomes:
        if outcome.unit.scheme not in schemes:
            schemes.append(outcome.unit.scheme)
    seeds = sorted({outcome.unit.spec.seed for outcome in outcomes})

    manifest: Dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "generator": generator,
        "plan_hash": plan_hash(u["key"] for u in units),
        "schemes": schemes,
        "seeds": seeds,
        "units": units,
        "timings": {
            "total_unit_s": sum(u["duration_s"] for u in units),
            "cached_units": sum(1 for u in units if u["cached"]),
            "executed_units": sum(1 for u in units if not u["cached"]),
        },
        "metrics": merge_metric_snapshots(telemetry_snapshots),
        "coverage_over_time": coverage_by_scheme,
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def build_service_manifest(
    routing: Dict[str, Any],
    variants: Dict[str, Dict[str, Any]],
    metrics: Dict[str, Any],
    generator: str = "repro.service",
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest for one service-server session.

    The service analogue of :func:`build_manifest`: *routing* is the
    router's summary (split percentages, fallback count), *variants* maps
    variant name to that session's summary (scheme spec, request count,
    coverage, latency quantiles), *metrics* is the server registry's
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot`.
    """
    manifest: Dict[str, Any] = {
        "schema_version": SERVICE_MANIFEST_SCHEMA_VERSION,
        "kind": "service-session",
        "generator": generator,
        "routing": dict(routing),
        "variants": {name: dict(summary) for name, summary in variants.items()},
        "metrics": metrics,
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


# ----------------------------------------------------------------------
# Validation: one field table per manifest kind, one walker
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """What one payload value must look like.

    *type* names an entry of :data:`_TYPES`.  An object's *fields* map
    its keys to rules; *values* is the rule every entry of an object
    used as a map must meet; *items* is the rule every list item must
    meet.  A key whose rule is not *required* may be absent, a
    *nullable* value may be ``None``, *const* pins the value, and
    *non_empty* rejects an empty list or object.
    """

    type: str = "any"
    required: bool = True
    nullable: bool = False
    const: Any = None
    non_empty: bool = False
    fields: Optional[Dict[str, "Rule"]] = None
    values: Optional["Rule"] = None
    items: Optional["Rule"] = None


def _int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _count(value: Any) -> bool:
    return _int(value) and value >= 0


_HEX = frozenset("0123456789abcdef")

#: ``type -> (predicate, what the error says the value must be)``.
_TYPES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "any": (lambda v: True, "anything"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "int": (_int, "an integer"),
    "count": (_count, "a non-negative integer"),
    # NaN fails ``v >= 0``.
    "duration": (lambda v: (_int(v) or isinstance(v, float)) and v >= 0,
                 "a non-negative number"),
    "hex64": (lambda v: isinstance(v, str) and len(v) == 64 and set(v) <= _HEX,
              "a 64-char lowercase hex sha256"),
}


def _obj(fields: Dict[str, Rule], **kwargs: Any) -> Rule:
    return Rule("object", fields=fields, **kwargs)


def _keys(*names: str) -> Dict[str, Rule]:
    """Required keys whose values are not checked further."""
    return {name: Rule() for name in names}


def _walk(value: Any, rule: Rule, path: str, errors: List[str]) -> None:
    """Append to *errors* every way *value* breaks *rule* (at *path*)."""
    if value is None and rule.nullable:
        return
    accepts, what = _TYPES[rule.type]
    if not accepts(value):
        errors.append(f"{path} must be {what}")
        return
    if rule.const is not None and value != rule.const:
        errors.append(f"{path} {value!r} != {rule.const!r}")
    if rule.non_empty and not value:
        errors.append(f"{path} must be non-empty")
    for key, sub in (rule.fields or {}).items():
        if key in value:
            _walk(value[key], sub, f"{path}.{key}" if path else key, errors)
        elif sub.required:
            errors.append(
                f"{path} missing {key!r}" if path else f"missing required key {key!r}"
            )
    if rule.values is not None:
        for name, item in value.items():
            _walk(item, rule.values, f"{path}[{name!r}]", errors)
    if rule.items is not None:
        for i, item in enumerate(value):
            _walk(item, rule.items, f"{path}[{i}]", errors)


_RUN_MANIFEST = _obj({
    "schema_version": Rule(const=MANIFEST_SCHEMA_VERSION),
    "generator": Rule("string"),
    "plan_hash": Rule("hex64"),
    "schemes": Rule("list", non_empty=True, items=Rule("string")),
    "seeds": Rule("list", non_empty=True, items=Rule("int")),
    "units": Rule("list", non_empty=True, items=_obj({
        **_keys("scheme", "seed", "key", "result"),
        "duration_s": Rule("duration"),
        "cached": Rule("bool"),
        "telemetry": _obj(
            _keys("metrics", "coverage_curve", "buffer_occupancy"),
            required=False, nullable=True,
        ),
    })),
    "timings": _obj(_keys("total_unit_s", "cached_units", "executed_units")),
    "metrics": Rule("object", values=_obj(_keys("kind", "samples"))),
    "coverage_over_time": Rule("object"),
})

_SERVICE_MANIFEST = _obj({
    "schema_version": Rule(const=SERVICE_MANIFEST_SCHEMA_VERSION),
    "kind": Rule(const="service-session"),
    "generator": Rule("string"),
    "routing": _obj(_keys("champion", "champion_pct", "challenger_pct", "fallbacks")),
    "variants": Rule("object", non_empty=True, values=_obj({
        **_keys("scheme", "requests", "coverage", "latency"),
        "persistence": _obj({
            **_keys("wal_dir", "fsync", "snapshot_seq"),
            "recovery": _obj(
                _keys("snapshot_seq", "replayed_records", "truncated_bytes", "duration_s"),
                nullable=True,
            ),
        }, required=False, nullable=True),
    })),
    "metrics": Rule("object"),
})

#: The six categories of the load report's accounting identity.
_ACCOUNTING = ("sent", "ok", "service_error", "timeout", "connection_error", "killed")

_LOAD_REPORT = _obj({
    "schema_version": Rule(const=LOAD_REPORT_SCHEMA_VERSION),
    "kind": Rule(const="load-report"),
    "generated_by": Rule("string"),
    "plan": _obj(_keys("stages")),
    "target": _obj(_keys("host", "port")),
    "wall_duration_s": Rule("duration"),
    "stages": Rule("list", items=_obj({
        **_keys("name", "process", "gate_rate", "offered", "ok",
                "offered_rate", "achieved_rate", "attainment"),
        "samples": Rule("list"),
    })),
    "ops": Rule("object", values=_obj(_keys("count", "p50_s", "p95_s", "p99_s"))),
    "accounting": _obj({
        **{key: Rule("count") for key in _ACCOUNTING + ("reconnects",)},
        "errors_by_code": Rule(),
    }),
    "slo": _obj({
        "thresholds": Rule(),
        "violations": Rule("list"),
        "passed": Rule("bool"),
    }),
})


def _accounting_identity(payload: Dict[str, Any]) -> Optional[str]:
    acct = payload.get("accounting")
    if not isinstance(acct, dict) or not all(_count(acct.get(k)) for k in _ACCOUNTING):
        return None  # the walk has already reported the broken counts
    if acct["sent"] != sum(acct[key] for key in _ACCOUNTING[1:]):
        return (
            "accounting identity violated: sent != ok + "
            "service_error + timeout + connection_error + killed"
        )
    return None


def _slo_verdict(payload: Dict[str, Any]) -> Optional[str]:
    slo = payload.get("slo")
    if (
        isinstance(slo, dict)
        and isinstance(slo.get("passed"), bool)
        and isinstance(slo.get("violations"), list)
        and slo["passed"] != (not slo["violations"])
    ):
        return "slo.passed must match slo.violations being empty"
    return None


#: ``kind -> (field table, cross-field checks run after the walk)``;
#: a payload without ``kind`` is an engine-run manifest.
_SPECS: Dict[Optional[str], Tuple[Rule, Tuple[Callable[..., Optional[str]], ...]]] = {
    None: (_RUN_MANIFEST, ()),
    "service-session": (_SERVICE_MANIFEST, ()),
    "load-report": (_LOAD_REPORT, (_accounting_identity, _slo_verdict)),
}


def validate_manifest(payload: Any) -> List[str]:
    """Structurally validate a manifest of any kind; returns its problems.

    The ``kind`` key picks the field table: absent for an engine run,
    ``"service-session"`` or ``"load-report"``.  An empty list means the
    manifest is valid; raise-style callers use
    :func:`ensure_valid_manifest`.
    """
    if not isinstance(payload, dict):
        return ["manifest is not a JSON object"]
    kind = payload.get("kind")
    if not isinstance(kind, (str, type(None))) or kind not in _SPECS:
        return [f"unknown manifest kind {kind!r}"]
    rule, checks = _SPECS[kind]
    errors: List[str] = []
    _walk(payload, rule, "", errors)
    errors.extend(error for error in (check(payload) for check in checks) if error)
    return errors


def ensure_valid_manifest(payload: Any) -> Dict[str, Any]:
    """Validate *payload*, raising :class:`ManifestError` on problems."""
    errors = validate_manifest(payload)
    if errors:
        raise ManifestError("; ".join(errors))
    return payload


# ----------------------------------------------------------------------
# I/O
# ----------------------------------------------------------------------


def write_manifest(path: Union[str, Path], manifest: Dict[str, Any]) -> Path:
    """Atomically write *manifest* as JSON to *path* (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a manifest of any kind from disk and validate it."""
    return ensure_valid_manifest(json.loads(Path(path).read_text(encoding="utf-8")))
