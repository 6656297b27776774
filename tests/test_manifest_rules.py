"""Rule-by-rule tests for the manifest validator.

One real manifest of each kind -- an engine run with telemetry, a
durable service session, and a load-generator report -- is damaged in
exactly one place per case.  The validator must reject every damaged
copy with an error that names the damaged path, and accept the
undamaged original.
"""

from __future__ import annotations

import copy
import math
import threading
from contextlib import contextmanager

import pytest

from repro.core.geometry import Point
from repro.core.poi import PoIList
from repro.experiments import fig5
from repro.experiments.engine import ExperimentEngine, RunPlan
from repro.loadgen import LoadPlan, LoadStage, SLOSpec, WorkloadSpec, run_load
from repro.loadgen.report import build_load_report
from repro.obs.manifest import validate_manifest
from repro.service.client import ServiceClient
from repro.service.persistence import PersistenceConfig
from repro.service.server import CommandCenterServer

from helpers import make_photo


@contextmanager
def running_server(**kwargs):
    """A CommandCenterServer on a background thread, bound to port 0."""
    server = CommandCenterServer(port=0, **kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(10.0), "server failed to bind"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(10.0)
        assert not thread.is_alive(), "server thread failed to stop"


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """``{kind: payload}`` for the three manifest kinds, built once."""
    engine = ExperimentEngine(telemetry=True)
    engine.run(RunPlan.comparison(fig5.spec(scale=0.05, seed=0), ("our-scheme",)))

    pois = PoIList.from_points([Point(54.0, 34.0), Point(400.0, 400.0)])
    wal_dir = tmp_path_factory.mktemp("wal")
    persistence = PersistenceConfig(wal_dir=wal_dir, fsync="off")
    with running_server(pois=pois, persistence=persistence) as server:
        with ServiceClient(*server.address) as client:
            client.ingest(1, make_photo(10.0, 10.0, -30.0, owner_id=1), now=0.0)

    plan = LoadPlan(
        name="rules",
        seed=3,
        stages=(LoadStage(name="hold", duration_s=0.3, rate=20.0, concurrency=2),),
        workload=WorkloadSpec(users=6),
        slo=SLOSpec(max_p99_s=None, max_error_rate=None, min_rate_attainment=None),
        op_timeout_s=10.0,
    )
    with running_server(pois=pois, time_policy="clamp") as load_server:
        result = run_load(plan, *load_server.address)
    return {
        "run": engine.last_manifest,
        "service": server.last_manifest,
        "load": build_load_report(result),
    }


def _parent(payload, path):
    for step in path[:-1]:
        payload = payload[step]
    return payload


def put(*path, value):
    def mutate(payload):
        _parent(payload, path)[path[-1]] = value
    return mutate


def drop(*path):
    def mutate(payload):
        del _parent(payload, path)[path[-1]]
    return mutate


def flip_passed(payload):
    payload["slo"]["violations"] = []
    payload["slo"]["passed"] = False


def bump_ok(payload):
    payload["accounting"]["ok"] += 1


def first_op(payload):
    return next(iter(payload["ops"]))


def op_rule(make):
    """A mutation on the report's first op kind (known only at run time)."""
    def mutate(payload):
        make(first_op(payload))(payload)
    return mutate


CHAMPION = ("variants", "champion")
PERSISTENCE = CHAMPION + ("persistence",)
RECOVERY = PERSISTENCE + ("recovery",)

#: ``(kind, case id, mutation, substring the error must contain)``.
RULES = [
    # engine-run manifest
    ("run", "missing-key", drop("plan_hash"), "'plan_hash'"),
    ("run", "schema-version", put("schema_version", value=99), "schema_version"),
    ("run", "generator-type", put("generator", value=7), "generator"),
    ("run", "plan-hash-nonhex", put("plan_hash", value="nothex"), "plan_hash"),
    ("run", "plan-hash-upper", put("plan_hash", value="A" * 64), "plan_hash"),
    ("run", "schemes-empty", put("schemes", value=[]), "schemes"),
    ("run", "schemes-item-type", put("schemes", value=[3]), "schemes"),
    ("run", "seeds-empty", put("seeds", value=[]), "seeds"),
    ("run", "seeds-item-type", put("seeds", value=["0"]), "seeds"),
    ("run", "units-empty", put("units", value=[]), "units"),
    ("run", "unit-type", put("units", 0, value=5), "units[0]"),
    ("run", "unit-missing-key", drop("units", 0, "scheme"), "units[0] missing 'scheme'"),
    ("run", "duration-negative", put("units", 0, "duration_s", value=-1.0),
     "units[0].duration_s"),
    ("run", "duration-nan", put("units", 0, "duration_s", value=math.nan),
     "units[0].duration_s"),
    ("run", "duration-bool", put("units", 0, "duration_s", value=True),
     "units[0].duration_s"),
    ("run", "cached-type", put("units", 0, "cached", value="yes"), "units[0].cached"),
    ("run", "telemetry-type", put("units", 0, "telemetry", value=[]),
     "units[0].telemetry"),
    ("run", "telemetry-missing-key", drop("units", 0, "telemetry", "coverage_curve"),
     "units[0].telemetry missing 'coverage_curve'"),
    ("run", "timings-type", put("timings", value=[]), "timings"),
    ("run", "timings-missing-key", drop("timings", "total_unit_s"),
     "timings missing 'total_unit_s'"),
    ("run", "metrics-type", put("metrics", value=[]), "metrics"),
    ("run", "metric-family-shape",
     put("metrics", "repro_contacts_total", value={"kind": "counter"}),
     "metrics['repro_contacts_total']"),
    ("run", "coverage-type", put("coverage_over_time", value=[]), "coverage_over_time"),
    # service-session manifest
    ("service", "missing-key", drop("routing"), "'routing'"),
    ("service", "schema-version", put("schema_version", value=99), "schema_version"),
    ("service", "kind-constant", put("kind", value="bogus"), "kind"),
    ("service", "generator-type", put("generator", value=None), "generator"),
    ("service", "routing-type", put("routing", value="x"), "routing"),
    ("service", "routing-missing-key", drop("routing", "fallbacks"),
     "routing missing 'fallbacks'"),
    ("service", "variants-empty", put("variants", value={}), "variants"),
    ("service", "variant-type", put(*CHAMPION, value=3), "variants['champion']"),
    ("service", "variant-missing-key", drop(*CHAMPION, "latency"),
     "variants['champion'] missing 'latency'"),
    ("service", "persistence-type", put(*PERSISTENCE, value=3),
     "variants['champion'].persistence"),
    ("service", "persistence-missing-key", drop(*PERSISTENCE, "fsync"),
     "variants['champion'].persistence missing 'fsync'"),
    ("service", "persistence-missing-recovery", drop(*PERSISTENCE, "recovery"),
     "variants['champion'].persistence missing 'recovery'"),
    ("service", "recovery-type", put(*RECOVERY, value=3),
     "variants['champion'].persistence.recovery"),
    ("service", "recovery-missing-key", drop(*RECOVERY, "duration_s"),
     "variants['champion'].persistence.recovery missing 'duration_s'"),
    ("service", "metrics-type", put("metrics", value=[]), "metrics"),
    # load-report manifest
    ("load", "missing-key", drop("accounting"), "'accounting'"),
    ("load", "schema-version", put("schema_version", value=99), "schema_version"),
    ("load", "kind-constant", put("kind", value="bogus"), "kind"),
    ("load", "generated-by-type", put("generated_by", value=1), "generated_by"),
    ("load", "plan-type", put("plan", value=[]), "plan"),
    ("load", "plan-missing-stages", drop("plan", "stages"), "plan"),
    ("load", "target-missing-port", drop("target", "port"), "target"),
    ("load", "duration-negative", put("wall_duration_s", value=-1.0), "wall_duration_s"),
    ("load", "duration-nan", put("wall_duration_s", value=math.nan), "wall_duration_s"),
    ("load", "duration-type", put("wall_duration_s", value="1"), "wall_duration_s"),
    ("load", "stages-type", put("stages", value={}), "stages"),
    ("load", "stage-type", put("stages", 0, value=1), "stages[0]"),
    ("load", "stage-missing-key", drop("stages", 0, "attainment"),
     "stages[0] missing 'attainment'"),
    ("load", "stage-samples-type", put("stages", 0, "samples", value={}),
     "stages[0].samples"),
    ("load", "ops-type", put("ops", value=[]), "ops"),
    ("load", "op-type", op_rule(lambda op: put("ops", op, value=1)), "ops['{op}']"),
    ("load", "op-missing-key", op_rule(lambda op: drop("ops", op, "p99_s")),
     "ops['{op}'] missing 'p99_s'"),
    ("load", "accounting-type", put("accounting", value=[]), "accounting"),
    ("load", "accounting-missing-key", drop("accounting", "reconnects"),
     "accounting missing 'reconnects'"),
    ("load", "accounting-identity", bump_ok, "accounting identity"),
    ("load", "slo-type", put("slo", value=[]), "slo"),
    ("load", "slo-missing-key", drop("slo", "thresholds"), "slo missing 'thresholds'"),
    ("load", "slo-passed-type", put("slo", "passed", value="yes"), "slo.passed"),
    ("load", "slo-violations-type", put("slo", "violations", value="none"),
     "slo.violations"),
    ("load", "slo-verdict", flip_passed, "slo.passed"),
]


@pytest.mark.parametrize("kind", ["run", "service", "load"])
def test_real_manifests_are_valid(manifests, kind):
    assert validate_manifest(manifests[kind]) == []


@pytest.mark.parametrize(
    "kind, mutate, expected",
    [pytest.param(kind, mutate, expected, id=f"{kind}-{case}")
     for kind, case, mutate, expected in RULES],
)
def test_each_rule_rejects_its_damage(manifests, kind, mutate, expected):
    payload = copy.deepcopy(manifests[kind])
    mutate(payload)
    if "{op}" in expected:
        expected = expected.format(op=first_op(payload))
    errors = validate_manifest(payload)
    assert errors, "damaged manifest passed validation"
    assert any(expected in error for error in errors), errors


def test_non_object_payload_is_rejected():
    assert validate_manifest([]) == ["manifest is not a JSON object"]


class TestClosedHoles:
    """Damage the hand-written validators used to let through."""

    @pytest.mark.parametrize("field", [
        "sent", "ok", "service_error", "timeout", "connection_error", "killed",
        "reconnects",
    ])
    @pytest.mark.parametrize("value", ["7", True, -1, 1.5])
    def test_accounting_counts_must_be_non_negative_ints(
        self, manifests, field, value
    ):
        payload = copy.deepcopy(manifests["load"])
        payload["accounting"][field] = value
        errors = validate_manifest(payload)
        assert any(f"accounting.{field}" in error for error in errors), errors

    @pytest.mark.parametrize("base", ["run", "service", "load"])
    def test_unknown_kind_is_one_error(self, manifests, base):
        payload = dict(manifests[base], kind="service-sesion")
        assert validate_manifest(payload) == [
            "unknown manifest kind 'service-sesion'"
        ]

    def test_unhashable_kind_is_one_error(self):
        assert validate_manifest({"kind": ["load-report"]}) == [
            "unknown manifest kind ['load-report']"
        ]
