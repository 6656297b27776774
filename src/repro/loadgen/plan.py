"""Load plans: the declarative description of one load-generation run.

A :class:`LoadPlan` is a list of :class:`LoadStage` entries executed in
order -- the classic ramp/hold/drain shape -- plus the workload source
(synthetic arrival processes or a replayed scenario trace), the SLO
thresholds the run is gated on, and an optional client-side chaos spec.
Plans round-trip through JSON (``LoadPlan.to_dict`` /
``LoadPlan.from_dict``), ship with two built-ins (``smoke`` for CI,
``soak`` for longer chaos runs), and are validated eagerly at
construction so a malformed plan fails before any socket is opened.

Stage semantics (see docs/LOADGEN.md):

* ``steady`` -- open-loop Poisson arrivals at ``rate`` per second.
* ``ramp``  -- arrival rate interpolates linearly from ``rate_start``
  to ``rate`` over the stage (Lewis thinning, so the process stays
  Poisson at every instant).
* ``bursty`` -- incident-clustered traffic after Hamrouni et al.'s
  event-reporting profile: a Poisson background carries
  ``1 - burst.share`` of the offered rate, the rest arrives in incident
  bursts whose photos cluster spatially around the incident epicenter.

The offered rate is *open loop*: arrivals are scheduled by the wall
clock regardless of how fast the server answers, which is what makes
the achieved-vs-offered gap a capacity measurement.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "STAGE_PROCESSES",
    "StageMix",
    "BurstSpec",
    "LoadStage",
    "SLOSpec",
    "ChaosSpec",
    "WorkloadSpec",
    "LoadPlan",
    "BUILTIN_PLANS",
    "builtin_plan",
    "resolve_plan",
]

#: Arrival processes a stage can run.
STAGE_PROCESSES = ("steady", "ramp", "bursty")


def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_non_negative(name: str, value: float) -> None:
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class StageMix:
    """Relative op-mix weights for one stage (normalized at use)."""

    ingest: float = 0.40
    contact: float = 0.45
    select: float = 0.15

    def __post_init__(self) -> None:
        for name in ("ingest", "contact", "select"):
            _check_non_negative(f"mix.{name}", getattr(self, name))
        if self.ingest + self.contact + self.select <= 0.0:
            raise ValueError("stage mix must have at least one positive weight")

    def normalized(self) -> Tuple[float, float, float]:
        total = self.ingest + self.contact + self.select
        return (self.ingest / total, self.contact / total, self.select / total)


@dataclass(frozen=True)
class BurstSpec:
    """Incident-clustered arrival parameters for ``bursty`` stages.

    ``share`` of the stage's offered rate arrives in bursts; incidents
    fire as a Poisson process sized so the mean burst contributes
    ``size_mean`` arrivals over ``duration_s`` seconds, and every burst
    photo is taken within ``cluster_radius_m`` of the incident epicenter
    (the spatially clustered event-reporting workload).
    """

    share: float = 0.5
    size_mean: float = 12.0
    duration_s: float = 2.0
    cluster_radius_m: float = 150.0

    def __post_init__(self) -> None:
        _check_fraction("burst.share", self.share)
        _check_positive("burst.size_mean", self.size_mean)
        _check_positive("burst.duration_s", self.duration_s)
        _check_positive("burst.cluster_radius_m", self.cluster_radius_m)


@dataclass(frozen=True)
class LoadStage:
    """One stage of the plan: a duration, a rate profile, a worker count.

    ``gate_rate`` marks the stage for SLO rate-attainment checking
    (typically the hold stage): the run fails when the stage's achieved
    completion rate falls below ``slo.min_rate_attainment`` of offered.
    """

    name: str
    duration_s: float
    rate: float
    process: str = "steady"
    rate_start: Optional[float] = None
    concurrency: int = 4
    mix: StageMix = field(default_factory=StageMix)
    burst: Optional[BurstSpec] = None
    gate_rate: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        _check_positive(f"stage {self.name!r} duration_s", self.duration_s)
        _check_non_negative(f"stage {self.name!r} rate", self.rate)
        if self.process not in STAGE_PROCESSES:
            raise ValueError(
                f"stage {self.name!r} process must be one of {STAGE_PROCESSES}, "
                f"got {self.process!r}"
            )
        if self.concurrency < 1:
            raise ValueError(
                f"stage {self.name!r} concurrency must be >= 1, got {self.concurrency}"
            )
        if self.process == "ramp":
            if self.rate_start is None:
                raise ValueError(f"ramp stage {self.name!r} requires rate_start")
            _check_non_negative(f"stage {self.name!r} rate_start", self.rate_start)
        elif self.rate_start is not None:
            raise ValueError(
                f"stage {self.name!r}: rate_start is only meaningful for ramp stages"
            )
        if self.process == "bursty" and self.burst is None:
            object.__setattr__(self, "burst", BurstSpec())

    def rate_at(self, t: float) -> float:
        """The instantaneous offered rate *t* seconds into the stage."""
        if self.process == "ramp":
            assert self.rate_start is not None
            fraction = min(1.0, max(0.0, t / self.duration_s))
            return self.rate_start + (self.rate - self.rate_start) * fraction
        return self.rate

    def expected_arrivals(self) -> float:
        """The stage's expected open-loop arrival count."""
        if self.process == "ramp":
            assert self.rate_start is not None
            return 0.5 * (self.rate_start + self.rate) * self.duration_s
        return self.rate * self.duration_s


@dataclass(frozen=True)
class SLOSpec:
    """Thresholds that turn a load run into a pass/fail gate.

    ``None`` disables a check.  ``max_p99_s`` applies per op kind over
    the whole run, ``max_error_rate`` to the run's total error fraction,
    and ``min_rate_attainment`` to every ``gate_rate`` stage's
    achieved/offered completion ratio.
    """

    max_p99_s: Optional[float] = None
    max_error_rate: Optional[float] = None
    min_rate_attainment: Optional[float] = 0.9

    def __post_init__(self) -> None:
        if self.max_p99_s is not None:
            _check_positive("slo.max_p99_s", self.max_p99_s)
        if self.max_error_rate is not None:
            _check_fraction("slo.max_error_rate", self.max_error_rate)
        if self.min_rate_attainment is not None:
            _check_fraction("slo.min_rate_attainment", self.min_rate_attainment)

    @property
    def enabled(self) -> bool:
        return any(
            value is not None
            for value in (self.max_p99_s, self.max_error_rate, self.min_rate_attainment)
        )


@dataclass(frozen=True)
class ChaosSpec:
    """Client-side fault injection (the server side is a FaultPlan).

    Each worker draws exponential connection-kill instants at mean
    interval ``kill_every_s``: the next request on a due connection is
    written and the socket is then torn down *before reading the
    response*, exercising the server's half-closed-connection path; the
    worker reconnects and keeps going.  ``None`` disables kills.
    """

    kill_every_s: Optional[float] = None
    reconnect_delay_s: float = 0.02

    def __post_init__(self) -> None:
        if self.kill_every_s is not None:
            _check_positive("chaos.kill_every_s", self.kill_every_s)
        _check_non_negative("chaos.reconnect_delay_s", self.reconnect_delay_s)

    @property
    def enabled(self) -> bool:
        return self.kill_every_s is not None


@dataclass(frozen=True)
class WorkloadSpec:
    """Where the ops come from and what they look like.

    ``synthetic`` draws users, photos, and contacts from seeded stdlib
    streams, keeping the load generator dependency-free;
    ``replay`` feeds a built scenario's event stream in simulator order,
    with the stage rates acting as the replay rate multiplier (the trace
    supplies *what*, the stage supplies *how fast*).
    """

    source: str = "synthetic"
    users: int = 50
    region_m: float = 1500.0
    photo_size_bytes: int = 4 * 1024 * 1024
    contact_duration_s: float = 300.0
    select_duration_s: float = 600.0
    # replay-only knobs (must match the target server's world):
    trace_name: str = "mit"
    scale: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "replay"):
            raise ValueError(
                f"workload source must be 'synthetic' or 'replay', got {self.source!r}"
            )
        if self.users < 2:
            raise ValueError(f"workload needs >= 2 users, got {self.users}")
        _check_positive("workload.region_m", self.region_m)
        _check_positive("workload.contact_duration_s", self.contact_duration_s)
        _check_positive("workload.select_duration_s", self.select_duration_s)
        if self.photo_size_bytes <= 0:
            raise ValueError(
                f"workload.photo_size_bytes must be positive, got {self.photo_size_bytes}"
            )


@dataclass(frozen=True)
class LoadPlan:
    """The full description of one load-generation run.

    ``time_scale`` maps wall seconds to virtual (request-timestamp)
    seconds for synthetic workloads -- 60 means one wall second advances
    the service world by a virtual minute, so contact durations measured
    in virtual minutes stay meaningful at wall-clock request rates.
    """

    name: str = "custom"
    seed: int = 0
    stages: Tuple[LoadStage, ...] = ()
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    slo: SLOSpec = field(default_factory=SLOSpec)
    chaos: ChaosSpec = field(default_factory=ChaosSpec)
    op_timeout_s: float = 5.0
    time_scale: float = 60.0

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a load plan needs at least one stage")
        if isinstance(self.stages, list):
            object.__setattr__(self, "stages", tuple(self.stages))
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        _check_positive("op_timeout_s", self.op_timeout_s)
        _check_positive("time_scale", self.time_scale)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["stages"] = list(payload["stages"])
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LoadPlan":
        if not isinstance(payload, dict):
            raise ValueError(f"load plan must be an object, got {type(payload).__name__}")
        data = dict(payload)
        try:
            stages = tuple(
                _stage_from_dict(entry) for entry in data.pop("stages", [])
            )
            workload = WorkloadSpec(**data.pop("workload", {}) or {})
            slo = SLOSpec(**data.pop("slo", {}) or {})
            chaos = ChaosSpec(**data.pop("chaos", {}) or {})
        except TypeError as exc:
            raise ValueError(f"invalid load plan: {exc}") from None
        try:
            return cls(stages=stages, workload=workload, slo=slo, chaos=chaos, **data)
        except TypeError as exc:
            raise ValueError(f"invalid load plan: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "LoadPlan":
        return cls.from_dict(json.loads(text))

    def scaled(self, duration_scale: float) -> "LoadPlan":
        """The same plan with every stage duration multiplied."""
        _check_positive("duration_scale", duration_scale)
        if duration_scale == 1.0:
            return self
        stages = tuple(
            replace(stage, duration_s=stage.duration_s * duration_scale)
            for stage in self.stages
        )
        return replace(self, stages=stages)

    def total_duration_s(self) -> float:
        return sum(stage.duration_s for stage in self.stages)

    def max_concurrency(self) -> int:
        return max(stage.concurrency for stage in self.stages)


def _stage_from_dict(entry: Dict[str, Any]) -> LoadStage:
    if not isinstance(entry, dict):
        raise ValueError(f"stage must be an object, got {type(entry).__name__}")
    data = dict(entry)
    mix = data.pop("mix", None)
    burst = data.pop("burst", None)
    try:
        if mix is not None:
            data["mix"] = StageMix(**mix)
        if burst is not None:
            data["burst"] = BurstSpec(**burst)
        return LoadStage(**data)
    except TypeError as exc:
        raise ValueError(f"invalid stage: {exc}") from None


# ----------------------------------------------------------------------
# Built-in plans
# ----------------------------------------------------------------------


def _smoke_plan() -> LoadPlan:
    """The CI smoke shape: ~10 s ramp/hold/drain with SLO gating."""
    return LoadPlan(
        name="smoke",
        stages=(
            LoadStage(name="ramp", duration_s=3.0, process="ramp",
                      rate_start=5.0, rate=40.0, concurrency=4),
            LoadStage(name="hold", duration_s=6.0, rate=40.0, concurrency=4,
                      gate_rate=True),
            LoadStage(name="drain", duration_s=1.5, rate=5.0, concurrency=2),
        ),
        workload=WorkloadSpec(users=40),
        slo=SLOSpec(max_p99_s=1.0, max_error_rate=0.01, min_rate_attainment=0.9),
    )


def _soak_plan() -> LoadPlan:
    """A chaos soak: bursty hold under connection kills (pair it with a
    server booted under a fault plan for the full chaos story)."""
    return LoadPlan(
        name="soak",
        stages=(
            LoadStage(name="ramp", duration_s=5.0, process="ramp",
                      rate_start=5.0, rate=60.0, concurrency=6),
            LoadStage(name="hold", duration_s=30.0, process="bursty", rate=60.0,
                      concurrency=6, burst=BurstSpec(share=0.5, size_mean=12.0),
                      gate_rate=True),
            LoadStage(name="drain", duration_s=3.0, rate=5.0, concurrency=2),
        ),
        workload=WorkloadSpec(users=80),
        slo=SLOSpec(max_p99_s=2.5, max_error_rate=0.05, min_rate_attainment=0.85),
        chaos=ChaosSpec(kill_every_s=4.0),
    )


BUILTIN_PLANS = {"smoke": _smoke_plan, "soak": _soak_plan}


def builtin_plan(name: str) -> LoadPlan:
    try:
        return BUILTIN_PLANS[name]()
    except KeyError:
        raise ValueError(
            f"unknown built-in plan {name!r}; known: {sorted(BUILTIN_PLANS)}"
        ) from None


def resolve_plan(spec: Union[str, Path]) -> LoadPlan:
    """A plan from a built-in name or a JSON file path."""
    text = str(spec)
    if text in BUILTIN_PLANS:
        return builtin_plan(text)
    path = Path(spec)
    if path.exists():
        return LoadPlan.from_json(path.read_text(encoding="utf-8"))
    raise ValueError(
        f"no such plan: {text!r} is neither a built-in "
        f"({sorted(BUILTIN_PLANS)}) nor an existing JSON file"
    )
