"""Observability: metrics registry, simulation telemetry, and manifests.

Two layers, composable and individually usable:

* :mod:`repro.obs.registry` -- a dependency-free, Prometheus-shaped
  metrics registry (counters, gauges, histograms, timers; labeled
  children; JSON and Prometheus-text export) with a zero-overhead
  disabled mode (:data:`~repro.obs.registry.NULL_REGISTRY`).
* :mod:`repro.obs.telemetry` -- :class:`~repro.obs.telemetry.SimTelemetry`,
  the hook set the DTN simulator, core algorithms, and metadata cache
  feed, including the per-phase wall-clock timers
  ``repro_phase_seconds{phase=selection|expected_coverage|transfer}``;
  plus the :class:`~repro.obs.telemetry.SimulationObserver` protocol
  shared with the structured event log.

:mod:`repro.obs.manifest` aggregates all of it across an experiment
engine run plan into a validated ``manifest.json``; the same
:func:`~repro.obs.manifest.validate_manifest` checks service-session
manifests and load reports, dispatching on their ``kind``.

Enable from the CLI with ``--telemetry`` on any engine-backed command,
inspect with ``repro metrics <manifest.json>``, or programmatically::

    from repro.obs import SimTelemetry
    from repro.experiments.runner import run_spec

    telemetry = SimTelemetry()
    result = run_spec(spec, "our-scheme", telemetry=telemetry)
    print(telemetry.registry.to_prometheus())
"""

from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    SERVICE_MANIFEST_SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    build_service_manifest,
    ensure_valid_manifest,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from .registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    registry_from_snapshot,
)
from .runtime import activated, active_telemetry
from .telemetry import TELEMETRY_SCHEMA_VERSION, SimTelemetry, SimulationObserver

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "registry_from_snapshot",
    "SimTelemetry",
    "SimulationObserver",
    "TELEMETRY_SCHEMA_VERSION",
    "activated",
    "active_telemetry",
    "ManifestError",
    "MANIFEST_SCHEMA_VERSION",
    "SERVICE_MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "build_service_manifest",
    "ensure_valid_manifest",
    "load_manifest",
    "validate_manifest",
    "write_manifest",
]
