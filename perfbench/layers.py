"""Where the benchmark's spans go: one wrapper per layer boundary.

Each wrapper replaces the name its caller looks up -- a module attribute
for functions imported into a caller's namespace, a class attribute for
methods -- so the program itself carries no tracing code.  A module,
class or function that a later refactor removes is reported in
``Tracer.missing`` instead of crashing the run; its metrics then read 0.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Optional

from tracing import Tracer

SCHEME = "repro.routing.coverage_scheme"
SIMULATION = "repro.dtn.simulator:Simulation"
CACHE = "repro.metadata_mgmt.cache:MetadataCache"


def _patch(tracer: Tracer, owner_path: str, attr: str, name: str,
           observe: Optional[Callable[..., Any]] = None, leaf: bool = False) -> None:
    """Wrap ``attr`` of the module ``package.module`` or the class
    ``package.module:Class`` named by *owner_path*."""
    module_name, _, class_name = owner_path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        owner = None
    if owner is not None and class_name:
        owner = getattr(owner, class_name, None)
    if owner is None:
        tracer.missing.append(owner_path)
        return
    tracer.patch(owner, attr, name, observe, leaf)


def _arg(args: tuple, kwargs: Dict[str, Any], position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs.get(name)


def install_setup_layers(tracer: Tracer) -> None:
    """Spans around the scenario generators ``ScenarioSpec.build`` calls."""
    config = "repro.experiments.config"
    for attr in ("generate_trace", "mit_reality_like", "cambridge06_like",
                 "gateway_uplink_contacts"):
        _patch(tracer, config, attr, "setup.trace")
    _patch(tracer, config, "generate_photo_schedule", "setup.photo_schedule")


def install_sim_layers(tracer: Tracer) -> None:
    """Spans around the simulator seam and the routing/core layers."""

    def observe_reallocate(args: tuple, kwargs: Dict[str, Any]) -> None:
        photos_a = _arg(args, kwargs, 1, "photos_a") or ()
        photos_b = _arg(args, kwargs, 2, "photos_b") or ()
        pool = {p.photo_id for p in photos_a} | {p.photo_id for p in photos_b}
        tracer.sample("selection.reallocate.pool", len(pool))

    _patch(tracer, SCHEME, "greedy_reallocate", "selection.reallocate", observe_reallocate)
    _patch(tracer, SCHEME, "greedy_select", "selection.uplink")

    def observe_profile(args: tuple, kwargs: Dict[str, Any]) -> None:
        photos = _arg(args, kwargs, 2, "photos")
        if isinstance(photos, (list, tuple)):
            tracer.add_distinct("expected_coverage.profile", (
                _arg(args, kwargs, 1, "node_id"),
                frozenset(p.photo_id for p in photos),
                _arg(args, kwargs, 3, "delivery_probability"),
            ))

    # The scheme calls it by its own import; greedy_reallocate imports it
    # from the module at call time.
    for owner in (SCHEME, "repro.core.expected_coverage"):
        _patch(tracer, owner, "build_node_profile", "expected_coverage.profile",
               observe_profile)

    def observe_created(args: tuple, kwargs: Dict[str, Any]) -> Optional[Any]:
        sim, owner_id, photo = args[0], args[1], args[2]
        node = sim.nodes.get(owner_id)
        if node is None:
            return None
        storage = node.storage
        full = not storage.fits(photo)
        before = len(storage)

        def after(_result: Any) -> None:
            stored = photo.photo_id in storage
            if full:
                tracer.count("routing.photo_created.full_buffer")
                if stored:
                    tracer.count("routing.photo_created.admitted_full")
            tracer.count("routing.photo_created.evicted",
                         before + (1 if stored else 0) - len(storage))

        return after

    _patch(tracer, SIMULATION, "__init__", "dtn.simulator.init")
    _patch(tracer, SIMULATION, "run", "dtn.simulator")
    _patch(tracer, SIMULATION, "handle_photo_created", "routing.photo_created",
           observe_created)
    _patch(tracer, SIMULATION, "handle_contact", "routing.contact")
    _patch(tracer, SIMULATION, "deliver", "coverage_index.deliver", leaf=True)
    _patch(tracer, "repro.routing.modified_spray", "individual_coverage",
           "routing.individual_coverage", leaf=True)
    for attr in ("record_encounter", "record_center_encounter"):
        _patch(tracer, "repro.routing.base:RoutingScheme", attr, "routing.prophet")
    for attr in ("build_transfer_plan", "execute_transfer_plan"):
        _patch(tracer, SCHEME, attr, "transfer")

    def observe_purge(args: tuple, kwargs: Dict[str, Any]) -> Any:
        return lambda removed: tracer.count("metadata_mgmt.cache.purged", removed or 0)

    def observe_valid(args: tuple, kwargs: Dict[str, Any]) -> Any:
        return lambda entries: tracer.count("metadata_mgmt.cache.valid_entries", len(entries))

    _patch(tracer, CACHE, "purge_stale", "metadata_mgmt.cache", observe_purge)
    _patch(tracer, CACHE, "valid_entries", "metadata_mgmt.cache", observe_valid)
    for attr in ("store", "merge_from", "get", "drop"):
        _patch(tracer, CACHE, attr, "metadata_mgmt.cache")


def install_service_layers(tracer: Tracer) -> None:
    """Spans around the service's codec, router, sessions and journal.
    Journal and snapshot counts come from the server's ``/metrics``."""
    server = "repro.service.server"
    _patch(tracer, server, "decode_message", "service.protocol.decode")
    _patch(tracer, server, "encode_message", "service.protocol.encode")
    _patch(tracer, "repro.service.router:SchemeRouter", "dispatch", "service.router.dispatch")
    session = "repro.service.session:ServiceSession"
    _patch(tracer, session, "ingest", "service.session.apply.ingest")
    _patch(tracer, session, "contact", "service.session.apply.contact")
    _patch(tracer, session, "select_on_contact", "service.session.apply.select")

    def observe_save(args: tuple, kwargs: Dict[str, Any]) -> Any:
        return lambda size: tracer.count("service.persistence.snapshot.bytes", size or 0)

    wal = "repro.service.persistence:WriteAheadLog"
    _patch(tracer, wal, "append", "service.persistence.journal")
    _patch(tracer, "repro.service.persistence:SnapshotStore", "save",
           "service.persistence.snapshot", observe_save)
    # Compaction restarts the journal right after the snapshot is saved.
    _patch(tracer, wal, "reset", "service.persistence.snapshot")
