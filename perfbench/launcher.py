"""Start ``repro serve`` from the checkout's ``src`` with timed ``fsync``
calls, optionally traced.

Usage: ``python3 perfbench/launcher.py --dump PATH [--trace] <serve args>``.

The server process records the start and duration of every
``os.fsync`` -- the time its journal and snapshots wait on the disk,
which its CPU time leaves out -- and runs the speed probe of
``calib.py``, which tells how fast its CPU ran in any window.  With
``--trace`` the layer wrappers are installed before the server starts.
On ``SIGUSR1`` the launcher writes the ``fsync`` calls and the probe's
samples -- and, when traced, the spans and their per-layer summary -- to
PATH (atomically, via a temporary file), so the benchmark
can collect them from a server it is about to SIGKILL.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter
from typing import Any, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from calib import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] != ["--dump"]:
        print("usage: launcher.py --dump PATH [--trace] <serve args>", file=sys.stderr)
        return 2
    dump_path, argv = argv[1], argv[2:]
    tracer: Optional[Tracer] = None
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        import layers

        tracer = Tracer()
        layers.install_setup_layers(tracer)
        layers.install_sim_layers(tracer)
        layers.install_service_layers(tracer)

    probe = SpeedProbe()
    probe.start()
    fsyncs: List[Tuple[float, float]] = []
    fsync = os.fsync

    def timed_fsync(fd: Any) -> None:
        started = perf_counter()
        try:
            fsync(fd)
        finally:
            fsyncs.append((started, perf_counter() - started))

    # The journal and the snapshot store call it as ``os.fsync``.
    os.fsync = timed_fsync

    def dump(_signum: int, _frame: object) -> None:
        tmp = f"{dump_path}.tmp"
        extra = {"fsyncs": fsyncs, "probe": list(probe.samples)}
        if tracer is not None:
            tracer.dump(tmp, extra={**extra, "summary": tracer.summary()})
            os.replace(tmp + ".spans", dump_path + ".spans")
        else:
            with open(tmp, "w") as handle:
                json.dump(extra, handle)
        os.replace(tmp, dump_path)

    signal.signal(signal.SIGUSR1, dump)

    from repro.cli import main as cli_main

    return cli_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main())
