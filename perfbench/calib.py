"""Machine-speed calibration for the simulation timings.

On a shared virtual machine the same pure-Python work runs up to half
again slower in some minutes than in others, and a run of tens of
seconds cannot average that away.  A :class:`SpeedProbe` runs a fixed
snippet of interpreter work from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds, on the same CPU and between the same bytecodes
as the measured code, and records how long it took.  A timing divided by
the median snippet time inside its own window and multiplied by
``REFERENCE_S`` is in *reference seconds*: the time the work would take
on a machine where the snippet takes ``REFERENCE_S``.  The probe costs
well under 1% of the run.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

INTERVAL_S = 0.05
#: Snippet time of the reference machine (2-vCPU x86-64, Python 3.11).
REFERENCE_S = 200e-6


def snippet() -> Dict[int, int]:
    """Dictionary updates and integer arithmetic: the interpreter work
    that dominates the simulator."""
    table: Dict[int, int] = {}
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0) + i
    return table


class SpeedProbe:
    """Samples the snippet's duration while started."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def _tick(self, _signum: int, _frame: object) -> None:
        started = perf_counter()
        snippet()
        self.samples.append((started, perf_counter() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        return scale(self.samples, start, end)


def scale(samples: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """``REFERENCE_S`` over the median snippet time of the (start,
    duration) *samples* in [start, end] (widened to the nearest samples
    when the window holds none)."""
    inside = [d for t, d in samples if start <= t <= end]
    if not inside:
        inside = [d for _t, d in sorted(samples, key=lambda s: abs(s[0] - start))[:3]]
    return REFERENCE_S / statistics.median(inside) if inside else 1.0
