"""In-memory spans around calls into the program's layers.

A :class:`Tracer` replaces a function or method on the name its caller
looks it up by (a module attribute or a class attribute) with a wrapper
that records one span per call: name, start, end and the index of the
enclosing span.  Spans stay in memory, packed in an ``array``, and are
summarised or written out when the run ends.

A layer's *self time* is its span's duration minus the durations of its
direct child spans; over one root span the self times of all names add
up to the root's duration exactly (:func:`self_times`).

Functions called millions of times with nothing inside them worth a span
are wrapped as *leaves*: a leaf keeps only its total time and call
count, and charges its time to the enclosing span as child time, so the
arithmetic above still holds at a third of a span's cost.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "self_times", "Span"]

#: ``(name, start, end, parent, leaf_time)``; ``parent`` is an index into
#: the same sequence, or -1 for a root span; ``leaf_time`` is the time
#: leaf calls made directly inside the span took.
Span = Tuple[str, float, float, int, float]

_FIELDS = 5


def self_times(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per-name ``{"self_s", "total_s", "calls"}`` from a span list.

    ``total_s`` sums every span's duration, so a name that nests in
    itself counts the inner span twice there; ``self_s`` never does.
    """
    spans = list(spans)
    child_time = [leaf for *_rest, leaf in spans]
    for name, start, end, parent, _leaf in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _parent, _leaf) in enumerate(spans):
        row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += (end - start) - child_time[i]
        row["total_s"] += end - start
        row["calls"] += 1
    return out


class Tracer:
    """Records spans for wrapped callables; single-threaded by design.

    Both the simulator and the service process requests on one thread,
    so one stack of open spans is enough.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Five doubles per span: name id, parent index, start, end, leaf time.
        self._data = array("d")
        self.leaves: Dict[str, List[float]] = {}
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.distinct: Dict[str, set] = {}
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def add_distinct(self, key: str, value: Any) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def current(self) -> Optional[str]:
        """The name of the innermost open span, if any."""
        if not self._stack:
            return None
        return self.names[int(self._data[_FIELDS * self._stack[-1]])]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[..., Any]] = None,
    ) -> Callable[..., Any]:
        """*fn* with a span named *name* around every call.

        ``observe(args, kwargs)`` runs before the span opens and may
        return ``after(result)``, called once the span has closed; the
        time either takes is outside the span (it lands in the parent).
        """
        nid = float(self._name_id(name))
        data = self._data
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            after = observe(args, kwargs) if observe is not None else None
            index = len(data) // _FIELDS
            data.extend((nid, float(stack[-1]) if stack else -1.0, 0.0, 0.0, 0.0))
            stack.append(index)
            data[_FIELDS * index + 2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                data[_FIELDS * index + 3] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_leaf(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* timed as a leaf: total time and calls, no span."""
        totals = self.leaves.setdefault(name, [0.0, 0])
        data = self._data
        stack = self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                totals[0] += elapsed
                totals[1] += 1
                if stack:
                    data[_FIELDS * stack[-1] + 4] += elapsed

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[..., Any]] = None,
        leaf: bool = False,
    ) -> bool:
        """Wrap ``owner.attr`` in place; False (and noted) when absent."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
            owner, attr, None
        )
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        self._undo.append((owner, attr, original))
        wrapped = self.wrap_leaf(name, original) if leaf else self.wrap(name, original, observe)
        setattr(owner, attr, wrapped)
        return True

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def spans(self) -> List[Span]:
        return _unpack(self.names, self._data)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """:func:`self_times` of the spans, plus one row per leaf."""
        out = self_times(self.spans())
        for name, (elapsed, calls) in self.leaves.items():
            row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += elapsed
            row["total_s"] += elapsed
            row["calls"] += calls
        return out

    def reset(self) -> None:
        del self._data[:]
        self._stack.clear()
        self.counts.clear()
        self.samples.clear()
        self.distinct.clear()
        for totals in self.leaves.values():
            totals[:] = [0.0, 0]

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the spans to ``path + ".spans"`` (packed doubles: name id,
        parent, start, end, leaf time) and the rest to *path* as JSON."""
        with open(path + ".spans", "wb") as handle:
            self._data.tofile(handle)
        payload = {
            "names": self.names,
            "counts": self.counts,
            "samples": self.samples,
            "distinct": {key: len(values) for key, values in self.distinct.items()},
            "leaves": self.leaves,
            "missing": self.missing,
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _unpack(names: Sequence[str], data: Sequence[float]) -> List[Span]:
    return [
        (names[int(data[i])], data[i + 2], data[i + 3], int(data[i + 1]), data[i + 4])
        for i in range(0, len(data), _FIELDS)
    ]
