"""In-memory span tracing around the program's layer boundaries.

A :class:`Tracer` replaces a function at the name its caller looks up
(a module global or a class attribute) with a wrapper that records one
span per call: ``(id, parent id, layer name, start ns, end ns)``.
Spans stay in memory until the run ends; nothing is written while the
program runs.  :func:`self_times` then gives each span its duration
minus the time its child spans cover.  :class:`StepGaps` is a sink that
keeps only step latencies, for a clock whose memory must not grow with
the work it times.
"""

from __future__ import annotations

import functools
import itertools
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Tuple

#: (span id, parent id or 0, layer name, start ns, end ns)
Span = Tuple[int, int, str, int, int]

_MISSING = object()


class Tracer:
    """Records spans from wrapped functions; :meth:`restore` unwraps.

    ``spans`` receives each span as it ends (anything with ``append``);
    by default a list.
    """

    def __init__(self, spans=None) -> None:
        self.spans = [] if spans is None else spans
        #: Extra per-layer counts (e.g. kernel lanes), keyed by name.
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))

        return traced

    def patch(self, owner: object, attr: str, name: str,
              count: Callable = None) -> None:
        """Wrap ``owner.attr`` (module global or class attribute).

        ``count(*args, **kwargs)``, when given, adds its result to
        ``counts[name]`` on every call, for work counts that differ
        from the call count.
        """
        own = vars(owner).get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr)
        fn = getattr(owner, attr)
        traced = self.wrap(name, fn)
        if count is not None:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += count(*args, **kwargs)
                return traced(*args, **kwargs)

            replacement = counted
        else:
            replacement = traced
        setattr(owner, attr, replacement)
        if own is _MISSING:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, own))

    def patch_frozen(self, obj: object, attr: str, name: str) -> None:
        """Wrap an attribute of a frozen dataclass instance."""
        own = getattr(obj, attr)
        object.__setattr__(obj, attr, self.wrap(name, own))
        self._undo.append(lambda: object.__setattr__(obj, attr, own))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()


class StepGaps:
    """A span sink that keeps only the latencies of steps.

    A step runs from the start of one ``step`` span to the start of the
    next with the same ``outer`` parent span; the last runs to the end
    of that parent.  With ``outer`` the evolve loop and ``step`` the
    call it makes once per generation, the steps are the generations.
    Spans arrive as they end, so a parent arrives after its steps.
    """

    def __init__(self, outer: str, step: str) -> None:
        self.outer = outer
        self.step = step
        #: Step latencies in ns, 8 bytes each.
        self.gaps = array("q")
        #: ``outer`` spans seen.
        self.outers = 0
        self._last: Dict[int, int] = {}

    def append(self, span: Span) -> None:
        sid, parent, name, t0, t1 = span
        if name == self.step and parent:
            last = self._last.get(parent)
            if last is not None:
                self.gaps.append(t0 - last)
            self._last[parent] = t0
        elif name == self.outer:
            self.outers += 1
            last = self._last.pop(sid, None)
            if last is not None:
                self.gaps.append(t1 - last)


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children (possible when a child's thread outlives a call) count
    once.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        if parent:
            children[parent].append((t0, t1))
    out: Dict[int, int] = {}
    for sid, _, _, t0, t1 in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            lo = max(c0, end)
            hi = min(c1, t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[sid] = (t1 - t0) - covered
    return out


def layer_totals(spans: Iterable[Span]) -> Dict[str, Tuple[int, int]]:
    """``{layer: (calls, self ns)}`` summed over all spans."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for sid, _, name, _, _ in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += own[sid]
    return {name: (c, ns) for name, (c, ns) in totals.items()}
