"""Host speed: a fixed reference load, timed between slices of the work.

On a shared virtual machine the same CPU-bound code runs at one of two
or three speeds up to 2x apart, switching every fraction of a second to
every few seconds at some times and holding one speed for many minutes
at others (see README, Host speed).  No statistic over a run absorbs a
speed that holds for the whole run, so the benchmark times this
reference load — interpreter work and small numpy calls, the
instruction mix of the workloads' Python layers, and none of the
program's code — every :data:`SLICE_NS` of work, and divides each
slice of work by the host's speed factor at its ends: the reference's
time over :data:`NOMINAL_NS`.

The figures are then in "reference-host" time: what the work takes on
a host where the reference takes :data:`NOMINAL_NS`.  A change to the
program moves them as it moves raw time; a change in host speed moves
the work and the reference alike and cancels.
"""

from __future__ import annotations

from time import perf_counter_ns, process_time_ns
from typing import List, NamedTuple, Sequence

import numpy as np

from perfbench.spans import Span, StepGaps

#: The reference's time at this VM's fast speed (2-vCPU x86-64 Xeon
#: VM, Python 3.11, numpy 2.4).  A constant: it sets the unit of the
#: normalized figures and cancels in every comparison.
NOMINAL_NS = 5_000_000

#: Reference loads per measurement; the median is taken.
REPEATS = 3

#: Work between two measurements: short against the host's speed
#: changes, long against a measurement (about 15 ms).
SLICE_NS = 100_000_000

_A = np.arange(32, dtype=np.uint64)
_B = _A[::-1].copy()
_X = np.empty(32, dtype=np.uint64)
_TABLE = dict.fromkeys(range(256), 0)


def _load() -> int:
    """The reference load: ~2.5 ms of dict and integer interpreter work
    and ~2.5 ms of numpy calls on 32-word arrays at the nominal speed.
    It allocates nothing, so it neither triggers nor depends on the
    program's garbage."""
    table = _TABLE
    acc = 0
    for i in range(7800):
        k = i & 255
        table[k] = (table[k] + i) & 0xFFFF
        acc = (acc * 31 + i) & 0xFFFFFFFF
    x = _X
    np.copyto(x, _A)
    for _ in range(2800):
        np.bitwise_and(x, _B, out=x)
        np.bitwise_xor(x, _A, out=x)
        np.invert(x, out=x)
    return acc ^ int(x[0])


def reference_ns() -> int:
    """Median time of :data:`REPEATS` reference loads, in ns."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        _load()
        times.append(perf_counter_ns() - t0)
    return sorted(times)[len(times) // 2]


def factor(refs_ns: Sequence[int]) -> float:
    """The host's speed factor over an interval, from the reference
    times measured at its ends (1.0 at the nominal speed, 2.0 when the
    host runs at half of it)."""
    return sum(refs_ns) / len(refs_ns) / NOMINAL_NS


class Pause(NamedTuple):
    """One reference measurement inside the work."""

    start: int
    end: int
    cpu_start: int
    cpu_end: int
    ref: int
    #: Steps (generations) recorded before it.
    steps: int


class HostClock(StepGaps):
    """The generation clock, pausing the work every :data:`SLICE_NS`
    to time the reference.

    The pause runs between two steps (generations), in the evolve loop's
    own thread, and is taken out of the step it falls in.
    """

    def __init__(self, outer: str, step: str) -> None:
        super().__init__(outer, step)
        self.pauses: List[Pause] = []
        self._due = 0

    def append(self, span: Span) -> None:
        super().append(span)
        _, parent, name, _, _ = span
        start = perf_counter_ns()
        if name != self.step or not parent or start < self._due:
            return
        cpu_start = process_time_ns()
        ref = reference_ns()
        end = perf_counter_ns()
        self.pauses.append(Pause(start, end, cpu_start, process_time_ns(),
                                 ref, len(self.gaps)))
        self._last[parent] += end - start
        self._due = end + SLICE_NS


class Segment(NamedTuple):
    """Work between two reference measurements."""

    wall: int
    cpu: int
    factor: float
    #: Steps recorded in it: ``gaps[lo:hi]``.
    lo: int
    hi: int


def segments(start: Pause, pauses: Sequence[Pause],
             end: Pause) -> List[Segment]:
    """Cut one timed call into the work between its measurements.

    ``start`` and ``end`` are the measurements just outside the call,
    with ``start.end``/``end.start`` (and the CPU readings) at the
    call's edges.
    """
    points = [start, *pauses, end]
    return [
        Segment(b.start - a.end, b.cpu_start - a.cpu_end,
                factor([a.ref, b.ref]), a.steps, b.steps)
        for a, b in zip(points, points[1:])
    ]
