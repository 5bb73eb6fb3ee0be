"""What each workload runs, derived from the workload seed alone.

Nothing here imports the program: the orchestrator, the workload
processes and the tests share these definitions, and the program only
ever receives the inputs generated from them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from perfbench.summary import min_samples

#: Workload names, in the order ``--workload all`` runs them.
WORKLOADS = ("evolve-d2-w8", "evolve-sampled-w16", "library-build",
             "serve-mixed")

#: The CLI's default error budget (``repro evolve --wmed-percent``).
THRESHOLD_PERCENT = 0.5

#: Latency samples a serve window needs so that its p99 has at least
#: ten samples beyond it.
MIN_LATENCY_SAMPLES = min_samples(99)

#: Workloads whose ``ops_per_s``, ``cpu_ms_per_op`` and
#: ``latency_p50_ms`` are reported in reference-host time (see
#: ``hostspeed.py``): their work is CPU-bound, so it runs slower or
#: faster with the host.  Not ``evolve-d2-w8``: with the program's
#: default thread pools its generations take whole multiples of the
#: native kernel's ~8 ms thread hand-off, which host speed hardly moves,
#: so dividing by the host's speed would move them instead.
#: ``setup_s`` is in reference-host time on every workload.
HOST_BOUND = frozenset({"evolve-sampled-w16", "library-build",
                        "serve-mixed"})

#: Length of one ``serve-mixed`` slice: the connections pause between
#: slices while the server process times the host-speed reference.
SERVE_SLICE_S = 0.1


@dataclass(frozen=True)
class EvolveSpec:
    """Repeated single-target ``evolve()`` runs of one multiplier."""

    width: int
    generations: int
    #: Distinct per-run seeds; runs cycle through them, so every later
    #: run is checked against the first run of its seed, and each first
    #: run is replayed on the interpreted objective (``engine="off"``).
    #: ``design_area_um2`` is their mean, so more seeds narrow its
    #: seed-to-seed spread; each costs one replay.
    distinct_seeds: int
    #: ``(samples, replicates)`` for ``--eval sampled``, else None.
    sample: Optional[Tuple[int, int]]


EVOLVE = {
    "evolve-d2-w8": EvolveSpec(
        width=8, generations=300, distinct_seeds=3, sample=None,
    ),
    "evolve-sampled-w16": EvolveSpec(
        width=16, generations=100, distinct_seeds=2, sample=(512, 4),
    ),
}


@dataclass(frozen=True)
class GridSpec:
    """The ``library-build`` grid (also the store ``serve-mixed`` reads)."""

    components: Tuple[str, ...] = ("multiplier", "adder")
    metrics: Tuple[str, ...] = ("wmed", "mred")
    width: int = 6
    thresholds_percent: Tuple[float, ...] = (0.5, 1.0, 2.0, 5.0)
    dist: str = "uniform"
    generations: int = 250

    @property
    def cells(self) -> int:
        return (len(self.components) * len(self.metrics)
                * len(self.thresholds_percent))


GRID = GridSpec()


def derive_seed(seed: int, purpose: str) -> int:
    """A 32-bit seed for one use of the workload seed."""
    digest = hashlib.blake2b(
        f"perfbench/{purpose}/{seed}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "little")


def evolve_seeds(seed: int, spec: EvolveSpec) -> List[int]:
    """The distinct per-run evolve seeds of one workload seed."""
    return [derive_seed(seed, f"evolve/{i}")
            for i in range(spec.distinct_seeds)]


# ----------------------------------------------------------------------
# serve-mixed request mix
# ----------------------------------------------------------------------
HOT, REVALIDATE, BUDGET, VERILOG = "hot", "revalidate", "budget", "verilog"

#: Share of each request kind in the mix.  No record of real traffic
#: exists, so these shares are assumptions, chosen for what the figures
#: must show: memo hits (hot and revalidations, 70 %) hold the median,
#: so ``latency_p50_ms`` is the memo path; full dispatches (25 %) are far
#: more than 1 %, so ``latency_p99_ms`` is the dispatch path and the
#: dispatch layers get a measurable share of server time; verilog
#: renders are rare (5 %), since each is a large body.
MIX = ((HOT, 0.45), (REVALIDATE, 0.25), (BUDGET, 0.25), (VERILOG, 0.05))

#: Expected status of each kind.
EXPECTED_STATUS = {HOT: 200, REVALIDATE: 304, BUDGET: 200, VERILOG: 200}

#: Share of requests whose body is kept and compared with the oracle.
BODY_SAMPLE = 0.02

#: Fresh verilog renders per (window, connection); later verilog
#: requests of the stream repeat its own targets and hit the memo.  An
#: assumption too: enough renders to load the render path, few enough
#: that the slowest requests do not set the window's length.
RENDERS_PER_STREAM = 48

#: Shortest design-id prefix a verilog request uses.
MIN_PREFIX = 12


@dataclass(frozen=True)
class Request:
    kind: str
    target: str
    #: Keep and check this response's body against the oracle.
    check: bool


def _groups() -> List[Tuple[str, str]]:
    return [(c, m) for c in GRID.components for m in GRID.metrics]


def hot_targets() -> List[str]:
    """Repeated catalog targets: served from the memo after warm-up."""
    out = []
    for component, metric in _groups():
        query = f"component={component}&width={GRID.width}&metric={metric}"
        out.append(f"/v1/best?{query}&max_error_percent=5")
        out.append(f"/v1/front?{query}")
    out.append("/v1/stats")
    return out


def verilog_pool(seed: int, design_ids: Sequence[str]) -> List[str]:
    """Every (design, prefix length) verilog target, seeded order."""
    pool = [
        f"/v1/designs/{design_id[:n]}?format=verilog"
        for design_id in sorted(set(design_ids))
        for n in range(MIN_PREFIX, len(design_id) + 1)
    ]
    random.Random(f"perfbench/verilog/{seed}").shuffle(pool)
    return pool


def request_stream(
    seed: int, window: int, conn: int, design_ids: Sequence[str]
) -> Iterator[Request]:
    """The endless, seeded request sequence of one connection.

    Window ``window`` (0 untraced, 1 traced) and connection ``conn``
    (0 or 1) get disjoint budgets and disjoint fresh verilog targets,
    so a full dispatch in one window is never a memo hit in another.
    """
    rng = random.Random(f"perfbench/serve/{seed}/{window}/{conn}")
    hot = hot_targets()
    groups = _groups()
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    pool = verilog_pool(seed, design_ids)
    renders = min(RENDERS_PER_STREAM, len(pool) // 4)
    stream_index = 2 * window + conn
    fresh = pool[stream_index * renders:(stream_index + 1) * renders]
    budgets = 0
    verilogs = 0
    while True:
        kind = rng.choices(kinds, weights)[0]
        check = rng.random() < BODY_SAMPLE
        if kind in (HOT, REVALIDATE):
            target = rng.choice(hot)
        elif kind == BUDGET:
            component, metric = rng.choice(groups)
            # A budget no other request uses: a response-cache miss.
            target = (
                f"/v1/best?component={component}&width={GRID.width}"
                f"&metric={metric}"
                f"&max_error_percent=3.{window}{conn}{budgets:07d}"
            )
            budgets += 1
        else:
            target = fresh[verilogs % len(fresh)]
            verilogs += 1
        yield Request(kind, target, check)
