"""One benchmark workload in a fresh process.

``python3 -m perfbench.worker <mode> ...`` from the repository root,
started by ``perfbench/run.py`` with the program's defaults (no
``REPRO_*`` knob and no thread-count variable set):

* ``prepare`` — untimed: builds the native-kernel cache, describes the
  environment and, for ``serve-mixed``, builds the design store;
* ``load`` — times the native-kernel load of a fresh process;
* ``run`` — an in-process workload (``evolve-*``, ``library-build``):
  set-up, the timed window, the traced window when asked, then the
  output checks;
* ``serve`` — the ``serve-mixed`` server process, driven over stdin by
  the client in ``run.py``.

Every mode writes one JSON object (to ``--out``, or for ``serve`` to
stdout, one line per command).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import threading
import time
from time import perf_counter_ns, process_time_ns
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import hostspeed, plan  # noqa: E402
from perfbench.hostspeed import HostClock, Pause, segments  # noqa: E402
from perfbench.layers import (  # noqa: E402
    install_engine,
    install_generations,
    install_serve,
)
from perfbench.spans import Tracer, layer_totals  # noqa: E402
from perfbench.summary import median  # noqa: E402

#: Set-ups timed before the window, each right after a host-speed
#: reference; the median is reported, so one slow first allocation
#: does not count.
SETUP_REPS = 30


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, *args, **kwargs):
    t0 = perf_counter_ns()
    out = fn(*args, **kwargs)
    return out, (perf_counter_ns() - t0) / 1e9


def _timed_setup(fn, *args, **kwargs):
    """``fn``'s result and ``[seconds, host-speed reference ns]``, the
    reference the mean of those timed right before and right after."""
    before = hostspeed.reference_ns()
    out, seconds = _timed(fn, *args, **kwargs)
    return out, [seconds, (before + hostspeed.reference_ns()) / 2]


def environment() -> Dict[str, object]:
    """What the figures depend on beyond the code: cores, kernel, BLAS."""
    import numpy as np

    from repro.engine.native import native_lib, omp_threads

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "native": native_lib() is not None,
        "omp_threads": omp_threads(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# Design stores
# ----------------------------------------------------------------------
def build_spec(seed: int):
    from repro.library import BuildSpec

    g = plan.GRID
    return BuildSpec(
        components=g.components, metrics=g.metrics, widths=(g.width,),
        thresholds_percent=g.thresholds_percent, dist=g.dist,
        signed=False, generations=g.generations,
        seed=plan.derive_seed(seed, "grid"),
    )


def store_digest(store) -> str:
    """Digest of every stored row and cell checkpoint status."""
    h = hashlib.blake2b(digest_size=16)
    rows = sorted(
        repr(tuple(getattr(r, f) for f in r.__dataclass_fields__))
        for r in store.select()
    )
    for row in rows:
        h.update(row.encode())
    h.update(repr(sorted(store.completed_cells().items())).encode())
    return h.hexdigest()


def mean_area(store) -> float:
    rows = store.select()
    return sum(r.area for r in rows) / len(rows)


def engine_backend() -> str:
    """Backend of the evaluators this process constructed."""
    from repro.obs import catalog

    if catalog.ENGINE_BACKEND.labels("native").value:
        return "native"
    if catalog.ENGINE_BACKEND.labels("numpy").value:
        return "numpy"
    return "none"


def cmd_prepare(args) -> Dict[str, object]:
    out = {"env": environment()}
    if args.workload == "serve-mixed":
        from repro.library import DesignStore, build_library

        store = DesignStore(args.db)
        report = build_library(store, build_spec(args.seed), max_workers=1)
        out.update(
            backend=engine_backend(),
            cells=report.cells_run,
            digest=store_digest(store),
            area=mean_area(store),
            design_ids=sorted({r.design_id for r in store.select()}),
        )
    return out


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
class Window:
    """The timed part of a window, one slice per timed call (an evolve
    run or a grid build).

    Each slice is ``[ops, wall ns, CPU ns, host-speed factor]``, the
    factor from the reference timed at both of its ends (outside it);
    ``edges`` holds each slice's ``(start, CPU at start, end, CPU at
    end)`` and ``refs`` the reference at every slice boundary.
    """

    def __init__(self) -> None:
        self.slices: List[list] = []
        #: (start, end) ns of every timed interval (for the trace).
        self.intervals: List[tuple] = []
        self.edges: List[tuple] = []
        self.refs = [hostspeed.reference_ns()]

    def time(self, fn, *args, **kwargs):
        c0 = process_time_ns()
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            c1 = process_time_ns()
            self.refs.append(hostspeed.reference_ns())
            self.slices.append(
                [0, t1 - t0, c1 - c0, hostspeed.factor(self.refs[-2:])]
            )
            self.intervals.append((t0, t1))
            self.edges.append((t0, c0, t1, c1))

    def add_ops(self, n: int) -> None:
        self.slices[-1][0] += n

    @property
    def ops(self) -> int:
        return sum(s[0] for s in self.slices)

    @property
    def wall_ns(self) -> int:
        return sum(s[1] for s in self.slices)


def engine_counters() -> Dict[str, int]:
    from repro.obs import catalog as c

    return {
        "evals": c.ENGINE_EVALS.value,
        "hits": c.ENGINE_CACHE_HITS.value,
        "misses": c.ENGINE_CACHE_MISSES.value,
        "dedup": c.ENGINE_BATCH_DEDUP.value,
        "lanes": c.ENGINE_BATCH_EVALS.value,
    }


def engine_ratios(before, after, generations: int, runs: int) -> Dict:
    """Search and engine ratios over one window (deterministic).

    Every run evaluates its seed parent once, then each generation
    creates ``lam`` children; the children not skipped as neutral are
    served by the cache, by in-brood dedupe, by the compiled kernel, or
    — the remainder — by the interpreter.
    """
    from repro.core.evolution import EvolutionConfig

    d = {k: after[k] - before[k] for k in after}
    created = generations * EvolutionConfig().lam
    evaluated = d["evals"] - runs
    compiled = d["hits"] + d["dedup"] + d["lanes"]
    lookups = d["hits"] + d["misses"]
    return {
        "core.neutral_skip_ratio": (created - evaluated) / created,
        "engine.cache_hit_ratio": d["hits"] / lookups if lookups else 0.0,
        "engine.dedup_ratio": d["dedup"] / evaluated if evaluated else 0.0,
        "engine.interpreted_ratio": (
            max(0, evaluated - compiled) / evaluated if evaluated else 0.0
        ),
    }


def exact_error(objective, chromosome) -> float:
    """WMED of ``chromosome`` on an interpreted exhaustive objective,
    summed exactly (``math.fsum``) instead of by the program's BLAS dot.
    """
    import numpy as np

    table = objective.truth_table(chromosome)
    distances = np.abs(objective.reference - table)
    return math.fsum(objective.weights * distances) / objective.normalizer


def run_outcome(result) -> tuple:
    """What one evolve run must reproduce exactly: the final chromosome
    (as a digest), its area and its error."""
    from repro.core.serialization import chromosome_to_string

    digest = hashlib.blake2b(
        chromosome_to_string(result.best).encode(), digest_size=8
    ).hexdigest()
    return (digest, result.best_eval.area, result.best_eval.error)


class EvolveWorkload:
    """Repeated single-target evolve runs, one objective per run.

    Each run is what one ``repro evolve --unsigned --dist d2`` call
    does after its imports: build the distribution, seed circuit and
    objective (set-up), then evolve (the timed op: its generations).
    """

    def __init__(self, name: str, seed: int) -> None:
        self.spec = plan.EVOLVE[name]
        self.seeds = plan.evolve_seeds(seed, self.spec)
        #: [seconds, reference ns] per set-up.
        self.setups: List[list] = []
        #: run seed -> run_outcome() of its first run.
        self.recorded: Dict[int, tuple] = {}
        self.generations_by_seed: Dict[int, int] = {}
        self.failed = 0
        self.errors: List[str] = []
        self.backend = None

    def build(self, run_seed: int, engine: str = "auto"):
        from repro.analysis.sweep import make_objective
        from repro.core import get_component, netlist_to_chromosome
        from repro.core import params_for_netlist
        from repro.core.objective import SampleSpec
        from repro.errors import distribution_from_spec

        spec = self.spec
        comp = get_component("multiplier")
        dist = distribution_from_spec("d2", spec.width, False)
        seed_net = comp.build_seed(spec.width, False)
        params = params_for_netlist(seed_net, extra_columns=20)
        chromosome = netlist_to_chromosome(seed_net, params)
        sample = None
        if spec.sample is not None:
            sample = SampleSpec(samples=spec.sample[0],
                                replicates=spec.sample[1], seed=run_seed)
        objective = make_objective(spec.width, dist, engine=engine,
                                   component="multiplier", metric="wmed",
                                   sample=sample)
        return chromosome, objective

    def evolve(self, chromosome, objective, run_seed: int):
        import numpy as np

        from repro.core import EvolutionConfig, evolve

        return evolve(
            chromosome, objective,
            threshold=plan.THRESHOLD_PERCENT / 100.0,
            config=EvolutionConfig(generations=self.spec.generations),
            rng=np.random.default_rng(run_seed),
        )

    def setup_once(self) -> None:
        _, sample = _timed_setup(self.build, self.seeds[0])
        self.setups.append(sample)

    def run_once(self, index: int, window: Window, tag: str) -> None:
        run_seed = self.seeds[index % len(self.seeds)]
        chromosome, objective = self.build(run_seed)
        self.backend = objective.backend
        result = window.time(self.evolve, chromosome, objective, run_seed)
        window.add_ops(result.generations)
        self.generations_by_seed[run_seed] = (
            self.generations_by_seed.get(run_seed, 0) + result.generations
        )
        got = run_outcome(result)
        want = self.recorded.setdefault(run_seed, got)
        if got != want:
            self.failed += result.generations
            self.errors.append(f"seed {run_seed}: {got} != first run {want}")

    def enough(self, runs: int) -> bool:
        return runs >= len(self.seeds)

    def replay(self) -> None:
        """Re-run each seed's first run on the interpreted objective.

        The engine's dispatch, dedupe, cache, signature and area code
        are not on that path, so a fault in any of them shows as a
        different outcome.  ``ErrorMetric.from_distances`` is on both,
        so on the exhaustive workload the final design's error is also
        reduced here, independently.
        """
        for run_seed, want in self.recorded.items():
            chromosome, objective = self.build(run_seed, engine="off")
            result = self.evolve(chromosome, objective, run_seed)
            got = run_outcome(result)
            if got != want:
                self.failed += self.generations_by_seed[run_seed]
                self.errors.append(
                    f"seed {run_seed}: interpreted replay {got} != {want}"
                )
            elif self.spec.sample is None:
                error = exact_error(objective, result.best)
                if not math.isclose(error, want[2], rel_tol=1e-9):
                    self.failed += self.generations_by_seed[run_seed]
                    self.errors.append(
                        f"seed {run_seed}: error {want[2]!r} != {error!r} "
                        "reduced in exact summation"
                    )

    def design_area(self) -> float:
        areas = [outcome[1] for outcome in self.recorded.values()]
        return sum(areas) / len(areas)


class LibraryWorkload:
    """Single-process grid builds, each into a fresh store."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.spec = build_spec(seed)
        self.workdir = workdir
        #: [seconds, reference ns] per set-up.
        self.setups: List[list] = []
        self.digests: List[str] = []
        self.first_store = None
        self.added = 0
        self.cells = 0
        self.failed = 0
        self.errors: List[str] = []
        self.backend = None

    def setup_once(self) -> None:
        from repro.library import DesignStore

        path = os.path.join(self.workdir, "setup.sqlite")
        _, sample = _timed_setup(DesignStore, path)
        self.setups.append(sample)
        os.remove(path)

    def run_once(self, index: int, window: Window, tag: str) -> None:
        from repro.library import DesignStore, build_library

        path = os.path.join(self.workdir, f"{tag}-{index}.sqlite")
        store = DesignStore(path)
        report = window.time(build_library, store, self.spec, max_workers=1)
        window.add_ops(report.cells_run)
        self.cells += report.cells_run
        self.added += report.added
        self.backend = engine_backend()
        digest = store_digest(store)
        if self.digests and digest != self.digests[0]:
            self.failed += report.cells_run
            self.errors.append(f"build {index}: store digest {digest} != "
                               f"{self.digests[0]}")
        self.digests.append(digest)
        if self.first_store is None:
            self.first_store = store
        else:
            os.remove(path)

    def enough(self, runs: int) -> bool:
        return runs >= 1

    def replay(self) -> None:
        """Re-characterize one stored row; it must match bit for bit."""
        from repro.core.serialization import chromosome_from_string
        from repro.errors import distribution_from_spec
        from repro.library import characterize_record

        rows = self.first_store.select()
        row = rows[plan.derive_seed(self.seed, "recheck") % len(rows)]
        again = characterize_record(
            chromosome_from_string(row.chromosome), row.component,
            row.width, distribution_from_spec(plan.GRID.dist, row.width,
                                              row.signed),
            row.metric, threshold_percent=row.threshold_percent,
            name=row.name, seed_key=row.seed_key,
            generations=row.generations, evaluations=row.evaluations,
        )
        if again != row:
            self.failed += plan.GRID.cells
            self.errors.append(f"re-characterized {row.design_id} differs")

    def design_area(self) -> float:
        return mean_area(self.first_store)


def run_window(workload, seconds: float, runs: Optional[int] = None,
               tag: str = "timed", spans_path: str = ""):
    """One window of ops.

    Untraced (``runs`` None): ops until ``seconds`` of timed work and
    every distinct seed, with only the generation clock installed; it
    also pauses the work every ``hostspeed.SLICE_NS`` to time the
    host-speed reference.  Traced: exactly ``runs`` ops with every
    layer boundary wrapped — the same work as the untraced window it is
    compared with.
    """
    before = engine_counters()
    done = 0
    #: Generation-clock gaps recorded at each slice boundary.
    marks = [0]
    if runs is None:
        clock = HostClock("core.select", "core.active")
        tracer = Tracer(spans=clock)
        install_generations(tracer)
    else:
        tracer = Tracer()
        install_engine(tracer)
    window = Window()
    try:
        while (done < runs if runs is not None
               else window.wall_ns < seconds * 1e9
               or not workload.enough(done)):
            workload.run_once(done, window, tag)
            done += 1
            if runs is None:
                marks.append(len(clock.gaps))
    finally:
        tracer.restore()
    out = {
        "ops": window.ops,
        "runs": done,
        "elapsed_s": window.wall_ns / 1e9,
        "slices": window.slices,
    }
    if runs is not None:
        out["trace"] = trace_summary(tracer, window.intervals, spans_path)
        return out
    # The work between reference measurements: within each slice, and
    # from its edges to the measurements just outside it.
    segs = []
    for i, (t0, c0, t1, c1) in enumerate(window.edges):
        segs += segments(
            Pause(t0, t0, c0, c0, window.refs[i], marks[i]),
            [p for p in clock.pauses if t0 <= p.start and p.end <= t1],
            Pause(t1, t1, c1, c1, window.refs[i + 1], marks[i + 1]),
        )
    # One gap per generation; one core.select span per evolve run.
    scaled = [gap / seg.factor for seg in segs
              for gap in clock.gaps[seg.lo:seg.hi]]
    out.update(
        work={
            "wall_ns": sum(seg.wall for seg in segs),
            "cpu_ns": sum(seg.cpu for seg in segs),
            "ref_wall_ns": sum(seg.wall / seg.factor for seg in segs),
            "ref_cpu_ns": sum(seg.cpu / seg.factor for seg in segs),
            "latency_p50_ms": median(clock.gaps) / 1e6,
            "ref_latency_p50_ms": median(scaled) / 1e6,
            "factors": [seg.factor for seg in segs],
        },
        latency_n=len(clock.gaps),
        rss_mb=peak_rss_mb(),
        ratios=engine_ratios(before, engine_counters(), len(clock.gaps),
                             clock.outers),
    )
    return out


def trace_summary(tracer: Tracer, intervals, path: str) -> Dict[str, object]:
    """Per-layer calls and self ns over spans inside timed intervals.

    The spans themselves go to ``path`` (one JSON array per line:
    id, parent, layer, start ns, end ns) once the window is over.
    """
    spans = [
        s for s in tracer.spans
        if any(t0 <= s[3] and s[4] <= t1 for t0, t1 in intervals)
    ]
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "layers": {k: list(v) for k, v in layer_totals(spans).items()},
        "counts": dict(tracer.counts),
        "wall_ns": sum(t1 - t0 for t0, t1 in intervals),
        "spans": len(spans),
    }


def cmd_load(args) -> Dict[str, object]:
    """The native-kernel load of a fresh process, after its imports."""
    from repro.engine.native import native_lib

    _, (seconds, ref) = _timed_setup(native_lib)
    return {"load_s": seconds, "ref_ns": ref}


def cmd_run(args) -> Dict[str, object]:
    from repro.engine.native import native_lib

    # Loaded untimed here: run.py times the load in fresh processes.
    native_lib()
    if args.workload in plan.EVOLVE:
        workload = EvolveWorkload(args.workload, args.seed)
    else:
        workload = LibraryWorkload(args.seed, args.workdir)
    for _ in range(SETUP_REPS):
        workload.setup_once()
    timed = run_window(workload, args.seconds)
    out: Dict[str, object] = {"timed": timed}
    if args.trace:
        out["traced"] = run_window(workload, args.seconds,
                                   runs=timed["runs"], tag="traced",
                                   spans_path=args.spans)
    workload.replay()
    if isinstance(workload, LibraryWorkload):
        timed["ratios"]["library.admitted_ratio"] = (
            workload.added / workload.cells
        )
    out.update(
        backend=workload.backend,
        setups=workload.setups,
        area=workload.design_area(),
        failed=workload.failed,
        errors=workload.errors[:5],
    )
    return out


# ----------------------------------------------------------------------
# serve-mixed: the server process
# ----------------------------------------------------------------------
def _start_server(db: str):
    """The ``repro serve`` default topology: one process, 8 handler
    threads, default cache sizes; access logging off (it would time
    this process's stderr, not the server)."""
    from repro.serve import create_server

    from perfbench.client import get

    server = create_server(db, port=0, workers=8, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    for target in plan.hot_targets():
        status, _, _ = get(server.server_port, target)
        if status != 200:
            raise RuntimeError(f"warm-up {target} answered {status}")
    return server, thread


def cmd_serve(args) -> int:
    """Set up ``SETUP_REPS`` times, keep the last server, obey stdin.

    Commands: ``mark`` (CPU seconds before and after a host-speed
    reference timed while the server is idle, and peak RSS so far),
    ``trace-on``, ``trace-off`` (per-layer totals of the spans since
    ``trace-on``) and ``quit``.
    """
    setups = []
    server = thread = None
    for _ in range(SETUP_REPS):
        if server is not None:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        (server, thread), sample = _timed_setup(_start_server, args.db)
        setups.append(sample)
    reply = {"port": server.server_port, "setups": setups}
    tracer = None
    trace_t0 = 0
    try:
        while True:
            print(json.dumps(reply), flush=True)
            line = sys.stdin.readline().split()
            if not line or line[0] == "quit":
                return 0
            if line[0] == "mark":
                cpu_s = time.process_time()
                ref = hostspeed.reference_ns()
                reply = {"cpu_s": cpu_s, "ref_ns": ref,
                         "cpu_after_s": time.process_time(),
                         "rss_mb": peak_rss_mb()}
            elif line[0] == "trace-on":
                tracer = Tracer()
                install_serve(tracer)
                trace_t0 = perf_counter_ns()
                reply = {"ok": True}
            elif line[0] == "trace-off":
                tracer.restore()
                reply = trace_summary(
                    tracer, [(trace_t0, perf_counter_ns())], args.spans
                )
            else:
                reply = {"error": f"unknown command {line[0]!r}"}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("prepare", "load", "run", "serve"))
    ap.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--db", help="serve-mixed design store")
    ap.add_argument("--out", help="result JSON path (prepare, load, run)")
    ap.add_argument("--spans", help="where a traced window writes spans")
    args = ap.parse_args(argv)
    if args.mode == "serve":
        return cmd_serve(args)
    commands = {"prepare": cmd_prepare, "load": cmd_load, "run": cmd_run}
    result = commands[args.mode](args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
