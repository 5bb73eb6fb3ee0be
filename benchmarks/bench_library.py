#!/usr/bin/env python
"""Benchmark the design-library subsystem: build throughput + query latency.

Measures, over a 16-cell multiplier+adder grid at width 4 (two metrics,
four error targets):

* **build throughput** — grid cells evolved/characterized/admitted per
  second through :func:`repro.library.build_library` (one process, the
  engine's default backend);
* **resume** — a second identical build must be a no-op (0 cells run);
* **query latency** — median microseconds per
  :func:`repro.library.query.best` call against the built store, the
  operation a serving layer issues per user request;
* **integrity** — the best design re-characterizes bit-for-bit from its
  stored chromosome text;
* **sharded build scaling** — the same grid built as 1, 2 and 4
  ``--shard i/n`` slices in parallel OS processes, each into its own
  store, then unioned with :func:`repro.library.merge_stores`.  The
  merged store must be **row-identical** to the single-process build
  (every column of every design row) — that equivalence is a hard gate,
  exactly like the resume no-op gate.  Merge throughput (rows offered
  per second) is recorded alongside the build speedups;
* **process pool** — the paper's setting, a width-8 D2 multiplier grid
  of four error targets, built with the default process pool, with
  ``max_workers=1`` and with two worker threads (alternating the
  order).  All three stores must be row-identical; on full runs on a
  host with more than one core the pool must also be faster than one
  process (the cores belong to the pool's runs, not to an OpenMP team
  inside each); under ``--smoke`` or on one core that is only reported
  (``pool.gated`` is false).  The two-thread build is only reported.

Results go to ``BENCH_library.json`` at the repo root (``--out``
overrides).  Exits non-zero when any integrity check fails or when
``--max-query-us`` is exceeded — CI smoke-runs this exactly like
``bench_engine.py``.

Usage::

    python benchmarks/bench_library.py            # full, 300 generations
    python benchmarks/bench_library.py --smoke    # CI: short budget
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.serialization import chromosome_from_string  # noqa: E402
from repro.engine import native_available  # noqa: E402
from repro.errors.distributions import distribution_from_spec  # noqa: E402
from repro.library import (  # noqa: E402
    BuildSpec,
    DesignStore,
    best,
    build_library,
    characterize_record,
    front,
    merge_stores,
)

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_library.json"
)
#: Generations per cell of the width-8 pool section, and builds each way.
POOL_GENERATIONS = 2000
POOL_ROUNDS = 2


def bench_build(spec: BuildSpec, db_path: str) -> dict:
    store = DesignStore(db_path)
    t0 = time.perf_counter()
    report = build_library(store, spec, max_workers=1, executor="thread")
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    resumed = build_library(store, spec, max_workers=1, executor="thread")
    resume_s = time.perf_counter() - t0
    return {
        "cells": report.cells_run,
        "designs_added": report.added,
        "build_s": round(build_s, 3),
        "cells_per_s": round(report.cells_run / build_s, 2),
        "designs_per_s": round(report.added / build_s, 2),
        "resume_cells_run": resumed.cells_run,
        "resume_s": round(resume_s, 4),
    }


def bench_query(db_path: str, width: int, reps: int, rounds: int) -> dict:
    store = DesignStore(db_path)

    def one_query():
        return best(
            store, "multiplier", width, "wmed",
            max_error_percent=5.0, minimize="area",
        )

    record = one_query()  # warmup + the smoke-gate witness
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            one_query()
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    latency_us = statistics.median(samples)
    curve = front(store, "multiplier", width, "wmed")
    return {
        "queryable": record is not None,
        "best_error_percent": None if record is None else record.error_percent,
        "best_area": None if record is None else record.area,
        "front_points": len(curve),
        "query_us": round(latency_us, 1),
        "queries_per_s": round(1e6 / latency_us, 1),
    }


def _shard_worker(db_path: str, spec: BuildSpec, index: int, count: int) -> None:
    """Build shard ``index``/``count`` of the grid (runs in a fork)."""
    build_library(
        DesignStore(db_path), spec, max_workers=1, executor="thread",
        shard=(index, count),
    )
    os._exit(0)  # skip inherited atexit hooks in the fork


def bench_sharded(spec: BuildSpec, single_db: str, tmp: str) -> dict:
    """Build the grid as 1/2/4 parallel shards, merge, gate bit-identity.

    Returns per-shard-count wall times and speedups plus merge
    throughput, and ``merged_identical`` — whether every merged store
    is row-identical to the single-process build at ``single_db``.
    """
    single_rows = DesignStore(single_db).select()
    ctx = multiprocessing.get_context("fork")
    runs = []
    base_s = None
    for count in (1, 2, 4):
        shard_paths = [
            os.path.join(tmp, f"shard_{count}_{i}.sqlite")
            for i in range(count)
        ]
        t0 = time.perf_counter()
        procs = [
            ctx.Process(target=_shard_worker, args=(path, spec, i, count))
            for i, path in enumerate(shard_paths)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        build_s = time.perf_counter() - t0
        if any(p.exitcode != 0 for p in procs):
            raise RuntimeError(f"a {count}-way shard build failed")
        if base_s is None:
            base_s = build_s
        merged_path = os.path.join(tmp, f"merged_{count}.sqlite")
        t0 = time.perf_counter()
        report = merge_stores(merged_path, shard_paths)
        merge_s = time.perf_counter() - t0
        identical = DesignStore(merged_path).select() == single_rows
        runs.append({
            "shards": count,
            "build_s": round(build_s, 3),
            "speedup": round(base_s / build_s, 2),
            "merge_s": round(merge_s, 4),
            "merge_rows_offered": report.rows_offered,
            "merge_rows_per_s": round(report.rows_offered / merge_s, 1),
            "merged_identical": identical,
        })
    return {
        "runs": runs,
        "merged_identical": all(r["merged_identical"] for r in runs),
    }


#: The pool section's builds: name -> (max_workers, executor).  In the
#: last, each evaluator's owner is a worker thread, which keeps the
#: serial brood schedule like a pool child does.
POOL_BUILDS = {
    "pool": (None, "process"),
    "one_process": (1, "process"),
    "two_threads": (2, "thread"),
}


def bench_pool(generations: int, rounds: int) -> dict:
    """Width-8 D2 grid: default process pool, one process, two threads.

    Each of ``rounds`` rounds builds the grid once each way
    (:data:`POOL_BUILDS`) into a fresh store, alternating the order;
    times are wall seconds for :func:`build_library`.
    """
    spec = BuildSpec(
        components=("multiplier",),
        metrics=("wmed",),
        widths=(8,),
        thresholds_percent=(0.5, 1.0, 2.0, 5.0),
        dist="d2",
        signed=False,
        generations=generations,
        seed=5,
    )
    times = {name: [] for name in POOL_BUILDS}
    rows = {}
    for r in range(rounds):
        order = list(POOL_BUILDS)
        if r % 2:
            order.reverse()
        for name in order:
            workers, executor = POOL_BUILDS[name]
            with tempfile.TemporaryDirectory() as tmp:
                store = DesignStore(os.path.join(tmp, "grid.sqlite"))
                t0 = time.perf_counter()
                build_library(
                    store, spec, max_workers=workers, executor=executor
                )
                times[name].append(round(time.perf_counter() - t0, 3))
                rows.setdefault(name, store.select())
    pool_s = statistics.median(times["pool"])
    one_s = statistics.median(times["one_process"])
    return {
        "width": 8,
        "dist": "d2",
        "cells": len(spec.thresholds_percent),
        "generations": generations,
        "workers": os.cpu_count(),
        "pool_s": times["pool"],
        "one_process_s": times["one_process"],
        "two_threads_s": times["two_threads"],
        "pool_over_one_process": round(pool_s / one_s, 3),
        "pool_beats_one_process": pool_s < one_s,
        "identical": all(r == rows["one_process"] for r in rows.values()),
    }


def check_integrity(db_path: str, spec: BuildSpec, width: int) -> bool:
    """Stored record == fresh characterization of its chromosome text."""
    store = DesignStore(db_path)
    record = best(store, "multiplier", width, "wmed", minimize="area")
    if record is None:
        return False
    dist = distribution_from_spec(spec.dist_spec(), width, record.signed)
    again = characterize_record(
        chromosome_from_string(record.chromosome),
        record.component, record.width, dist, record.metric,
        threshold_percent=record.threshold_percent, name=record.name,
        seed_key=record.seed_key, generations=record.generations,
        evaluations=record.evaluations,
    )
    return again == record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=4)
    ap.add_argument("--generations", type=int, default=300)
    ap.add_argument("--reps", type=int, default=50)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument(
        "--smoke", action="store_true",
        help="CI preset: short search budget, reduced reps",
    )
    ap.add_argument(
        "--max-query-us", type=float, default=None,
        help="exit non-zero if median best() latency exceeds this",
    )
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    pool_generations, pool_rounds = POOL_GENERATIONS, POOL_ROUNDS
    if args.smoke:
        args.generations = min(args.generations, 40)
        args.reps = min(args.reps, 20)
        args.rounds = min(args.rounds, 3)
        pool_generations, pool_rounds = 200, 1

    spec = BuildSpec(
        components=("multiplier", "adder"),
        metrics=("wmed", "med"),
        widths=(args.width,),
        thresholds_percent=(0.5, 1.0, 2.0, 5.0),
        dist="uniform",
        signed=False,
        generations=args.generations,
        seed=2024,
    )
    backend = "native" if native_available() else "numpy"
    print(f"engine backend: {backend}")
    with tempfile.TemporaryDirectory() as tmp:
        db_path = os.path.join(tmp, "bench.sqlite")
        build = bench_build(spec, db_path)
        print(
            f"build w={args.width}: {build['cells']} cells in "
            f"{build['build_s']} s ({build['designs_per_s']} designs/s)"
            f" | resume ran {build['resume_cells_run']} cells"
        )
        query = bench_query(db_path, args.width, args.reps, args.rounds)
        print(
            f"query: {query['query_us']} us/best() "
            f"({query['queries_per_s']} queries/s), "
            f"front of {query['front_points']}"
        )
        intact = check_integrity(db_path, spec, args.width)
        print(f"stored record re-characterizes bit-for-bit: {intact}")
        sharded = bench_sharded(spec, db_path, tmp)
        for run in sharded["runs"]:
            print(
                f"sharded x{run['shards']}: build {run['build_s']} s "
                f"({run['speedup']}x), merge {run['merge_s']} s "
                f"({run['merge_rows_per_s']} rows/s), "
                f"row-identical: {run['merged_identical']}"
            )
    pool = bench_pool(pool_generations, pool_rounds)
    # A one-core host's default pool has one worker, which cannot beat
    # the in-process build; there, and under --smoke, only report it.
    pool["gated"] = not args.smoke and (os.cpu_count() or 1) > 1
    print(
        f"pool w=8 d2 {pool['cells']} cells x {pool['generations']} gens:"
        f" default pool {pool['pool_s']} s | one process"
        f" {pool['one_process_s']} s (ratio {pool['pool_over_one_process']})"
        f" | two threads {pool['two_threads_s']} s"
        f" | row-identical: {pool['identical']}"
    )

    record = {
        "benchmark": "library",
        "config": {
            "width": args.width,
            "generations": args.generations,
            "smoke": args.smoke,
        },
        "backend": backend,
        "build": build,
        "query": query,
        "recharacterization_identical": intact,
        "sharded": sharded,
        "pool": pool,
    }
    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"wrote {out}")

    if not query["queryable"]:
        print("FAIL: built store is not queryable")
        return 1
    if build["resume_cells_run"] != 0:
        print("FAIL: identical re-build re-ran cells (resume is broken)")
        return 1
    if not intact:
        print("FAIL: stored record diverges from re-characterization")
        return 1
    if not sharded["merged_identical"]:
        print("FAIL: sharded+merged store diverges from single-process build")
        return 1
    if not pool["identical"]:
        print("FAIL: a pooled build diverges from the one-process build")
        return 1
    if pool["gated"] and not pool["pool_beats_one_process"]:
        print(
            f"FAIL: the default pool took {pool['pool_over_one_process']}x "
            f"the one-process build time"
        )
        return 1
    if args.max_query_us is not None and query["query_us"] > args.max_query_us:
        print(
            f"FAIL: query latency {query['query_us']} us above "
            f"{args.max_query_us} us"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
