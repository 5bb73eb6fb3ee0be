#!/usr/bin/env python
"""Benchmark the compiled evaluation engine against the seed evaluator.

Measures, for one operand width:

* **single-candidate evaluation** — the interpreted
  ``multiplier_objective`` path vs. the engine with caching disabled (every
  evaluation compiles + simulates + decodes from scratch) and vs. the
  engine's cache-hit path, each pair timed in interleaved rounds; the
  speedups are medians of the per-round ratios, so a host slowdown that
  spans a round moves both sides of the ratio alike;
* **brood schedules** — ``evaluate_batch`` over pre-drawn (1 + lambda)
  broods under both brood schedules, forced through each runtime (the
  fused OpenMP call and the serial chunked loop), at 32, 64, 128, 256
  and 1024 stimulus words per plane: mean, median and CPU ms per brood
  for each, the schedule the engine's size rule picks, and the sizes
  from which the threaded call won; every schedule must return the
  same results as one ``evaluate`` per candidate;
* **end-to-end evolution** — ``evolve()`` wall time and evaluations/s
  under both evaluators with the same RNG seed, asserting the
  ``(wmed, area)`` trajectories and final errors are identical (the
  engine must change throughput, never results) and that every
  candidate the run evaluated ran a kernel lane (no brood candidate is
  served by a cache or a dedupe); once under the uniform law and
  once under the paper's D2 (the non-uniform weights of Case Study 1,
  width 6 under ``--smoke``, 8 in full runs), with repeated engine runs
  so the evals/s spread is visible;
* **sampled wide-operand evolution** — width-15 and width-16
  multipliers evolved under the Monte-Carlo objective (``--eval
  sampled`` on the CLI): the exhaustive space would need 2**30 and
  2**32 vectors.  Records both evals/s figures and their ratio (the
  32-bit bus at width 16 should cost about what the 30-bit one at
  width 15 does), and fails unless both ran on the compiled engine
  (``stats()["batch"]["calls"] > 0``, no fallback reason) and each
  completed within ``--sampled-max-s`` (the wide-width smoke
  tripwire).

Results are appended-free-written to ``BENCH_engine.json`` at the repo
root (override with ``--out``) so perf trajectories can be tracked
across commits.  Exits non-zero when trajectories diverge or when
``--min-speedup`` is not met — CI uses this as a loud perf regression
tripwire.

Usage::

    python benchmarks/bench_engine.py                  # full, width 8
    python benchmarks/bench_engine.py --smoke          # CI: width 6, short
    python benchmarks/bench_engine.py --min-speedup 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.circuits.generators import build_array_multiplier  # noqa: E402
from repro.core.components import (  # noqa: E402
    COMPONENTS,
    component_objective,
    multiplier_objective,
    sampled_component_objective,
)
from repro.core.mutation import mutate  # noqa: E402
from repro.core.objective import SampleSpec  # noqa: E402
from repro.core.evolution import EvolutionConfig, evolve  # noqa: E402
from repro.core.seeding import (  # noqa: E402
    netlist_to_chromosome,
    params_for_netlist,
)
from repro.engine import (  # noqa: E402
    CompiledObjective,
    CompiledSampledObjective,
    native_available,
)
from repro.engine import evaluator as engine_evaluator  # noqa: E402
from repro.engine.native import omp_threads  # noqa: E402
from repro.errors.distributions import (  # noqa: E402
    distribution_from_spec,
    uniform,
)

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_engine.json"
)


def _time_pair_ms(base, other, reps: int, rounds: int) -> tuple:
    """Interleaved timing of two callables.

    Each of ``rounds`` rounds times ``reps`` calls of each, alternating
    which goes first.  Returns the median mean-ms of ``base``, of
    ``other``, and the median of the per-round ``base / other`` ratios.
    """
    base()  # warmup
    other()
    base_ms, other_ms, ratios = [], [], []
    for r in range(rounds):
        pair = {}
        order = [("base", base), ("other", other)]
        if r % 2:
            order.reverse()
        for name, fn in order:
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            pair[name] = (time.perf_counter() - t0) / reps * 1e3
        base_ms.append(pair["base"])
        other_ms.append(pair["other"])
        ratios.append(pair["base"] / pair["other"])
    return (
        statistics.median(base_ms),
        statistics.median(other_ms),
        statistics.median(ratios),
    )


def bench_single_eval(width: int, reps: int, rounds: int) -> dict:
    net = build_array_multiplier(width)
    params = params_for_netlist(net)
    chrom = netlist_to_chromosome(net, params)
    dist = uniform(width, signed=False)
    threshold = 0.01

    baseline = multiplier_objective(width, dist)
    engine_cold = CompiledObjective(baseline, cache_entries=0)
    engine_cached = CompiledObjective(baseline)

    def fresh():
        c = chrom.copy()
        c.invalidate_cache()
        return c

    def run_baseline():
        baseline.evaluate(fresh(), threshold)

    baseline_ms, engine_ms, speedup = _time_pair_ms(
        run_baseline,
        lambda: engine_cold.evaluate(fresh(), threshold),
        reps, rounds,
    )
    engine_cached.evaluate(chrom, threshold)  # populate the cache
    _, cached_ms, cached_speedup = _time_pair_ms(
        run_baseline,
        lambda: engine_cached.evaluate(fresh(), threshold),
        reps, rounds,
    )

    # Equivalence spot check on the measured candidate.
    rb = baseline.evaluate(fresh(), threshold)
    re = engine_cold.evaluate(fresh(), threshold)
    return {
        "width": width,
        "active_gates": len(net.gates),
        "baseline_ms": round(baseline_ms, 4),
        "engine_ms": round(engine_ms, 4),
        "engine_cached_ms": round(cached_ms, 4),
        "rounds": rounds,
        "reps": reps,
        "speedup": round(speedup, 2),
        "cached_speedup": round(cached_speedup, 2),
        "bit_identical": rb == re,
    }


def _d2_multiplier(width: int, samples: int = 0):
    """D2 multiplier objective, cache off: exhaustive, or sampled with
    ``samples`` x 4 vectors."""
    dist = distribution_from_spec("d2", width, False)
    if samples:
        return CompiledSampledObjective(
            sampled_component_objective(
                "multiplier", width, dist, SampleSpec(samples, 4, seed=0)
            ),
            cache_entries=0,
        )
    return CompiledObjective(
        component_objective("multiplier", width, dist), cache_entries=0
    )


#: The brood-schedule sweep: (stimulus words per plane, label, width,
#: samples per replicate or 0 for exhaustive).  Each size is the
#: objective a real run evaluates — perfbench's sampled width-16 and
#: width-6 library workloads below the size rule, the paper's width 8
#: above it.
SCHEDULE_SWEEP = (
    (32, "sampled w16 512x4", 16, 512),
    (64, "exhaustive w6", 6, 0),
    (128, "sampled w16 2048x4", 16, 2048),
    (256, "exhaustive w7", 7, 0),
    (1024, "exhaustive w8", 8, 0),
)
#: Pre-drawn broods per size, and passes over them per schedule.
SCHEDULE_BROODS = 200
SCHEDULE_PASSES = 3


def _time_schedule(obj, rt, threads: int, broods, threshold: float):
    """(results, per-brood wall ms, CPU ms per brood) with the runtime's
    schedule forced to a team of ``threads`` (1 = serial)."""
    rt.threads = threads
    results, wall = [], []
    c0 = time.process_time_ns()
    for brood in broods:
        t0 = time.perf_counter_ns()
        results.append(obj.evaluate_batch(brood, threshold))
        wall.append((time.perf_counter_ns() - t0) / 1e6)
    cpu = (time.process_time_ns() - c0) / 1e6 / len(broods)
    return results, wall, cpu


def bench_schedules(n_broods: int, passes: int, lam: int) -> dict:
    """Both brood schedules at each size of :data:`SCHEDULE_SWEEP`.

    ``n_broods`` broods of ``lam`` children (5 mutations each, the
    parent drifting to each brood's first child) are drawn once per
    size from a fixed RNG, then evaluated ``passes`` times under each
    schedule, alternating which runs first, with the phenotype cache
    off.  Per schedule: mean and median wall ms per brood over all
    passes, and CPU ms per brood (median pass).  ``rule`` is the
    schedule the engine picks at that size (a team, the main thread, a
    process that is not a pool child); ``threaded_won`` whether the
    fused call's mean beat the serial loop's.
    """
    team = omp_threads()
    threshold = 0.01
    sizes = []
    identical = True
    for words, label, width, samples in SCHEDULE_SWEEP:
        obj = _d2_multiplier(width, samples)
        net = COMPONENTS["multiplier"].build_seed(width, False)
        parent = netlist_to_chromosome(
            net, params_for_netlist(net, extra_columns=8)
        )
        rng = np.random.default_rng(5)
        broods = []
        for _ in range(n_broods):
            brood = [mutate(parent, 5, rng)[0] for _ in range(lam)]
            broods.append(brood)
            parent = brood[0]
        reference = [
            [obj.evaluate(c, threshold) for c in brood]
            for brood in broods[: min(10, n_broods)]
        ]
        rt = obj._runtime(parent.params)
        assert rt.arena.words == words, (label, rt.arena.words)
        rule = "threaded" if rt.threads > 1 else "serial"
        schedules = {"serial": 1}
        if team > 1:
            schedules["threaded"] = team
        walls = {name: [] for name in schedules}
        cpus = {name: [] for name in schedules}
        for p in range(passes):
            order = list(schedules)
            if p % 2:
                order.reverse()
            for name in order:
                results, wall, cpu = _time_schedule(
                    obj, rt, schedules[name], broods, threshold
                )
                walls[name].extend(wall)
                cpus[name].append(cpu)
                identical &= results[: len(reference)] == reference
        entry = {"words": words, "objective": label, "rule": rule}
        for name in schedules:
            entry[name] = {
                "mean_ms": round(statistics.fmean(walls[name]), 4),
                "p50_ms": round(statistics.median(walls[name]), 4),
                "cpu_ms": round(statistics.median(cpus[name]), 4),
            }
        if team > 1:
            entry["threaded_won"] = (
                entry["threaded"]["mean_ms"] < entry["serial"]["mean_ms"]
            )
        sizes.append(entry)
    return {
        "lam": lam,
        "broods": n_broods,
        "passes": passes,
        "omp_threads": team,
        "threaded_min_words": engine_evaluator._THREADED_MIN_WORDS,
        "sizes": sizes,
        "bit_identical": identical,
    }


#: Engine runs per evolve section, so the evals/s spread is visible.
EVOLVE_REPEATS = 3


def bench_evolve(
    width: int, generations: int, seed: int = 7, dist=None
) -> dict:
    """Interpreted vs engine ``evolve()`` under one operand law.

    ``dist`` defaults to the uniform law.  The interpreted baseline runs
    once; the engine runs :data:`EVOLVE_REPEATS` times, each on a fresh
    evaluator, and every repeat must reproduce the baseline's
    trajectory, final chromosome and final error exactly, with every
    brood candidate run on a kernel lane.
    Evals/s is reported per repeat and as their median.
    """
    net = build_array_multiplier(width)
    params = params_for_netlist(net, extra_columns=8)
    seed_chrom = netlist_to_chromosome(net, params)
    if dist is None:
        dist = uniform(width, signed=False)
    cfg = EvolutionConfig(generations=generations, history_every=1)
    threshold = 0.01

    def run(evaluator):
        t0 = time.perf_counter()
        result = evolve(
            seed_chrom, evaluator, threshold, config=cfg,
            rng=np.random.default_rng(seed),
        )
        return result, time.perf_counter() - t0

    base_res, base_s = run(multiplier_objective(width, dist))
    engine_runs = []
    for _ in range(EVOLVE_REPEATS):
        evaluator = CompiledObjective(multiplier_objective(width, dist))
        engine_runs.append((*run(evaluator), evaluator))
    identical = all(
        base_res.history == res.history
        and base_res.best_eval == res.best_eval
        and np.array_equal(base_res.best.genes, res.best.genes)
        for res, _, _ in engine_runs
    )
    errors_identical = all(
        res.best_eval.error == base_res.best_eval.error
        for res, _, _ in engine_runs
    )
    # The seed parent is evaluated alone; every other evaluation is a
    # brood candidate and must have run a lane.
    every_candidate_ran_a_lane = all(
        evaluator.stats()["batch"]["evals"] == res.evaluations - 1
        for res, _, evaluator in engine_runs
    )
    eng_res, _, eng_eval = engine_runs[0]
    eng_s = statistics.median(s for _, s, _ in engine_runs)
    # Thin the archived trajectory to <= 50 points.
    step = max(1, len(eng_res.history) // 50)
    return {
        "width": width,
        "dist": dist.name,
        "generations": generations,
        "seed": seed,
        "threshold": threshold,
        "repeats": EVOLVE_REPEATS,
        "every_candidate_ran_a_lane": every_candidate_ran_a_lane,
        "baseline_s": round(base_s, 3),
        "engine_s": round(eng_s, 3),
        "speedup": round(base_s / eng_s, 2),
        "evaluations": eng_res.evaluations,
        "baseline_evals_per_s": round(base_res.evaluations / base_s, 1),
        "engine_evals_per_s": round(eng_res.evaluations / eng_s, 1),
        "engine_evals_per_s_runs": [
            round(res.evaluations / s, 1) for res, s, _ in engine_runs
        ],
        "trajectories_identical": identical,
        "final_errors_identical": errors_identical,
        "final_wmed": eng_res.best_eval.wmed,
        "final_area": eng_res.best_eval.area,
        "engine_stats": eng_eval.stats(),
        "trajectory": [
            {"generation": g, "wmed": w, "area": a}
            for g, w, a in eng_res.history[::step]
        ],
    }


def bench_sampled_evolve(
    width: int, generations: int, samples: int, replicates: int,
    seed: int = 7,
) -> dict:
    """Width-``width`` sampled multiplier evolve: wall time + evals/s.

    Uses the same SeedSequence-derived stimulus for any run of this
    configuration, so the trajectory (and the reported estimate) is a
    deterministic function of the arguments.
    """
    from repro.core.components import COMPONENTS, sampled_component_objective
    from repro.core.objective import SampleSpec
    from repro.engine import CompiledSampledObjective
    from repro.errors.distributions import paper_d2

    dist = paper_d2(width)
    spec = SampleSpec(samples=samples, replicates=replicates, seed=0)
    objective = CompiledSampledObjective(
        sampled_component_objective("multiplier", width, dist, spec)
    )
    seed_chrom = netlist_to_chromosome(
        COMPONENTS["multiplier"].build_seed(width, False)
    )
    cfg = EvolutionConfig(generations=generations)
    threshold = 0.01
    t0 = time.perf_counter()
    result = evolve(
        seed_chrom, objective, threshold,
        config=cfg, rng=np.random.default_rng(seed),
    )
    elapsed = time.perf_counter() - t0
    best = result.best_eval
    stats = objective.stats()
    return {
        "width": width,
        "generations": generations,
        "samples": samples,
        "replicates": replicates,
        "seed": seed,
        "threshold": threshold,
        "wall_s": round(elapsed, 3),
        "evaluations": result.evaluations,
        "evals_per_s": round(result.evaluations / elapsed, 1),
        "final_error": best.wmed,
        "final_ci": [best.ci_low, best.ci_high],
        "final_area": best.area,
        "feasible": best.wmed <= threshold,
        "backend": stats["backend"],
        "batch_calls": stats["batch"]["calls"],
        "fallback": stats["fallback"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=8)
    ap.add_argument("--generations", type=int, default=300)
    ap.add_argument(
        "--lam", type=int, default=4,
        help="brood size for the brood-schedule section",
    )
    ap.add_argument("--reps", type=int, default=30)
    ap.add_argument(
        "--rounds", type=int, default=21,
        help="interleaved rounds of the single-eval timing",
    )
    ap.add_argument(
        "--smoke", action="store_true",
        help="CI preset: width 6, 30 generations, 10 calls per round",
    )
    ap.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero if the single-eval speedup falls below this",
    )
    ap.add_argument(
        "--require-backend", choices=("native", "numpy"), default=None,
        help="exit non-zero unless this backend is actually in use "
        "(CI uses it so a silently broken C build cannot pass as native)",
    )
    ap.add_argument(
        "--sampled-generations", type=int, default=120,
        help="generations for the width-15/16 sampled-evolve section",
    )
    ap.add_argument("--sampled-samples", type=int, default=512)
    ap.add_argument("--sampled-replicates", type=int, default=4)
    ap.add_argument(
        "--sampled-max-s", type=float, default=300.0,
        help="exit non-zero if the sampled evolve takes longer than this "
        "(the wide-operand path must complete in minutes, not hours)",
    )
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    broods, passes = SCHEDULE_BROODS, SCHEDULE_PASSES
    if args.smoke:
        args.width = min(args.width, 6)
        args.generations = min(args.generations, 30)
        args.reps = min(args.reps, 10)
        broods, passes = 40, 2
        args.sampled_generations = min(args.sampled_generations, 30)
        args.sampled_max_s = min(args.sampled_max_s, 120.0)
        if args.min_speedup is None:
            args.min_speedup = 2.0

    backend = "native" if native_available() else "numpy"
    print(f"engine backend: {backend}")
    if args.require_backend and backend != args.require_backend:
        print(
            f"FAIL: engine backend is {backend}, "
            f"required {args.require_backend}"
        )
        return 1
    single = bench_single_eval(args.width, args.reps, args.rounds)
    print(
        f"single eval w={single['width']}: baseline {single['baseline_ms']} ms"
        f" | engine {single['engine_ms']} ms ({single['speedup']}x)"
        f" | cached {single['engine_cached_ms']} ms"
        f" ({single['cached_speedup']}x)"
    )
    # Both schedules exist only on the native backend.
    schedules = None
    if backend == "native":
        schedules = bench_schedules(broods, passes, args.lam)
        print(
            f"brood schedules lam={schedules['lam']}"
            f" ({schedules['broods']} broods x {schedules['passes']}"
            f" passes, team {schedules['omp_threads']}, threaded from"
            f" {schedules['threaded_min_words']} words):"
        )
        for size in schedules["sizes"]:
            line = (
                f"  {size['words']:5d} words ({size['objective']}):"
                f" rule {size['rule']}"
            )
            for name in ("serial", "threaded"):
                if name in size:
                    t = size[name]
                    line += (
                        f" | {name} mean {t['mean_ms']} p50 {t['p50_ms']}"
                        f" cpu {t['cpu_ms']} ms"
                    )
            print(line)
        print(f"  identical: {schedules['bit_identical']}")
    evo = bench_evolve(args.width, args.generations)
    evo_d2 = bench_evolve(
        args.width, args.generations,
        dist=distribution_from_spec("d2", args.width, False),
    )
    for section in (evo, evo_d2):
        print(
            f"evolve {section['dist']} w={section['width']}"
            f" {section['generations']} gens:"
            f" baseline {section['baseline_s']} s"
            f" | engine {section['engine_s']} s ({section['speedup']}x)"
            f" | {section['engine_evals_per_s']} evals/s"
            f" (runs {section['engine_evals_per_s_runs']})"
            f" | every candidate ran a lane:"
            f" {section['every_candidate_ran_a_lane']}"
            f" | trajectories identical:"
            f" {section['trajectories_identical']}"
            f" | final errors identical:"
            f" {section['final_errors_identical']}"
        )

    sampled_runs = [
        bench_sampled_evolve(
            width, args.sampled_generations,
            args.sampled_samples, args.sampled_replicates,
        )
        for width in (15, 16)
    ]
    for sampled in sampled_runs:
        print(
            f"sampled evolve w={sampled['width']}"
            f" ({sampled['samples']}x{sampled['replicates']} samples):"
            f" {sampled['wall_s']} s"
            f" | {sampled['evals_per_s']} evals/s"
            f" | {sampled['batch_calls']} batch calls"
            f" | error {100 * sampled['final_error']:.4f}%"
            f" ci95 [{100 * sampled['final_ci'][0]:.4f}%,"
            f" {100 * sampled['final_ci'][1]:.4f}%]"
        )
    w15, w16 = sampled_runs
    # The ROADMAP target: width 16 within 1.5x of width 15.
    sampled_ratio = round(w15["evals_per_s"] / w16["evals_per_s"], 3)
    print(f"sampled evolve w15/w16 evals/s ratio: {sampled_ratio}")

    record = {
        "benchmark": "engine",
        "config": {
            "width": args.width,
            "generations": args.generations,
            "lam": args.lam,
            "smoke": args.smoke,
        },
        "backend": backend,
        "single_eval": single,
        "brood_schedules": schedules,
        "evolve": evo,
        "evolve_d2": evo_d2,
        "sampled_evolve": w16,
        "sampled_evolve_w15": w15,
        "sampled_w15_over_w16": sampled_ratio,
    }
    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"wrote {out}")

    if (
        not single["bit_identical"]
        or (schedules is not None and not schedules["bit_identical"])
        or not all(
            section["trajectories_identical"]
            and section["final_errors_identical"]
            for section in (evo, evo_d2)
        )
    ):
        print("FAIL: engine results diverge from the reference evaluator")
        return 1
    if args.min_speedup is not None and single["speedup"] < args.min_speedup:
        print(
            f"FAIL: single-eval speedup {single['speedup']}x below "
            f"required {args.min_speedup}x"
        )
        return 1
    for sampled in sampled_runs:
        if sampled["batch_calls"] == 0 or sampled["fallback"]:
            print(
                f"FAIL: sampled evolve w={sampled['width']} did not run "
                f"on the compiled engine (batch calls "
                f"{sampled['batch_calls']}, fallback {sampled['fallback']})"
            )
            return 1
        if sampled["wall_s"] > args.sampled_max_s:
            print(
                f"FAIL: sampled evolve w={sampled['width']} took "
                f"{sampled['wall_s']} s, over the {args.sampled_max_s} s gate"
            )
            return 1
    if not all(
        section["every_candidate_ran_a_lane"] for section in (evo, evo_d2)
    ):
        print("FAIL: an evaluated brood candidate did not run a lane")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
