"""Tests for the compiled evaluation engine (:mod:`repro.engine`).

The engine's contract is *bit-identical semantics* to the interpreted
path at much higher throughput, so almost everything here is an
equivalence property: compiled kernels vs. the scalar reference
simulator, engine evaluators vs. the interpreted objective, cached vs.
fresh results, parallel vs. serial sweeps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sweep import parallel_front
from repro.circuits.gates import FULL_FUNCTION_SET
from repro.circuits.generators import (
    build_array_multiplier,
    build_baugh_wooley_multiplier,
)
from repro.circuits.netlist import Netlist
from repro.circuits.simulator import (
    exhaustive_inputs,
    simulate_reference,
    truth_table,
)
from repro.core.chromosome import CGPParams
from repro.core.components import multiplier_objective
from repro.core.evolution import EvolutionConfig, evolve
from repro.core.mutation import mutate
from repro.core.seeding import (
    netlist_to_chromosome,
    params_for_netlist,
    random_chromosome,
)
from repro.engine import (
    BufferArena,
    CompiledObjective,
    EvalCache,
    compile_netlist,
    compile_phenotype,
    native_available,
)
from repro.engine import kernels
from repro.errors.distributions import uniform

BACKENDS = ["numpy"] + (["native"] if native_available() else [])


def random_netlist(rng: np.random.Generator, ni: int, n_gates: int) -> Netlist:
    net = Netlist(num_inputs=ni)
    for _ in range(n_gates):
        fn = FULL_FUNCTION_SET[int(rng.integers(0, len(FULL_FUNCTION_SET)))]
        a = int(rng.integers(0, net.num_signals))
        b = int(rng.integers(0, net.num_signals))
        net.add_gate(fn, a, b)
    outs = rng.integers(0, net.num_signals, size=int(rng.integers(1, 5)))
    net.set_outputs([int(o) for o in outs])
    return net


def run_compiled(net: Netlist) -> np.ndarray:
    """Execute a netlist's compiled program on the numpy backend."""
    cp = compile_netlist(net)
    stim = exhaustive_inputs(net.num_inputs)
    arena = BufferArena(
        net.num_inputs,
        max(len(net.gates), 1),
        net.num_outputs,
        stim,
        1 << net.num_inputs,
    )
    n = cp.n_ops
    arena.ops[:n] = cp.ops
    arena.src_a[:n] = cp.src_a
    arena.src_b[:n] = cp.src_b
    arena.dst[:n] = cp.dst
    arena.out_slots[:] = cp.out_slots
    kernels.run_program(arena, n)
    return kernels.decode_values(arena, net.num_outputs, signed=False).copy()


# ----------------------------------------------------------------------
# Compiler + kernels vs. the scalar reference simulator
# ----------------------------------------------------------------------
def test_compiled_netlist_matches_reference_on_random_netlists(rng):
    """Property: compiled program == scalar reference, random netlists."""
    for _ in range(25):
        ni = int(rng.integers(2, 6))
        net = random_netlist(rng, ni, int(rng.integers(1, 20)))
        got = run_compiled(net)
        for v in range(1 << ni):
            assert got[v] == simulate_reference(net, v)


def test_compiled_netlist_matches_packed_truth_table(rng):
    for _ in range(10):
        net = random_netlist(rng, 5, 25)
        assert np.array_equal(run_compiled(net), truth_table(net))


def test_netlist_and_seeded_chromosome_compile_identically():
    net = build_array_multiplier(5)
    chrom = netlist_to_chromosome(net, params_for_netlist(net))
    assert compile_netlist(net).signature() == compile_phenotype(chrom).signature()


def test_compiled_phenotype_is_canonical_under_neutral_mutation(rng):
    """Mutations outside the active cone keep the compiled program."""
    net = build_array_multiplier(4)
    params = params_for_netlist(net, extra_columns=12)
    chrom = netlist_to_chromosome(net, params)
    sig = compile_phenotype(chrom).signature()
    active = set(int(x) for x in chrom.active_gene_positions())
    hits = 0
    for _ in range(200):
        child, changed = mutate(chrom, 3, rng)
        if changed and not any(pos in active for pos in changed):
            hits += 1
            assert compile_phenotype(child).signature() == sig
    assert hits > 0  # the property was actually exercised


def test_liveness_allocation_reuses_slots():
    net = build_array_multiplier(8)
    cp = compile_netlist(net)
    # Without reuse the program would need ni + n_ops slots.
    assert cp.num_slots < net.num_inputs + cp.n_ops
    # Destinations never alias their operands (in-place kernel safety).
    for a, b, d in zip(cp.src_a, cp.src_b, cp.dst):
        assert d != a and d != b


# ----------------------------------------------------------------------
# Evaluator vs. the interpreted multiplier objective (bit-exact)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "signed,width,builder",
    [
        (False, 4, build_array_multiplier),
        (True, 4, build_baugh_wooley_multiplier),
        (False, 6, build_array_multiplier),
    ],
)
def test_engine_evaluator_bit_identical(rng, backend, signed, width, builder):
    net = builder(width)
    params = params_for_netlist(net, extra_columns=8)
    chrom = netlist_to_chromosome(net, params)
    dist = uniform(width, signed=signed)
    base = multiplier_objective(width, dist)
    eng = CompiledObjective(multiplier_objective(width, dist), backend=backend)
    assert eng.backend == backend
    c = chrom
    for _ in range(30):
        c, _ = mutate(c, 5, rng)
        assert np.array_equal(eng.truth_table(c), base.truth_table(c))
        rb = base.evaluate(c, 0.05)
        re = eng.evaluate(c, 0.05)
        assert rb.wmed == re.wmed  # bit-exact, not approx
        assert rb.area == re.area
        assert rb.fitness == re.fitness


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_on_random_chromosomes(rng, backend):
    params = CGPParams(num_inputs=8, num_outputs=8, columns=30)
    dist = uniform(4, signed=False)
    base = multiplier_objective(4, dist)
    eng = CompiledObjective(multiplier_objective(4, dist), backend=backend)
    for _ in range(20):
        c = random_chromosome(params, rng)
        assert np.array_equal(eng.truth_table(c), base.truth_table(c))
        assert eng.error(c) == base.error(c)


def test_engine_rejects_mismatched_width():
    net = build_array_multiplier(4)
    chrom = netlist_to_chromosome(net, params_for_netlist(net))
    eng = CompiledObjective(multiplier_objective(6, uniform(6, signed=False)))
    with pytest.raises(ValueError):
        eng.evaluate(chrom, 0.1)


# ----------------------------------------------------------------------
# Phenotype cache
# ----------------------------------------------------------------------
def test_cache_hits_return_fresh_equal_results(rng):
    """Cache-hit results equal a fresh interpreted evaluation."""
    net = build_baugh_wooley_multiplier(4)  # signed path
    params = params_for_netlist(net, extra_columns=10)
    chrom = netlist_to_chromosome(net, params)
    dist = uniform(4, signed=True)
    eng = CompiledObjective(multiplier_objective(4, dist))
    c = chrom
    candidates = []
    for _ in range(15):
        c, _ = mutate(c, 4, rng)
        candidates.append(c)
        eng.evaluate(c, 0.02)
    assert eng.cache.stats()["entries"] > 0
    fresh = multiplier_objective(4, dist)
    before = eng.cache.hits
    for c in candidates:
        re = eng.evaluate(c, 0.02)  # all should hit now
        rf = fresh.evaluate(c, 0.02)
        assert (re.wmed, re.area, re.fitness) == (rf.wmed, rf.area, rf.fitness)
    assert eng.cache.hits >= before + len(candidates)


def test_cache_hit_on_neutral_genotype_change(rng):
    net = build_array_multiplier(4)
    params = params_for_netlist(net, extra_columns=12)
    chrom = netlist_to_chromosome(net, params)
    eng = CompiledObjective(multiplier_objective(4, uniform(4, signed=False)))
    eng.evaluate(chrom, 0.1)
    active = set(int(x) for x in chrom.active_gene_positions())
    neutral = None
    for _ in range(300):
        child, changed = mutate(chrom, 2, rng)
        if changed and not any(p in active for p in changed):
            neutral = child
            break
    assert neutral is not None
    misses = eng.cache.misses
    eng.evaluate(neutral, 0.1)
    assert eng.cache.misses == misses  # identical phenotype -> hit


def test_cache_lru_eviction_and_disable():
    cache = EvalCache(max_entries=2)
    cache.put(b"a", 1.0, 2.0)
    cache.put(b"b", 3.0, 4.0)
    assert cache.get(b"a") == (1.0, 2.0)  # refreshes a
    cache.put(b"c", 5.0, 6.0)  # evicts b (LRU)
    assert cache.get(b"b") is None
    assert cache.get(b"a") == (1.0, 2.0)
    disabled = EvalCache(max_entries=0)
    disabled.put(b"x", 1.0, 1.0)
    assert disabled.get(b"x") is None
    assert len(disabled) == 0


# ----------------------------------------------------------------------
# Search integration: identical trajectories, batched evaluation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_evolve_trajectory_identical_with_engine(backend):
    net = build_array_multiplier(4)
    params = params_for_netlist(net, extra_columns=6)
    seed = netlist_to_chromosome(net, params)
    dist = uniform(4, signed=False)
    cfg = EvolutionConfig(generations=120, history_every=1)
    runs = {}
    for name, ev in (
        ("base", multiplier_objective(4, dist)),
        ("engine", CompiledObjective(
            multiplier_objective(4, dist), backend=backend
        )),
    ):
        runs[name] = evolve(
            seed, ev, threshold=0.02, config=cfg,
            rng=np.random.default_rng(1234),
        )
    assert runs["base"].history == runs["engine"].history
    assert runs["base"].best_eval == runs["engine"].best_eval
    assert np.array_equal(runs["base"].best.genes, runs["engine"].best.genes)


def test_parallel_front_reproducible_and_matches_serial():
    net = build_array_multiplier(4)
    dist = uniform(4, signed=False)
    kwargs = dict(
        width=4,
        design_dist=dist,
        thresholds_percent=[0.5, 2.0],
        eval_dists=[dist],
        config=EvolutionConfig(generations=40),
        seed=7,
    )
    serial = parallel_front(net, max_workers=1, **kwargs)
    threaded = parallel_front(net, max_workers=2, executor="thread", **kwargs)
    again = parallel_front(net, max_workers=2, executor="thread", **kwargs)

    def key(front):
        return [
            (p.name, p.area, p.threshold_percent, sorted(p.wmed_by_dist.items()))
            for p in front
        ]

    assert key(serial) == key(threaded) == key(again)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.table, b.table)


def test_parallel_front_rejects_unknown_executor():
    net = build_array_multiplier(4)
    dist = uniform(4, signed=False)
    for workers in (None, 1):  # validated even on the serial path
        with pytest.raises(ValueError):
            parallel_front(
                net, 4, dist, [1.0], [dist],
                config=EvolutionConfig(generations=1),
                executor="carrier-pigeon",
                max_workers=workers,
            )
