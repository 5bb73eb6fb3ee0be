"""Tests for the engine's batched evaluation ABI (PR 6).

The batch path's contract is the same as the engine's overall: *bit
identical* to evaluating sequentially — same compiled programs, same
integer kernels, same reductions — whatever the component, metric,
backend, or brood composition (duplicates, cache hits).  On top of
that sit the batch-specific behaviors: within-batch phenotype dedupe,
the eval-cache lookup that prevents recompiled cache-miss storms, the
single-owner arena guard, the ``REPRO_OMP`` knob, and the exact-integer
decode statistics every metric but mred reduces from.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.components import component_objective, component_names, get_component
from repro.core.evolution import EvolutionConfig, evolve
from repro.core.mutation import mutate
from repro.core.seeding import netlist_to_chromosome, params_for_netlist
from repro.core.components import sampled_component_objective
from repro.core.objective import SampleSpec
from repro.engine import (
    CompiledMultiplierFitness,
    CompiledObjective,
    CompiledSampledObjective,
    native_available,
)
from repro.engine.native import omp_threads
from repro.errors.distributions import (
    discretized_half_normal,
    distribution_from_spec,
    uniform,
)

BACKENDS = ["numpy"] + (["native"] if native_available() else [])
METRICS = ("wmed", "med", "mred", "error-rate", "worst-case")


def _seed_chromosome(component: str, width: int, extra: int = 8):
    comp = get_component(component)
    net = comp.build_seed(width, comp.resolve_signed(False))
    return netlist_to_chromosome(
        net, params_for_netlist(net, extra_columns=extra)
    )


def _objective(component, width, metric, backend, **kw):
    return CompiledObjective(
        component_objective(component, width, uniform(width), metric=metric),
        backend=backend,
        **kw,
    )


def _brood(component, width, n, seed=11):
    rng = np.random.default_rng(seed)
    c = _seed_chromosome(component, width)
    brood = []
    for _ in range(n):
        c, _ = mutate(c, 6, rng)
        brood.append(c)
    return brood


# ----------------------------------------------------------------------
# Bit-identity: batch vs sequential, across the whole catalog
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("component", component_names())
def test_batch_bit_identical_to_sequential(component, metric, backend):
    width = 3 if component == "mac" else 4
    brood = _brood(component, width, 8)
    brood.append(brood[0])  # in-batch duplicate phenotype
    batch_obj = _objective(component, width, metric, backend)
    seq_obj = _objective(component, width, metric, backend)
    batched = batch_obj.evaluate_batch(brood, 0.05)
    sequential = [seq_obj.evaluate(c, 0.05) for c in brood]
    assert batched == sequential
    # Second pass is fully cache-served and still identical.
    assert batch_obj.evaluate_batch(brood, 0.05) == sequential
    assert batch_obj.cache.stats()["hits"] >= len(brood)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_identical_across_backends(backend):
    # Cross-backend spot check on the paper's main configuration.
    brood = _brood("multiplier", 4, 6, seed=3)
    ref = _objective("multiplier", 4, "wmed", "numpy")
    obj = _objective("multiplier", 4, "wmed", backend)
    assert obj.evaluate_batch(brood, 0.01) == ref.evaluate_batch(brood, 0.01)


def test_empty_and_singleton_batches():
    obj = _objective("adder", 4, "wmed", "auto")
    assert obj.evaluate_batch([], 0.01) == []
    ch = _seed_chromosome("adder", 4)
    assert obj.evaluate_batch([ch], 0.01) == [obj.evaluate(ch, 0.01)]


# ----------------------------------------------------------------------
# Within-batch dedupe + cache lookup (the miss-storm fix)
# ----------------------------------------------------------------------
def test_batch_dedupes_identical_phenotypes():
    obj = _objective("multiplier", 4, "wmed", "auto")
    ch = _seed_chromosome("multiplier", 4)
    brood = [ch, ch.copy(), ch.copy(), ch.copy()]
    results = obj.evaluate_batch(brood, 0.01)
    assert len(set(results)) == 1
    st = obj.stats()["batch"]
    # One phenotype executed; the other three were deduped in-batch.
    assert st["evals"] == 1
    assert st["dedup"] == 3


def test_batch_serves_cache_before_dispatch():
    obj = _objective("multiplier", 4, "wmed", "auto")
    brood = _brood("multiplier", 4, 5)
    obj.evaluate_batch(brood, 0.01)
    evals_before = obj.stats()["batch"]["evals"]
    obj.evaluate_batch(brood, 0.01)  # all phenotypes already cached
    st = obj.stats()
    assert st["batch"]["evals"] == evals_before
    assert st["cache"]["hits"] >= len(brood)


def test_seeded_evolve_run_has_cache_hits():
    # Regression for the eval-cache miss storm: a short seeded run must
    # produce a nonzero hit rate (neutral drift revisits phenotypes).
    eng = CompiledMultiplierFitness(3, uniform(3))
    seed = _seed_chromosome("multiplier", 3)
    evolve(
        seed, eng, 0.01, EvolutionConfig(generations=400),
        rng=np.random.default_rng(2024),
    )
    stats = eng.stats()["cache"]
    assert stats["hits"] > 0


# ----------------------------------------------------------------------
# Single-owner guard
# ----------------------------------------------------------------------
def test_arena_rejects_cross_thread_use():
    obj = _objective("adder", 4, "wmed", "auto")
    ch = _seed_chromosome("adder", 4)
    obj.evaluate(ch, 0.01)  # builds the runtime on this thread
    caught = []

    def use_from_other_thread():
        try:
            obj.evaluate_batch([ch], 0.01)
        except RuntimeError as exc:
            caught.append(exc)

    t = threading.Thread(target=use_from_other_thread)
    t.start()
    t.join()
    assert len(caught) == 1 and "single-owner" in str(caught[0])
    # The owning thread keeps working.
    assert obj.evaluate(ch, 0.01) == obj.evaluate(ch, 0.01)


# ----------------------------------------------------------------------
# REPRO_OMP knob
# ----------------------------------------------------------------------
def test_repro_omp_off_forces_serial_and_identical_results(monkeypatch):
    brood = _brood("multiplier", 4, 6, seed=9)
    default = _objective("multiplier", 4, "wmed", "auto")
    expected = default.evaluate_batch(brood, 0.01)
    monkeypatch.setenv("REPRO_OMP", "0")
    assert omp_threads() == 1
    serial = _objective("multiplier", 4, "wmed", "auto")
    assert serial.evaluate_batch(brood, 0.01) == expected


def test_omp_threads_always_concrete(monkeypatch):
    for raw, expect_one in (("0", True), ("off", True), ("no", True),
                            ("false", True), ("1", True)):
        monkeypatch.setenv("REPRO_OMP", raw)
        n = omp_threads()
        assert n >= 1
        if expect_one:
            assert n == 1
    monkeypatch.delenv("REPRO_OMP")
    assert omp_threads() >= 1  # auto resolves to a concrete count


# ----------------------------------------------------------------------
# Exact-integer reduction: the decode's five statistics
# ----------------------------------------------------------------------
def test_fast_reduce_takes_integer_path_for_every_exhaustive_metric():
    # The integer statistics cover every metric but mred under any
    # weights — no power-of-two or vector-count condition remains.
    skewed = discretized_half_normal(4, sigma=4.0, name="Dh")
    for dist in (uniform(4), distribution_from_spec("d2", 4, False), skewed):
        for metric, kind in (("wmed", "wmed"), ("med", "med"),
                             ("error-rate", "error-rate"),
                             ("worst-case", "worst-case"), ("mred", None)):
            obj = CompiledObjective(
                component_objective("multiplier", 4, dist, metric=metric)
            )
            assert obj.stats()["fast_reduce"] == kind
    # Sampled objectives keep the distance row for their intervals.
    sampled = CompiledSampledObjective(
        sampled_component_objective(
            "multiplier", 4, distribution_from_spec("d2", 4, False),
            SampleSpec(64, 2, seed=0),
        )
    )
    assert sampled.stats()["fast_reduce"] is None


WEIGHT_LAWS = (
    ("uniform", lambda w: uniform(w)),
    ("d2", lambda w: distribution_from_spec("d2", w, False)),
    ("half-normal", lambda w: discretized_half_normal(w, sigma=w / 2.0,
                                                      name="Dh")),
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("law", [name for name, _ in WEIGHT_LAWS])
@pytest.mark.parametrize("width", [2, 4, 9])
def test_weighted_stats_equal_int64_dot_of_materialized_distances(
    backend, law, width
):
    # The five integers every backend reduces must equal the int64 dot
    # of the full per-vector weights W with the materialized distances
    # — exactly.  Width 2 has a weight period below the C loop's 8
    # lanes, width 4 runs the AVX2 loop and its tail, width 9 the
    # >16-bit decode.
    dist = dict(WEIGHT_LAWS)[law](width)
    obj = CompiledObjective(
        component_objective("multiplier", width, dist, metric="wmed"),
        backend=backend, cache_entries=0,
    )
    counts = obj.integer_weights.counts
    assert int(counts.sum()) == obj.integer_weights.total
    rt = obj._runtime(_seed_chromosome("multiplier", width).params)
    brood = _brood("multiplier", width, 6, seed=21)
    for ch in brood:
        n_ops = rt.compile(ch.genes)
        rt.execute(n_ops)
        d = rt.error(obj.signed).copy()
        assert d.dtype == np.int64
        want = [
            int(d.sum()), int(np.count_nonzero(d)), int(d.max()),
            int(np.dot(counts, d)), int(np.dot(counts, (d != 0)
                                               .astype(np.int64))),
        ]
        assert obj.integer_weights.stats(d) == want
        if backend == "native":
            assert rt.reduce_stats(obj.signed) == want
            rt.ensure_batch(1)
            rt.compile_into_lane(ch.genes, 0)
            assert rt.execute_lane_stats(0, obj.signed) == want
    if backend == "native":
        # The fused multi-candidate dispatch writes the same rows.
        rt.ensure_batch(len(brood))
        for k, ch in enumerate(brood):
            rt.compile_into_lane(ch.genes, k)
        rt.execute_batch(len(brood), obj.signed, 2, stats=True)
        fused = rt.arena.batch_stats[: len(brood)].tolist()
        single = []
        for ch in brood:
            rt.execute(rt.compile(ch.genes))
            single.append(rt.reduce_stats(obj.signed))
        assert fused == single
