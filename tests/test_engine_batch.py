"""Tests for the engine's batched evaluation ABI (PR 6).

The batch path's contract is the same as the engine's overall: *bit
identical* to evaluating sequentially — same compiled programs, same
integer kernels, same reductions — whatever the component, metric,
backend, schedule (the fused OpenMP call or the serial chunked loop),
or brood composition (duplicate phenotypes).  On top of that sit the
batch-specific behaviors: every candidate compiles and runs a lane
(no hashing, cache lookup or dedupe), the compile's active set is
adopted by every candidate, the single-owner arena guard, the rule each
runtime picks its schedule by, and the exact-integer decode statistics
every metric but mred reduces from.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading

import numpy as np
import pytest

from repro.core.components import component_objective, component_names, get_component
from repro.core.mutation import mutate
from repro.core.seeding import netlist_to_chromosome, params_for_netlist
from repro.core.components import sampled_component_objective
from repro.core.objective import SampleSpec
from repro.engine import (
    CompiledObjective,
    CompiledSampledObjective,
    native_available,
)
from repro.engine import evaluator as engine_evaluator
from repro.engine.native import omp_threads
from repro.errors.distributions import (
    discretized_half_normal,
    distribution_from_spec,
    uniform,
)

BACKENDS = ["numpy"] + (["native"] if native_available() else [])
#: Evaluation paths: the numpy backend, and the native backend under
#: each brood schedule ("native" forces the serial chunked loop,
#: "native-threaded" the fused OpenMP call).
PATHS = BACKENDS + (["native-threaded"] if native_available() else [])
METRICS = ("wmed", "med", "mred", "error-rate", "worst-case")


def _use_path(path, monkeypatch):
    """The backend of ``path``; runtimes built from here on take the
    path's schedule at any stimulus size."""
    backend, _, schedule = path.partition("-")
    min_words = 1 << 62
    if schedule == "threaded":
        if omp_threads() < 2:
            pytest.skip("the native library has no OpenMP team")
        min_words = 1
    monkeypatch.setattr(engine_evaluator, "_THREADED_MIN_WORDS", min_words)
    return backend


def _schedule_of(path):
    return "threaded" if path.endswith("-threaded") else "serial"


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
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("component", component_names())
def test_batch_bit_identical_to_sequential(
    component, metric, path, monkeypatch
):
    backend = _use_path(path, monkeypatch)
    width = 3 if component == "mac" else 4
    brood = _brood(component, width, 8)
    brood.append(brood[0])  # in-batch duplicate phenotype
    batch_obj = _objective(component, width, metric, backend)
    seq_obj = _objective(component, width, metric, backend)
    batched = batch_obj.evaluate_batch(brood, 0.05)
    # A lone evaluate() always runs serial.
    sequential = [seq_obj.evaluate(c, 0.05) for c in brood]
    assert batched == sequential
    assert batched[-1] == batched[0]
    assert batch_obj.stats()["omp"]["schedule"] == _schedule_of(path)
    # And both equal the interpreted objective.
    interpreted = component_objective(
        component, width, uniform(width), metric=metric
    )
    assert sequential == [interpreted.evaluate(c, 0.05) for c in brood]


@pytest.mark.parametrize("path", PATHS)
def test_sampled_batch_bit_identical_to_sequential(path, monkeypatch):
    # Sampled estimates reduce the materialized distance row, so the
    # threaded call's private error rows must match the serial loop's
    # reused one — value, area and both confidence bounds.
    backend = _use_path(path, monkeypatch)
    dist = distribution_from_spec("d2", 6, False)
    spec = SampleSpec(256, 4, seed=3)

    def sampled():
        return sampled_component_objective("multiplier", 6, dist, spec)

    brood = _brood("multiplier", 6, 8, seed=4)
    brood.append(brood[1])  # in-batch duplicate phenotype
    batch_obj = CompiledSampledObjective(
        sampled(), backend=backend, cache_entries=0
    )
    seq_obj = CompiledSampledObjective(sampled(), backend=backend)
    batched = batch_obj.evaluate_batch(brood, 0.02)
    assert batch_obj.stats()["omp"]["schedule"] == _schedule_of(path)
    sequential = [seq_obj.evaluate(c, 0.02) for c in brood]
    assert batched == sequential
    assert sequential == [sampled().evaluate(c, 0.02) for c in brood]
    assert all(r.ci_low <= r.wmed <= r.ci_high for r in batched)


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
# A brood candidate costs one compile and one native call
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", PATHS)
def test_batch_never_hashes_and_runs_every_candidate(path, monkeypatch):
    # Identical phenotypes run a lane each: no signature, cache lookup
    # or in-brood dedupe on the brood path.
    backend = _use_path(path, monkeypatch)
    obj = _objective("multiplier", 4, "wmed", backend)
    ch = _seed_chromosome("multiplier", 4)
    brood = [ch, ch.copy(), ch.copy()] + _brood("multiplier", 4, 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("evaluate_batch hashed a candidate")

    monkeypatch.setattr(engine_evaluator, "phenotype_signature", forbidden)
    results = obj.evaluate_batch(brood, 0.01)
    assert results[0] == results[1] == results[2]
    assert obj.stats()["batch"] == {"calls": 1, "evals": len(brood)}
    assert obj.cache.stats()["hits"] == obj.cache.stats()["misses"] == 0
    assert obj.evaluate_batch(brood, 0.01) == results
    assert obj.stats()["batch"] == {"calls": 2, "evals": 2 * len(brood)}


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
# The schedule rule: threaded only for large stimuli in a main thread
# ----------------------------------------------------------------------
def _schedule_after_a_brood(obj, width):
    obj.evaluate_batch(_brood("multiplier", width, 4, seed=8), 0.01)
    return obj.stats()["omp"]["schedule"]


def _exhaustive_d2(width, backend="auto"):
    return CompiledObjective(
        component_objective(
            "multiplier", width, distribution_from_spec("d2", width, False)
        ),
        backend=backend,
    )


def _width8_schedule():
    """A width-8 exhaustive objective's schedule (pool-worker target)."""
    return _schedule_after_a_brood(_exhaustive_d2(8), 8)


@pytest.mark.skipif(not native_available(), reason="native backend only")
def test_width8_exhaustive_runs_threaded_in_the_main_thread():
    if omp_threads() < 2:
        pytest.skip("the native library has no OpenMP team")
    obj = _exhaustive_d2(8)
    brood = _brood("multiplier", 8, 8, seed=8)
    threaded = obj.evaluate_batch(brood, 0.01)
    assert obj.stats()["omp"]["schedule"] == "threaded"
    # Candidates long enough to overlap on the team still equal the
    # serial brood-of-one results.
    serial = _exhaustive_d2(8)
    assert [serial.evaluate(c, 0.01) for c in brood] == threaded


@pytest.mark.skipif(not native_available(), reason="native backend only")
def test_runtime_runs_serial_outside_the_process_that_built_it():
    # libgomp's team does not survive fork(): a forked copy of a
    # threaded runtime must dispatch serial, with the same results.
    if omp_threads() < 2:
        pytest.skip("the native library has no OpenMP team")
    obj = _exhaustive_d2(8)
    brood = _brood("multiplier", 8, 4, seed=8)
    threaded = obj.evaluate_batch(brood, 0.01)
    assert obj.stats()["omp"]["schedule"] == "threaded"
    (rt,) = obj._runtimes.values()
    rt.pid = -1  # the building process, as a forked child sees it
    assert rt.team() == 1
    assert obj.stats()["omp"]["schedule"] == "serial"
    obj.cache.clear()
    assert obj.evaluate_batch(brood, 0.01) == threaded


@pytest.mark.skipif(not native_available(), reason="native backend only")
def test_width6_exhaustive_runs_serial():
    assert _schedule_after_a_brood(_exhaustive_d2(6), 6) == "serial"


@pytest.mark.skipif(not native_available(), reason="native backend only")
def test_sampled_512x4_runs_serial():
    obj = CompiledSampledObjective(
        sampled_component_objective(
            "multiplier", 16, distribution_from_spec("d2", 16, False),
            SampleSpec(512, 4, seed=0),
        )
    )
    assert _schedule_after_a_brood(obj, 16) == "serial"


def test_numpy_backend_runs_serial():
    assert _schedule_after_a_brood(_exhaustive_d2(8, "numpy"), 8) == "serial"


@pytest.mark.skipif(not native_available(), reason="native backend only")
def test_process_pool_worker_runs_serial():
    # A spawned worker has never run a team, so only the
    # multiprocessing-child rule keeps it serial.
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as pool:
        assert pool.submit(_width8_schedule).result(timeout=120) == "serial"


@pytest.mark.skipif(not native_available(), reason="native backend only")
def test_worker_thread_runs_serial():
    out = []
    t = threading.Thread(target=lambda: out.append(_width8_schedule()))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and out == ["serial"]


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
    # Sampled objectives reduce per replicate in integers too, but for
    # mred or a single replicate.
    for metric, spec, kind in (("wmed", SampleSpec(64, 2, seed=0), "wmed"),
                               ("mred", SampleSpec(64, 2, seed=0), None),
                               ("wmed", SampleSpec(64, 1, seed=0), None)):
        sampled = CompiledSampledObjective(
            sampled_component_objective(
                "multiplier", 4, distribution_from_spec("d2", 4, False),
                spec, metric=metric,
            )
        )
        assert sampled.stats()["fast_reduce"] == kind


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
    rt.ensure_batch(len(brood))
    for k, ch in enumerate(brood):
        rt.compile_into_lane(ch.genes, k)
    wants = []
    for k in range(len(brood)):
        d = rt.execute_lane(k, obj.signed).copy()
        assert d.dtype == np.int64
        want = [
            int(d.sum()), int(np.count_nonzero(d)), int(d.max()),
            int(np.dot(counts, d)), int(np.dot(counts, (d != 0)
                                               .astype(np.int64))),
        ]
        assert obj.integer_weights.stats(d) == want
        if backend == "native":
            assert rt.execute_lane_stats(k, obj.signed) == want
        wants.append(want)
    if backend == "native":
        # The fused multi-candidate dispatch writes the same rows.
        rt.execute_batch(len(brood), obj.signed, 2, stats=True)
        assert rt.arena.batch_stats[: len(brood)].tolist() == wants
