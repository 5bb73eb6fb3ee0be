"""Sampled evaluation: estimators, CIs, engine parity, wide operands."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    COMPONENTS,
    EvolutionConfig,
    SampleSpec,
    component_objective,
    evolve,
    netlist_to_chromosome,
    sampled_component_objective,
)
from repro.core.mutation import mutate
from repro.core.objective import (
    SampledEvalResult,
    SampledObjective,
    draw_sampled_stimulus,
)
from repro.engine import (
    CompiledObjective,
    CompiledSampledObjective,
    native_available,
)
from repro.engine import evaluator as engine_evaluator
from repro.engine.native import omp_threads
from repro.errors.distributions import (
    distribution_from_spec,
    paper_d2,
    uniform,
)
from repro.errors.metrics import (
    ErrorMetric,
    estimate_from_distances,
    estimate_from_replicate_stats,
    get_metric,
    metric_names,
    replicate_stats,
    t_critical,
)

WIDTH = 8
SPEC = SampleSpec(samples=2048, replicates=8, seed=13)


def _mutant(width=WIDTH, signed=False, steps=8, seed=3, component="multiplier"):
    """A deterministically mutated (imperfect) candidate circuit."""
    chrom = netlist_to_chromosome(
        COMPONENTS[component].build_seed(width, signed)
    )
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        chrom, _ = mutate(chrom, 4, rng)
    return chrom


@pytest.fixture(scope="module")
def mutant():
    return _mutant()


# ----------------------------------------------------------------------
# Estimator correctness at exhaustive widths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric", metric_names())
def test_sampled_estimate_covers_exhaustive(metric, mutant):
    """Acceptance: width-8 sampled value agrees with the exhaustive one
    within the reported 95 % CI, for every metric."""
    dist = paper_d2(WIDTH)
    true = component_objective("multiplier", WIDTH, dist, metric=metric).error(
        mutant
    )
    est = sampled_component_objective(
        "multiplier", WIDTH, dist, SPEC, metric=metric
    ).estimate(mutant)
    assert est.ci_low <= true <= est.ci_high
    assert est.covers(true)
    if metric != "worst-case":
        # Point estimates should also be in the right ballpark, not just
        # inside a (possibly huge) interval.
        assert est.value == pytest.approx(true, rel=0.25, abs=1e-4)


def test_ci_coverage_over_seeded_replicates(mutant):
    """~95 % of seeded sample draws must cover the exhaustive truth."""
    dist = paper_d2(WIDTH)
    true = component_objective("multiplier", WIDTH, dist).error(mutant)
    covered = 0
    n_trials = 40
    for seed in range(n_trials):
        est = sampled_component_objective(
            "multiplier", WIDTH, dist,
            SampleSpec(samples=512, replicates=6, seed=seed),
        ).estimate(mutant)
        covered += est.ci_low <= true <= est.ci_high
    # Binomial(40, 0.95) puts ~99.9 % of its mass at >= 34.
    assert covered >= 34


def test_stderr_shrinks_with_samples(mutant):
    dist = paper_d2(WIDTH)
    widths = []
    for samples in (256, 1024, 4096):
        est = sampled_component_objective(
            "multiplier", WIDTH, dist,
            SampleSpec(samples=samples, replicates=8, seed=5),
        ).estimate(mutant)
        widths.append(est.ci_half_width)
    assert widths[0] > widths[1] > widths[2]


def test_exact_seed_estimates_zero():
    dist = paper_d2(WIDTH)
    exact = netlist_to_chromosome(
        COMPONENTS["multiplier"].build_seed(WIDTH, False)
    )
    for metric in metric_names():
        est = sampled_component_objective(
            "multiplier", WIDTH, dist, SPEC, metric=metric
        ).estimate(exact)
        assert est.value == 0.0
        assert est.ci_low == 0.0


@settings(max_examples=20, deadline=None)
@given(
    samples=st.integers(min_value=16, max_value=256),
    replicates=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
    metric=st.sampled_from(("wmed", "med", "mred", "error-rate")),
)
def test_pooled_estimate_is_mean_of_replicates(samples, replicates, seed, metric):
    """Algebraic identity: for the linear metrics the pooled estimate
    equals the mean of the per-replicate estimates (convergence of the
    replicate machinery to the plain sample mean)."""
    rng = np.random.default_rng(seed)
    n = samples * replicates
    distances = rng.integers(0, 1000, size=n).astype(np.float64)
    reference = rng.integers(1, 1000, size=n)
    m = get_metric(metric)
    est = estimate_from_distances(m, distances, 999.0, reference, replicates)
    per_rep = [
        m.from_distances(
            distances[r * samples : (r + 1) * samples],
            np.full(samples, 1.0 / samples),
            999.0,
            reference[r * samples : (r + 1) * samples],
        )
        for r in range(replicates)
    ]
    assert est.value == pytest.approx(float(np.mean(per_rep)), rel=1e-12)
    if replicates >= 2:
        stderr = float(np.std(per_rep, ddof=1) / np.sqrt(replicates))
        assert est.stderr == pytest.approx(stderr, rel=1e-12)
        assert est.ci_high - est.value == pytest.approx(
            t_critical(replicates - 1) * stderr, rel=1e-12
        )


def test_worst_case_interval_is_lower_bound():
    est = estimate_from_distances(
        get_metric("worst-case"),
        np.array([1.0, 5.0, 3.0, 2.0]),
        10.0,
        np.ones(4, dtype=np.int64),
        2,
    )
    assert est.value == 0.5
    assert est.ci_low == 0.5
    assert est.ci_high == float("inf")


# ----------------------------------------------------------------------
# Stream discipline
# ----------------------------------------------------------------------
def test_stimulus_reproducible_and_replicate_blocked():
    dist = paper_d2(WIDTH)
    a = draw_sampled_stimulus(dist, 16, SPEC)
    b = draw_sampled_stimulus(dist, 16, SPEC)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.stimulus, b.stimulus)
    # Replicate r's block must equal a solo draw of stream r's prefix:
    # streams come from SeedSequence(seed).spawn(replicates).
    children = np.random.SeedSequence(SPEC.seed).spawn(SPEC.replicates)
    rng = np.random.default_rng(children[2])
    x = dist.sample_patterns(SPEC.samples, rng)
    block = a.vectors[2 * SPEC.samples : 3 * SPEC.samples]
    assert np.array_equal(block & np.uint64((1 << WIDTH) - 1), x)


def test_uniform_law_for_unweighted_metrics():
    dist = paper_d2(WIDTH)
    for metric, expect_dist in (
        ("wmed", True), ("mred", True), ("error-rate", True),
        ("med", False), ("worst-case", False),
    ):
        obj = sampled_component_objective(
            "multiplier", WIDTH, dist, SPEC, metric=metric
        )
        assert (obj.sampling_dist is dist) == expect_dist


# ----------------------------------------------------------------------
# Engine parity and cache identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric", ("wmed", "mred", "worst-case"))
def test_backends_bit_identical(metric, mutant):
    dist = paper_d2(WIDTH)
    spec = SampleSpec(samples=1024, replicates=4, seed=9)

    def build(backend):
        obj = sampled_component_objective(
            "multiplier", WIDTH, dist, spec, metric=metric
        )
        if backend == "off":
            return obj
        return CompiledSampledObjective(obj, backend=backend)

    candidates = [_mutant(steps=k + 1, seed=11) for k in range(6)]
    interp = [build("off").evaluate(c, 0.01) for c in candidates]
    numpy_r = build("numpy").evaluate_batch(candidates, 0.01)
    engines = [interp, numpy_r]
    from repro.engine import native_available

    if native_available():
        nat = build("native")
        engines.append([nat.evaluate(c, 0.01) for c in candidates])
        engines.append(nat.evaluate_batch(candidates, 0.01))
    for other in engines[1:]:
        for a, b in zip(engines[0], other):
            assert isinstance(b, SampledEvalResult)
            assert (a.wmed, a.area, a.ci_low, a.ci_high) == (
                b.wmed, b.area, b.ci_low, b.ci_high
            )


def test_cache_key_separates_sample_specs(mutant):
    dist = paper_d2(WIDTH)
    s1 = CompiledSampledObjective(
        sampled_component_objective(
            "multiplier", WIDTH, dist, SampleSpec(256, 2, seed=1)
        ),
        backend="numpy",
    )
    s2 = CompiledSampledObjective(
        sampled_component_objective(
            "multiplier", WIDTH, dist, SampleSpec(256, 2, seed=2)
        ),
        backend="numpy",
    )
    exhaustive = CompiledObjective(
        component_objective("multiplier", WIDTH, dist), backend="numpy"
    )
    salts = {
        s1._objective_salt, s2._objective_salt, exhaustive._objective_salt
    }
    assert len(salts) == 3
    # And the cache actually round-trips the four-tuple.
    r1 = s1.evaluate(mutant, 0.01)
    assert s1.cache.hits == 0
    r2 = s1.evaluate(mutant, 0.01)
    assert s1.cache.hits == 1
    assert (r1.wmed, r1.area, r1.ci_low, r1.ci_high) == (
        r2.wmed, r2.area, r2.ci_low, r2.ci_high
    )


def test_fast_reduce_enabled_for_sampled():
    # The estimate and its interval come from per-replicate integer
    # sums, so a sampled objective takes the integer fast path.
    obj = CompiledSampledObjective(
        sampled_component_objective(
            "multiplier", WIDTH, uniform(WIDTH), SampleSpec(256, 2, seed=0)
        )
    )
    assert obj.replicate_reduce
    assert obj.stats()["fast_reduce"] == "wmed"


# ----------------------------------------------------------------------
# Replicate statistics: estimates from per-replicate integer sums
# ----------------------------------------------------------------------
#: Evaluation paths: the numpy backend, then the native backend under
#: each brood schedule ("native-threaded" forces the fused OpenMP call).
SAMPLED_PATHS = ["numpy"] + (
    ["native"] + (["native-threaded"] if omp_threads() > 1 else [])
    if native_available() else []
)


def _measure(result):
    return (result.wmed, result.area, result.ci_low, result.ci_high)


@pytest.mark.parametrize("samples", [256, 300])
@pytest.mark.parametrize("replicates", [2, 8])
@pytest.mark.parametrize("metric", ("wmed", "med", "error-rate", "worst-case"))
def test_replicate_estimates_identical_on_every_path(
    metric, replicates, samples, monkeypatch
):
    spec = SampleSpec(samples, replicates, seed=21)

    def build():
        return sampled_component_objective(
            "multiplier", WIDTH, paper_d2(WIDTH), spec, metric=metric
        )

    candidates = [_mutant(steps=k + 1, seed=5) for k in range(5)]
    interpreted = build()
    assert interpreted.replicate_reduce
    want = [_measure(interpreted.evaluate(c, 0.01)) for c in candidates]
    assert all(lo <= v <= hi for v, _, lo, hi in want)
    if samples == 256:
        # Power-of-two counts and sums far below 2**53: the float row
        # reduction was exact, so the point estimate keeps its bits.
        for c, (value, _, _, _) in zip(candidates, want):
            row = estimate_from_distances(
                interpreted.metric, interpreted.error_distances(c),
                interpreted.normalizer, interpreted.reference, replicates,
            )
            assert value == row.value
    for path in SAMPLED_PATHS:
        threaded = path == "native-threaded"
        monkeypatch.setattr(
            engine_evaluator, "_THREADED_MIN_WORDS",
            1 if threaded else 1 << 62,
        )
        backend = "numpy" if path == "numpy" else "native"
        single = CompiledSampledObjective(build(), backend=backend)
        batch = CompiledSampledObjective(build(), backend=backend)
        if backend == "native":
            # The decode reduces natively: no distance row is estimated.
            def forbidden(*args, **kwargs):
                raise AssertionError("a native estimate read the row")

            monkeypatch.setattr(
                SampledObjective, "estimate_distances", forbidden
            )
            monkeypatch.setattr(ErrorMetric, "from_distances", forbidden)
        assert [_measure(single.evaluate(c, 0.01)) for c in candidates] == want
        assert [
            _measure(r) for r in batch.evaluate_batch(candidates, 0.01)
        ] == want
        assert batch.stats()["fast_reduce"] == metric
        assert batch.stats()["omp"]["schedule"] == (
            "threaded" if threaded else "serial"
        )
        monkeypatch.undo()


@pytest.mark.skipif(not native_available(), reason="native backend only")
@pytest.mark.parametrize("width,samples", [(WIDTH, 300), (12, 256)])
def test_native_replicate_stats_equal_the_row_reduction(width, samples):
    # Width 8's 16-bit bus takes the narrow AVX2 decode loop (300-vector
    # blocks start mid-word), width 12's 24-bit bus the wide loop.
    replicates = 4
    obj = CompiledSampledObjective(
        sampled_component_objective(
            "multiplier", width, paper_d2(width),
            SampleSpec(samples, replicates, seed=2),
        ),
        backend="native",
    )
    brood = [_mutant(width=width, steps=k + 2, seed=7) for k in range(4)]
    rt = obj._runtime(brood[0].params)
    rt.ensure_batch(len(brood))
    for k, chrom in enumerate(brood):
        rt.compile_into_lane(chrom.genes, k)
    want = []
    for k in range(len(brood)):
        sums, nonzeros, maxima = replicate_stats(
            rt.execute_lane(k, obj.signed), replicates
        )
        stats = rt.execute_lane_stats(k, obj.signed)
        assert stats[0::5] == sums
        assert stats[1::5] == nonzeros
        assert stats[2::5] == maxima
        assert stats[3::5] == stats[4::5] == [0] * replicates
        want.append(stats)
    if omp_threads() > 1:
        rt.execute_batch(len(brood), obj.signed, 2, stats=True)
        assert rt.arena.batch_stats[: len(brood)].tolist() == want


def test_replicate_stats_refuse_sums_past_int64():
    wmed = get_metric("wmed")
    est = estimate_from_replicate_stats(
        wmed, [3, 5], [1, 2], [3, 4], 4, 10.0
    )
    assert est.value == 8 / 8 / 10.0
    with pytest.raises(ValueError, match="fits int64"):
        estimate_from_replicate_stats(
            wmed, [0, 0], [0, 0], [0, 1 << 62], 4, 1.0
        )
    with pytest.raises(ValueError):
        estimate_from_replicate_stats(get_metric("mred"), [0, 0], [0, 0],
                                      [0, 0], 4, 1.0)


# ----------------------------------------------------------------------
# Components: closed-form per-vector references
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", tuple(COMPONENTS))
def test_reference_at_matches_table(name):
    comp = COMPONENTS[name]
    for width in ((2, 3) if name == "mac" else (2, 5)):
        for signed in (False, True) if comp.supports_signed else (False,):
            table = comp.reference(width, signed)
            v = np.arange(1 << comp.num_inputs(width), dtype=np.uint64)
            assert np.array_equal(comp.reference_at(width, signed, v), table)
            assert comp.max_abs_reference(width, signed) == int(
                np.abs(table).max()
            )


def test_sampled_width_guards():
    with pytest.raises(ValueError, match="width <= 15"):
        COMPONENTS["mac"].check_sampled_width(16)
    with pytest.raises(ValueError, match="width <= 31"):
        COMPONENTS["multiplier"].check_sampled_width(32)
    COMPONENTS["multiplier"].check_sampled_width(31)
    with pytest.raises(ValueError):
        sampled_component_objective(
            "adder", WIDTH, uniform(WIDTH, signed=True), SPEC
        )


# ----------------------------------------------------------------------
# Wide operands
# ----------------------------------------------------------------------
def test_width16_sampled_evolve_smoke():
    """Acceptance: a width-16 sampled multiplier evolve completes and
    returns CI-carrying results (exhaustive would need 2**32 vectors)."""
    dist = paper_d2(16)
    obj = CompiledSampledObjective(
        sampled_component_objective(
            "multiplier", 16, dist, SampleSpec(samples=256, replicates=2, seed=0)
        )
    )
    seed = netlist_to_chromosome(COMPONENTS["multiplier"].build_seed(16, False))
    result = evolve(
        seed, obj, threshold=0.01,
        config=EvolutionConfig(generations=30),
        rng=np.random.default_rng(0),
    )
    assert isinstance(result.best_eval, SampledEvalResult)
    assert result.best_eval.wmed <= 0.01
    assert result.best_eval.ci_low <= result.best_eval.wmed


def test_wide_distribution_sampled_objective():
    d = distribution_from_spec("normal:2000000:300000", 24, False)
    obj = sampled_component_objective(
        "subtractor", 24, d, SampleSpec(samples=128, replicates=2, seed=4)
    )
    exact = netlist_to_chromosome(
        COMPONENTS["subtractor"].build_seed(24, False)
    )
    est = obj.estimate(exact)
    assert est.value == 0.0
    assert obj.normalizer == (1 << 25) - 1


def test_sampled_sweep_characterization():
    from repro.analysis.sweep import evolve_front

    dist = paper_d2(12)
    pts = evolve_front(
        None, 12, dist, [2.0], [dist],
        config=EvolutionConfig(generations=25),
        rng=np.random.default_rng(1),
        sample=SampleSpec(samples=128, replicates=2, seed=0),
    )
    p = pts[0]
    assert p.wmed_by_dist["D2"] <= 0.05
    assert p.area > 0 and p.power_mw > 0
    assert len(p.table) == 256  # outputs at the sampled vectors


def test_cli_sampled_evolve(tmp_path):
    out = tmp_path / "w12.chrom"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "evolve",
            "--width", "12", "--dist", "d2", "--unsigned",
            "--eval", "sampled", "--samples", "256", "--replicates", "2",
            "--wmed-percent", "1.0", "--generations", "30",
            "--output", str(out),
        ],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "ci95=[" in proc.stderr
    assert "samples=256x2" in proc.stderr
