"""The component-agnostic objective layer (core + engine + metrics).

The layer's contract mirrors the engine's: one objective API for every
component (multiplier, adder, MAC, arbitrary netlist) and every error
metric, with the compiled engine producing *bit-identical* results to
the interpreted path.  Most tests here are equivalence properties over
random candidates, plus the component registry's closed-form references
against simulation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.simulator import truth_table
from repro.core import (
    CircuitObjective,
    EvolutionConfig,
    adder_objective,
    component_objective,
    evolve,
    get_component,
    infer_component,
    mac_objective,
    multiplier_objective,
    netlist_objective,
    netlist_to_chromosome,
    params_for_netlist,
)
from repro.core.chromosome import CGPParams, Chromosome
from repro.core.components import COMPONENTS
from repro.core.mutation import mutate
from repro.core.objective import SampledObjective, SampleSpec
from repro.engine import (
    CompiledObjective,
    CompiledSampledObjective,
    native_available,
)
from repro.errors import (
    exact_product_table,
    get_metric,
    max_product_magnitude,
    mean_error_distance,
    metric_names,
    operand_weights,
    uniform,
    vector_weights,
    worst_case_error,
)
from repro.errors.distributions import discretized_half_normal
from repro.obs import catalog as obs_catalog
from repro.obs.metrics import enabled as obs_enabled

BACKENDS = ["numpy"] + (["native"] if native_available() else [])

#: (component, width, signed) cases small enough for exhaustive tests.
CASES = [
    ("multiplier", 4, True),
    ("multiplier", 4, False),
    ("adder", 4, False),
    ("mac", 2, True),
    ("mac", 2, False),
    ("divider", 3, False),
    ("subtractor", 3, False),
    ("barrel-shifter", 3, False),
]

#: The PR-5 catalog expansion: unsigned two-operand components.
NEW_COMPONENTS = ("divider", "subtractor", "barrel-shifter")


def _seed_chromosome(component: str, width: int, signed: bool, extra: int = 8):
    comp = get_component(component)
    net = comp.build_seed(width, comp.resolve_signed(signed))
    return netlist_to_chromosome(net, params_for_netlist(net, extra_columns=extra))


def _dist(width: int, signed: bool):
    return discretized_half_normal(width, sigma=max(2.0, (1 << width) / 4),
                                   signed=signed, name="Dh")


# ----------------------------------------------------------------------
# Component registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("component,width,signed", CASES)
def test_closed_form_reference_matches_simulated_seed(component, width, signed):
    """Property: every component's reference == its exact seed circuit."""
    comp = get_component(component)
    signed = comp.resolve_signed(signed)
    ref = comp.reference(width, signed)
    sim = truth_table(comp.build_seed(width, signed), signed=signed)
    assert np.array_equal(ref, sim)


def test_infer_component_round_trips_interface_shapes():
    for name, width in [("multiplier", 4), ("multiplier", 8),
                        ("adder", 4), ("adder", 8), ("mac", 2), ("mac", 3),
                        ("divider", 4), ("subtractor", 4),
                        ("barrel-shifter", 6)]:
        comp = get_component(name)
        got = infer_component(comp.num_inputs(width), comp.num_outputs(width))
        assert any(m.name == name and w == width for m, w in got)
        # The inferred width is consistent across every candidate.
        assert {w for _, w in got} == {width}
    assert infer_component(7, 13) == ()


def test_infer_component_reports_all_shape_collisions():
    """Colliding interface shapes return every candidate, honestly."""
    # 2w -> w+1: adder and subtractor.
    assert [m.name for m, _ in infer_component(8, 5)] == \
        ["adder", "subtractor"]
    # 2w -> w: divider and barrel shifter.
    assert [m.name for m, _ in infer_component(8, 4)] == \
        ["divider", "barrel-shifter"]
    # The degenerate 2 -> 2 shape fits three 1-bit components.
    assert [m.name for m, _ in infer_component(2, 2)] == \
        ["multiplier", "adder", "subtractor"]
    # Unique shapes still come back as exactly one candidate.
    assert [m.name for m, _ in infer_component(8, 8)] == ["multiplier"]
    assert [m.name for m, _ in infer_component(9, 5)] == ["mac"]


def test_component_width_guards():
    with pytest.raises(ValueError):
        get_component("mac").check_width(8)  # 2**33 vectors: rejected
    with pytest.raises(ValueError):
        get_component("multiplier").check_width(0)
    with pytest.raises(ValueError):
        get_component("bogus")


def test_adder_component_is_unsigned():
    assert not get_component("adder").supports_signed
    with pytest.raises(ValueError):
        adder_objective(4, uniform(4, signed=True))


def test_new_components_are_unsigned():
    for name in NEW_COMPONENTS:
        assert not get_component(name).supports_signed
        with pytest.raises(ValueError, match="unsigned"):
            component_objective(name, 4, uniform(4, signed=True))
        with pytest.raises(ValueError, match="width"):
            component_objective(name, 4, uniform(3))


@pytest.mark.parametrize("component", NEW_COMPONENTS)
@pytest.mark.parametrize("width", range(2, 9))
def test_new_component_references_match_seeds_widths_2_to_8(
    component, width
):
    """Property: closed-form reference == exact seed, widths 2-8."""
    comp = get_component(component)
    ref = comp.reference(width, False)
    sim = truth_table(comp.build_seed(width, False), signed=False)
    assert np.array_equal(ref, sim)


def test_divider_reference_zero_convention():
    """x / 0 = all-ones for every x (including 0 / 0), by definition."""
    for width in (2, 4):
        ref = get_component("divider").reference(width, False)
        # Vectors with y == 0 are the first 2**width entries.
        assert (ref[: 1 << width] == (1 << width) - 1).all()
        # Everything else is plain floor division.
        v = np.arange(1 << (2 * width), dtype=np.int64)
        x, y = v & ((1 << width) - 1), v >> width
        nz = y > 0
        assert np.array_equal(ref[nz], x[nz] // y[nz])


def test_subtractor_reference_wraps_twos_complement():
    ref = get_component("subtractor").reference(3, False)
    v = np.arange(64, dtype=np.int64)
    x, y = v & 7, v >> 3
    assert np.array_equal(ref, (x - y) & 15)
    # The borrow-out doubles as the sign bit of the wrapped encoding.
    assert (ref[(x < y)] >= 8).all() and (ref[(x >= y)] < 8).all()


def test_barrel_shifter_reference_uses_low_shift_bits():
    from repro.circuits.generators import shift_amount_bits

    assert [shift_amount_bits(w) for w in (1, 2, 3, 4, 5, 8)] == \
        [1, 1, 2, 2, 3, 3]
    ref = get_component("barrel-shifter").reference(4, False)
    v = np.arange(256, dtype=np.int64)
    x, y = v & 15, v >> 4
    assert np.array_equal(ref, (x << (y & 3)) & 15)


def test_operand_weights_generalizes_vector_weights():
    d = _dist(3, False)
    assert np.array_equal(operand_weights(d, 6), vector_weights(d, 3))
    w = operand_weights(d, 8)  # e.g. a 3-bit MAC x operand in 8 inputs
    assert w.shape == (256,)
    assert w[:8] == pytest.approx(d.pmf)
    with pytest.raises(ValueError):
        operand_weights(d, 2)


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
def test_metric_registry_names_and_aliases():
    assert set(metric_names()) == {
        "wmed", "med", "mred", "error-rate", "worst-case"
    }
    assert get_metric("mre").name == "mred"
    assert get_metric("er").name == "error-rate"
    assert get_metric("WCE").name == "worst-case"
    assert get_metric(get_metric("wmed")) is get_metric("wmed")
    with pytest.raises(ValueError):
        get_metric("psnr")


def test_metric_values_have_expected_semantics(rng):
    """Each metric on a mutated adder matches its table-level definition."""
    chrom = _seed_chromosome("adder", 4, False)
    for _ in range(40):
        chrom, _ = mutate(chrom, 6, rng)
    base = adder_objective(4, uniform(4))
    table = base.truth_table(chrom)
    ref = base.reference
    w = base.weights
    err = np.abs(ref - table)
    assert base.error(chrom) == pytest.approx(
        mean_error_distance(ref, table, w) / base.normalizer
    )
    med = component_objective("adder", 4, uniform(4), metric="med")
    assert med.error(chrom) == pytest.approx(
        err.mean() / base.normalizer
    )
    er = component_objective("adder", 4, uniform(4), metric="error-rate")
    assert er.error(chrom) == pytest.approx(float(np.dot(w, err != 0)))
    wce = component_objective("adder", 4, uniform(4), metric="worst-case")
    assert wce.error(chrom) == pytest.approx(
        worst_case_error(ref, table) / base.normalizer
    )
    mred = component_objective("adder", 4, uniform(4), metric="mred")
    rel = err / np.maximum(np.abs(ref), 1.0)
    assert mred.error(chrom) == pytest.approx(float(np.dot(w, rel)))


# ----------------------------------------------------------------------
# Compiled engine == interpreted path, bit-for-bit, all metrics/components
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("component,width,signed", CASES)
def test_every_metric_compiled_matches_interpreted_bitwise(
    rng, backend, component, width, signed
):
    """Property: engine == interpreted for random candidates, float ==."""
    signed = get_component(component).resolve_signed(signed)
    chrom = _seed_chromosome(component, width, signed)
    dist = _dist(width, signed)
    for metric in metric_names():
        base = component_objective(component, width, dist, metric=metric)
        eng = CompiledObjective(
            component_objective(component, width, dist, metric=metric),
            backend=backend,
        )
        assert eng.backend == backend
        c = chrom
        for _ in range(12):
            c, _ = mutate(c, 5, rng)
            rb = base.evaluate(c, 0.02)
            re = eng.evaluate(c, 0.02)
            assert rb.wmed == re.wmed  # bit-exact, not approx
            assert rb.area == re.area
            assert rb.fitness == re.fitness
        assert np.array_equal(eng.truth_table(c), base.truth_table(c))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("component", NEW_COMPONENTS)
def test_new_components_bit_identical_across_widths_2_to_8(
    rng, backend, component
):
    """Property: engine == interpreted for divider / subtractor /
    barrel shifter at every width 2-8 and every registered metric.

    The catalog-expansion acceptance: new ``ComponentSpec``s plug into
    the compiled engine with zero engine changes, and both backends
    (the native kernel and the ``REPRO_ENGINE=numpy`` fallback, which
    is what ``backend="numpy"`` forces) reproduce the interpreted
    evaluation float-for-float.
    """
    for width in range(2, 9):
        chrom = _seed_chromosome(component, width, False, extra=6)
        dist = _dist(width, False)
        for metric in metric_names():
            base = component_objective(component, width, dist, metric=metric)
            eng = CompiledObjective(
                component_objective(component, width, dist, metric=metric),
                backend=backend,
            )
            c = chrom
            for _ in range(3):
                c, _ = mutate(c, 5, rng)
                rb = base.evaluate(c, 0.05)
                re = eng.evaluate(c, 0.05)
                assert rb.wmed == re.wmed  # bit-exact, not approx
                assert rb.area == re.area
                assert rb.fitness == re.fitness
            assert np.array_equal(eng.truth_table(c), base.truth_table(c))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "component,width,signed", [("adder", 8, False), ("mac", 2, True)]
)
def test_evolve_trajectory_identical_through_engine(
    backend, component, width, signed
):
    """8-bit adder and MAC objectives evolve bit-identically compiled."""
    dist = _dist(width, signed)
    comp = get_component(component)
    net = comp.build_seed(width, comp.resolve_signed(signed))
    seed = netlist_to_chromosome(net, params_for_netlist(net, extra_columns=6))
    cfg = EvolutionConfig(generations=60, history_every=1)
    runs = {}
    for name, ev in (
        ("base", component_objective(component, width, dist)),
        ("engine", CompiledObjective(
            component_objective(component, width, dist), backend=backend
        )),
    ):
        runs[name] = evolve(
            seed, ev, threshold=0.01, config=cfg,
            rng=np.random.default_rng(99),
        )
    assert runs["base"].history == runs["engine"].history
    assert runs["base"].best_eval == runs["engine"].best_eval
    assert np.array_equal(runs["base"].best.genes, runs["engine"].best.genes)


def test_compiled_objective_rejects_non_objective():
    with pytest.raises(TypeError):
        CompiledObjective("not an objective")


def test_compiled_objective_rejects_mismatched_inputs():
    chrom = _seed_chromosome("adder", 4, False)
    eng = CompiledObjective(adder_objective(8, uniform(8)))
    with pytest.raises(ValueError):
        eng.evaluate(chrom, 0.1)


def test_cache_key_distinguishes_objectives(rng):
    """Same phenotype, different objective -> different cache signature."""
    chrom = _seed_chromosome("adder", 4, False)
    evaluators = [
        CompiledObjective(adder_objective(4, uniform(4), metric=m))
        for m in ("wmed", "med")
    ] + [CompiledObjective(adder_objective(4, _dist(4, False)))]
    sigs = set()
    for eng in evaluators:
        rt = eng._runtime(chrom.params)
        if rt is None:  # pragma: no cover - engine unavailable
            pytest.skip("engine runtime unavailable")
        rt.ensure_batch(1)
        n_ops = rt.compile_into_lane(chrom.genes, 0)
        sigs.add(rt.lane_signature(0, n_ops))
    assert len(sigs) == len(evaluators)


def test_wide_reference_runs_on_the_wide_decode(rng):
    """A reference far past int32 runs compiled, through the int64 loop.

    The 5-bit bus alone would take the narrow loops, but a reference
    offset by 2**40 leaves no int32 headroom, so both backends decode it
    in int64 — and still equal the interpreter."""
    chrom = _seed_chromosome("adder", 4, False)
    ref = adder_objective(4, uniform(4)).reference + (1 << 40)
    base = CircuitObjective(8, ref, signed=False)
    mutants = []
    for _ in range(5):
        chrom, _ = mutate(chrom, 4, rng)
        mutants.append(chrom)
    want = [base.evaluate(ch, 0.5) for ch in mutants]
    for backend in BACKENDS:
        eng = CompiledObjective(
            CircuitObjective(8, ref, signed=False), backend=backend,
            cache_entries=0,
        )
        rt = eng._runtime(chrom.params)
        assert rt is not None and rt.exact32 is None
        assert [eng.evaluate(ch, 0.5) for ch in mutants] == want
        assert eng.evaluate_batch(mutants, 0.5) == want
        for ch in mutants:
            assert np.array_equal(eng.truth_table(ch), base.truth_table(ch))
        stats = eng.stats()
        assert stats["batch"]["calls"] > 0
        assert stats["fallback"] == []


def _assert_counted_fallback(engine, interpreted, chromosomes, reason):
    """``engine`` serves every evaluation interpreted, counted by reason."""
    counter = obs_catalog.ENGINE_FALLBACK.labels(reason)
    before = counter.value
    want = [interpreted.evaluate(ch, 0.5) for ch in chromosomes]
    assert [engine.evaluate(ch, 0.5) for ch in chromosomes] == want
    assert engine.evaluate_batch(chromosomes, 0.5) == want
    assert engine._runtime(chromosomes[0].params) is None
    stats = engine.stats()
    assert stats["fallback"] == [reason]
    assert stats["batch"]["calls"] == 0
    if obs_enabled():
        assert counter.value - before == 2 * len(chromosomes)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reference_reaching_2_62_stays_interpreted_and_is_counted(
    backend, rng
):
    # |reference| >= 2**62 could make ref - value wrap int64, so the
    # engine refuses it; a sampled objective (float estimates, no
    # integer weights) still evaluates it on the interpreter.
    comp = COMPONENTS["adder"]
    spec = SampleSpec(samples=64, replicates=2, seed=5)

    def build():
        return SampledObjective(
            8, lambda v: comp.reference_at(4, False, v) + (1 << 62),
            uniform(4), spec, component="adder",
        )

    chrom = _seed_chromosome("adder", 4, False)
    mutants = [mutate(chrom, 4, rng)[0] for _ in range(3)]
    _assert_counted_fallback(
        CompiledSampledObjective(build(), backend=backend), build(),
        [chrom] + mutants, "reference-range",
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_bus_past_62_bits_stays_interpreted_and_is_counted(backend):
    obj = CircuitObjective(2, [0, 1, 2, 3], weights=[1, 2, 3, 4])
    params = CGPParams(num_inputs=2, num_outputs=63, columns=1,
                       functions=("CONST0",))
    wide = Chromosome(params, [0, 0, 0] + [2] * 63)
    _assert_counted_fallback(
        CompiledObjective(obj, backend=backend), obj, [wide],
        "output-width",
    )


def test_gate_without_opcode_stays_interpreted_and_is_counted(monkeypatch):
    # Every registered gate has an opcode today; a function table the
    # engine cannot lower must still fall back, and be counted.
    from repro.engine import evaluator

    def no_opcode(functions):
        raise KeyError("no engine opcode")

    monkeypatch.setattr(evaluator, "function_opcode_table", no_opcode)
    obj = adder_objective(4, uniform(4))
    chrom = _seed_chromosome("adder", 4, False)
    _assert_counted_fallback(
        CompiledObjective(obj, backend="numpy"), obj, [chrom], "no-opcode"
    )


# ----------------------------------------------------------------------
# Objective construction
# ----------------------------------------------------------------------
def test_multiplier_objective_is_legacy_fitness():
    """A plain CircuitObjective over the exact product table, the
    x-operand weights of ``dist`` and the maximum product magnitude: the
    construction stored multiplier errors and trajectories rest on."""
    for signed in (True, False):
        dist = _dist(4, signed)
        obj = multiplier_objective(4, dist)
        assert type(obj) is CircuitObjective
        assert obj.component == "multiplier"
        legacy = CircuitObjective(
            num_inputs=8,
            reference=exact_product_table(4, signed),
            weights=vector_weights(dist, 4),
            signed=signed,
            normalizer=float(max_product_magnitude(4, signed)),
            num_outputs=8,
        )
        assert np.array_equal(obj.reference, legacy.reference)
        assert obj.normalizer == legacy.normalizer
        assert np.array_equal(obj.weights, legacy.weights)
        assert np.array_equal(
            obj.integer_weights.row, legacy.integer_weights.row
        )
        assert obj.integer_weights.total == legacy.integer_weights.total


def test_multiplier_objective_checks_width_before_building():
    """Width 11 is past the exhaustive bound: refused, not a 2**22 table."""
    with pytest.raises(ValueError, match="sampled path"):
        multiplier_objective(11, uniform(11))
    with pytest.raises(ValueError, match="sampled path"):
        component_objective("multiplier", 11, uniform(11, signed=True))


def test_netlist_objective_rejects_signedness_mismatch():
    net = get_component("adder").build_seed(4, False)
    with pytest.raises(ValueError, match="signedness"):
        netlist_objective(net, dist=uniform(4, signed=True), signed=False)


def test_netlist_objective_matches_component_objective(rng):
    comp = get_component("adder")
    net = comp.build_seed(4, False)
    dist = _dist(4, False)
    a = adder_objective(4, dist)
    b = netlist_objective(net, dist=dist, normalizer=a.normalizer)
    chrom = _seed_chromosome("adder", 4, False)
    for _ in range(8):
        chrom, _ = mutate(chrom, 4, rng)
        assert a.evaluate(chrom, 0.05) == b.evaluate(chrom, 0.05)


def test_eval_result_error_alias():
    obj = adder_objective(3, uniform(3))
    chrom = _seed_chromosome("adder", 3, False)
    res = obj.evaluate(chrom, 0.0)
    assert res.error == res.wmed == 0.0
    assert res.feasible()


def test_mac_objective_weights_follow_x_operand():
    dist = _dist(2, False)
    obj = mac_objective(2, dist)
    comp = COMPONENTS["mac"]
    ni = comp.num_inputs(2)
    assert obj.num_inputs == ni
    w = obj.weights * (1 << (ni - 2))  # undo tiling normalization
    assert w[:4] == pytest.approx(dist.pmf)


# ----------------------------------------------------------------------
# make_objective's engine modes
# ----------------------------------------------------------------------
ENGINE_MODES = ["auto", "numpy"] + (["native"] if native_available() else [])

#: (component, width, signed, sample spec or None for exhaustive)
MAKE_OBJECTIVE_CASES = [
    ("multiplier", 4, True, None),
    ("multiplier", 4, False, None),
    ("adder", 4, False, None),
    ("multiplier", 6, False, SampleSpec(samples=256, replicates=4, seed=3)),
]


@pytest.mark.parametrize("component,width,signed,sample", MAKE_OBJECTIVE_CASES)
def test_make_objective_engine_modes_agree_bitwise(
    rng, component, width, signed, sample
):
    from repro.analysis import make_objective

    dist = _dist(width, signed)
    interpreted, compiled = (
        (SampledObjective, CompiledSampledObjective) if sample
        else (CircuitObjective, CompiledObjective)
    )
    objectives = {
        mode: make_objective(
            width, dist, engine=mode, component=component, sample=sample
        )
        for mode in ["off"] + ENGINE_MODES
    }
    assert type(objectives["off"]) is interpreted
    for mode in ENGINE_MODES:
        assert isinstance(objectives[mode], compiled)
        if mode != "auto":
            assert objectives[mode].backend == mode
    c = _seed_chromosome(component, width, signed)
    for _ in range(12):
        c, _ = mutate(c, 4, rng)
        expected = objectives["off"].evaluate(c, 0.02)
        for mode in ENGINE_MODES:
            got = objectives[mode].evaluate(c, 0.02)
            assert got.fitness == expected.fitness
            assert got.error == expected.error
            assert got.area == expected.area
            if sample:
                assert got.ci_low == expected.ci_low
                assert got.ci_high == expected.ci_high


def test_make_objective_rejects_unknown_engine_mode():
    from repro.analysis import make_objective

    dist = uniform(4)
    with pytest.raises(ValueError, match="unknown engine mode"):
        make_objective(4, dist, engine="gpu")
    with pytest.raises(ValueError, match="unknown engine mode"):
        make_objective(4, dist, engine="gpu", sample=SampleSpec(samples=64))


# ----------------------------------------------------------------------
# Sweep-layer signedness guards (fail fast, never clamp silently)
# ----------------------------------------------------------------------
def test_sweeps_reject_signed_dist_for_unsigned_component():
    from repro.analysis import characterize_design, grid_front, parallel_front

    signed_dist = uniform(4, signed=True)
    net = get_component("adder").build_seed(4, False)
    with pytest.raises(ValueError, match="unsigned"):
        characterize_design(net, 4, [signed_dist], component="adder")
    # Before any cell runs, not mid-sweep in a worker:
    with pytest.raises(ValueError, match="unsigned"):
        grid_front(4, signed_dist, [1.0], [signed_dist],
                   components=("multiplier", "adder"), max_workers=1)
    with pytest.raises(ValueError, match="unsigned"):
        parallel_front(None, 4, signed_dist, [1.0], [signed_dist],
                       component="adder", max_workers=1)


def test_grid_front_empty_thresholds():
    from repro.analysis import grid_front

    assert grid_front(3, uniform(3), [], [uniform(3)], max_workers=1) == {
        ("multiplier", "wmed"): []
    }


def test_sweeps_fail_fast_on_oversized_width():
    """Width guards fire before any grid cell runs, not in a worker."""
    from repro.analysis import grid_front, parallel_front

    du = uniform(6)
    with pytest.raises(ValueError, match="width must be <= 5"):
        grid_front(6, du, [1.0], [du],
                   components=("multiplier", "mac"), max_workers=1)
    with pytest.raises(ValueError, match="width must be <= 5"):
        parallel_front(None, 6, du, [1.0], [du],
                       component="mac", max_workers=1)


def test_characterize_design_rejects_width_mismatch():
    from repro.analysis import characterize_design

    net = get_component("adder").build_seed(4, False)
    with pytest.raises(ValueError, match="width"):
        characterize_design(net, 4, [uniform(2)], component="adder")
    with pytest.raises(ValueError, match="width"):
        characterize_design(net, 4, [uniform(4)], component="adder",
                            activity_dist=uniform(2))


# ----------------------------------------------------------------------
# Portable popcount path (REPRO_POPCOUNT)
# ----------------------------------------------------------------------
def test_portable_popcount_bit_identical(rng, monkeypatch):
    from repro.circuits import simulator

    words = rng.integers(0, 1 << 63, size=64, dtype=np.uint64)
    for nv in (1, 63, 64, 1000, 64 * 64):
        fast = simulator.popcount(words, nv)
        monkeypatch.setattr(simulator, "_HAS_BITWISE_COUNT", False)
        assert simulator.popcount(words, nv) == fast
        monkeypatch.undo()


def test_popcount_env_override(monkeypatch):
    from repro.circuits import simulator

    monkeypatch.setenv("REPRO_POPCOUNT", "portable")
    assert simulator._use_bitwise_count() is False
    monkeypatch.delenv("REPRO_POPCOUNT")
    assert simulator._use_bitwise_count() == hasattr(np, "bitwise_count")
