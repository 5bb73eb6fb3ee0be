"""Integer vector weights and the one exact reduction.

Every exhaustive objective quantizes its weights once to int64 counts
``W`` with a power-of-two total, and every metric but mred is
``ErrorMetric.from_stats`` over five integers (``Σ|d|``, ``#{d != 0}``,
``max|d|``, ``Σ W·|d|``, ``Σ W·[d != 0]``).  These tests pin:

* the quantization rules (exact total, exact float image, period
  storage, the int64 bound and its ``ValueError``);
* the uniform law reproducing the old float reduction bit for bit
  (golden values recorded before the change);
* native, numpy and interpreted paths agreeing (float ``==``) for every
  component and metric under uniform, D2 and a skewed law;
* the characterization paths summing over the objective's own ``W``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro.circuits.simulator import truth_table
from repro.core import CircuitObjective, get_component, netlist_to_chromosome
from repro.core.chromosome import CGPParams, Chromosome
from repro.core.components import component_names, component_objective
from repro.core.mutation import mutate
from repro.core.seeding import params_for_netlist
from repro.engine import CompiledObjective, native_available
from repro.errors import (
    distribution_from_spec,
    evaluate_errors_against,
    get_metric,
    mean_error_distance,
    uniform,
)
from repro.errors.distributions import discretized_half_normal
from repro.errors.weights import (
    MAX_WEIGHT_TOTAL,
    IntegerWeights,
    distance_bound,
    weight_total,
)
from repro.tech.power import signal_probabilities

BACKENDS = ["numpy"] + (["native"] if native_available() else [])
GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "uniform_errors.json")


def _laws(width: int):
    return {
        "uniform": uniform(width),
        "d2": distribution_from_spec("d2", width, False),
        "half-normal": discretized_half_normal(
            width, sigma=max(1.0, width / 2.0), name="Dh"
        ),
    }


def _seed(component: str, width: int, extra: int = 8) -> Chromosome:
    comp = get_component(component)
    net = comp.build_seed(width, comp.resolve_signed(False))
    return netlist_to_chromosome(
        net, params_for_netlist(net, extra_columns=extra)
    )


# ----------------------------------------------------------------------
# Quantization rules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("law", ["uniform", "d2", "half-normal"])
@pytest.mark.parametrize("width", [2, 5, 8])
def test_quantized_weights_are_exact(law, width):
    obj = component_objective("multiplier", width, _laws(width)[law])
    w = obj.integer_weights
    # ΣW is the power of two the output width's distance bound allows.
    assert w.total == weight_total(
        distance_bound(obj.reference, 2 * width, False)
    )
    assert w.total & (w.total - 1) == 0
    assert int(w.counts.sum()) == w.total
    # objective.weights is the exact float image W / ΣW ...
    assert np.array_equal(obj.weights * w.total, w.counts)
    assert math.fsum(obj.weights) == 1.0
    # ... and each count is within one unit of the normalized weight.
    raw = np.tile(_laws(width)[law].pmf, 1 << width)
    ideal = raw / raw.sum() * w.total
    assert np.abs(w.counts - ideal).max() < 1.0
    # The x-operand pmf repeats over y: one period is stored.
    assert w.period == (1 if law == "uniform" else 1 << width)


def test_width8_multiplier_total_and_bound():
    obj = component_objective(
        "multiplier", 8, distribution_from_spec("d2", 8, False)
    )
    # max|d| = 65535 for a 16-bit output: 2**47 * 65535 < 2**63.
    assert obj.integer_weights.total == 1 << 47
    assert obj.integer_weights.max_distance >= 65535


def test_uniform_weights_are_one_constant_count():
    w = IntegerWeights.quantize(None, 1 << 10, 100)
    assert w.period == 1
    assert w.total == MAX_WEIGHT_TOTAL
    assert int(w.row[0]) * (1 << 10) == w.total


def test_largest_remainder_sums_exactly_for_awkward_weights():
    rng = np.random.default_rng(4)
    for n in (3, 7, 1000, 4096):
        raw = rng.random(n) ** 8
        w = IntegerWeights.quantize(raw, n, 1 << 20)
        assert int(w.counts.sum()) == w.total
        assert np.abs(w.counts - raw / raw.sum() * w.total).max() < 1.0


def test_quantization_bound_raises_naming_component_and_width():
    d2 = distribution_from_spec("d2", 4, False)
    ref = component_objective("multiplier", 4, d2).reference
    weights = np.tile(d2.pmf, 16)
    # 40-bit outputs: distances up to 2**40 leave ΣW = 2**23 < 2**30,
    # too coarse for the D2 weights.
    with pytest.raises(ValueError, match=r"multiplier with 40-bit outputs"):
        CircuitObjective(8, ref, weights=weights, num_outputs=40,
                         component="multiplier")
    # The uniform law quantizes exactly at that total: accepted.
    obj = CircuitObjective(8, ref, num_outputs=40, component="multiplier")
    assert obj.integer_weights.total == 1 << 23


@pytest.mark.parametrize("backend", ["interpreted"] + BACKENDS)
def test_distance_past_the_bound_raises_instead_of_wrapping(backend):
    # A 2-bit reference infers 2-bit outputs (weight total capped at
    # 2**53, so distances up to 1023 sum exactly); a candidate with 12
    # constant-one outputs reaches 4092, whose weighted sums could wrap.
    obj = CircuitObjective(2, [0, 1, 2, 3], weights=[1, 2, 3, 4])
    assert obj.integer_weights.max_distance == 1023
    params = CGPParams(num_inputs=2, num_outputs=12, columns=1,
                       functions=("CONST1",))
    wide = Chromosome(params, [0, 0, 0] + [2] * 12)
    evaluator = (
        obj if backend == "interpreted"
        else CompiledObjective(obj, backend=backend)
    )
    with pytest.raises(ValueError, match="exceeds 1023"):
        evaluator.evaluate(wide, 0.5)
    with pytest.raises(ValueError, match="exceeds"):
        obj.metric.from_stats([0, 0, 1024, 0, 0], obj.integer_weights,
                              obj.normalizer)


def test_plain_sum_bound_covers_totals_below_the_vector_count():
    # One-hot weights quantize exactly at any total, so a bound of 2**60
    # leaves ΣW = 4 over 256 vectors: ΣW·max|d| would allow distances up
    # to 2**61, but the plain Σ|d| over 256 vectors wraps from 2**55 on.
    onehot = np.zeros(256)
    onehot[7] = 1.0
    w = IntegerWeights.quantize(onehot, 256, 1 << 60)
    assert w.total == 4 < w.num_vectors
    limit = ((1 << 63) - 1) // 256
    assert w.max_distance == limit
    med = get_metric("med")
    assert med.from_stats([256 * limit, 256, limit, 0, 0], w, 1.0) == float(
        limit
    )
    with pytest.raises(ValueError, match="over 256 vectors"):
        med.from_stats([0, 256, limit + 1, 0, 0], w, 1.0)


def test_mred_has_no_integer_form():
    obj = component_objective("adder", 3, uniform(3), metric="mred")
    assert not obj.metric.integer
    with pytest.raises(ValueError, match="no integer form"):
        obj.metric.from_stats([0] * 5, obj.integer_weights, 1.0)


# ----------------------------------------------------------------------
# Uniform law: bit-identical to the float reduction it replaced
# ----------------------------------------------------------------------
def _golden_variants(component: str, width: int):
    seed = _seed(component, width, extra=0)
    p = seed.params
    no, ni = p.num_outputs, p.num_inputs
    rewires = [((0,), 0), ((0, 1), 1), (tuple(range(width)), 0),
               ((no - 1,), ni - 1)]
    out = []
    for bits, src in rewires:
        genes = seed.genes.copy()
        for b in bits:
            genes[len(genes) - no + b] = src
        out.append(Chromosome(p, genes))
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("component", ["multiplier", "adder"])
def test_uniform_values_match_golden_float_reduction(backend, component):
    golden = json.load(open(GOLDEN))["values"]
    for width in range(4, 9):
        variants = _golden_variants(component, width)
        for metric in ("wmed", "med", "error-rate", "worst-case"):
            base = component_objective(component, width, uniform(width),
                                       metric=metric)
            eng = CompiledObjective(base, backend=backend, cache_entries=0)
            batch = eng.evaluate_batch(variants, 0.01)
            for k, ch in enumerate(variants):
                want = float.fromhex(golden[f"{component}/{width}/{k}/{metric}"])
                assert base.error(ch) == want
                assert eng.error(ch) == want
                assert batch[k].error == want


# ----------------------------------------------------------------------
# Native == numpy == interpreted under non-uniform laws
# ----------------------------------------------------------------------
@pytest.mark.parametrize("law", ["uniform", "d2", "half-normal"])
@pytest.mark.parametrize("component", component_names())
def test_paths_bit_identical_for_every_metric(component, law):
    width = 3 if component == "mac" else 5
    dist = _laws(width)[law]
    rng = np.random.default_rng(17)
    brood, c = [], _seed(component, width)
    for _ in range(6):
        c, _ = mutate(c, 6, rng)
        brood.append(c)
    for metric in ("wmed", "med", "mred", "error-rate", "worst-case"):
        base = component_objective(component, width, dist, metric=metric)
        want = [base.evaluate(ch, 0.02) for ch in brood]
        for backend in BACKENDS:
            eng = CompiledObjective(base, backend=backend, cache_entries=0)
            assert [eng.evaluate(ch, 0.02) for ch in brood] == want
            assert eng.evaluate_batch(brood, 0.02) == want


# ----------------------------------------------------------------------
# Characterization sums over the objective's own W
# ----------------------------------------------------------------------
def test_report_wmed_equals_objective_wmed_bitwise():
    d2 = distribution_from_spec("d2", 6, False)
    obj = component_objective("multiplier", 6, d2)
    rng = np.random.default_rng(2)
    c = _seed("multiplier", 6)
    for _ in range(5):
        c, _ = mutate(c, 8, rng)
        table = truth_table(c.to_netlist(), signed=False)
        report = evaluate_errors_against(
            obj.reference, table, weights=obj.integer_weights,
            normalizer=obj.normalizer,
        )
        assert report.wmed == obj.error(c)
        rate = component_objective("multiplier", 6, d2, metric="error-rate")
        assert report.error_rate == rate.error(c)
        mred = component_objective("multiplier", 6, d2, metric="mred")
        assert report.mre == mred.error(c)
        # Float weights are quantized in the helper: close, not equal.
        float_w = mean_error_distance(obj.reference, table, obj.weights)
        assert float_w == pytest.approx(report.wmed * obj.normalizer,
                                        rel=1e-12)


def test_signal_probabilities_integer_weights():
    net = get_component("multiplier").build_seed(5, False)
    d2 = distribution_from_spec("d2", 5, False)
    obj = component_objective("multiplier", 5, d2)
    exact = signal_probabilities(net, weights=obj.integer_weights)
    floats = signal_probabilities(net, weights=obj.weights)
    assert exact.keys() == floats.keys()
    for sig, p in exact.items():
        assert p == pytest.approx(floats[sig], abs=1e-12)
    # Uniform float weights reproduce the unweighted means exactly.
    flat = signal_probabilities(net, weights=np.ones(1 << 10))
    assert flat == signal_probabilities(net)


def test_mred_is_a_fixed_order_sum():
    obj = component_objective(
        "multiplier", 6, distribution_from_spec("d2", 6, False),
        metric="mred",
    )
    d = np.abs(obj.reference - obj.reference[::-1])
    rel = d / np.maximum(np.abs(obj.reference), 1.0)
    assert get_metric("mred").from_distances(
        d, obj.weights, obj.normalizer, obj.reference
    ) == float((obj.weights * rel).sum())
