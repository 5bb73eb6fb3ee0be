"""Technology cost models: area, power, timing, PDP."""

import numpy as np
import pytest

from repro.circuits.gates import GATE_REGISTRY
from repro.circuits.netlist import Netlist
from repro.circuits.generators import (
    build_array_multiplier,
    build_baugh_wooley_multiplier,
    build_ripple_carry_adder,
)
from repro.analysis.sweep import make_objective
from repro.core.mutation import mutate
from repro.core.seeding import netlist_to_chromosome
from repro.engine import native_available
from repro.errors import paper_d2, uniform, vector_weights
from repro.tech import (
    NANGATE45,
    characterize,
    circuit_area,
    circuit_power,
    critical_path,
    critical_path_delay,
    default_library,
    pdp,
    signal_probabilities,
)
from repro.baselines import build_truncated_multiplier


def test_library_covers_all_gate_functions():
    for fn in GATE_REGISTRY:
        assert NANGATE45.cell(fn).name == fn


def test_library_unknown_cell():
    with pytest.raises(KeyError):
        NANGATE45.cell("MAJ3")


def test_constants_are_free():
    assert NANGATE45.cell("CONST0").area == 0.0
    assert NANGATE45.cell("CONST1").delay == 0.0


def test_xor_costs_more_than_nand():
    assert NANGATE45.cell("XOR").area > NANGATE45.cell("NAND").area
    assert NANGATE45.cell("XOR").delay > NANGATE45.cell("NAND").delay


def test_area_counts_active_only():
    net = Netlist(num_inputs=2)
    live = net.add_gate("AND", 0, 1)
    dead = net.add_gate("XOR", 0, 1)
    net.set_outputs([live])
    assert circuit_area(net) == pytest.approx(NANGATE45.cell("AND").area)
    net.set_outputs([live, dead])
    assert circuit_area(net) == pytest.approx(
        NANGATE45.cell("AND").area + NANGATE45.cell("XOR").area
    )


def test_truncation_reduces_all_costs():
    exact = build_truncated_multiplier(8, 0, signed=True)
    trunc = build_truncated_multiplier(8, 6, signed=True)
    s_exact = characterize(exact)
    s_trunc = characterize(trunc)
    assert s_trunc.area < s_exact.area
    assert s_trunc.power.total < s_exact.power.total
    assert s_trunc.pdp < s_exact.pdp


def test_signal_probabilities_inputs_half():
    net = build_ripple_carry_adder(2)
    probs = signal_probabilities(net)
    for k in range(net.num_inputs):
        assert probs[k] == pytest.approx(0.5)


def test_signal_probabilities_and_gate():
    net = Netlist(num_inputs=2)
    net.set_outputs([net.add_gate("AND", 0, 1)])
    probs = signal_probabilities(net)
    assert probs[2] == pytest.approx(0.25)


def test_signal_probabilities_weighted():
    net = Netlist(num_inputs=2)
    net.set_outputs([net.add_gate("AND", 0, 1)])
    # Put all probability on vector 3 (both inputs 1).
    weights = np.array([0.0, 0.0, 0.0, 1.0])
    probs = signal_probabilities(net, weights=weights)
    assert probs[2] == pytest.approx(1.0)


def test_weighted_power_differs_from_uniform():
    net = build_baugh_wooley_multiplier(4)
    d = uniform(4, signed=True)
    w = vector_weights(d, 4)
    uniform_power = circuit_power(net).total
    # Concentrate activity on x == 0: far fewer toggles.
    pmf = np.zeros(16)
    pmf[0] = 1.0
    from repro.errors import from_pmf

    zero_w = vector_weights(from_pmf(pmf, 4, signed=True), 4)
    zero_power = circuit_power(net, weights=zero_w / zero_w.sum()).total
    assert zero_power < uniform_power


def test_power_positive_and_dynamic_dominates():
    rep = circuit_power(build_array_multiplier(4))
    assert rep.dynamic > 0
    assert rep.leakage > 0
    assert rep.total == pytest.approx(rep.dynamic + rep.leakage)


def test_delay_single_gate():
    net = Netlist(num_inputs=2)
    net.set_outputs([net.add_gate("XOR", 0, 1)])
    assert critical_path_delay(net) == pytest.approx(NANGATE45.cell("XOR").delay)


def test_delay_chain_adds():
    net = Netlist(num_inputs=1)
    a = net.add_gate("NOT", 0)
    b = net.add_gate("NOT", a)
    net.set_outputs([b])
    assert critical_path_delay(net) == pytest.approx(
        2 * NANGATE45.cell("NOT").delay
    )


def test_delay_output_on_input_is_zero():
    net = Netlist(num_inputs=2)
    net.set_outputs([0])
    assert critical_path_delay(net) == 0.0


def test_critical_path_endpoints():
    net = Netlist(num_inputs=2)
    a = net.add_gate("AND", 0, 1)
    b = net.add_gate("XOR", a, 1)
    net.set_outputs([b])
    path = critical_path(net)
    assert path[-1] == b
    assert path[0] in (0, 1)


def test_adder_delay_grows_with_width():
    d4 = critical_path_delay(build_ripple_carry_adder(4))
    d8 = critical_path_delay(build_ripple_carry_adder(8))
    assert d8 > d4


def test_pdp_units():
    assert pdp(1000.0, 1000.0) == pytest.approx(1000.0)  # 1 mW * 1 ns = 1 pJ = 1000 fJ


def test_characterize_bundle():
    s = characterize(build_array_multiplier(4))
    assert s.area > 0 and s.delay > 0 and s.pdp > 0


def test_exact_8bit_multiplier_in_plausible_range(bw8):
    """Sanity anchor: the paper's exact 8-bit multiplier is ~0.39 mW."""
    s = characterize(bw8)
    assert 0.1 < s.power.total / 1000.0 < 1.0  # mW
    assert 200 < s.area < 800  # um^2
    assert 500 < s.delay < 3000  # ps


@pytest.mark.parametrize("engine", ["off", "numpy", "native"])
def test_circuit_area_is_the_search_area(engine):
    """Regression: the stored area summed ``count x cell area`` per gate
    function, which differed from the search's area in its last bits
    (292.334 against 292.33400000000006 on a width-8 D2 run).  It is now
    the search's own sum, bit for bit, on every evaluation path."""
    if engine == "native" and not native_available():
        pytest.skip("native backend unavailable")
    objective = make_objective(6, paper_d2(6), engine=engine)
    rng = np.random.default_rng(12)
    chromosome = netlist_to_chromosome(
        build_array_multiplier(6)
    )
    areas = []
    for _ in range(40):
        chromosome, _ = mutate(chromosome, 5, rng)
        result = objective.evaluate(chromosome, float("inf"))
        areas.append(result.area)
        assert circuit_area(chromosome.to_netlist()) == result.area
    assert len(set(areas)) > 10  # the mutants really differ
