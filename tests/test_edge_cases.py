"""Edge cases and failure injection across modules."""

import numpy as np
import pytest

from repro.analysis import mac_summary
from repro.baselines import build_truncated_multiplier
from repro.circuits.generators import build_baugh_wooley_multiplier
from repro.circuits.netlist import Netlist
from repro.circuits.simulator import (
    exhaustive_inputs,
    pack_bits,
    pack_input_vectors,
    simulate,
    unpack_bits,
)
from repro.core import (
    CGPParams,
    EvolutionConfig,
    evolve,
    multiplier_objective,
    netlist_to_chromosome,
)
from repro.errors import uniform
from repro.nn import QuantizedModel, build_mlp, lut_matmul
from repro.nn.approx_layers import _GATHER_CHUNK_ELEMENTS


# ----------------------------------------------------------------------
# Simulator edges
# ----------------------------------------------------------------------
def test_pack_bits_empty():
    packed = pack_bits(np.zeros(0, dtype=np.uint8))
    assert packed.shape == (0,)
    assert unpack_bits(packed, 0).shape == (0,)


def test_pack_bits_exactly_64():
    bits = np.ones(64, dtype=np.uint8)
    packed = pack_bits(bits)
    assert packed.shape == (1,)
    assert packed[0] == np.uint64(0xFFFFFFFFFFFFFFFF)


def test_pack_bits_65_spills_word():
    bits = np.zeros(65, dtype=np.uint8)
    bits[64] = 1
    packed = pack_bits(bits)
    assert packed.shape == (2,)
    assert packed[1] == 1


def test_pack_input_vectors_large_values():
    vecs = np.array([2**20 - 1], dtype=np.uint64)
    stim = pack_input_vectors(vecs, 21)
    assert list(unpack_bits(stim[20], 1)) == [0]
    assert list(unpack_bits(stim[19], 1)) == [1]


def test_simulate_chain_of_nots_depth():
    """A deep inverter chain exercises long sequential dependencies."""
    net = Netlist(num_inputs=1)
    sig = 0
    depth = 300
    for _ in range(depth):
        sig = net.add_gate("NOT", sig)
    net.set_outputs([sig])
    outs = simulate(net, exhaustive_inputs(1))
    bits = unpack_bits(outs[0], 2)
    assert list(bits) == [0, 1]  # even depth: identity


def test_netlist_with_no_gates():
    net = Netlist(num_inputs=2)
    net.set_outputs([1, 0])
    outs = simulate(net, exhaustive_inputs(2))
    assert len(outs) == 2


# ----------------------------------------------------------------------
# CGP edges
# ----------------------------------------------------------------------
def test_single_column_params():
    p = CGPParams(num_inputs=2, num_outputs=1, columns=1)
    assert p.num_sources(0) == 2
    assert p.genome_length == 4


def test_evolution_zero_threshold_keeps_exact(bw4):
    """At threshold 0, every surviving parent computes exact products."""
    ch = netlist_to_chromosome(bw4)
    fit = multiplier_objective(4, uniform(4, signed=True))
    res = evolve(
        ch, fit, threshold=0.0,
        config=EvolutionConfig(generations=200),
        rng=np.random.default_rng(0),
    )
    assert res.best_eval.wmed == 0.0
    from repro.circuits.verify import verify_multiplier

    verify_multiplier(res.best.to_netlist(), 4, signed=True)


def test_multi_row_cgp_decode(rng):
    """rows > 1 with levels-back restriction still decodes legally."""
    from repro.core.seeding import random_chromosome

    p = CGPParams(
        num_inputs=3, num_outputs=2, columns=6, rows=3, levels_back=2
    )
    for _ in range(5):
        ch = random_chromosome(p, rng)
        net = ch.to_netlist()
        net.validate()


def test_evolution_single_generation(bw4, rng):
    ch = netlist_to_chromosome(bw4)
    fit = multiplier_objective(4, uniform(4, signed=True))
    res = evolve(
        ch, fit, threshold=0.01,
        config=EvolutionConfig(generations=1), rng=rng,
    )
    assert res.generations == 1


# ----------------------------------------------------------------------
# NN engine edges
# ----------------------------------------------------------------------
def test_lut_matmul_chunk_boundary(rng):
    """Inputs straddling the gather chunk size give identical results."""
    from repro.errors import exact_product_table, table_as_matrix

    lut = table_as_matrix(exact_product_table(4, True), 4)
    k, o = 64, 16
    rows = max(2, _GATHER_CHUNK_ELEMENTS // (k * o) + 1)
    rows = min(rows, 4096)  # keep memory sane if the constant grows
    a = rng.integers(-8, 8, size=(rows, k))
    w = rng.integers(-8, 8, size=(k, o))
    assert np.array_equal(lut_matmul(a, w, lut), a @ w)


def test_quantized_model_single_sample(rng):
    net = build_mlp(input_size=12, hidden=5, classes=3, rng=rng)
    x = rng.normal(size=(4, 12))
    qm = QuantizedModel(net, x)
    logits, _ = qm.forward(x[:1])
    assert logits.shape == (1, 3)


def test_quantized_model_all_zero_input(rng):
    net = build_mlp(input_size=6, hidden=4, classes=2, rng=rng)
    x = rng.normal(size=(8, 6))
    qm = QuantizedModel(net, x)
    logits, _ = qm.forward(np.zeros((2, 6)))
    assert np.isfinite(logits).all()


# ----------------------------------------------------------------------
# MAC characterization edges
# ----------------------------------------------------------------------
def test_mac_summary_deterministic_given_rng():
    d = uniform(8, signed=True)
    net = build_truncated_multiplier(8, 4, signed=True)
    a = mac_summary(net, 8, d, rng=np.random.default_rng(3))
    b = mac_summary(net, 8, d, rng=np.random.default_rng(3))
    assert a.power.total == b.power.total
    assert a.area == b.area


def test_mac_summary_approx_cheaper_than_exact():
    d = uniform(8, signed=True)
    exact = mac_summary(
        build_baugh_wooley_multiplier(8), 8, d, rng=np.random.default_rng(0)
    )
    approx = mac_summary(
        build_truncated_multiplier(8, 6, signed=True), 8, d,
        rng=np.random.default_rng(0),
    )
    assert approx.area < exact.area
    assert approx.power.total < exact.power.total
