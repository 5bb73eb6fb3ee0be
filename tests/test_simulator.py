"""Packed-bit simulator: packing, stimulus, decoding, reference cross-check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.netlist import Netlist
from repro.circuits.simulator import (
    exhaustive_inputs,
    output_values,
    pack_bits,
    pack_input_vectors,
    popcount,
    simulate,
    simulate_reference,
    simulate_signals,
    truth_table,
    unpack_bits,
    words_for,
    words_to_values,
)


def test_words_for():
    assert words_for(0) == 0
    assert words_for(1) == 1
    assert words_for(64) == 1
    assert words_for(65) == 2
    with pytest.raises(ValueError):
        words_for(-1)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=300))
def test_pack_unpack_roundtrip(bits):
    packed = pack_bits(np.array(bits))
    assert np.array_equal(unpack_bits(packed, len(bits)), np.array(bits))


def test_pack_bits_little_endian_order():
    packed = pack_bits(np.array([1, 0, 0, 0, 0, 0, 0, 0, 1]))
    assert int(packed[0]) == 0b1_0000_0001


def test_popcount():
    bits = np.zeros(130, dtype=np.uint8)
    bits[[0, 64, 129]] = 1
    assert popcount(pack_bits(bits), 130) == 3


def test_exhaustive_inputs_patterns():
    stim = exhaustive_inputs(3)
    assert stim.shape == (3, 1)
    for k in range(3):
        bits = unpack_bits(stim[k], 8)
        expected = [(v >> k) & 1 for v in range(8)]
        assert list(bits) == expected


def test_exhaustive_inputs_rejects_bad_sizes():
    with pytest.raises(ValueError):
        exhaustive_inputs(0)
    with pytest.raises(ValueError):
        exhaustive_inputs(30)


def test_pack_input_vectors_matches_exhaustive():
    vectors = np.arange(16)
    assert np.array_equal(pack_input_vectors(vectors, 4), exhaustive_inputs(4))


def test_pack_input_vectors_custom():
    stim = pack_input_vectors(np.array([0b10, 0b01]), 2)
    assert list(unpack_bits(stim[0], 2)) == [0, 1]
    assert list(unpack_bits(stim[1], 2)) == [1, 0]


def _mux_netlist():
    """2:1 mux: inputs [a, b, sel]; out = sel ? b : a."""
    net = Netlist(num_inputs=3)
    nsel = net.add_gate("NOT", 2)
    t1 = net.add_gate("AND", 0, nsel)
    t2 = net.add_gate("AND", 1, 2)
    net.set_outputs([net.add_gate("OR", t1, t2)])
    return net


def test_mux_truth_table():
    tt = truth_table(_mux_netlist())
    for v in range(8):
        a, b, sel = v & 1, (v >> 1) & 1, (v >> 2) & 1
        assert tt[v] == (b if sel else a)


def test_simulate_stimulus_shape_mismatch():
    net = _mux_netlist()
    with pytest.raises(ValueError):
        simulate(net, exhaustive_inputs(2))


def test_simulate_matches_reference_on_random_netlists(rng):
    """Property: packed simulation == scalar reference simulation."""
    from repro.circuits.gates import FULL_FUNCTION_SET

    for _ in range(20):
        ni = int(rng.integers(2, 6))
        net = Netlist(num_inputs=ni)
        for _g in range(int(rng.integers(1, 15))):
            fn = FULL_FUNCTION_SET[int(rng.integers(0, len(FULL_FUNCTION_SET)))]
            a = int(rng.integers(0, net.num_signals))
            b = int(rng.integers(0, net.num_signals))
            net.add_gate(fn, a, b)
        outs = rng.integers(0, net.num_signals, size=int(rng.integers(1, 4)))
        net.set_outputs([int(o) for o in outs])
        tt = truth_table(net)
        for v in range(1 << ni):
            assert tt[v] == simulate_reference(net, v)


def test_words_to_values_unsigned():
    words = [pack_bits(np.array([1, 0])), pack_bits(np.array([1, 1]))]
    vals = words_to_values(words, 2)
    assert list(vals) == [3, 2]


def test_words_to_values_signed():
    # Two outputs: bit1 is the sign bit of a 2-bit two's complement value.
    words = [pack_bits(np.array([1, 0])), pack_bits(np.array([1, 0]))]
    vals = words_to_values(words, 2, signed=True)
    assert list(vals) == [-1, 0]


def test_output_values_on_identity():
    net = Netlist(num_inputs=2)
    net.set_outputs([0, 1])
    vals = output_values(net, exhaustive_inputs(2), 4)
    assert list(vals) == [0, 1, 2, 3]


def test_simulate_signals_covers_active_cone():
    net = _mux_netlist()
    values = simulate_signals(net, exhaustive_inputs(3))
    assert all(values[s] is not None for s in net.active_signals())


def test_simulate_signals_skips_dead_gates():
    net = Netlist(num_inputs=2)
    live = net.add_gate("XOR", 0, 1)
    dead = net.add_gate("AND", 0, 1)
    net.set_outputs([live])
    values = simulate_signals(net, exhaustive_inputs(2))
    assert values[dead] is None
