"""Vectorized packed-bit simulation of gate-level netlists.

The simulator evaluates a :class:`~repro.circuits.netlist.Netlist` for many
test vectors at once.  A signal over ``N`` vectors is a ``uint64`` array of
``ceil(N / 64)`` words; vector ``v`` lives in bit ``v % 64`` of word
``v // 64`` (little-endian bit order, which matches
``numpy.unpackbits(..., bitorder="little")`` on the uint8 view).

The most important entry points are:

* :func:`exhaustive_inputs` — packed input patterns enumerating all
  ``2**num_inputs`` vectors,
* :func:`simulate` — packed output words for arbitrary stimulus,
* :func:`output_values` / :func:`truth_table` — decoded integer outputs,
  the representation consumed by the error metrics.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .gates import gate_function
from .netlist import Netlist

__all__ = [
    "words_for",
    "pack_bits",
    "unpack_bits",
    "exhaustive_inputs",
    "pack_input_vectors",
    "simulate",
    "words_to_values",
    "output_values",
    "truth_table",
    "popcount",
]


def words_for(num_vectors: int) -> int:
    """Number of uint64 words needed to hold ``num_vectors`` bits."""
    if num_vectors < 0:
        raise ValueError("num_vectors must be non-negative")
    return (num_vectors + 63) // 64


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean/0-1 array of shape (N,) into uint64 words.

    Bit ``v`` of the result's word ``v // 64`` (little-endian) is
    ``bits[v]``; trailing pad bits are zero.
    """
    bits = np.asarray(bits).astype(np.uint8).ravel()
    n = bits.shape[0]
    packed8 = np.packbits(bits, bitorder="little")
    out = np.zeros(words_for(n) * 8, dtype=np.uint8)
    out[: packed8.shape[0]] = packed8
    return out.view("<u8").copy()

def unpack_bits(words: np.ndarray, num_vectors: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: words -> uint8 array of shape (N,)."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, bitorder="little")
    return bits[:num_vectors]


def _use_bitwise_count() -> bool:
    """Whether to popcount via ``np.bitwise_count`` (NumPy >= 2).

    Older NumPy falls back to unpacking bits; ``REPRO_POPCOUNT=portable``
    forces that fallback so CI can exercise the pre-NumPy-2 path on any
    NumPy version (both paths are bit-identical).  The knob is read once
    at import time (``popcount`` sits on hot loops): set it before the
    process starts, or monkeypatch ``_HAS_BITWISE_COUNT`` in tests.
    """
    import os

    if os.environ.get("REPRO_POPCOUNT", "").lower() in ("portable", "unpack"):
        return False
    return hasattr(np, "bitwise_count")


_HAS_BITWISE_COUNT = _use_bitwise_count()


def popcount(words: np.ndarray, num_vectors: int) -> int:
    """Number of 1-bits among the first ``num_vectors`` positions.

    Pad bits beyond ``num_vectors`` are ignored (gates like NOT can set
    them), so the result only depends on the valid positions.
    """
    if num_vectors == 0:
        return 0
    n_words = words_for(num_vectors)
    w = np.ascontiguousarray(words).ravel()[:n_words]
    if not _HAS_BITWISE_COUNT:
        return int(unpack_bits(w, num_vectors).sum())
    rem = num_vectors % 64
    if rem:
        w = w.copy()
        w[-1] &= np.uint64((1 << rem) - 1)
    return int(np.bitwise_count(w).sum())


#: Packed value of exhaustive-input row ``k`` for ``k < 6``: within one
#: 64-vector word the bit pattern ``(v >> k) & 1`` repeats with period
#: ``2**(k+1)``.
_EXHAUSTIVE_WORD_MASKS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)


def exhaustive_inputs(num_inputs: int) -> np.ndarray:
    """Packed input patterns enumerating all ``2**num_inputs`` vectors.

    Returns an array of shape ``(num_inputs, words)`` where row ``k`` holds
    bit ``k`` of the vector index: vector ``v`` drives input ``k`` with
    ``(v >> k) & 1``.  For a two-operand circuit whose inputs are laid out
    ``[x0..x(w-1), y0..y(w-1)]`` this enumerates ``x`` as the low half of
    the vector index and ``y`` as the high half.

    The pattern is constructed analytically instead of packing
    ``2**num_inputs`` explicit index rows: row ``k < 6`` is a constant
    word, and row ``k >= 6`` alternates runs of ``2**(k-6)`` all-zero and
    all-one words — no materialized index array, no per-row packing loop.
    """
    if num_inputs <= 0:
        raise ValueError("num_inputs must be positive")
    if num_inputs > 26:
        raise ValueError(
            f"exhaustive enumeration of {num_inputs} inputs is impractical"
        )
    n = 1 << num_inputs
    n_words = words_for(n)
    out = np.empty((num_inputs, n_words), dtype=np.uint64)
    for k in range(min(num_inputs, 6)):
        out[k] = _EXHAUSTIVE_WORD_MASKS[k]
    for k in range(6, num_inputs):
        # Bit v of word w is (v >> k) & 1 = (w >> (k - 6)) & 1: whole
        # words alternate in runs of 2**(k-6) zeros then ones.
        half = 1 << (k - 6)
        row = out[k].reshape(-1, 2 * half)
        row[:, :half] = 0
        row[:, half:] = np.uint64(0xFFFFFFFFFFFFFFFF)
    if n < 64:
        out &= np.uint64((1 << n) - 1)  # zero the pad bits
    return out


def pack_input_vectors(vectors: np.ndarray, num_inputs: int) -> np.ndarray:
    """Pack explicit test vectors into per-input word rows.

    All input rows are packed in one batched ``packbits`` call (bit
    matrix of shape ``(num_inputs, N)``) instead of a Python loop of
    per-row packs.

    Args:
        vectors: Integer array of shape (N,); bit ``k`` of each entry is
            the stimulus for primary input ``k``.
        num_inputs: Number of primary inputs.

    Returns:
        Array of shape ``(num_inputs, words_for(N))``.
    """
    vecs = np.asarray(vectors, dtype=np.uint64).ravel()
    shifts = np.arange(num_inputs, dtype=np.uint64)[:, None]
    bits = ((vecs[None, :] >> shifts) & np.uint64(1)).astype(np.uint8)
    packed8 = np.packbits(bits, axis=1, bitorder="little")
    out8 = np.zeros((num_inputs, words_for(vecs.size) * 8), dtype=np.uint8)
    out8[:, : packed8.shape[1]] = packed8
    return out8.view("<u8")


def simulate(netlist: Netlist, input_words: np.ndarray) -> List[np.ndarray]:
    """Evaluate a netlist's output cone over packed stimulus.

    Args:
        netlist: Circuit to simulate (must satisfy ``validate()``).
        input_words: Array of shape ``(num_inputs, W)`` as produced by
            :func:`exhaustive_inputs` or :func:`pack_input_vectors`.

    Returns:
        One packed word array per primary output, each of shape ``(W,)``.
    """
    values = simulate_signals(netlist, input_words)
    outs = []
    for out in netlist.outputs:
        val = values[out]
        if val is None:
            raise RuntimeError(f"output signal {out} was never computed")
        outs.append(val)
    return outs


def simulate_signals(
    netlist: Netlist,
    input_words: np.ndarray,
) -> List[Optional[np.ndarray]]:
    """Like :func:`simulate` but return every signal's packed words.

    Entry ``s`` of the result holds signal ``s``'s words, or ``None`` for
    gates outside the output cone (they are not evaluated).  Used by the
    switching-activity power model, which needs internal node values.
    """
    if input_words.shape[0] != netlist.num_inputs:
        raise ValueError(
            f"stimulus has {input_words.shape[0]} rows, "
            f"netlist expects {netlist.num_inputs}"
        )
    width = input_words.shape[1]
    values: List[Optional[np.ndarray]] = [None] * netlist.num_signals
    for k in range(netlist.num_inputs):
        values[k] = np.ascontiguousarray(input_words[k])
    zeros = np.zeros(width, dtype=np.uint64)
    for k in netlist.active_gate_indices():
        gate = netlist.gates[k]
        spec = gate_function(gate.fn)
        a = values[gate.inputs[0]] if spec.arity >= 1 else zeros
        b = values[gate.inputs[1]] if spec.arity >= 2 else zeros
        values[netlist.gate_signal(k)] = spec.packed(a, b)
    return values


def words_to_values(
    output_words: Sequence[np.ndarray],
    num_vectors: int,
    signed: bool = False,
) -> np.ndarray:
    """Decode per-bit output words into integer values per vector.

    ``output_words[j]`` is bit ``j`` (LSB first) of the output bus.  With
    ``signed=True`` the bus is interpreted as two's complement of width
    ``len(output_words)``.
    """
    n_bits = len(output_words)
    vals = np.zeros(num_vectors, dtype=np.int64)
    for j, words in enumerate(output_words):
        bits = unpack_bits(words, num_vectors).astype(np.int64)
        vals += bits << j
    if signed and n_bits > 0:
        sign = np.int64(1) << (n_bits - 1)
        vals = np.where(vals >= sign, vals - (sign << 1), vals)
    return vals


def output_values(
    netlist: Netlist,
    input_words: np.ndarray,
    num_vectors: int,
    signed: bool = False,
) -> np.ndarray:
    """Simulate and decode: integer output per test vector."""
    words = simulate(netlist, input_words)
    return words_to_values(words, num_vectors, signed=signed)


def truth_table(netlist: Netlist, signed: bool = False) -> np.ndarray:
    """Exhaustive integer output table indexed by input vector.

    Entry ``v`` is the circuit output when primary input ``k`` is driven
    with bit ``k`` of ``v``.
    """
    stim = exhaustive_inputs(netlist.num_inputs)
    return output_values(netlist, stim, 1 << netlist.num_inputs, signed=signed)


def simulate_reference(netlist: Netlist, vector: int) -> int:
    """Slow single-vector reference simulator using scalar gate functions.

    Used by tests to cross-check the packed simulator.
    """
    values = [0] * netlist.num_signals
    for k in range(netlist.num_inputs):
        values[k] = (vector >> k) & 1
    for k, gate in enumerate(netlist.gates):
        spec = gate_function(gate.fn)
        a = values[gate.inputs[0]] if spec.arity >= 1 else 0
        b = values[gate.inputs[1]] if spec.arity >= 2 else 0
        values[netlist.gate_signal(k)] = spec.scalar(a, b)
    out = 0
    for j, sig in enumerate(netlist.outputs):
        out |= values[sig] << j
    return out
