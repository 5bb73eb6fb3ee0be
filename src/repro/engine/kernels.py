"""Pure-numpy execution backend: kernel loop, decode and reductions.

This is the portable fallback behind the native C backend of
:mod:`repro.engine.native`; both consume the same compiled programs and
produce bit-identical results.  Speed comes from three things:

* the kernel loop runs over prebuilt arena row views with in-place
  (``out=``) ufunc kernels — no dict lookups, no per-gate allocation;
* decode unpacks *all* output planes with one stacked ``unpackbits`` and
  combines them with per-byte-group ``einsum`` (a bit transpose), instead
  of one unpack + shift + or round-trip per plane;
* the distance row subtracts the precomputed exact table directly into
  a preallocated ``int64`` buffer; metrics then reduce it with integer
  sums (an int64 dot against the integer weights, which numpy runs in
  its own loop, never BLAS — see
  :meth:`repro.errors.weights.IntegerWeights.stats`), the same integers
  the native decode accumulates in C.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .arena import BufferArena
from .opcodes import NUMPY_KERNELS

__all__ = [
    "run_program",
    "decode_values",
    "decode_error_lane",
]

#: Per-bit weights for one byte group of the stacked bit-transpose.
_POW2_8 = (np.uint16(1) << np.arange(8, dtype=np.uint16)).astype(np.uint16)


def run_program(
    arena: BufferArena, n_ops: int, lane: Optional[int] = None
) -> None:
    """Execute ``n_ops`` compiled operations over the arena rows.

    The program is the one compiled into the arena's own slabs, or into
    batch slab row ``lane``; either way it runs in ``buf``, as every
    candidate of a serial brood does in turn.  The compiler guarantees a
    destination never aliases its operands, so the two-step in-place
    kernels (NAND, ANDN, ...) are safe.
    """
    rows = arena.rows
    kernels = NUMPY_KERNELS
    if lane is None:
        ops, src_a, src_b, dst = arena.ops, arena.src_a, arena.src_b, arena.dst
    else:
        ops, src_a, src_b, dst = (
            arena.batch_ops[lane], arena.batch_src_a[lane],
            arena.batch_src_b[lane], arena.batch_dst[lane],
        )
    for op, a, b, d in zip(
        ops[:n_ops].tolist(), src_a[:n_ops].tolist(),
        src_b[:n_ops].tolist(), dst[:n_ops].tolist(),
    ):
        kernels[op](rows[a], rows[b], rows[d])


def _decode_planes(
    planes: np.ndarray,
    num_vectors: int,
    n_bits: int,
    signed: bool,
    values: np.ndarray,
) -> np.ndarray:
    """Bit-transpose ``planes`` into per-vector int64 ``values``.

    Every bus the engine serves (up to 62 bits) fits: the top byte group
    holds at most six bits, so no shift reaches the sign bit.
    """
    bits = np.unpackbits(
        planes.view(np.uint8), axis=1, bitorder="little"
    )[:, :num_vectors]
    np.copyto(
        values,
        np.einsum("jn,j->n", bits[:8], _POW2_8[: min(8, n_bits)]),
        casting="same_kind",
    )
    for group_start in range(8, n_bits, 8):
        k = min(8, n_bits - group_start)
        part = np.einsum(
            "jn,j->n", bits[group_start:group_start + k], _POW2_8[:k]
        )
        values |= part.astype(np.int64) << group_start
    if signed:
        half = np.int64(1) << np.int64(n_bits - 1)
        values[values >= half] -= half << np.int64(1)
    return values


def decode_values(
    arena: BufferArena, n_bits: int, signed: bool,
    lane: Optional[int] = None,
) -> np.ndarray:
    """Decode the output planes into per-vector integers (arena.values).

    The outputs are those of the program :func:`run_program` ran (the
    arena's own, or slab row ``lane``'s).  Equivalent to per-plane
    ``unpackbits`` + shift-accumulate but does a single stacked
    bit-transpose over all planes.
    """
    values = arena.values
    if n_bits == 0:
        values.fill(0)
        return values
    out_slots = (
        arena.out_slots if lane is None else arena.batch_out_slots[lane]
    )
    planes = arena.planes[:n_bits]
    np.take(arena.buf, out_slots[:n_bits], axis=0, out=planes)
    return _decode_planes(planes, arena.num_vectors, n_bits, signed, values)


def decode_error_lane(
    arena: BufferArena,
    lane: int,
    n_bits: int,
    signed: bool,
    exact: np.ndarray,
) -> np.ndarray:
    """Decode + ``|exact - value|`` of slab row ``lane``'s program into
    the int64 distance row ``arena.err``.

    ``exact`` is the int64 reference; ``|exact| < 2**62`` keeps every
    distance below ``2**63``.
    """
    values = decode_values(arena, n_bits, signed, lane)
    err = arena.err
    np.subtract(exact, values, out=err, dtype=np.int64)
    np.absolute(err, out=err)
    return err
