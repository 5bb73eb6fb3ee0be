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

import numpy as np

from .arena import BufferArena
from .opcodes import NUMPY_KERNELS

__all__ = [
    "run_program",
    "run_program_batch",
    "decode_values",
    "decode_error",
    "decode_error_batch",
]

#: Per-bit weights for one byte group of the stacked bit-transpose.
_POW2_8 = (np.uint16(1) << np.arange(8, dtype=np.uint16)).astype(np.uint16)


def run_program(arena: BufferArena, n_ops: int) -> None:
    """Execute ``n_ops`` compiled operations over the arena rows.

    The compiler guarantees a destination never aliases its operands, so
    the two-step in-place kernels (NAND, ANDN, ...) are safe.
    """
    rows = arena.rows
    kernels = NUMPY_KERNELS
    ops = arena.ops[:n_ops].tolist()
    src_a = arena.src_a[:n_ops].tolist()
    src_b = arena.src_b[:n_ops].tolist()
    dst = arena.dst[:n_ops].tolist()
    for op, a, b, d in zip(ops, src_a, src_b, dst):
        kernels[op](rows[a], rows[b], rows[d])


def run_program_batch(arena: BufferArena, cand: int, n_ops: int) -> None:
    """Execute batch candidate ``cand``'s compiled slab into its lane.

    Identical op-by-op arithmetic to :func:`run_program`, but sources
    resolve against the shared stimulus rows plus the candidate's
    private lane (see :meth:`BufferArena.batch_rows`), and all stores
    land in the lane — candidates never alias each other.
    """
    rows = arena.batch_rows(cand)
    kernels = NUMPY_KERNELS
    ops = arena.batch_ops[cand, :n_ops].tolist()
    src_a = arena.batch_src_a[cand, :n_ops].tolist()
    src_b = arena.batch_src_b[cand, :n_ops].tolist()
    dst = arena.batch_dst[cand, :n_ops].tolist()
    for op, a, b, d in zip(ops, src_a, src_b, dst):
        kernels[op](rows[a], rows[b], rows[d])


def _gather_planes(arena: BufferArena, n_bits: int) -> np.ndarray:
    planes = arena.planes[:n_bits]
    np.take(arena.buf, arena.out_slots[:n_bits], axis=0, out=planes)
    return planes


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
    arena: BufferArena, n_bits: int, signed: bool
) -> np.ndarray:
    """Decode the output planes into per-vector integers (arena.values).

    Equivalent to per-plane ``unpackbits`` + shift-accumulate but does a
    single stacked bit-transpose over all planes.
    """
    values = arena.values
    if n_bits == 0:
        values.fill(0)
        return values
    planes = _gather_planes(arena, n_bits)
    return _decode_planes(planes, arena.num_vectors, n_bits, signed, values)


def decode_error(
    arena: BufferArena, n_bits: int, signed: bool, exact: np.ndarray
) -> np.ndarray:
    """Fused decode + ``|exact - value|`` into the int64 distance row.

    ``exact`` is the int64 reference; ``|exact| < 2**62`` keeps every
    distance below ``2**63``.
    """
    values = decode_values(arena, n_bits, signed)
    err = arena.err
    np.subtract(exact, values, out=err, dtype=np.int64)
    np.absolute(err, out=err)
    return err


def decode_error_batch(
    arena: BufferArena,
    cand: int,
    n_bits: int,
    signed: bool,
    exact: np.ndarray,
) -> np.ndarray:
    """Batch-candidate decode + error into ``arena.batch_err[cand]``.

    Bit-identical to :func:`decode_error` run after the same program:
    the same stacked transpose and the same ``exact - value`` operand
    order, just gathering planes from the candidate's lane (or the
    shared stimulus, for outputs wired straight to a primary input).
    """
    err = arena.batch_err[cand]
    if n_bits == 0:
        values = arena.values
        values.fill(0)
    else:
        rows = arena.batch_rows(cand)
        planes = arena.planes[:n_bits]
        for j, s in enumerate(arena.batch_out_slots[cand, :n_bits].tolist()):
            planes[j] = rows[s]
        values = _decode_planes(
            planes, arena.num_vectors, n_bits, signed, arena.values
        )
    np.subtract(exact, values, out=err, dtype=np.int64)
    np.absolute(err, out=err)
    return err
