"""Preallocated evaluation buffers reused across a whole search run.

Candidate evaluation is called millions of times per CGP run; the arena
owns every buffer the hot path needs — the packed signal matrix, the
compiled-program slabs, the decode scratch and the int64 distance row —
so a single evaluation performs no heap allocation beyond tiny Python
objects.

Layout of the signal matrix ``buf`` (``slots x words`` of ``uint64``):

* rows ``0 .. num_inputs-1``: the packed stimulus, written once at
  construction (the stimulus of an exhaustive evaluator never changes);
* remaining rows: operation destinations, assigned by the compiler's
  liveness allocator (so the hot region is the circuit's live width,
  typically far smaller than its gate count, and stays cache-resident).

Batched evaluation adds *per-candidate* buffers on demand
(:meth:`BufferArena.ensure_batch`): every candidate of a brood gets a
private scratch lane, program-slab row, transpose-scratch row, distance
row and statistics row, all contiguous 2-D arrays so one native call
(``cgp_eval_batch``) can walk them by stride.  The packed stimulus stays
shared — slot ``s < num_inputs`` resolves into ``buf``, slot
``s >= num_inputs`` into row ``s - num_inputs`` of the candidate's lane.

The arena is sized for the *worst case* (all nodes active, no slot
reuse), so any phenotype of the associated
:class:`~repro.core.chromosome.CGPParams` fits without reallocation.

Arenas are **single-owner**: buffers are mutated in place with no
locking, so an instance must only ever be used by the thread that
created it (one evaluator per worker).  :meth:`assert_owner` enforces
this, turning silent cross-thread data races into an immediate error.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

__all__ = ["BufferArena", "STATS_WIDTH", "MAX_OUTPUT_BITS"]

#: Integers per candidate of the reduced decode: Σ|d|, #{d != 0},
#: max|d|, Σ W·|d|, Σ W·[d != 0] (the native decode's stats row).
STATS_WIDTH = 5

#: Widest output bus the decode serves.  Values and distances are int64;
#: a 62-bit value against a reference with ``|ref| < 2**62`` keeps every
#: ``|ref - value|`` below ``2**63`` (``ENGINE_MAX_BITS`` in the C source).
MAX_OUTPUT_BITS = 62


class BufferArena:
    """Evaluation workspace for one (params-shape, stimulus) pair.

    Args:
        num_inputs: Primary input count (stimulus rows).
        num_nodes: Maximum number of compiled operations.
        num_outputs: Output bus width in bits.
        stimulus: Packed input words, shape ``(num_inputs, words)``.
        num_vectors: Number of valid test vectors in the stimulus.
    """

    def __init__(
        self,
        num_inputs: int,
        num_nodes: int,
        num_outputs: int,
        stimulus: np.ndarray,
        num_vectors: int,
    ) -> None:
        if stimulus.shape[0] != num_inputs:
            raise ValueError(
                f"stimulus has {stimulus.shape[0]} rows, expected {num_inputs}"
            )
        if num_outputs > MAX_OUTPUT_BITS:
            raise ValueError(
                f"engine decodes at most {MAX_OUTPUT_BITS} output bits"
            )
        self.num_inputs = num_inputs
        self.num_nodes = num_nodes
        self.num_outputs = num_outputs
        self.num_vectors = int(num_vectors)
        self.words = int(stimulus.shape[1])
        self._owner_thread = threading.get_ident()

        slots = num_inputs + num_nodes
        self.buf = np.empty((slots, self.words), dtype=np.uint64)
        self.buf[:num_inputs] = stimulus
        self._rows: Optional[List[np.ndarray]] = None

        # Compiled-program slabs (the in-place compile target).
        self.ops = np.empty(num_nodes, dtype=np.int32)
        self.src_a = np.empty(num_nodes, dtype=np.int32)
        self.src_b = np.empty(num_nodes, dtype=np.int32)
        self.dst = np.empty(num_nodes, dtype=np.int32)
        self.out_slots = np.empty(num_outputs, dtype=np.int32)

        # Decode / reduction scratch: the bit transpose writes one row of
        # ceil(num_vectors / 8) words per byte group of the output bus.
        self.scratch_words = (
            max((num_outputs + 7) // 8, 1)
            * max((self.num_vectors + 7) // 8, 1)
        )
        self.decode_scratch = np.empty(self.scratch_words, dtype=np.uint64)
        self.planes = np.empty((num_outputs, self.words), dtype=np.uint64)
        self.values = np.empty(self.num_vectors, dtype=np.int64)
        #: Per-vector |reference - output| (metrics with no integer
        #: form and sampled estimates read it; the rest never write it).
        self.err = np.empty(self.num_vectors, dtype=np.int64)

        # Batch lanes, allocated lazily by ensure_batch().
        self.batch_capacity = 0
        #: Incremented on every batch (re)allocation so callers caching
        #: raw buffer addresses know when to refresh them.
        self.batch_epoch = 0
        self.batch_lanes: Optional[np.ndarray] = None
        self.batch_ops: Optional[np.ndarray] = None
        self.batch_src_a: Optional[np.ndarray] = None
        self.batch_src_b: Optional[np.ndarray] = None
        self.batch_dst: Optional[np.ndarray] = None
        self.batch_out_slots: Optional[np.ndarray] = None
        self.batch_n_ops: Optional[np.ndarray] = None
        self.batch_scratch: Optional[np.ndarray] = None
        self.batch_err: Optional[np.ndarray] = None
        self.batch_stats: Optional[np.ndarray] = None
        self._batch_rows: List[List[np.ndarray]] = []

    @property
    def rows(self) -> List[np.ndarray]:
        """Row views of ``buf``, so the numpy kernel loop does no slicing.

        Built on first use: only the numpy backend reads them, and at
        width 16 they are thousands of small objects.
        """
        if self._rows is None:
            self._rows = list(self.buf)
        return self._rows

    # ------------------------------------------------------------------
    def assert_owner(self) -> None:
        """Raise if called from a thread other than the creator.

        The arena's buffers (and the compiled-program slabs inside them)
        are reused mutably across evaluations with no synchronization;
        sharing one instance between threads would corrupt results
        silently.  Matches the "one evaluator per worker" contract.
        """
        if threading.get_ident() != self._owner_thread:
            raise RuntimeError(
                "BufferArena is single-owner: it was created on thread "
                f"{self._owner_thread} but used from thread "
                f"{threading.get_ident()}; create one evaluator per worker"
            )

    # ------------------------------------------------------------------
    def ensure_batch(self, n_cand: int) -> None:
        """Grow the per-candidate batch buffers to hold ``n_cand``.

        No-op when capacity already suffices.  Growth reallocates (old
        batch contents are not preserved — every batch dispatch fills
        its slabs from scratch) and bumps :attr:`batch_epoch`.
        """
        if n_cand <= self.batch_capacity:
            return
        nn, no = self.num_nodes, self.num_outputs
        # Private scratch lane per candidate: slot s >= ni lives in lane
        # row s - ni; worst case (no slot reuse) needs nn rows.
        self.batch_lanes = np.empty((n_cand, nn, self.words), dtype=np.uint64)
        self.batch_ops = np.empty((n_cand, nn), dtype=np.int32)
        self.batch_src_a = np.empty((n_cand, nn), dtype=np.int32)
        self.batch_src_b = np.empty((n_cand, nn), dtype=np.int32)
        self.batch_dst = np.empty((n_cand, nn), dtype=np.int32)
        self.batch_out_slots = np.empty((n_cand, max(no, 1)), dtype=np.int32)
        self.batch_n_ops = np.zeros(n_cand, dtype=np.int32)
        self.batch_scratch = np.empty(
            (n_cand, self.scratch_words), dtype=np.uint64
        )
        self.batch_err = np.empty(
            (n_cand, self.num_vectors), dtype=np.int64
        )
        # Per-candidate decode statistics for the native exact-reduction
        # path; rows stay untouched on the err path.
        self.batch_stats = np.zeros((n_cand, STATS_WIDTH), dtype=np.int64)
        self._batch_rows = []
        self.batch_capacity = n_cand
        self.batch_epoch += 1

    def batch_rows(self, cand: int) -> List[np.ndarray]:
        """Slot-indexed row views for batch candidate ``cand``.

        ``rows[s]`` is stimulus row ``s`` for ``s < num_inputs`` and lane
        row ``s - num_inputs`` above; built on first use (numpy backend
        only) for every candidate of the current batch buffers.
        """
        if not self._batch_rows:
            ni = self.num_inputs
            self._batch_rows = [
                self.rows[:ni] + list(self.batch_lanes[c])
                for c in range(self.batch_capacity)
            ]
        return self._batch_rows[cand]
