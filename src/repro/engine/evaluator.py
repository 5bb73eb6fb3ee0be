"""Engine-backed evaluation of any circuit objective.

:class:`CompiledObjective` wraps a
:class:`~repro.core.objective.CircuitObjective` — any component
(multiplier, adder, MAC, custom netlist), any
:class:`~repro.errors.metrics.ErrorMetric` — so its hot path runs
through the evaluation engine:

1. the phenotype compiler lowers the candidate's active cone to a flat
   opcode program (:mod:`repro.engine.compiler`),
2. the program's signature is looked up in the phenotype cache
   (:mod:`repro.engine.cache`) — CGP neutral drift makes hits frequent,
3. on a miss, the program runs over the preallocated buffer arena on the
   native C backend (:mod:`repro.engine.native`) or the numpy fallback
   (:mod:`repro.engine.kernels`), followed by the fused decode and the
   objective's metric.

The decode joins the output bits of each vector into an int64 and
subtracts it from the int64 reference, so one compiled path serves
every output bus up to 62 bits — the widest the sampled path accepts —
as long as ``|reference| < 2**62``, which keeps every distance below
``2**63``.  Buses of at most 16 bits against a reference that fits
int32 take narrower AVX2 loops with the same integers.  An evaluation
the engine cannot take (a gate without an opcode, a wider bus, a larger
reference) runs on the interpreted objective and is counted in
``repro_engine_fallback_total{reason}``; ``stats()["fallback"]`` lists
the reasons an evaluator hit.

Results are bit-identical to the interpreted objective because every
step is integer-exact and the float step is one shared formula.  For
every exhaustive metric but ``mred``, the native decode folds the
distances into five integers in C — ``Σ|d|``, ``#{d != 0}``,
``max|d|``, ``Σ W·|d|``, ``Σ W·[d != 0]`` over the objective's integer
weights ``W`` — and never writes a distance row; the numpy backend and
the interpreted objective take the same integers from an int64 distance
row; all three finish in :meth:`ErrorMetric.from_stats`.  ``mred`` and
sampled estimates reduce the int64 row through the float form
(:meth:`ErrorMetric.from_distances`), the same code on every path.  The
cache key folds in the objective's identity (reference, weights,
metric, signedness), so caches never alias across objectives.
Evaluators are not thread-safe (each owns one arena); use one instance
per worker.

:class:`CompiledMultiplierFitness` remains the drop-in
``MultiplierFitness`` subclass from the original engine PR.
"""

from __future__ import annotations

import hashlib
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.chromosome import CGPParams, Chromosome
from ..obs import catalog as _obs
from ..core.fitness import MultiplierFitness
from ..core.objective import (
    CircuitObjective,
    EvalResult,
    SampledEvalResult,
    SampledObjective,
)
from ..errors.distributions import Distribution
from ..tech.library import TechLibrary
from . import kernels
from .arena import MAX_OUTPUT_BITS, STATS_WIDTH, BufferArena
from .cache import EvalCache
from .compiler import compile_genes_into, phenotype_signature
from .native import NativeLib, native_lib, omp_threads
from .opcodes import OP_ARITY, OP_NAMES, function_opcode_table

__all__ = [
    "CompiledObjective",
    "CompiledSampledObjective",
    "CompiledMultiplierFitness",
]

#: The decode's distances are int64: with every value below 2**62 in
#: magnitude (a bus of at most MAX_OUTPUT_BITS), a reference below this
#: keeps ``|reference - value| < 2**63``.
_REFERENCE_LIMIT = 1 << 62
#: The narrow loops subtract in int32; the reference must leave room for
#: a 16-bit output value.
_NARROW_REFERENCE_LIMIT = (1 << 31) - (1 << 17)


class _Runtime:
    """Per-:class:`CGPParams` compiled state: arena, tables, backend."""

    def __init__(
        self,
        params: CGPParams,
        stimulus: np.ndarray,
        num_vectors: int,
        library: TechLibrary,
        native: Optional[NativeLib],
        reference: np.ndarray,
        exact32: Optional[np.ndarray] = None,
        salt_extra: bytes = b"",
        weight_row: Optional[np.ndarray] = None,
        weight_mask: int = 0,
    ) -> None:
        self.params = params
        fn2op = function_opcode_table(params.functions)  # may raise KeyError
        self.fn2op = fn2op
        self.fn2op_list = [int(x) for x in fn2op]
        self.arena = BufferArena(
            params.num_inputs,
            params.num_nodes,
            params.num_outputs,
            stimulus,
            num_vectors,
        )
        self.native = native
        # Scratch used only by the C compile entry point.
        self.needed = np.empty(params.num_nodes, dtype=np.uint8)
        self.scratch_i32 = np.empty(
            params.num_inputs + 3 * params.num_nodes, dtype=np.int32
        )
        # Area per opcode; equals the baseline's per-function-gene areas
        # element-for-element, so the float sum is bit-identical.
        self.area_by_op = np.zeros(len(OP_NAMES), dtype=np.float64)
        for name, op in zip(params.functions, self.fn2op_list):
            self.area_by_op[op] = library.cell(name).area
        # Distinguishes phenotypes of structurally different evaluators
        # and of different objectives (reference / weights / metric) in
        # the cache (columns don't matter: equal programs are equal
        # circuits regardless of grid size).
        self.salt = (
            repr(
                (params.num_inputs, params.num_outputs, params.functions)
            ).encode()
            + salt_extra
        )
        #: The int64 reference every decode subtracts from.
        self.reference = reference
        #: Its int32 copy, given only when it leaves int32 headroom: the
        #: native decode then takes the narrow AVX2 loops on buses of at
        #: most 16 bits; otherwise the wide int64 loop.
        self.exact32 = exact32
        #: Integer weights for the reduced decode: W[v] =
        #: weight_row[v & weight_mask], or weight_row[0] when the mask
        #: is 0 (uniform).
        self.weight_row = weight_row
        self.weight_mask = weight_mask
        # Raw buffer addresses, computed once: every arena/table array
        # is allocated for the runtime's lifetime, and the ndarray
        # ``.ctypes`` accessor costs ~µs — comparable to a small kernel
        # call — so the hot path must not pay it per evaluation.  Batch
        # arrays are (re)captured in ensure_batch() on epoch change.
        self._batch_epoch_seen = -1
        self._lane_compile_args: List[tuple] = []
        self._lane_eval_args: List[tuple] = []
        self._lane_stats_args: List[tuple] = []
        if native is not None:
            a = self.arena
            # Single-path exact-reduction target (the five statistics).
            self.stats = np.zeros(STATS_WIDTH, dtype=np.int64)
            self.p_stats = self.stats.ctypes.data
            self.p_weight_row = (
                weight_row.ctypes.data if weight_row is not None else 0
            )
            self.p_buf = a.buf.ctypes.data
            self.p_ops = a.ops.ctypes.data
            self.p_src_a = a.src_a.ctypes.data
            self.p_src_b = a.src_b.ctypes.data
            self.p_dst = a.dst.ctypes.data
            self.p_out_slots = a.out_slots.ctypes.data
            self.p_decode_scratch = a.decode_scratch.ctypes.data
            self.p_values = a.values.ctypes.data
            self.p_err = a.err.ctypes.data
            self.p_fn2op = fn2op.ctypes.data
            self.p_arity = OP_ARITY.ctypes.data
            self.p_needed = self.needed.ctypes.data
            self.p_scratch_i32 = self.scratch_i32.ctypes.data
            self.p_exact = reference.ctypes.data
            self.p_exact32 = (
                exact32.ctypes.data if exact32 is not None else 0
            )

    def compile(self, genes: np.ndarray) -> int:
        """Lower ``genes`` into the arena slabs; return ``n_ops``."""
        genes = np.ascontiguousarray(genes, dtype=np.int64)
        a = self.arena
        p = self.params
        if self.native is not None:
            return self.native.compile(
                genes, p.num_nodes, p.num_inputs, p.num_outputs,
                self.p_fn2op, self.p_arity, self.p_ops, self.p_src_a,
                self.p_src_b, self.p_dst, self.p_out_slots, self.p_needed,
                self.p_scratch_i32,
            )
        return compile_genes_into(
            genes, p, self.fn2op_list,
            a.ops, a.src_a, a.src_b, a.dst, a.out_slots,
        )

    def signature(self, n_ops: int) -> bytes:
        a = self.arena
        return phenotype_signature(
            a.ops[:n_ops], a.src_a[:n_ops], a.src_b[:n_ops], a.dst[:n_ops],
            a.out_slots, salt=self.salt,
        )

    def execute(self, n_ops: int) -> None:
        a = self.arena
        if self.native is not None:
            self.native.kernel(
                self.p_buf, a.num_inputs, a.words, n_ops,
                self.p_ops, self.p_src_a, self.p_src_b, self.p_dst,
            )
        else:
            kernels.run_program(a, n_ops)

    def error(self, signed: bool) -> np.ndarray:
        a = self.arena
        if self.native is not None:
            self.native.decode_err(
                self.p_buf, a.words, self.p_out_slots, a.num_outputs,
                a.num_vectors, signed, self.p_decode_scratch,
                self.p_exact32, self.p_exact, self.p_err,
            )
            return a.err
        return kernels.decode_error(a, a.num_outputs, signed, self.reference)

    def reduce_stats(self, signed: bool) -> list:
        """Decode + exact integer reduction of the single-path outputs.

        Native only.  Returns ``[Σ|d|, #{d != 0}, max|d|, Σ W·|d|,
        Σ W·[d != 0]]`` — exactly what
        :meth:`~repro.errors.weights.IntegerWeights.stats` computes from
        the row :meth:`error` would materialize — without writing it.
        """
        a = self.arena
        self.native.decode_reduce(
            self.p_buf, a.words, self.p_out_slots, a.num_outputs,
            a.num_vectors, signed, self.p_decode_scratch, self.p_exact32,
            self.p_exact, self.p_weight_row, self.weight_mask, self.p_stats,
        )
        return self.stats.tolist()

    def values(self, signed: bool) -> np.ndarray:
        a = self.arena
        if self.native is not None:
            self.native.decode(
                self.p_buf, a.words, self.p_out_slots, a.num_outputs,
                a.num_vectors, signed, self.p_decode_scratch, self.p_values,
            )
            return a.values
        return kernels.decode_values(a, a.num_outputs, signed)

    # ------------------------------------------------------------------
    # Batched evaluation over per-candidate lanes.
    def ensure_batch(self, n_cand: int) -> None:
        """Size the arena's batch lanes and refresh cached addresses."""
        a = self.arena
        a.ensure_batch(n_cand)
        if self.native is not None and self._batch_epoch_seen != a.batch_epoch:
            self.p_lanes = a.batch_lanes.ctypes.data
            self.p_b_ops = a.batch_ops.ctypes.data
            self.p_b_src_a = a.batch_src_a.ctypes.data
            self.p_b_src_b = a.batch_src_b.ctypes.data
            self.p_b_dst = a.batch_dst.ctypes.data
            self.p_b_out_slots = a.batch_out_slots.ctypes.data
            self.p_b_n_ops = a.batch_n_ops.ctypes.data
            self.p_b_scratch = a.batch_scratch.ctypes.data
            self.p_b_err = a.batch_err.ctypes.data
            self.p_b_stats = a.batch_stats.ctypes.data
            # Fully precomposed cgp_compile argument tails, one per slab
            # lane: compile_into_lane then costs one ctypes call with no
            # per-candidate pointer arithmetic or attribute traffic.
            p = self.params
            prog_b = p.num_nodes * 4                 # int32 row bytes
            out_b = a.batch_out_slots.shape[1] * 4
            self._lane_compile_args = [
                (
                    p.num_nodes, p.num_inputs, p.num_outputs,
                    self.p_fn2op, self.p_arity,
                    self.p_b_ops + k * prog_b,
                    self.p_b_src_a + k * prog_b,
                    self.p_b_src_b + k * prog_b,
                    self.p_b_dst + k * prog_b,
                    self.p_b_out_slots + k * out_b,
                    self.p_needed, self.p_scratch_i32,
                )
                for k in range(a.batch_capacity)
            ]
            # Per-lane slab pointers for the chunked (cache-blocked)
            # serial dispatch of execute_lane().
            self._lane_eval_args = [
                (
                    self.p_b_n_ops + k * 4,
                    self.p_b_ops + k * prog_b,
                    self.p_b_src_a + k * prog_b,
                    self.p_b_src_b + k * prog_b,
                    self.p_b_dst + k * prog_b,
                    self.p_b_out_slots + k * out_b,
                )
                for k in range(a.batch_capacity)
            ]
            # Fully precomposed cgp_eval_batch argument tuples for the
            # stats-mode chunked dispatch, split around the one argument
            # (do_sign) the caller supplies: execute_lane_stats then
            # costs a single raw ctypes call.
            self._lane_stats_args = [
                (
                    (
                        self.p_buf, self.p_lanes, a.num_inputs, 0,
                        a.words, 1, n_ops_p, ops_p, sa_p, sb_p, dst_p,
                        a.num_nodes, osl_p, a.num_outputs,
                        a.batch_out_slots.shape[1], a.num_vectors,
                    ),
                    (
                        self.p_b_scratch, 0, self.p_exact32, self.p_exact,
                        self.p_weight_row, self.weight_mask, self.p_err,
                        a.num_vectors, self.p_b_stats, 1,
                    ),
                )
                for (n_ops_p, ops_p, sa_p, sb_p, dst_p, osl_p)
                in self._lane_eval_args
            ]
            self._batch_epoch_seen = a.batch_epoch

    def compile_into_lane(self, genes: np.ndarray, lane: int) -> int:
        """Compile ``genes`` into batch slab row ``lane``; return n_ops."""
        genes = np.ascontiguousarray(genes, dtype=np.int64)
        a = self.arena
        p = self.params
        if self.native is not None:
            n = int(
                self.native._lib.cgp_compile(
                    genes.ctypes.data, *self._lane_compile_args[lane]
                )
            )
        else:
            n = compile_genes_into(
                genes, p, self.fn2op_list,
                a.batch_ops[lane], a.batch_src_a[lane],
                a.batch_src_b[lane], a.batch_dst[lane],
                a.batch_out_slots[lane],
            )
        a.batch_n_ops[lane] = n
        return n

    def lane_signature(self, lane: int, n_ops: int) -> bytes:
        """Signature of the program in slab row ``lane``.

        Byte-identical to :meth:`signature` for the same phenotype — the
        slab rows hold exactly what the single-candidate compile emits —
        so batch and sequential paths share one cache keyspace.
        """
        a = self.arena
        return phenotype_signature(
            a.batch_ops[lane, :n_ops], a.batch_src_a[lane, :n_ops],
            a.batch_src_b[lane, :n_ops], a.batch_dst[lane, :n_ops],
            a.batch_out_slots[lane, : a.num_outputs], salt=self.salt,
        )

    def lane_area(self, lane: int, n_ops: int) -> float:
        a = self.arena
        return float(self.area_by_op[a.batch_ops[lane, :n_ops]].sum())

    def execute_batch(
        self, n_lanes: int, signed: bool, nthreads: int,
        stats: bool = False,
    ) -> None:
        """Run + decode-error all ``n_lanes`` compiled lanes.

        One native call (candidate loop in C, optionally OpenMP) or the
        equivalent numpy loop; either way ``arena.batch_err[k]`` receives
        lane ``k``'s per-vector int64 distances, bit-identical to the
        single-candidate path.  With ``stats`` (native only) lane ``k``'s
        distances reduce into the five statistics of
        ``arena.batch_stats[k]`` instead and the distance rows stay
        untouched.

        On the serial native path the lane and transpose-scratch strides
        are 0: each candidate finishes (execute + decode) before the
        next starts and a compiled program writes every non-input slot
        before reading it, so all candidates soundly share lane 0 — a
        working set that stays cache-resident instead of streaming one
        cold lane per candidate.  Threaded dispatch needs the private
        lanes and passes the full strides.
        """
        a = self.arena
        if self.native is not None:
            serial = nthreads <= 1 or n_lanes <= 1
            self.native.eval_batch(
                self.p_buf, self.p_lanes, a.num_inputs,
                0 if serial else a.num_nodes,
                a.words, n_lanes, self.p_b_n_ops, self.p_b_ops,
                self.p_b_src_a, self.p_b_src_b, self.p_b_dst,
                a.num_nodes, self.p_b_out_slots, a.num_outputs,
                a.batch_out_slots.shape[1], a.num_vectors, signed,
                self.p_b_scratch,
                0 if serial else a.batch_scratch.shape[1],
                self.p_exact32, self.p_exact, self.p_b_err, a.num_vectors,
                nthreads,
                stats=self.p_b_stats if stats else 0,
                weight_row=self.p_weight_row,
                weight_mask=self.weight_mask,
            )
        else:
            for k in range(n_lanes):
                kernels.run_program_batch(a, k, int(a.batch_n_ops[k]))
                kernels.decode_error_batch(
                    a, k, a.num_outputs, signed, self.reference
                )

    def execute_lane(self, lane: int, signed: bool) -> np.ndarray:
        """Run + decode-error one compiled slab lane (native only).

        The cache-blocked serial schedule of the batch ABI: the same
        ``cgp_eval_batch`` entry point, dispatched one candidate at a
        time with the slab pointers offset to ``lane`` and every
        per-candidate buffer — scratch lane, transpose scratch and the
        *single-path* error row (``arena.err``) — reused across chunks.
        The caller reduces the returned distances before the next chunk
        overwrites them, so each reduction reads a cache-hot row instead
        of one of N cold private rows; results are bit-identical to the
        one-call dispatch (same C code runs per candidate either way).
        """
        a = self.arena
        n_ops_p, ops_p, sa_p, sb_p, dst_p, osl_p = self._lane_eval_args[lane]
        self.native.eval_batch(
            self.p_buf, self.p_lanes, a.num_inputs, 0,
            a.words, 1, n_ops_p, ops_p, sa_p, sb_p, dst_p,
            a.num_nodes, osl_p, a.num_outputs,
            a.batch_out_slots.shape[1], a.num_vectors, signed,
            self.p_b_scratch, 0, self.p_exact32, self.p_exact, self.p_err,
            a.num_vectors, 1,
        )
        return a.err

    def execute_lane_stats(self, lane: int, signed: bool) -> list:
        """Run + exact integer reduction of one slab lane (native only).

        The stats-mode twin of :meth:`execute_lane`: the same chunked
        serial dispatch, but the decoded distances fold into the five
        statistics in C (``arena.batch_stats`` row 0, reused across
        chunks) and the ~``num_vectors`` distance row is never written —
        the dominant share of a width-8 evaluation's memory traffic.
        """
        head, tail = self._lane_stats_args[lane]
        self.native._lib.cgp_eval_batch(*head, int(signed), *tail)
        return self.arena.batch_stats[0].tolist()


class _EngineEvalMixin:
    """Engine-backed hot path over :class:`CircuitObjective` state.

    Mixed into a concrete objective class (``CompiledObjective``,
    ``CompiledMultiplierFitness``); expects the base objective's
    attributes (``num_inputs``, ``num_vectors``, ``stimulus``,
    ``reference``, ``weights``, ``normalizer``, ``signed``, ``metric``,
    ``library``) to be initialized before :meth:`_init_engine` runs.
    """

    def _init_engine(self, backend: str, cache_entries: int) -> None:
        if backend not in ("auto", "native", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        native = None if backend == "numpy" else native_lib()
        if backend == "native" and native is None:
            raise RuntimeError(
                "native engine backend requested but unavailable "
                "(no C compiler, or REPRO_ENGINE forces numpy)"
            )
        self._native = native
        # The engine decodes into int64, so every output bus up to
        # MAX_OUTPUT_BITS runs compiled as long as |reference| < 2**62
        # (then no distance wraps).  A reference that also leaves int32
        # headroom gets an int32 copy, which selects the narrow AVX2
        # decode loops on buses of at most 16 bits; the rest take the
        # wide int64 loop.  Anything else is served interpreted, and
        # counted by reason (see _runtime).
        self._reference64 = np.ascontiguousarray(self.reference, np.int64)
        top = max(
            int(self._reference64.max(initial=0)),
            -int(self._reference64.min(initial=0)),
        )
        self._reference_in_range = top < _REFERENCE_LIMIT
        self._exact32 = (
            self._reference64.astype(np.int32)
            if top < _NARROW_REFERENCE_LIMIT else None
        )
        self._runtimes: Dict[CGPParams, Optional[_Runtime]] = {}
        #: Why each params without a runtime is served interpreted (a
        #: FALLBACK_REASONS label of repro_engine_fallback_total).
        self._fallback: Dict[CGPParams, str] = {}
        # Objective identity folded into every phenotype signature: the
        # same compiled program scores differently under a different
        # reference, weight vector or metric.
        h = hashlib.blake2b(digest_size=8)
        h.update(self.metric.name.encode())
        h.update(b"s" if self.signed else b"u")
        h.update(repr(self.normalizer).encode())
        h.update(self.reference.tobytes())
        # Sampled objectives additionally fold the sample-spec identity
        # (counts, replicates, seed, realized stimulus) so a sampled
        # estimate never aliases an exhaustive value — or a different
        # sample's estimate — for the same phenotype.
        sample_salt = getattr(self, "_sample_salt", b"")
        sampled = bool(sample_salt)
        weights = None if sampled else self.integer_weights
        if weights is None:
            h.update(self.weights.tobytes())
        else:
            # One period of counts and the total determine every weight
            # (and are far fewer bytes than the per-vector float image).
            h.update(weights.row.tobytes())
            h.update(repr((weights.total, weights.num_vectors)).encode())
        h.update(sample_salt)
        self._objective_salt = h.digest()
        # Exact-reduction fast path: every metric with an integer form
        # (all but mred) is ErrorMetric.from_stats over the decode's five
        # integers, which the native decode accumulates in C — against
        # the objective's integer weights — without writing a distance
        # row.  Integer sums are exact in any order, so this is the same
        # value, bit for bit, that the numpy backend and the interpreted
        # objective compute from their rows.  The only limit is the
        # weights' int64 bound, which from_stats checks against max |d|
        # on every path.  Sampled objectives
        # always materialize the row: the confidence interval comes from
        # per-replicate (or per-sample) reductions of it.
        self._reduce_kind: Optional[str] = (
            self.metric.name if self.metric.integer and not sampled else None
        )
        # The C decode reads W[v] = row[v & mask] eight vectors at a
        # time, so a non-uniform period shorter than 8 is tiled up to 8;
        # mask 0 tells it the weights are uniform (row[0] throughout).
        # The period divides num_vectors = 2**num_inputs, so it is a
        # power of two and v & mask == v % period.
        self._weight_row = None
        self._weight_mask = 0
        if weights is not None:
            row = weights.row
            if 1 < row.size < 8:
                row = np.tile(row, 8 // row.size)
            self._weight_row = row
            self._weight_mask = row.size - 1 if row.size > 1 else 0
        self.cache = EvalCache(cache_entries)
        #: Within-batch phenotype dedup count (same sig, same brood).
        self._batch_dedup = 0
        #: Number of fused batch dispatches issued.
        self._batch_calls = 0
        #: Candidates actually executed via batch dispatch.
        self._batch_evals = 0
        _obs.ENGINE_BACKEND.labels(self.backend).set(1)

    @property
    def backend(self) -> str:
        """Name of the execution backend actually in use."""
        return "native" if self._native is not None else "numpy"

    def _runtime(self, params: CGPParams) -> Optional[_Runtime]:
        """The compiled state for ``params``, or None (interpreted).

        A miss is remembered with its reason: ``output-width`` (a bus
        wider than the decode), ``reference-range`` (``|reference|``
        reaches ``2**62``) or ``no-opcode`` (a gate function the engine
        cannot compile).
        """
        rt = self._runtimes.get(params)
        if rt is None and params not in self._runtimes:
            reason = None
            if params.num_outputs > MAX_OUTPUT_BITS:
                reason = "output-width"
            elif not self._reference_in_range:
                reason = "reference-range"
            else:
                try:
                    rt = _Runtime(
                        params,
                        self.stimulus,
                        self.num_vectors,
                        self.library,
                        self._native,
                        self._reference64,
                        exact32=self._exact32,
                        salt_extra=self._objective_salt,
                        weight_row=self._weight_row,
                        weight_mask=self._weight_mask,
                    )
                except KeyError:
                    reason = "no-opcode"
            if reason is not None:
                self._fallback[params] = reason
            self._runtimes[params] = rt
        return rt

    def _check_params(self, params: CGPParams) -> None:
        if params.num_inputs != self.num_inputs:
            raise ValueError(
                f"chromosome has {params.num_inputs} inputs, evaluator "
                f"expects {self.num_inputs}"
            )

    def _reduce_error(self, stats: list) -> float:
        """Metric value from the native decode's five integers.

        :meth:`ErrorMetric.from_stats` — the reduction the numpy backend
        and the interpreted objective reach through
        :meth:`CircuitObjective.error_from_distances`.
        """
        return self.metric.from_stats(
            stats, self.integer_weights, self.normalizer
        )

    # ------------------------------------------------------------------
    # Measure-tuple hooks: the measure is whatever per-phenotype record
    # the objective family caches and turns into results — (error, area)
    # here; the sampled subclass appends the confidence interval.
    def _finish_measure(self, err: np.ndarray, area: float) -> tuple:
        """Measure tuple from a materialized per-vector distance row."""
        return (self.error_from_distances(err), area)

    def _measure_interpreted(self, chromosome: Chromosome) -> tuple:
        """Measure via the inherited numpy path (no runtime available)."""
        return (
            CircuitObjective.error(self, chromosome),
            CircuitObjective.area(self, chromosome),
        )

    def _result(self, measure: tuple, threshold: float) -> EvalResult:
        """Eq. (1) result from a measure tuple."""
        error, area = measure
        fitness = area if error <= threshold else float("inf")
        return EvalResult(fitness=fitness, wmed=error, area=area)

    # ------------------------------------------------------------------
    def _measure(self, chromosome: Chromosome) -> tuple:
        """Measure tuple of a candidate, via cache or fresh execution."""
        rt = self._runtime(chromosome.params)
        if rt is None:
            _obs.ENGINE_FALLBACK.labels(
                self._fallback[chromosome.params]
            ).inc()
            return self._measure_interpreted(chromosome)
        rt.arena.assert_owner()
        n_ops = rt.compile(chromosome.genes)
        caching = self.cache.max_entries > 0
        if caching:
            sig = rt.signature(n_ops)
            cached = self.cache.get(sig)
            if cached is not None:
                return cached
        rt.execute(n_ops)
        area = float(rt.area_by_op[rt.arena.ops[:n_ops]].sum())
        if rt.native is not None and self._reduce_kind is not None:
            measure = (self._reduce_error(rt.reduce_stats(self.signed)), area)
        else:
            measure = self._finish_measure(rt.error(self.signed), area)
        if caching:
            self.cache.put(sig, *measure)
        return measure

    def truth_table(self, chromosome: Chromosome) -> np.ndarray:
        self._check_params(chromosome.params)
        rt = self._runtime(chromosome.params)
        if rt is None:
            return CircuitObjective.truth_table(self, chromosome)
        n_ops = rt.compile(chromosome.genes)
        rt.execute(n_ops)
        return rt.values(self.signed).copy()

    def error(self, chromosome: Chromosome) -> float:
        self._check_params(chromosome.params)
        return self._measure(chromosome)[0]

    def wmed(self, chromosome: Chromosome) -> float:
        return self.error(chromosome)

    def evaluate(self, chromosome: Chromosome, threshold: float) -> EvalResult:
        t0 = perf_counter_ns()
        self._check_params(chromosome.params)
        result = self._result(self._measure(chromosome), threshold)
        _obs.ENGINE_EVALS.inc()
        _obs.ENGINE_EVAL_NS.inc(perf_counter_ns() - t0)
        return result

    def evaluate_batch(
        self, chromosomes: Sequence[Chromosome], threshold: float
    ) -> List[EvalResult]:
        """Evaluate a population slice with one fused native dispatch.

        Per candidate: compile into a private slab lane, look the
        signature up in the phenotype cache, and dedupe identical
        phenotypes within the batch.  Survivors then run through the
        ``cgp_eval_batch`` ABI under one of two schedules:

        * threaded (``REPRO_OMP`` resolves to > 1): **one** fused call,
          candidate loop in C under an OpenMP team, each candidate
          writing its private lane / scratch / error row;
        * serial: the same entry point dispatched one candidate at a
          time (cache-blocked), every chunk reusing the same lane,
          scratch and error row so the metric reduction that follows it
          reads cache-hot data.

        Results are bit-identical to calling :meth:`evaluate`
        sequentially — same compiled programs, same integer kernels,
        same reduction — batching only changes dispatch overhead and
        memory locality.

        Mixed-params batches and non-engine runtimes fall back to the
        sequential path.
        """
        chromosomes = list(chromosomes)
        if not chromosomes:
            return []
        params = chromosomes[0].params
        for c in chromosomes:
            self._check_params(c.params)
        rt = self._runtime(params)
        if rt is None or any(c.params != params for c in chromosomes[1:]):
            # The sequential fallback counts per-candidate in evaluate().
            return [self.evaluate(c, threshold) for c in chromosomes]
        t0 = perf_counter_ns()
        rt.arena.assert_owner()
        n = len(chromosomes)
        rt.ensure_batch(n)
        caching = self.cache.max_entries > 0
        measures: List[Optional[tuple]] = [None] * n
        dups: List[tuple] = []          # (result index, lane index)
        pending: List[tuple] = []       # (result index, lane, sig, n_ops)
        lane_of_sig: Dict[bytes, int] = {}
        n_lanes = 0
        # Bound-method / attribute hoists: this loop runs once per
        # evaluation, so repeated lookups are measurable next to the
        # ~100 µs native call.
        compile_lane = rt.compile_into_lane
        lane_sig = rt.lane_signature
        cache_get = self.cache.get
        for i, ch in enumerate(chromosomes):
            n_ops = compile_lane(ch.genes, n_lanes)
            sig = lane_sig(n_lanes, n_ops)
            if caching:
                cached = cache_get(sig)
                if cached is not None:
                    measures[i] = cached
                    continue
            dup_lane = lane_of_sig.get(sig)
            if dup_lane is not None:
                self._batch_dedup += 1
                dups.append((i, dup_lane))
                continue
            lane_of_sig[sig] = n_lanes
            pending.append((i, n_lanes, sig, n_ops))
            n_lanes += 1
        _obs.ENGINE_COMPILE_NS.inc(perf_counter_ns() - t0)
        if dups:
            _obs.ENGINE_BATCH_DEDUP.inc(len(dups))
        if n_lanes:
            nthreads = omp_threads() if rt.native is not None else 1
            self._batch_calls += 1
            self._batch_evals += n_lanes
            _obs.ENGINE_BATCH_CALLS.inc()
            _obs.ENGINE_BATCH_EVALS.inc(n_lanes)
            _obs.ENGINE_BATCH_SIZE.observe(n_lanes)
            by_lane: Dict[int, tuple] = {}
            finish = self._finish_measure
            lane_area = rt.lane_area
            cache_put = self.cache.put
            signed = self.signed
            fast = rt.native is not None and self._reduce_kind is not None
            if rt.native is not None and nthreads <= 1:
                # Cache-blocked serial schedule: dispatch the batch ABI
                # one candidate at a time and reduce each distance row
                # while it is still cache-hot.  One brood otherwise
                # streams n_lanes cold private error rows (~n x 512 KiB
                # at width 8) through the reductions, which costs more
                # than the dispatch the fused call saves.
                if fast:
                    execute_lane_stats = rt.execute_lane_stats
                    reduce_error = self._reduce_error
                    for i, lane, sig, n_ops in pending:
                        measure = (
                            reduce_error(execute_lane_stats(lane, signed)),
                            lane_area(lane, n_ops),
                        )
                        if caching:
                            cache_put(sig, *measure)
                        measures[i] = by_lane[lane] = measure
                else:
                    execute_lane = rt.execute_lane
                    for i, lane, sig, n_ops in pending:
                        measure = finish(
                            execute_lane(lane, signed),
                            lane_area(lane, n_ops),
                        )
                        if caching:
                            cache_put(sig, *measure)
                        measures[i] = by_lane[lane] = measure
            else:
                rt.execute_batch(n_lanes, signed, nthreads, stats=fast)
                batch_err = rt.arena.batch_err
                batch_stats = rt.arena.batch_stats
                reduce_error = self._reduce_error
                for i, lane, sig, n_ops in pending:
                    if fast:
                        measure = (
                            reduce_error(batch_stats[lane].tolist()),
                            lane_area(lane, n_ops),
                        )
                    else:
                        measure = finish(
                            batch_err[lane], lane_area(lane, n_ops)
                        )
                    if caching:
                        cache_put(sig, *measure)
                    measures[i] = by_lane[lane] = measure
            for i, lane in dups:
                measures[i] = by_lane[lane]
        result_of = self._result
        results = [result_of(m, threshold) for m in measures]
        _obs.ENGINE_EVALS.inc(n)
        _obs.ENGINE_EVAL_NS.inc(perf_counter_ns() - t0)
        return results

    def stats(self) -> dict:
        """Engine counters for logging and benchmarks."""
        omp = {"compiled": False, "threads": 1}
        if self._native is not None:
            omp = {
                "compiled": self._native.omp_compiled(),
                "threads": omp_threads(),
            }
        return {
            "backend": self.backend,
            "cache": self.cache.stats(),
            "fast_reduce": self._reduce_kind,
            "runtimes": len(self._runtimes),
            "fallback": sorted(set(self._fallback.values())),
            "batch": {
                "calls": self._batch_calls,
                "evals": self._batch_evals,
                "dedup": self._batch_dedup,
            },
            "omp": omp,
        }


class CompiledObjective(_EngineEvalMixin, CircuitObjective):
    """Engine-backed evaluator for *any* circuit objective.

    Wraps an existing :class:`~repro.core.objective.CircuitObjective`
    (sharing its precomputed reference / weights / stimulus arrays) and
    routes every evaluation through the compiled pipeline; see the
    module docstring.

    Args:
        objective: The interpreted objective to accelerate — anything
            built by :mod:`repro.core.components` (or a legacy
            ``MultiplierFitness`` / ``CircuitFitness``).
        backend: ``"auto"`` (native when buildable, else numpy),
            ``"native"`` (require the C backend) or ``"numpy"``.
        cache_entries: Phenotype-cache capacity; 0 disables caching.
    """

    def __init__(
        self,
        objective: CircuitObjective,
        backend: str = "auto",
        cache_entries: int = 1 << 16,
    ) -> None:
        if not isinstance(objective, CircuitObjective):
            raise TypeError(
                f"expected a CircuitObjective, got {type(objective).__name__}"
            )
        # Adopt the objective's precomputed state wholesale (reference,
        # weights, stimulus, area cache...); arrays are shared, not
        # copied — the wrapper only adds engine state on top.
        self.__dict__.update(objective.__dict__)
        self._init_engine(backend, cache_entries)


class CompiledSampledObjective(_EngineEvalMixin, SampledObjective):
    """Engine-backed evaluator for a sampled objective.

    Wraps a :class:`~repro.core.objective.SampledObjective`: candidates
    compile and execute through the same engine pipeline as
    :class:`CompiledObjective` — the arena simply holds the packed
    sample matrix instead of the exhaustive stimulus — and every result
    is a :class:`~repro.core.objective.SampledEvalResult` carrying the
    95 % confidence interval.  The phenotype-cache entries store the
    four-tuple ``(error, area, ci_low, ci_high)``, salted with the
    sample-spec identity, so sampled and exhaustive evaluations of the
    same phenotype never alias.  The exact-integer decode statistics are
    never used here: the CI needs the materialized distance row.

    The int64 decode serves every width the sampled path accepts (output
    buses up to 62 bits, ``|reference| < 2**62``), so wide multipliers
    run on the compiled kernel like narrow ones.  An objective outside
    that range is served on the interpreted sampled path — same
    estimates — and counted in ``repro_engine_fallback_total`` and
    ``stats()["fallback"]``.

    Args:
        objective: The sampled objective to accelerate (anything built
            by :func:`repro.core.components.sampled_component_objective`).
        backend: ``"auto"`` (native when buildable, else numpy),
            ``"native"`` (require the C backend) or ``"numpy"``.
        cache_entries: Phenotype-cache capacity; 0 disables caching.
    """

    def __init__(
        self,
        objective: SampledObjective,
        backend: str = "auto",
        cache_entries: int = 1 << 16,
    ) -> None:
        if not isinstance(objective, SampledObjective):
            raise TypeError(
                f"expected a SampledObjective, got {type(objective).__name__}"
            )
        self.__dict__.update(objective.__dict__)
        self._init_engine(backend, cache_entries)

    def _finish_measure(self, err: np.ndarray, area: float) -> tuple:
        est = SampledObjective.estimate_distances(self, err)
        return (est.value, area, est.ci_low, est.ci_high)

    def _measure_interpreted(self, chromosome: Chromosome) -> tuple:
        # error_distances() routes through the mixin's truth_table,
        # which is itself interpreted when no runtime exists.
        est = SampledObjective.estimate_distances(
            self, CircuitObjective.error_distances(self, chromosome)
        )
        return (
            est.value,
            CircuitObjective.area(self, chromosome),
            est.ci_low,
            est.ci_high,
        )

    def _result(self, measure: tuple, threshold: float) -> SampledEvalResult:
        error, area, ci_low, ci_high = measure
        fitness = area if error <= threshold else float("inf")
        return SampledEvalResult(
            fitness=fitness,
            wmed=error,
            area=area,
            ci_low=ci_low,
            ci_high=ci_high,
        )


class CompiledMultiplierFitness(_EngineEvalMixin, MultiplierFitness):
    """Engine-backed drop-in for the legacy ``MultiplierFitness``.

    Equivalent to ``CompiledObjective(MultiplierFitness(...))`` but keeps
    the historical class identity and constructor.

    Args:
        width: Operand bit width.
        dist: Operand-``x`` distribution defining the WMED weights.
        library: Technology library for the area term.
        backend: ``"auto"`` (native when buildable, else numpy),
            ``"native"`` (require the C backend) or ``"numpy"``.
        cache_entries: Phenotype-cache capacity; 0 disables caching.
        metric: Error metric; the paper's ``"wmed"`` by default.
    """

    def __init__(
        self,
        width: int,
        dist: Distribution,
        library: Optional[TechLibrary] = None,
        backend: str = "auto",
        cache_entries: int = 1 << 16,
        metric: object = "wmed",
    ) -> None:
        MultiplierFitness.__init__(
            self, width, dist, library=library, metric=metric
        )
        self._init_engine(backend, cache_entries)
