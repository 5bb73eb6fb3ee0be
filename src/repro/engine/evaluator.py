"""Engine-backed evaluation of any circuit objective.

:class:`CompiledObjective` wraps a
:class:`~repro.core.objective.CircuitObjective` — any component
(multiplier, adder, MAC, custom netlist), any
:class:`~repro.errors.metrics.ErrorMetric` — so its hot path runs
through the evaluation engine:

1. the phenotype compiler lowers the candidate's active cone to a flat
   opcode program (:mod:`repro.engine.compiler`); the active-node mask
   it marks on the way becomes the chromosome's active set, so the
   search never sweeps a compiled candidate again in Python,
2. the program runs over the preallocated buffer arena on the native C
   backend (:mod:`repro.engine.native`) or the numpy fallback
   (:mod:`repro.engine.kernels`), followed by the fused decode and the
   objective's metric.

A brood candidate costs that compile and one native call, nothing more:
it is never hashed, looked up or deduplicated.  The evolve loop already
skips children whose mutations touch only inactive genes, and the
candidates it does send repeat an evaluated phenotype too rarely for a
signature per candidate to pay (perfbench's traced evolve runs read a
0 % cache hit rate).  Only a lone :meth:`~_EngineEvalMixin.evaluate`
still consults the phenotype cache (:mod:`repro.engine.cache`).

Every native evaluation runs through ``cgp_eval_batch``: a brood as
one fused call under the OpenMP team, or as one call per candidate on
the calling thread, the serial schedule a lone
:meth:`~_EngineEvalMixin.evaluate` also takes.  Each per-params runtime
picks a brood's schedule once, when it is built, from what it can
observe (the team size, the stimulus words per plane, and whether its
owner is the main thread of a process that is not a
``multiprocessing`` child); ``stats()["omp"]["schedule"]`` reports the
decision.

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
row; all three finish in :meth:`ErrorMetric.from_stats`.  A sampled
objective with :attr:`~repro.core.objective.SampledObjective
.replicate_reduce` gets the first three integers per replicate block
from the same decode, and every path finishes in
:func:`~repro.errors.metrics.estimate_from_replicate_stats`.  ``mred``
and the remaining sampled objectives reduce the int64 row through the
float form (:meth:`ErrorMetric.from_distances`), the same code on every
path.  The cache key folds in the objective's identity (reference,
weights, metric, signedness), so caches never alias across objectives.
Evaluators are not thread-safe (each owns one arena); use one instance
per worker.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.chromosome import CGPParams, Chromosome
from ..obs import catalog as _obs
from ..core.objective import (
    CircuitObjective,
    EvalResult,
    SampledEvalResult,
    SampledObjective,
)
from ..tech.library import TechLibrary
from . import kernels
from .arena import MAX_OUTPUT_BITS, STATS_WIDTH, BufferArena
from .cache import EvalCache
from .compiler import compile_genes_into, phenotype_signature
from .native import NativeLib, _mark_omp_team_used, native_lib, omp_threads
from .opcodes import OP_ARITY, OP_NAMES, function_opcode_table

__all__ = [
    "CompiledObjective",
    "CompiledSampledObjective",
]

#: The decode's distances are int64: with every value below 2**62 in
#: magnitude (a bus of at most MAX_OUTPUT_BITS), a reference below this
#: keeps ``|reference - value| < 2**63``.
_REFERENCE_LIMIT = 1 << 62
#: The narrow loops subtract in int32; the reference must leave room for
#: a 16-bit output value.
_NARROW_REFERENCE_LIMIT = (1 << 31) - (1 << 17)
#: Stimulus words per plane from which one candidate's work pays the
#: OpenMP team's hand-off (``benchmarks/bench_engine.py``'s brood sweep
#: times both schedules at 32-1024 words).
_THREADED_MIN_WORDS = 128


def _brood_team(native: Optional[NativeLib], words: int) -> int:
    """The OpenMP team a new runtime's broods dispatch to; 1 is serial.

    Threaded only where the team has more than one thread, each
    candidate has at least :data:`_THREADED_MIN_WORDS` words per
    stimulus plane, and the caller — the arena's single owner — is the
    main thread of a process that is not a ``multiprocessing`` child:
    a pool worker or worker thread already is one of several parallel
    runs, and a team inside it would oversubscribe the cores.  Both
    schedules run the same per-candidate integer code, so the choice
    never changes a result.
    """
    # Every multiprocessing child has imported multiprocessing, so other
    # processes need not pay for the import (~0.6 MB) to be told apart.
    mp = sys.modules.get("multiprocessing")
    if (
        native is None
        or words < _THREADED_MIN_WORDS
        or threading.current_thread() is not threading.main_thread()
        or (mp is not None and mp.parent_process() is not None)
    ):
        return 1
    return omp_threads()


class _Runtime:
    """Per-:class:`CGPParams` compiled state: arena, tables, backend.

    Every compiled program lives in a row of the arena's program slabs:
    a brood candidate's in its own row, a lone evaluation's and a truth
    table's in row 0.  Natively, the runtime is the one caller of the
    library's ``cgp_*`` functions, and it calls them with raw buffer
    addresses and argument tuples computed ahead of time.
    """

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
        blocks: int = 1,
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
            blocks=blocks,
        )
        #: The loaded C library, or None on the numpy backend.
        self._lib = native._lib if native is not None else None
        #: The active-node mask of the latest compile (either backend).
        self.needed = np.zeros(params.num_nodes, dtype=np.uint8)
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
        # call — so the hot path must not pay it per evaluation.  Slab
        # arrays are (re)captured in _refresh_batch() on epoch change.
        self._batch_epoch_seen = -1
        self._lane_compile_args: List[tuple] = []
        self._lane_args: List[tuple] = []
        #: The OpenMP team this runtime's broods dispatch to, decided
        #: once (see _brood_team); 1 selects the serial chunked loop.
        self.threads = _brood_team(native, self.arena.words)
        #: The process that built the runtime; any other runs serial.
        self.pid = os.getpid()
        if native is not None:
            a = self.arena
            self.p_weight_row = (
                weight_row.ctypes.data if weight_row is not None else 0
            )
            self.p_buf = a.buf.ctypes.data
            #: The serial schedule's lane: buf's rows past the stimulus.
            self.p_serial_lane = self.p_buf + a.num_inputs * a.words * 8
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
        """Lower ``genes`` into slab row 0 (a truth table's); return
        ``n_ops``."""
        self.ensure_batch(1)
        return self.compile_into_lane(genes, 0)

    def active_nodes(self) -> np.ndarray:
        """The latest compile's active nodes, ascending — what
        :meth:`Chromosome.active_nodes` sweeps for."""
        return np.flatnonzero(self.needed)

    def execute(self, n_ops: int) -> None:
        """Run slab row 0's program over ``buf``."""
        a = self.arena
        if self._lib is not None:
            self._lib.cgp_kernel(
                self.p_buf, a.num_inputs, a.words, n_ops, self.p_b_ops,
                self.p_b_src_a, self.p_b_src_b, self.p_b_dst,
            )
        else:
            kernels.run_program(a, n_ops, 0)

    def values(self, signed: bool) -> np.ndarray:
        """Decode the outputs of slab row 0's program into
        ``arena.values``."""
        a = self.arena
        if self._lib is not None:
            self._lib.cgp_decode(
                self.p_buf, a.words, self.p_b_out_slots, a.num_outputs,
                a.num_vectors, int(signed), self.p_decode_scratch,
                self.p_values,
            )
            return a.values
        return kernels.decode_values(a, a.num_outputs, signed, 0)

    def team(self) -> int:
        """The OpenMP team a brood dispatches to in this process.

        The runtime's decision, except in any process but the one that
        built it: libgomp's team does not survive ``fork()``, so a
        forked copy runs the serial loop.
        """
        if self.threads > 1 and os.getpid() == self.pid:
            return self.threads
        return 1

    # ------------------------------------------------------------------
    # Evaluation over the per-candidate program slabs.
    def ensure_batch(self, n_cand: int) -> None:
        """Size the arena's program slabs and refresh cached addresses."""
        self.arena.ensure_batch(n_cand)
        self._refresh_batch()

    def _refresh_batch(self) -> None:
        """Recapture the slab buffers' raw addresses, and the argument
        tuples built from them, after the arena (re)allocated any of
        them."""
        a = self.arena
        if self._lib is None or self._batch_epoch_seen == a.batch_epoch:
            return
        self.p_b_ops = a.batch_ops.ctypes.data
        self.p_b_src_a = a.batch_src_a.ctypes.data
        self.p_b_src_b = a.batch_src_b.ctypes.data
        self.p_b_dst = a.batch_dst.ctypes.data
        self.p_b_out_slots = a.batch_out_slots.ctypes.data
        self.p_b_n_ops = a.batch_n_ops.ctypes.data
        self.p_b_stats = a.batch_stats.ctypes.data
        # Fully precomposed cgp_compile argument tails, one per slab
        # row: compile_into_lane then costs one ctypes call with no
        # per-candidate pointer arithmetic or attribute traffic.
        p = self.params
        prog_b = p.num_nodes * 4                 # int32 row bytes
        out_stride = a.batch_out_slots.shape[1]
        self._lane_compile_args = [
            (
                p.num_nodes, p.num_inputs, p.num_outputs,
                self.p_fn2op, self.p_arity,
                self.p_b_ops + k * prog_b,
                self.p_b_src_a + k * prog_b,
                self.p_b_src_b + k * prog_b,
                self.p_b_dst + k * prog_b,
                self.p_b_out_slots + k * out_stride * 4,
                self.p_needed, self.p_scratch_i32,
            )
            for k in range(a.batch_capacity)
        ]
        # cgp_eval_batch's arguments, split around the one (do_sign) the
        # caller supplies, so each dispatch is a single raw ctypes call.
        # Slab row k's program from that row on: n_ops, the four program
        # rows and their stride, the out-slots row, bus width, stride
        # and vector count.
        programs = [
            (
                self.p_b_n_ops + k * 4,
                self.p_b_ops + k * prog_b,
                self.p_b_src_a + k * prog_b,
                self.p_b_src_b + k * prog_b,
                self.p_b_dst + k * prog_b,
                a.num_nodes,
                self.p_b_out_slots + k * out_stride * 4,
                a.num_outputs, out_stride, a.num_vectors,
            )
            for k in range(a.batch_capacity)
        ]
        # The serial schedule: one candidate, slab row k, in the arena's
        # own lane (stride 0), decode scratch and distance row; its
        # statistics land in batch_stats row 0.  The weight row, mask
        # and block count matter only with a stats row.
        self._lane_args = [
            (self.p_buf, self.p_serial_lane, a.num_inputs, 0, a.words, 1)
            + program
            for program in programs
        ]
        tail = (
            self.p_decode_scratch, 0, self.p_exact32, self.p_exact,
            self.p_weight_row, self.weight_mask, self.p_err, a.num_vectors,
        )
        self._lane_err_tail = tail + (0, a.blocks, 1)
        self._lane_stats_tail = tail + (self.p_b_stats, a.blocks, 1)
        if a.lane_capacity:
            # The threaded schedule: the first n_lanes slab rows at
            # once, each candidate in its private lane, transpose
            # scratch, distance row and stats row.
            self._batch_head = (
                self.p_buf, a.batch_lanes.ctypes.data, a.num_inputs,
                a.num_nodes, a.words,
            )
            self._batch_program = programs[0]
            tail = (
                a.batch_scratch.ctypes.data, a.batch_scratch.shape[1],
                self.p_exact32, self.p_exact, self.p_weight_row,
                self.weight_mask, a.batch_err.ctypes.data, a.num_vectors,
            )
            self._batch_err_tail = tail + (0, a.blocks)
            self._batch_stats_tail = tail + (self.p_b_stats, a.blocks)
        self._batch_epoch_seen = a.batch_epoch

    def compile_into_lane(self, genes: np.ndarray, lane: int) -> int:
        """Compile ``genes`` into slab row ``lane``; return n_ops."""
        genes = np.ascontiguousarray(genes, dtype=np.int64)
        a = self.arena
        if self._lib is not None:
            n = int(
                self._lib.cgp_compile(
                    genes.ctypes.data, *self._lane_compile_args[lane]
                )
            )
        else:
            n = compile_genes_into(
                genes, self.params, self.fn2op_list,
                a.batch_ops[lane], a.batch_src_a[lane],
                a.batch_src_b[lane], a.batch_dst[lane],
                a.batch_out_slots[lane], self.needed,
            )
        a.batch_n_ops[lane] = n
        return n

    def lane_signature(self, lane: int, n_ops: int) -> bytes:
        """Cache key of the program in slab row ``lane`` (a lone
        evaluation's; broods are never hashed).

        Salted with the objective's identity, so equal programs under
        different objectives never share a cache entry.
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
        """Run + decode-error all ``n_lanes`` compiled lanes in one
        native call: the threaded schedule.

        Every candidate runs in its private lane, transpose-scratch and
        distance row (allocated here, for every slab row, on first use),
        the candidate loop in C under an OpenMP team of ``nthreads``.
        ``arena.batch_err[k]`` receives lane ``k``'s per-vector int64
        distances, bit-identical to the serial dispatch of
        :meth:`execute_lane`.  With ``stats`` lane ``k``'s distances
        reduce into ``arena.batch_stats[k]`` instead — five statistics
        per vector block — and the distance rows stay untouched.
        """
        self.arena.ensure_lanes()
        self._refresh_batch()
        if nthreads > 1 and n_lanes > 1:
            _mark_omp_team_used()
        tail = self._batch_stats_tail if stats else self._batch_err_tail
        self._lib.cgp_eval_batch(
            *self._batch_head, n_lanes, *self._batch_program, int(signed),
            *tail, nthreads,
        )

    def execute_lane(self, lane: int, signed: bool) -> np.ndarray:
        """Run + decode-error one compiled slab lane: the serial schedule.

        Every candidate runs in turn in the arena's own buffers —
        ``buf``'s rows past the stimulus as its scratch lane, the decode
        scratch and the error row ``arena.err``.  Each candidate
        finishes (execute + decode) before the next starts, and a
        compiled program writes every non-input slot before reading it,
        so sharing them is sound, and the working set stays
        cache-resident: the caller reduces the returned distances before
        the next candidate overwrites them, a cache-hot row instead of
        one of N cold private rows.  Natively this is the same
        ``cgp_eval_batch`` entry point, dispatched one candidate at a
        time with the slab pointers offset to ``lane``, so results are
        bit-identical to the one-call dispatch; the numpy backend runs
        the same integer kernels.
        """
        a = self.arena
        if self._lib is None:
            kernels.run_program(a, int(a.batch_n_ops[lane]), lane)
            return kernels.decode_error_lane(
                a, lane, a.num_outputs, signed, self.reference
            )
        self._lib.cgp_eval_batch(
            *self._lane_args[lane], int(signed), *self._lane_err_tail
        )
        return a.err

    def execute_lane_stats(self, lane: int, signed: bool) -> list:
        """Run + exact integer reduction of one slab lane (native only).

        The stats-mode twin of :meth:`execute_lane`: the same chunked
        serial dispatch, but the decoded distances fold into the five
        statistics of each vector block in C (``arena.batch_stats`` row
        0, reused across chunks) and the ~``num_vectors`` distance row
        is never written — the dominant share of a width-8 evaluation's
        memory traffic.
        """
        self._lib.cgp_eval_batch(
            *self._lane_args[lane], int(signed), *self._lane_stats_tail
        )
        return self.arena.batch_stats[0].tolist()


class _EngineEvalMixin:
    """Engine-backed hot path over :class:`CircuitObjective` state.

    Mixed into a concrete objective class (``CompiledObjective``,
    ``CompiledSampledObjective``); expects the base objective's
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
        sampled = isinstance(self, SampledObjective)
        sample_salt = self._sample_salt if sampled else b""
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
        # on every path.  A sampled objective takes the path when its
        # estimates reduce per replicate (replicate_reduce): the decode
        # then sums each of its replicate blocks separately.
        integer = self.replicate_reduce if sampled else self.metric.integer
        self._reduce_kind: Optional[str] = (
            self.metric.name if integer else None
        )
        self._blocks = self.sample_spec.replicates if sampled else 1
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
                        blocks=self._blocks,
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

    # ------------------------------------------------------------------
    # Measure-tuple hooks: the measure is whatever per-phenotype record
    # the objective family caches and turns into results — (error, area)
    # here; the sampled subclass appends the confidence interval.
    def _finish_measure(self, err: np.ndarray, area: float) -> tuple:
        """Measure tuple from a materialized per-vector distance row."""
        return (self.error_from_distances(err), area)

    def _finish_stats(self, stats: list, area: float) -> tuple:
        """Measure tuple from the native decode's five integers.

        :meth:`ErrorMetric.from_stats` — the reduction the numpy backend
        and the interpreted objective reach through
        :meth:`CircuitObjective.error_from_distances`.
        """
        return (
            self.metric.from_stats(
                stats, self.integer_weights, self.normalizer
            ),
            area,
        )

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
    def _measure_brood(self, chromosomes: List[Chromosome]) -> List[tuple]:
        """Measure tuples of a brood, in order.

        Every candidate compiles into its own slab row, and the compile's
        active-node mask becomes the chromosome's active set.  The brood
        then runs under the runtime's schedule (see :meth:`_Runtime.team`):

        * threaded: **one** fused ``cgp_eval_batch`` call, candidate
          loop in C under the OpenMP team, each candidate writing its
          private lane / scratch / error row (:meth:`_Runtime.execute_batch`);
        * serial: one candidate at a time in the arena's own lane,
          scratch and error row, so the metric reduction that follows
          it reads cache-hot data (:meth:`_measure_lane`).

        Both run the same compiled programs through the same integer
        kernels and reduction, so the schedule changes dispatch overhead
        and memory locality, never a result.  No candidate is hashed,
        looked up in the phenotype cache or deduplicated: identical
        phenotypes simply run twice.  A brood of one always runs
        serial.  A brood without a runtime (measured interpreted, each
        candidate counted as a fallback) or of mixed params is measured
        one candidate at a time (:meth:`_measure_one`).
        """
        params = chromosomes[0].params
        rt = self._runtime(params)
        if rt is None or any(c.params != params for c in chromosomes[1:]):
            return [self._measure_one(c) for c in chromosomes]
        t0 = perf_counter_ns()
        rt.arena.assert_owner()
        n = len(chromosomes)
        rt.ensure_batch(n)
        compile_lane = rt.compile_into_lane
        lane_ops = []
        for lane, ch in enumerate(chromosomes):
            lane_ops.append(compile_lane(ch.genes, lane))
            ch.adopt_active_nodes(rt.active_nodes())
        _obs.ENGINE_COMPILE_NS.inc(perf_counter_ns() - t0)
        self._batch_calls += 1
        self._batch_evals += n
        _obs.ENGINE_BATCH_CALLS.inc()
        _obs.ENGINE_BATCH_EVALS.inc(n)
        _obs.ENGINE_BATCH_SIZE.observe(n)
        nthreads = rt.team() if n > 1 else 1
        if nthreads <= 1:
            # Cache-blocked serial schedule: run one candidate at a time
            # and reduce each distance row while it is still cache-hot.
            # One brood otherwise streams n cold private error rows
            # (~n x 512 KiB at width 8) through the reductions, which
            # costs more than the dispatch the fused call saves.
            measure_lane = self._measure_lane
            return [
                measure_lane(rt, lane, n_ops)
                for lane, n_ops in enumerate(lane_ops)
            ]
        fast = self._reduce_kind is not None
        rt.execute_batch(n, self.signed, nthreads, stats=fast)
        lane_area = rt.lane_area
        if fast:
            batch_stats = rt.arena.batch_stats
            finish_stats = self._finish_stats
            return [
                finish_stats(batch_stats[lane].tolist(), lane_area(lane, k))
                for lane, k in enumerate(lane_ops)
            ]
        batch_err = rt.arena.batch_err
        finish = self._finish_measure
        return [
            finish(batch_err[lane], lane_area(lane, k))
            for lane, k in enumerate(lane_ops)
        ]

    def _measure_one(self, chromosome: Chromosome) -> tuple:
        """Measure tuple of a lone candidate (:meth:`evaluate`).

        Slab row 0 on the serial schedule, via the phenotype cache, with
        none of a brood's dispatch bookkeeping: like the evolve loop's
        parent evaluation, it is not counted as a brood.
        """
        rt = self._runtime(chromosome.params)
        if rt is None:
            _obs.ENGINE_FALLBACK.labels(
                self._fallback[chromosome.params]
            ).inc()
            return self._measure_interpreted(chromosome)
        rt.arena.assert_owner()
        rt.ensure_batch(1)
        n_ops = rt.compile_into_lane(chromosome.genes, 0)
        chromosome.adopt_active_nodes(rt.active_nodes())
        caching = self.cache.max_entries > 0
        if caching:
            sig = rt.lane_signature(0, n_ops)
            cached = self.cache.get(sig)
            if cached is not None:
                return cached
        measure = self._measure_lane(rt, 0, n_ops)
        if caching:
            self.cache.put(sig, *measure)
        return measure

    def _measure_lane(self, rt: _Runtime, lane: int, n_ops: int) -> tuple:
        """Run slab row ``lane`` on the serial schedule; its measure.

        Natively, metrics with an integer form reduce in C
        (:meth:`_Runtime.execute_lane_stats`); the rest read the
        materialized distance row (:meth:`_Runtime.execute_lane`).
        """
        if rt._lib is not None and self._reduce_kind is not None:
            return self._finish_stats(
                rt.execute_lane_stats(lane, self.signed),
                rt.lane_area(lane, n_ops),
            )
        return self._finish_measure(
            rt.execute_lane(lane, self.signed), rt.lane_area(lane, n_ops)
        )

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
        return self._measure_one(chromosome)[0]

    def evaluate(self, chromosome: Chromosome, threshold: float) -> EvalResult:
        t0 = perf_counter_ns()
        self._check_params(chromosome.params)
        result = self._result(self._measure_one(chromosome), threshold)
        _obs.ENGINE_EVALS.inc()
        _obs.ENGINE_EVAL_NS.inc(perf_counter_ns() - t0)
        return result

    def evaluate_batch(
        self, chromosomes: Sequence[Chromosome], threshold: float
    ) -> List[EvalResult]:
        """Evaluate a population slice as one brood (see
        :meth:`_measure_brood`); :meth:`evaluate` runs its candidate
        the way a serial brood runs each of its own.

        Returns one Eq. (1) result per candidate, in input order,
        bit-identical to the interpreted objective's under either
        schedule.
        """
        chromosomes = list(chromosomes)
        if not chromosomes:
            return []
        t0 = perf_counter_ns()
        for c in chromosomes:
            self._check_params(c.params)
        result_of = self._result
        results = [
            result_of(m, threshold) for m in self._measure_brood(chromosomes)
        ]
        _obs.ENGINE_EVALS.inc(len(results))
        _obs.ENGINE_EVAL_NS.inc(perf_counter_ns() - t0)
        return results

    def stats(self) -> dict:
        """Engine counters for logging and benchmarks.

        ``omp["schedule"]`` is ``"threaded"`` when a runtime of this
        evaluator dispatches its broods to the OpenMP team in this
        process, else ``"serial"``.
        """
        omp = {"compiled": False, "threads": 1, "schedule": "serial"}
        if self._native is not None:
            threaded = any(
                rt is not None and rt.team() > 1
                for rt in self._runtimes.values()
            )
            omp = {
                "compiled": self._native.omp_compiled(),
                "threads": omp_threads(),
                "schedule": "threaded" if threaded else "serial",
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
            built by :mod:`repro.core.components`, or a
            :class:`~repro.core.objective.CircuitObjective` built
            directly.
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
    95 % confidence interval.  The phenotype-cache entries of lone
    evaluations store the four-tuple ``(error, area, ci_low, ci_high)``,
    salted with the sample-spec identity, so sampled and exhaustive
    evaluations of the same phenotype never alias.  When the objective's
    estimates reduce per replicate (its ``replicate_reduce``), the
    native decode sums each replicate block into the integer statistics
    the estimate and its interval come from, and no distance row is
    written; ``mred``, single replicates and buses whose replicate sums
    could reach ``2**63`` read the materialized row.

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

    def _finish_stats(self, stats: list, area: float) -> tuple:
        est = self.estimate_stats(
            stats[0::STATS_WIDTH], stats[1::STATS_WIDTH],
            stats[2::STATS_WIDTH],
        )
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
