"""Phenotype compiler: active cones lowered to flat opcode programs.

A CGP chromosome (or a netlist) is *compiled* to the engine's executable
form: topologically ordered ``(opcode, src_a, src_b, dst)`` quadruples
over a dense slot space, plus per-output-bit source slots.  Slot
``k < num_inputs`` is primary input ``k``; remaining slots are assigned
by a liveness-driven allocator (LIFO free list) that reuses a slot as
soon as its value's last consumer has executed, so the kernel's working
set is the *live width* of the circuit DAG, not its gate count — the
difference between streaming megabytes per candidate and staying
cache-resident.  Output values and primary inputs are never recycled.

Unread operand fields are canonicalized to 0 and the allocator is
deterministic, so two genotypes with the same phenotype compile to
byte-identical programs, and the compiled form can key the phenotype
eval cache of a lone evaluation.  The compile's first pass marks the
active cone, which the engine hands to the chromosome as its active set
(:meth:`~repro.core.chromosome.Chromosome.adopt_active_nodes`).  The
native backend (:mod:`repro.engine.native`) runs the same algorithm in
C; both produce identical arrays.

The Python compiler works over ``genes.tolist()``: per-element access on
small int lists beats numpy scalar indexing on the ~2000-gene genomes
the paper uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import compress
from typing import List, Optional

import numpy as np

from ..circuits.netlist import Netlist
from ..core.chromosome import CGPParams, Chromosome
from .opcodes import OP_ARITY, function_opcode_table

__all__ = [
    "CompiledPhenotype",
    "compile_genes_into",
    "compile_phenotype",
    "compile_netlist",
    "phenotype_signature",
]

_ARITY_LIST: List[int] = [int(a) for a in OP_ARITY]


@dataclass(frozen=True)
class CompiledPhenotype:
    """An owned, immutable compiled program (see module docstring).

    Attributes:
        num_inputs: Slots ``0 .. num_inputs-1`` hold the primary inputs.
        ops: Opcodes, execution order, shape ``(n_ops,)``.
        src_a: First-operand slot per operation (0 when unread).
        src_b: Second-operand slot per operation (0 when unread).
        dst: Destination slot per operation (never aliases its operands).
        out_slots: Slot of each output bit, LSB first.
    """

    num_inputs: int
    ops: np.ndarray
    src_a: np.ndarray
    src_b: np.ndarray
    dst: np.ndarray
    out_slots: np.ndarray

    @property
    def n_ops(self) -> int:
        return int(self.ops.shape[0])

    @property
    def num_slots(self) -> int:
        """Arena rows the program needs (inputs + peak live values)."""
        upper = int(self.dst.max()) + 1 if self.n_ops else 0
        return max(self.num_inputs, upper)

    def signature(self) -> bytes:
        return phenotype_signature(
            self.ops, self.src_a, self.src_b, self.dst, self.out_slots
        )


def phenotype_signature(
    ops: np.ndarray,
    src_a: np.ndarray,
    src_b: np.ndarray,
    dst: np.ndarray,
    out_slots: np.ndarray,
    salt: bytes = b"",
) -> bytes:
    """16-byte blake2b digest identifying a compiled program.

    The arrays are hashed through the buffer protocol (same bytes as
    ``tobytes()`` for the C-contiguous slices every caller passes,
    without the copy).
    """
    h = hashlib.blake2b(salt, digest_size=16)
    h.update(ops)
    h.update(src_a)
    h.update(src_b)
    h.update(dst)
    h.update(out_slots)
    return h.digest()


def compile_genes_into(
    genes: np.ndarray,
    params: CGPParams,
    fn2op: List[int],
    ops: np.ndarray,
    src_a: np.ndarray,
    src_b: np.ndarray,
    dst: np.ndarray,
    out_slots: np.ndarray,
    needed_out: Optional[np.ndarray] = None,
) -> int:
    """Compile a genome into caller-provided buffers; return ``n_ops``.

    This is the Python reference of the compile algorithm (the native
    backend runs the same passes in C).  ``ops``, ``src_a``, ``src_b``,
    ``dst`` must have room for ``params.num_nodes`` entries and
    ``out_slots`` for ``params.num_outputs``.  ``needed_out``, when
    given (``uint8``, ``params.num_nodes`` long), receives the
    active-node mask of the first pass, as the native compile's
    ``needed`` does.
    """
    p = params
    ni = p.num_inputs
    nn = p.num_nodes
    gpn = p.genes_per_node
    g = genes.tolist()
    node_end = nn * gpn
    in_a = g[0:node_end:gpn]
    in_b = g[1:node_end:gpn]
    op_of = [fn2op[f] for f in g[2:node_end:gpn]]
    outs = g[node_end:]
    arity_of = _ARITY_LIST

    # Pass 1: transitive fan-in of the outputs.  Sources always precede
    # their node (rows = 1, feed-forward), so one reverse sweep settles it.
    needed = bytearray(nn)
    for out in outs:
        if out >= ni:
            needed[out - ni] = 1
    for node in range(nn - 1, -1, -1):
        if needed[node]:
            ar = arity_of[op_of[node]]
            if ar:
                a = in_a[node]
                if a >= ni:
                    needed[a - ni] = 1
                if ar > 1:
                    b = in_b[node]
                    if b >= ni:
                        needed[b - ni] = 1
    if needed_out is not None:
        needed_out[:] = np.frombuffer(needed, dtype=np.uint8)
    active = list(compress(range(nn), needed))
    n_total = len(active)

    # Pass 2: per-node last consumer (emit index); outputs never die.
    last_use = [0] * nn
    for e, node in enumerate(active):
        ar = arity_of[op_of[node]]
        if ar:
            a = in_a[node]
            if a >= ni:
                last_use[a - ni] = e
            if ar > 1:
                b = in_b[node]
                if b >= ni:
                    last_use[b - ni] = e
    for out in outs:
        if out >= ni:
            last_use[out - ni] = n_total

    # Pass 3: emission with LIFO slot recycling.  A dead operand's slot
    # is released only *after* the op's destination is allocated, so a
    # destination never aliases its own operands.  Unread operands stay
    # 0.  The program is built in lists and stored with one slice
    # assignment per array.
    slot = list(range(ni)) + [0] * nn
    free: List[int] = []
    next_new = ni
    ops_l = [op_of[node] for node in active]
    sa_l = [0] * n_total
    sb_l = [0] * n_total
    dst_l = [0] * n_total
    for e, node in enumerate(active):
        if free:
            d = free.pop()
        else:
            d = next_new
            next_new += 1
        dst_l[e] = d
        slot[ni + node] = d
        ar = arity_of[ops_l[e]]
        if ar:
            ga = in_a[node]
            sa_l[e] = slot[ga]
            if ga >= ni and last_use[ga - ni] == e:
                free.append(slot[ga])
            if ar > 1:
                gb = in_b[node]
                sb_l[e] = slot[gb]
                if gb >= ni and gb != ga and last_use[gb - ni] == e:
                    free.append(slot[gb])
    ops[:n_total] = ops_l
    src_a[:n_total] = sa_l
    src_b[:n_total] = sb_l
    dst[:n_total] = dst_l
    out_slots[: len(outs)] = [slot[out] for out in outs]
    return n_total


def compile_phenotype(chromosome: Chromosome) -> CompiledPhenotype:
    """Compile a chromosome's active cone into an owned program."""
    p = chromosome.params
    fn2op = [int(x) for x in function_opcode_table(p.functions)]
    ops = np.empty(p.num_nodes, dtype=np.int32)
    src_a = np.empty(p.num_nodes, dtype=np.int32)
    src_b = np.empty(p.num_nodes, dtype=np.int32)
    dst = np.empty(p.num_nodes, dtype=np.int32)
    out_slots = np.empty(p.num_outputs, dtype=np.int32)
    n = compile_genes_into(
        chromosome.genes, p, fn2op, ops, src_a, src_b, dst, out_slots
    )
    return CompiledPhenotype(
        num_inputs=p.num_inputs,
        ops=ops[:n].copy(),
        src_a=src_a[:n].copy(),
        src_b=src_b[:n].copy(),
        dst=dst[:n].copy(),
        out_slots=out_slots.copy(),
    )


def compile_netlist(netlist: Netlist) -> CompiledPhenotype:
    """Compile a netlist's output cone into an owned program.

    Uses the same canonical passes as :func:`compile_phenotype`, so a
    netlist and the chromosome seeded from it compile identically.
    """
    from ..circuits.gates import gate_function
    from .opcodes import opcode_of

    ni = netlist.num_inputs
    active = netlist.active_gate_indices()
    arities: List[int] = []
    opcodes: List[int] = []
    for k in active:
        fn = netlist.gates[k].fn
        op = opcode_of(fn)
        if op is None:
            raise KeyError(f"gate function {fn!r} has no engine opcode")
        opcodes.append(op)
        arities.append(gate_function(fn).arity)

    n_total = len(active)
    last_use = [0] * len(netlist.gates)
    for e, k in enumerate(active):
        gate = netlist.gates[k]
        ar = arities[e]
        if ar >= 1 and gate.inputs[0] >= ni:
            last_use[gate.inputs[0] - ni] = e
        if ar >= 2 and gate.inputs[1] >= ni:
            last_use[gate.inputs[1] - ni] = e
    for out in netlist.outputs:
        if out >= ni:
            last_use[out - ni] = n_total

    slot = list(range(ni)) + [0] * len(netlist.gates)
    free: List[int] = []
    next_new = ni
    ops_l: List[int] = []
    sa_l: List[int] = []
    sb_l: List[int] = []
    dst_l: List[int] = []
    for e, k in enumerate(active):
        gate = netlist.gates[k]
        ar = arities[e]
        ga, gb = gate.inputs[0], gate.inputs[1]
        ops_l.append(opcodes[e])
        sa_l.append(slot[ga] if ar >= 1 else 0)
        sb_l.append(slot[gb] if ar >= 2 else 0)
        d = free.pop() if free else next_new
        if d == next_new:
            next_new += 1
        dst_l.append(d)
        slot[ni + k] = d
        if ar >= 1 and ga >= ni and last_use[ga - ni] == e:
            free.append(slot[ga])
        if ar >= 2 and gb >= ni and gb != ga and last_use[gb - ni] == e:
            free.append(slot[gb])
    out_slots = np.array([slot[o] for o in netlist.outputs], dtype=np.int32)
    return CompiledPhenotype(
        num_inputs=ni,
        ops=np.array(ops_l, dtype=np.int32),
        src_a=np.array(sa_l, dtype=np.int32),
        src_b=np.array(sb_l, dtype=np.int32),
        dst=np.array(dst_l, dtype=np.int32),
        out_slots=out_slots,
    )
