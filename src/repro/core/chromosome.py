"""CGP genotype: parameters, chromosome, decoding and simulation.

A candidate circuit is the integer string of Section III-B: ``r x c``
programmable nodes, each encoded as ``na`` source genes plus one function
gene, followed by ``no`` output genes.  With the paper's setting ``r = 1``
every node may read any primary input or any earlier node (full
levels-back), which is also what seeding from a netlist requires.

The chromosome is stored as a flat ``numpy.int64`` array so mutation is a
couple of vectorized draws, and simulation works directly on the genotype
(no netlist conversion inside the search loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import DEFAULT_FUNCTION_SET, gate_function
from ..circuits.netlist import Netlist

__all__ = ["CGPParams", "Chromosome", "CGP_FUNCTION_SET"]

#: Function set used for the paper's experiments: identity, inversion, all
#: standard two-input gates, plus constants (needed to seed Baugh-Wooley
#: correction terms and handy for aggressive approximation).
CGP_FUNCTION_SET: Tuple[str, ...] = DEFAULT_FUNCTION_SET + ("CONST0", "CONST1")


@dataclass(frozen=True)
class CGPParams:
    """Structural CGP parameters (paper Section III-B).

    Attributes:
        num_inputs: ``ni`` primary inputs.
        num_outputs: ``no`` primary outputs.
        columns: ``c`` columns of programmable nodes.
        rows: ``r`` rows; the paper uses 1, which keeps full connectivity.
        arity: ``na`` source genes per node (2 throughout).
        functions: Names of the node functions (the set Gamma).
        levels_back: How many preceding columns a node may read from;
            ``None`` means unrestricted (all previous columns + inputs).
    """

    num_inputs: int
    num_outputs: int
    columns: int
    rows: int = 1
    arity: int = 2
    functions: Tuple[str, ...] = CGP_FUNCTION_SET
    levels_back: Optional[int] = None

    def __post_init__(self) -> None:
        if min(self.num_inputs, self.num_outputs, self.columns, self.rows) <= 0:
            raise ValueError("all structural parameters must be positive")
        if self.arity != 2:
            raise ValueError("this implementation fixes arity at 2")
        for fn in self.functions:
            gate_function(fn)  # raises on unknown names
        # Per-function-index evaluation tables, precomputed once so the
        # inner simulation loop avoids dict lookups (frozen dataclass, so
        # set via object.__setattr__).
        specs = [gate_function(fn) for fn in self.functions]
        object.__setattr__(
            self, "_arities", tuple(spec.arity for spec in specs)
        )
        object.__setattr__(
            self, "_packed_fns", tuple(spec.packed for spec in specs)
        )

    def __getstate__(self) -> dict:
        """Pickle only the declared fields.

        The derived ``_arities`` / ``_packed_fns`` tables hold lambdas
        (unpicklable); they are rebuilt by ``__post_init__`` on load.
        Needed so chromosomes can cross process boundaries in parallel
        sweeps.
        """
        import dataclasses

        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    @property
    def num_nodes(self) -> int:
        return self.columns * self.rows

    @property
    def genes_per_node(self) -> int:
        return self.arity + 1

    @property
    def genome_length(self) -> int:
        """``S = r * c * (na + 1) + no`` integers."""
        return self.num_nodes * self.genes_per_node + self.num_outputs

    def node_column(self, node: int) -> int:
        return node // self.rows

    def _first_source_column(self, node: int) -> int:
        col = self.node_column(node)
        if self.levels_back is None:
            return 0
        return max(0, col - self.levels_back)

    def num_sources(self, node: int) -> int:
        """Number of legal sources for a node's input genes.

        Legal sources are all primary inputs plus the nodes in the
        admissible preceding columns (``levels_back`` of them; all with
        the paper's unrestricted setting).
        """
        col = self.node_column(node)
        return self.num_inputs + (col - self._first_source_column(node)) * self.rows

    def source_address(self, node: int, index: int) -> int:
        """Map a uniform source index to a signal address for ``node``."""
        if index < self.num_inputs:
            return index
        offset = index - self.num_inputs
        return self.num_inputs + self._first_source_column(node) * self.rows + offset

    def legal_source(self, node: int, address: int) -> bool:
        """Whether ``address`` is a legal input source for ``node``."""
        if 0 <= address < self.num_inputs:
            return True
        node_index = address - self.num_inputs
        if not 0 <= node_index < self.num_nodes:
            return False
        col = node_index // self.rows
        return self._first_source_column(node) <= col < self.node_column(node)

    def output_range(self) -> Tuple[int, int]:
        """Legal half-open address range for output genes."""
        return 0, self.num_inputs + self.num_nodes


@dataclass
class Chromosome:
    """One CGP individual: parameters plus the integer genome."""

    params: CGPParams
    genes: np.ndarray
    _active_cache: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        genes = np.asarray(self.genes, dtype=np.int64)
        if genes.shape != (self.params.genome_length,):
            raise ValueError(
                f"genome must have {self.params.genome_length} genes, "
                f"got {genes.shape}"
            )
        self.genes = genes

    # ------------------------------------------------------------------
    # Gene accessors
    # ------------------------------------------------------------------
    def node_genes(self, node: int) -> Tuple[int, int, int]:
        """``(src_a, src_b, fn_index)`` of a node."""
        base = node * self.params.genes_per_node
        g = self.genes
        return int(g[base]), int(g[base + 1]), int(g[base + 2])

    @property
    def output_genes(self) -> np.ndarray:
        return self.genes[self.params.num_nodes * self.params.genes_per_node:]

    def node_function(self, node: int) -> str:
        return self.params.functions[self.node_genes(node)[2]]

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop the cached active-node set (call after in-place edits)."""
        self._active_cache = None

    def active_nodes(self) -> np.ndarray:
        """Indices of nodes in the output cone, ascending (= topological)."""
        if self._active_cache is not None:
            return self._active_cache
        p = self.params
        # Python ints and lists: indexing a numpy array one scalar at a
        # time costs several times more than the sweep's own work.
        genes = self.genes.tolist()
        gpn = p.genes_per_node
        ni = p.num_inputs
        nn = p.num_nodes
        arities = p._arities
        end = nn * gpn
        src_a = genes[0:end:gpn]
        src_b = genes[1:end:gpn]
        fns = genes[p.arity:end:gpn]
        needed = [False] * nn
        for out in genes[end:]:
            if out >= ni:
                needed[out - ni] = True
        # Sources always precede their node, so one reverse sweep settles
        # the transitive fan-in without a worklist.
        for node in range(nn - 1, -1, -1):
            if needed[node]:
                arity = arities[fns[node]]
                if arity >= 1:
                    a = src_a[node]
                    if a >= ni:
                        needed[a - ni] = True
                    if arity >= 2:
                        b = src_b[node]
                        if b >= ni:
                            needed[b - ni] = True
        active = np.array(
            [node for node, hit in enumerate(needed) if hit], dtype=np.intp
        )
        self._active_cache = active
        return active

    def active_gene_positions(self) -> np.ndarray:
        """Genome positions whose mutation can change the phenotype.

        These are the genes of active nodes plus the output genes; a
        mutation touching none of them is phenotypically neutral, which
        the evolution loop exploits to skip re-evaluation.
        """
        p = self.params
        gpn = p.genes_per_node
        active = self.active_nodes()
        node_positions = (active[:, None] * gpn + np.arange(gpn)).ravel()
        out_positions = np.arange(
            p.num_nodes * gpn, p.genome_length, dtype=np.int64
        )
        return np.concatenate([node_positions, out_positions])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def simulate(self, input_words: np.ndarray) -> List[np.ndarray]:
        """Packed simulation of the phenotype (active nodes only).

        Args:
            input_words: Array ``(num_inputs, W)`` of packed stimulus.

        Returns:
            One packed word array per primary output.
        """
        p = self.params
        if input_words.shape[0] != p.num_inputs:
            raise ValueError(
                f"stimulus rows {input_words.shape[0]} != ni {p.num_inputs}"
            )
        width = input_words.shape[1]
        values: List[Optional[np.ndarray]] = [None] * (p.num_inputs + p.num_nodes)
        for k in range(p.num_inputs):
            values[k] = input_words[k]
        zeros = np.zeros(width, dtype=np.uint64)
        genes = self.genes
        gpn = p.genes_per_node
        ni = p.num_inputs
        arities = p._arities
        packed_fns = p._packed_fns
        for node in self.active_nodes():
            base = int(node) * gpn
            fn_idx = genes[base + 2]
            arity = arities[fn_idx]
            a = values[genes[base]] if arity >= 1 else zeros
            b = values[genes[base + 1]] if arity >= 2 else zeros
            values[ni + int(node)] = packed_fns[fn_idx](a, b)
        outs = []
        for out in self.output_genes:
            val = values[int(out)]
            if val is None:  # pragma: no cover - defensive
                raise RuntimeError(f"output source {out} not computed")
            outs.append(val)
        return outs

    def cell_counts(self) -> dict:
        """Histogram of active node functions (for area estimation)."""
        p = self.params
        counts: dict = {}
        for node in self.active_nodes():
            fn = p.functions[self.node_genes(int(node))[2]]
            counts[fn] = counts.get(fn, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_netlist(self, name: str = "") -> Netlist:
        """Export the phenotype (active cone) as a compact netlist."""
        p = self.params
        net = Netlist(num_inputs=p.num_inputs, name=name)
        remap = {k: k for k in range(p.num_inputs)}
        for node in self.active_nodes():
            src_a, src_b, fn_idx = self.node_genes(int(node))
            fn = p.functions[fn_idx]
            arity = gate_function(fn).arity
            srcs = tuple(remap[s] for s in (src_a, src_b)[:arity])
            remap[p.num_inputs + int(node)] = net.add_gate(fn, *srcs)
        outs = []
        for out in self.output_genes:
            out = int(out)
            if out in remap:
                outs.append(remap[out])
            else:
                # Output wired straight to an input that is otherwise
                # unused as a gate source: inputs always map to themselves.
                outs.append(out)
        net.set_outputs(outs)
        return net

    def copy(self) -> "Chromosome":
        clone = Chromosome(self.params, self.genes.copy())
        clone._active_cache = self._active_cache
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.params
        return (
            f"<Chromosome ni={p.num_inputs} no={p.num_outputs} "
            f"c={p.columns} active={len(self.active_nodes())}>"
        )
