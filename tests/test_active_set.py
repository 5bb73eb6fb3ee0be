"""The active set a candidate's compile marks, adopted instead of swept.

The engine's compile (native ``cgp_compile`` or the Python
``compile_genes_into``) marks every node in the output cone before it
lowers the program.  Each candidate the engine compiles takes that mask
as its active set (``Chromosome.adopt_active_nodes``), a neutral child
of the evolve loop shares its parent's set, and so the search never
runs the Python sweep (``Chromosome._sweep_active_nodes``) on a
compiled candidate.  These tests pin that the adopted sets equal the
swept ones and that the sweep really is skipped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import evolution
from repro.core.chromosome import Chromosome
from repro.core.components import (
    component_objective,
    get_component,
    sampled_component_objective,
)
from repro.core.evolution import EvolutionConfig, evolve
from repro.core.mutation import mutate
from repro.core.objective import SampleSpec
from repro.core.seeding import netlist_to_chromosome, params_for_netlist
from repro.engine import CompiledObjective, CompiledSampledObjective
from repro.engine import native_available
from repro.errors.distributions import distribution_from_spec

BACKENDS = ["numpy"] + (["native"] if native_available() else [])


def _seed(width: int, extra: int = 8) -> Chromosome:
    net = get_component("multiplier").build_seed(width, False)
    return netlist_to_chromosome(
        net, params_for_netlist(net, extra_columns=extra)
    )


def _objective(width: int, backend: str):
    """Exhaustive D2 multiplier objective; sampled at width 16."""
    dist = distribution_from_spec("d2", width, False)
    if width > 8:
        return CompiledSampledObjective(
            sampled_component_objective(
                "multiplier", width, dist, SampleSpec(64, 2, seed=1)
            ),
            backend=backend,
        )
    return CompiledObjective(
        component_objective("multiplier", width, dist), backend=backend
    )


def _mutants(width: int, n: int, seed: int):
    """Chained heavy mutants: diverse cones, function genes of every
    arity (constants, identity, inversion, two-input gates)."""
    rng = np.random.default_rng(seed)
    chrom = _seed(width)
    out = []
    for _ in range(n):
        chrom, _ = mutate(chrom, 25, rng)
        out.append(chrom)
    return out


@pytest.mark.skipif(not native_available(), reason="native backend only")
@pytest.mark.parametrize("width", [4, 8])
def test_python_compile_equals_native_compile(width):
    # The numpy backend's compile is the Python reference of cgp_compile:
    # same program arrays, same active-node mask, candidate by candidate.
    numpy_rt = _objective(width, "numpy")._runtime(_seed(width).params)
    native_rt = _objective(width, "native")._runtime(_seed(width).params)
    for rt in (numpy_rt, native_rt):
        rt.ensure_batch(1)
    for chrom in [_seed(width)] + _mutants(width, 40, seed=9):
        n = numpy_rt.compile_into_lane(chrom.genes, 0)
        assert native_rt.compile_into_lane(chrom.genes, 0) == n
        assert np.array_equal(numpy_rt.needed, native_rt.needed)
        for name in ("batch_ops", "batch_src_a", "batch_src_b",
                     "batch_dst"):
            assert np.array_equal(
                getattr(numpy_rt.arena, name)[0, :n],
                getattr(native_rt.arena, name)[0, :n],
            ), name
        assert np.array_equal(
            numpy_rt.arena.batch_out_slots[0],
            native_rt.arena.batch_out_slots[0],
        )


class _NoSweep:
    """Counts ``Chromosome._sweep_active_nodes`` calls while installed."""

    def __init__(self, monkeypatch, forbid: bool = False):
        self.calls = 0
        real = Chromosome._sweep_active_nodes

        def sweep(chrom):
            self.calls += 1
            if forbid:
                raise AssertionError("the Python active-node sweep ran")
            return real(chrom)

        monkeypatch.setattr(Chromosome, "_sweep_active_nodes", sweep)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("width", [4, 8, 16])
def test_compiled_candidates_adopt_the_swept_active_set(
    width, backend, monkeypatch
):
    obj = _objective(width, backend)
    brood = _mutants(width, 12, seed=width)
    lone = _mutants(width, 3, seed=100 + width)
    _NoSweep(monkeypatch, forbid=True)
    obj.evaluate_batch(brood, 0.01)
    for chrom in lone:
        obj.evaluate(chrom, 0.01)
    adopted = [c.active_nodes() for c in brood + lone]
    monkeypatch.undo()
    for chrom, active in zip(brood + lone, adopted):
        fresh = Chromosome(chrom.params, chrom.genes.copy()).active_nodes()
        assert np.array_equal(active, fresh)
        assert np.array_equal(
            chrom.active_gene_positions(),
            Chromosome(chrom.params, chrom.genes.copy())
            .active_gene_positions(),
        )


def test_accepted_neutral_child_carries_its_parents_set(monkeypatch):
    records = []
    real_mutate = evolution.mutate

    def spy(parent, h, rng):
        child, changed = real_mutate(parent, h, rng)
        records.append((parent, child, list(changed)))
        return child, changed

    monkeypatch.setattr(evolution, "mutate", spy)
    obj = _objective(4, "auto")
    evolve(
        _seed(4), obj, 0.02, EvolutionConfig(generations=200),
        rng=np.random.default_rng(3),
    )
    parents = {id(p) for p, _, _ in records}
    carried = 0
    for parent, child, changed in records:
        active = set(parent.active_gene_positions().tolist())
        if id(child) in parents and not active.intersection(changed):
            # Accepted (it parents a later brood) and neutral: the very
            # same arrays, not an equal recomputation.
            assert child.active_nodes() is parent.active_nodes()
            assert (
                child.active_gene_positions()
                is parent.active_gene_positions()
            )
            carried += 1
    assert carried > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_evolve_sweeps_at_most_once(backend, monkeypatch):
    obj = _objective(8, backend)
    counter = _NoSweep(monkeypatch)
    result = evolve(
        _seed(8), obj, 0.005, EvolutionConfig(generations=300),
        rng=np.random.default_rng(7),
    )
    assert result.generations == 300
    assert counter.calls <= 1
