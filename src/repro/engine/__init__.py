"""Compiled evaluation engine — the search's performance subsystem.

Candidate evaluation is the CGP loop's entire cost profile: one
exhaustive packed simulation plus a truth-table decode per offspring.
This package turns that from an interpreted walk over genotype dicts
into a compiled pipeline:

``compiler`` -> ``arena`` -> (``native`` | ``kernels``)

* :mod:`repro.engine.compiler` lowers a chromosome's (or netlist's)
  active cone to flat, topologically ordered ``(opcode, src_a, src_b)``
  arrays with densely renumbered slots — a canonical program that is
  byte-identical for phenotype-equivalent genotypes — and hands the
  active set it marks to the chromosome.
* :mod:`repro.engine.arena` preallocates every evaluation buffer (packed
  signal matrix, program slabs, decode scratch, error vector) once per
  run.
* :mod:`repro.engine.native` executes programs in C (built on demand via
  the system compiler, loaded through ctypes); :mod:`repro.engine
  .kernels` is the bit-identical pure-numpy fallback with a stacked
  bit-transpose decode and fused WMED reduction.
* :mod:`repro.engine.cache` memoizes a lone evaluation's ``(wmed,
  area)`` by compiled-program signature; brood candidates bypass it.

:class:`~repro.engine.evaluator.CompiledObjective` packages the pipeline
behind the component-agnostic objective layer: it wraps *any*
:class:`~repro.core.objective.CircuitObjective` — multiplier, adder,
MAC, custom netlist, under any error metric — and produces bit-identical
results, so evolved trajectories do not change:
``CompiledObjective(multiplier_objective(width, dist))`` scores exactly
what ``multiplier_objective(width, dist)`` does.  Select the backend
with the ``REPRO_ENGINE`` environment variable (``numpy`` forces the
fallback).
"""

from .arena import BufferArena
from .cache import EvalCache
from .compiler import CompiledPhenotype, compile_netlist, compile_phenotype
from .evaluator import CompiledObjective, CompiledSampledObjective
from .native import native_available
from .opcodes import OP_ARITY, OP_NAMES

__all__ = [
    "BufferArena",
    "EvalCache",
    "CompiledPhenotype",
    "compile_netlist",
    "compile_phenotype",
    "CompiledObjective",
    "CompiledSampledObjective",
    "native_available",
    "OP_ARITY",
    "OP_NAMES",
]
