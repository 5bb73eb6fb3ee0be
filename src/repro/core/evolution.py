"""The (1 + lambda) evolution strategy of CGP (paper Section III-C).

Starting from a parent (the seeded exact circuit, or the survivor of a
previous target level), each generation creates ``lambda`` mutants,
evaluates them with Eq. (1), and promotes the best offspring whenever it
is *at least as fit* as the parent — the neutral-drift rule that CGP
relies on to traverse plateaus.

Four standard accelerations are implemented, none of which changes the
search semantics:

* offspring whose mutations touch only inactive genes inherit the parent's
  evaluation without simulation (their phenotype is identical), and its
  active set;
* the evaluator precomputes stimulus / reference / weights once per run;
* each generation's offspring are evaluated as one batch — through the
  evaluator's ``evaluate_batch`` when it provides one (the compiled
  engine of :mod:`repro.engine` does), else sequentially.  Mutation
  draws happen before any evaluation, so the RNG stream, and therefore
  the search trajectory, is identical either way;
* the engine hands every child it compiles the active set its compile
  marked, so an accepted child's set is never swept again in Python.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..obs.trace import span
from .chromosome import Chromosome
from .mutation import mutate
from .objective import CircuitObjective, EvalResult

__all__ = ["EvolutionConfig", "EvolutionResult", "evolve"]


@dataclass(frozen=True)
class EvolutionConfig:
    """Search hyper-parameters (paper defaults).

    ``tie_break_error`` refines Eq. (1)'s acceptance: among candidates of
    equal area (including the infeasible ones), the one with lower WMED is
    preferred.  This keeps all of CGP's neutral drift over genotypes with
    identical (area, WMED) while preventing the search from silently
    drifting *toward* the error budget on plateaus — which matters at
    small evaluation budgets.  Set to ``False`` for the paper's literal
    area-only fitness.
    """

    generations: int = 10_000
    lam: int = 4
    h: int = 5
    neutral_drift: bool = True
    skip_neutral_evaluations: bool = True
    tie_break_error: bool = True
    time_limit_s: Optional[float] = None
    history_every: int = 0


@dataclass
class EvolutionResult:
    """Outcome of one CGP run at a fixed WMED target."""

    best: Chromosome
    best_eval: EvalResult
    generations: int
    evaluations: int
    threshold: float
    history: List[Tuple[int, float, float]] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.best_eval.feasible()


def evolve(
    seed: Chromosome,
    evaluator: CircuitObjective,
    threshold: float,
    config: Optional[EvolutionConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> EvolutionResult:
    """Run (1 + lambda) CGP minimizing Eq. (1) at one error target.

    Args:
        seed: Initial parent (typically a seeded exact circuit, whose
            error of 0 satisfies any threshold).
        evaluator: Precomputed :class:`~repro.core.objective
            .CircuitObjective` (any component, any metric) — or the
            engine-backed :class:`~repro.engine.CompiledObjective`.
        threshold: Error target ``E_i`` (normalized units, e.g. 0.005
            for the paper's 0.5 %).
        config: Search hyper-parameters.
        rng: Random source (fresh default generator when omitted).

    Returns:
        :class:`EvolutionResult` with the final parent (the best feasible
        circuit found, by construction of the acceptance rule).
    """
    cfg = config or EvolutionConfig()
    rng = rng or np.random.default_rng()
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    # One REPRO_TRACE span per run; a no-op stub when tracing is off.
    with span("evolve.run", threshold=threshold, lam=cfg.lam) as sp:
        result = _evolve_loop(seed, evaluator, threshold, cfg, rng)
        sp.tag(generations=result.generations,
               evaluations=result.evaluations)
        return result


def _evolve_loop(
    seed: Chromosome,
    evaluator: CircuitObjective,
    threshold: float,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
) -> EvolutionResult:
    parent = seed.copy()
    parent_eval = evaluator.evaluate(parent, threshold)
    evaluations = 1
    history: List[Tuple[int, float, float]] = []
    deadline = (
        time.monotonic() + cfg.time_limit_s if cfg.time_limit_s else None
    )

    def sort_key(result: EvalResult):
        if cfg.tie_break_error:
            return (result.fitness, result.wmed)
        return (result.fitness,)

    batch_eval = getattr(evaluator, "evaluate_batch", None)

    # The parent's genome-length activity mask as bytes, probed on the
    # few changed positions per child; rebuilt (vectorized fill +
    # scatter) only when the parent's active set changes.
    active_mask = np.zeros(seed.params.genome_length, dtype=bool)
    mask_of: Optional[np.ndarray] = None
    is_active = b""

    generation = 0
    for generation in range(1, cfg.generations + 1):
        positions = parent.active_gene_positions()
        if positions is not mask_of:
            active_mask[:] = False
            active_mask[positions] = True
            is_active = active_mask.tobytes()
            mask_of = positions
        # Create the whole brood first (all RNG draws), then evaluate the
        # non-neutral offspring as one batch.
        children: List[Chromosome] = []
        child_evals: List[Optional[EvalResult]] = []
        pending: List[Chromosome] = []
        for _ in range(cfg.lam):
            child, changed = mutate(parent, cfg.h, rng)
            children.append(child)
            touches_active = any(is_active[pos] for pos in changed)
            if not touches_active:
                child.inherit_active(parent)
            neutral = cfg.skip_neutral_evaluations and not touches_active
            if neutral:
                child_evals.append(parent_eval)
            else:
                child_evals.append(None)
                pending.append(child)
        if pending:
            if batch_eval is not None:
                results = batch_eval(pending, threshold)
            else:
                results = [evaluator.evaluate(c, threshold) for c in pending]
            evaluations += len(pending)
            results_iter = iter(results)
            child_evals = [
                ev if ev is not None else next(results_iter)
                for ev in child_evals
            ]

        best_child: Optional[Chromosome] = None
        best_eval: Optional[EvalResult] = None
        for child, child_eval in zip(children, child_evals):
            if best_eval is None or sort_key(child_eval) < sort_key(best_eval):
                best_child, best_eval = child, child_eval
        assert best_child is not None and best_eval is not None

        accept = (
            sort_key(best_eval) <= sort_key(parent_eval)
            if cfg.neutral_drift
            else sort_key(best_eval) < sort_key(parent_eval)
        )
        if accept:
            parent, parent_eval = best_child, best_eval

        if cfg.history_every and generation % cfg.history_every == 0:
            history.append((generation, parent_eval.wmed, parent_eval.area))
        if deadline is not None and time.monotonic() >= deadline:
            break

    return EvolutionResult(
        best=parent,
        best_eval=parent_eval,
        generations=generation,
        evaluations=evaluations,
        threshold=threshold,
        history=history,
    )
