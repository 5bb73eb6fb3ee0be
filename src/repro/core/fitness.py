"""Fitness evaluation for WMED-constrained multiplier approximation.

.. deprecated::
    :class:`MultiplierFitness` is kept as a thin alias for the
    multiplier instance of the component-agnostic objective layer — new
    code should build objectives through
    :func:`repro.core.components.multiplier_objective` (or
    :func:`~repro.core.components.component_objective` /
    :class:`~repro.core.objective.CircuitObjective` directly).  Results
    are bit-identical to the historical class, so existing trajectories
    do not change.

Implements the paper's Eq. (1):

``F(M~) = area(M~)   if WMED_D(M~) <= E_i``
``F(M~) = infinity   otherwise``

Area is estimated from the technology library over the active nodes only
(the phenotype), which is what makes each candidate evaluation cheap; the
WMED term requires one exhaustive packed simulation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors.distributions import Distribution
from ..errors.truth_tables import (
    exact_product_table,
    max_product_magnitude,
    vector_weights,
)
from ..tech.library import TechLibrary
from .objective import CircuitObjective, EvalResult

__all__ = ["EvalResult", "MultiplierFitness"]


class MultiplierFitness(CircuitObjective):
    """Evaluator for ``width``-bit approximate multipliers.

    The multiplier instance of :class:`~repro.core.objective
    .CircuitObjective`: reference = exact product table, weights = the
    WMED weights of ``dist``, normalizer = maximum product magnitude.
    Precomputes all three once; each candidate costs one packed
    simulation plus one exact integer reduction.

    Args:
        width: Operand bit width ``w``.
        dist: Operand-``x`` distribution defining the WMED weights (its
            ``signed`` flag selects the product semantics).
        library: Technology library for the area term.
        metric: Error metric; the paper's ``"wmed"`` by default.
    """

    def __init__(
        self,
        width: int,
        dist: Distribution,
        library: Optional[TechLibrary] = None,
        metric: object = "wmed",
    ) -> None:
        if dist.width != width:
            raise ValueError("distribution width must match operand width")
        super().__init__(
            num_inputs=2 * width,
            reference=exact_product_table(width, dist.signed),
            weights=vector_weights(dist, width),
            signed=dist.signed,
            normalizer=float(max_product_magnitude(width, dist.signed)),
            metric=metric,
            library=library,
            component="multiplier",
            num_outputs=2 * width,
        )
        self.width = width
        self.dist = dist

    @property
    def exact(self) -> np.ndarray:
        """Historical name for the reference product table."""
        return self.reference
