"""Arithmetic error metrics, including the paper's WMED.

All metrics operate on two integer truth tables in vector order (see
:mod:`repro.errors.truth_tables`): the exact function and a candidate
approximation.  The central metric is the **weighted mean error distance**:

.. math::

    \\mathrm{WMED}_D(\\tilde M) \\propto \\sum_{i,j}
        \\alpha_{i,j} \\, | i \\cdot j - \\tilde M(i, j) |,
    \\qquad \\alpha_{i,j} = D(i)

Normalization: the paper divides by :math:`2^{2w}` and reports percent.
Taken literally that constant does not bound the metric by 1, so for
percentage reporting we normalize the weighted expected error distance by
the maximum exact product magnitude, which *is* bounded by 1 and preserves
the paper's threshold semantics.  Both conventions are exposed:

* :func:`wmed` — ``E_{i~D, j~U}[|err|] / max|product|``   (used everywhere),
* :func:`wmed_paper` — the literal Eq. (WMED) value.

Weighted figures are exact integer sums over quantized weights (see
:mod:`repro.errors.weights`): WMED is ``(Σ W·|d|) / ΣW / normalizer``,
never a float dot product, so its bits do not depend on the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import Distribution
from .truth_tables import max_product_magnitude, vector_weights
from .weights import IntegerWeights, as_integer_weights

__all__ = [
    "MetricEstimate",
    "estimate_from_distances",
    "t_critical",
    "error_distances",
    "relative_error_distances",
    "mean_error_distance",
    "normalized_med",
    "wmed",
    "wmed_paper",
    "mean_relative_error",
    "error_rate",
    "worst_case_error",
    "error_bias",
    "ErrorMetric",
    "METRICS",
    "metric_names",
    "get_metric",
    "ErrorReport",
    "evaluate_errors",
    "evaluate_errors_against",
]


def _check(exact: np.ndarray, approx: np.ndarray) -> (np.ndarray, np.ndarray):
    exact = np.asarray(exact, dtype=np.int64).ravel()
    approx = np.asarray(approx, dtype=np.int64).ravel()
    if exact.shape != approx.shape:
        raise ValueError(
            f"truth tables differ in length: {exact.shape} vs {approx.shape}"
        )
    if exact.size == 0:
        raise ValueError("empty truth tables")
    return exact, approx


def error_distances(exact: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Absolute error ``|exact - approx|`` per input vector."""
    exact, approx = _check(exact, approx)
    return np.abs(exact - approx)


def relative_error_distances(
    distances: np.ndarray,
    reference: np.ndarray,
    epsilon: float = 1.0,
) -> np.ndarray:
    """Per-vector relative error ``|err| / max(|reference|, epsilon)``.

    Distance-domain primitive shared by :func:`mean_relative_error` and
    the ``mred`` :class:`ErrorMetric` (objective hot path), so both
    compute the identical quantity.
    """
    distances = np.asarray(distances, dtype=np.float64)
    return distances / np.maximum(np.abs(reference), epsilon)


def mean_error_distance(
    exact: np.ndarray,
    approx: np.ndarray,
    weights=None,
) -> float:
    """(Weighted) mean error distance in absolute output units.

    With ``weights`` the result is ``Σ W·|err| / ΣW`` over the integer
    counts ``W`` (an :class:`~repro.errors.weights.IntegerWeights`, or
    float weights quantized here) — the expected error distance under
    the weight distribution, summed exactly.  Without, all vectors count
    equally (classic MED under uniform inputs).
    """
    dist = error_distances(exact, approx)
    if weights is None:
        return int(dist.sum()) / dist.size
    top = int(dist.max())
    w = as_integer_weights(weights, top, dist.size)
    w.check(top)
    return w.weighted_sum(dist) / w.total


def normalized_med(
    exact: np.ndarray,
    approx: np.ndarray,
    width: int,
    signed: bool,
    weights: Optional[np.ndarray] = None,
) -> float:
    """MED normalized by the maximum exact product magnitude, in [0, ~1]."""
    med = mean_error_distance(exact, approx, weights)
    return med / max_product_magnitude(width, signed)


def wmed(
    exact: np.ndarray,
    approx: np.ndarray,
    dist: Distribution,
    width: Optional[int] = None,
) -> float:
    """Weighted mean error distance, normalized to [0, ~1].

    ``wmed = E_{x ~ D, y ~ Uniform}[ |x*y - approx(x,y)| ] / max|x*y|``.
    Multiply by 100 to get the percentage figures the paper quotes
    (0.005 % ... 10 %).

    Args:
        exact: Exact product truth table, vector order.
        approx: Candidate truth table, vector order.
        dist: Distribution of the ``x`` operand (low input half).
        width: Operand width; defaults to ``dist.width``.
    """
    width = dist.width if width is None else width
    weights = vector_weights(dist, width)
    return normalized_med(exact, approx, width, dist.signed, weights)


def wmed_paper(
    exact: np.ndarray,
    approx: np.ndarray,
    dist: Distribution,
    width: Optional[int] = None,
) -> float:
    """The literal Eq. (WMED): ``(1 / 2**(2w)) * sum alpha |err|``."""
    width = dist.width if width is None else width
    weights = vector_weights(dist, width)
    dist_abs = error_distances(exact, approx).astype(np.float64)
    return float((weights * dist_abs).sum() / (1 << (2 * width)))


def mean_relative_error(
    exact: np.ndarray,
    approx: np.ndarray,
    weights=None,
    epsilon: float = 1.0,
) -> float:
    """Mean relative error ``|err| / max(|exact|, epsilon)``.

    Relative errors are not integers, so the weighted mean is a
    fixed-order float sum (``(w * rel).sum()``, no BLAS); integer
    ``weights`` contribute their exact float image ``W / ΣW``.
    """
    exact, approx = _check(exact, approx)
    rel = relative_error_distances(np.abs(exact - approx), exact, epsilon)
    if weights is None:
        return float(rel.mean())
    if isinstance(weights, IntegerWeights):
        return float((weights.probabilities() * rel).sum())
    weights = np.asarray(weights, dtype=np.float64).ravel()
    return float((weights * rel).sum() / weights.sum())


def error_rate(
    exact: np.ndarray,
    approx: np.ndarray,
    weights=None,
) -> float:
    """Fraction (or weighted probability) of vectors with any error.

    Weighted: ``Σ W·[err != 0] / ΣW``, an exact integer sum.
    """
    exact, approx = _check(exact, approx)
    wrong = exact != approx
    if weights is None:
        return float(wrong.astype(np.float64).mean())
    w = as_integer_weights(weights, 1, wrong.size)
    return w.weighted_sum(wrong) / w.total


def worst_case_error(exact: np.ndarray, approx: np.ndarray) -> int:
    """Largest absolute error over all vectors."""
    return int(error_distances(exact, approx).max())


def error_bias(
    exact: np.ndarray,
    approx: np.ndarray,
    weights=None,
) -> float:
    """Signed mean error ``E[approx - exact]`` (accumulation bias).

    Weighted: ``Σ W·(approx - exact) / ΣW``, an exact integer sum.
    """
    exact, approx = _check(exact, approx)
    signed_err = approx - exact
    if weights is None:
        return float(signed_err.astype(np.float64).mean())
    largest = int(np.abs(signed_err).max())
    w = as_integer_weights(weights, largest, signed_err.size)
    w.check(largest)
    return w.weighted_sum(signed_err) / w.total


# ----------------------------------------------------------------------
# Pluggable metric objects (the objective layer's error term)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorMetric:
    """A named reduction from per-vector error distances to one scalar.

    This is the pluggable error term of
    :class:`repro.core.objective.CircuitObjective`.  It has two forms:

    * :meth:`from_stats` — the exact form of every metric but ``mred``:
      a formula over the five integers ``[Σ|d|, #{d != 0}, max|d|,
      Σ W·|d|, Σ W·[d != 0]]`` with the objective's integer weights
      ``W``.  The native decode accumulates them in C; the numpy backend
      and the interpreted objective take them from the distance row
      (:meth:`~repro.errors.weights.IntegerWeights.stats`).  Every
      exhaustive path calls this one reduction, so its value is
      bit-identical across paths and hosts.
    * :meth:`from_distances` — the float form over a materialized
      distance row and float weights: ``mred`` (relative errors are not
      integers) and the sampled estimator.  Its sums are fixed-order
      numpy sums, never BLAS.

    Attributes
    ----------
    name : str
        Canonical registry name (``wmed``, ``med``, ``mred``,
        ``error-rate``, ``worst-case``); aliases resolve through
        :func:`get_metric`.

    Notes
    -----
    Conventions every metric function relies on: ``weights`` is already
    normalized to sum to 1 (the objective normalizes once at
    construction), and ``normalizer`` is the objective's error scale
    (max ``|reference|`` by default), so magnitude-based metrics land
    in [0, ~1] — multiply by 100 for the percent units the paper (and
    every ``max_error_percent``/``threshold_percent`` knob in this
    repo) quotes.  ``mred`` and ``error-rate`` are intrinsically
    scale-free and ignore ``normalizer``.
    """

    name: str
    #: (distances, weights, normalizer, reference) -> float
    _fn: Callable[[np.ndarray, np.ndarray, float, np.ndarray], float]
    #: (stats, integer weights, normalizer) -> float; None for mred.
    _exact: Optional[Callable[[Sequence[int], IntegerWeights, float], float]] = (
        None
    )

    @property
    def integer(self) -> bool:
        """Whether :meth:`from_stats` (the exact form) is available."""
        return self._exact is not None

    def from_distances(
        self,
        distances: np.ndarray,
        weights: np.ndarray,
        normalizer: float,
        reference: np.ndarray,
    ) -> float:
        """Reduce a per-vector distance vector to the metric scalar.

        Parameters
        ----------
        distances : numpy.ndarray
            Per-vector ``|reference - candidate|`` in absolute output
            units, ``float64``, vector order.
        weights : numpy.ndarray
            Per-vector importance, normalized to unit mass.
        normalizer : float
            The objective's error scale (max ``|reference|``), mapping
            absolute distances into the normalized [0, ~1] range.
        reference : numpy.ndarray
            The exact truth table (needed by relative-error metrics).

        Returns
        -------
        float
            The scalar the search thresholds compare against.
        """
        return self._fn(distances, weights, normalizer, reference)

    def from_stats(
        self,
        stats: Sequence[int],
        weights: IntegerWeights,
        normalizer: float,
    ) -> float:
        """Reduce the decode's five integers to the metric scalar.

        Parameters
        ----------
        stats : sequence of int
            ``[Σ|d|, #{d != 0}, max|d|, Σ W·|d|, Σ W·[d != 0]]`` over
            every vector (see
            :meth:`~repro.errors.weights.IntegerWeights.stats`).
        weights : IntegerWeights
            The objective's integer weights (``W``, ``ΣW``, vector
            count).
        normalizer : float
            The objective's error scale.

        Returns
        -------
        float
            The scalar the search thresholds compare against.

        Raises
        ------
        ValueError
            For ``mred`` (no integer form), or when ``max|d|`` exceeds
            what the sums can hold exactly — ``ΣW·max|d|`` or
            ``N·max|d|`` reaching ``2**63`` (they may have wrapped).
        """
        if self._exact is None:
            raise ValueError(f"metric {self.name!r} has no integer form")
        weights.check(stats[2])
        return self._exact(stats, weights, normalizer)


# Float forms (sampled estimator, mred): fixed-order numpy sums.
def _metric_wmed(err, weights, normalizer, reference) -> float:
    return float((weights * err).sum()) / normalizer


def _metric_med(err, weights, normalizer, reference) -> float:
    return float(err.mean()) / normalizer


def _metric_mred(err, weights, normalizer, reference) -> float:
    return float((weights * relative_error_distances(err, reference)).sum())


def _metric_error_rate(err, weights, normalizer, reference) -> float:
    return float((weights * (err != 0)).sum())


def _metric_worst_case(err, weights, normalizer, reference) -> float:
    return float(err.max()) / normalizer


# Integer forms over [Σ|d|, #{d != 0}, max|d|, Σ W·|d|, Σ W·[d != 0]].
# Python int / int is correctly rounded, and ΣW is a power of two, so
# under uniform weights (W constant) these equal the exact float means
# bit for bit: (W0·s) / (W0·N) == s / N.
def _exact_wmed(stats, weights, normalizer) -> float:
    return stats[3] / weights.total / normalizer


def _exact_med(stats, weights, normalizer) -> float:
    return stats[0] / weights.num_vectors / normalizer


def _exact_error_rate(stats, weights, normalizer) -> float:
    return stats[4] / weights.total


def _exact_worst_case(stats, weights, normalizer) -> float:
    return stats[2] / normalizer


#: Registry of the standard metrics, by canonical name.  This is the
#: closed vocabulary every ``--metric`` flag, sweep grid, library
#: group key and serving-layer query validates against; extend it here
#: and the whole stack (CLI choices, ``metric_names()``, stored
#: designs, ``/v1/best?metric=...``) picks the new metric up.
METRICS = {
    "wmed": ErrorMetric("wmed", _metric_wmed, _exact_wmed),
    "med": ErrorMetric("med", _metric_med, _exact_med),
    "mred": ErrorMetric("mred", _metric_mred),
    "error-rate": ErrorMetric(
        "error-rate", _metric_error_rate, _exact_error_rate
    ),
    "worst-case": ErrorMetric(
        "worst-case", _metric_worst_case, _exact_worst_case
    ),
}

_METRIC_ALIASES = {
    "mre": "mred",
    "er": "error-rate",
    "errorrate": "error-rate",
    "error_rate": "error-rate",
    "wce": "worst-case",
    "worstcase": "worst-case",
    "worst_case": "worst-case",
}


def metric_names() -> tuple:
    """Canonical metric names, stable order (CLI choices, sweep grids)."""
    return tuple(METRICS)


def get_metric(spec) -> ErrorMetric:
    """Resolve a metric name (or pass an :class:`ErrorMetric` through).

    Parameters
    ----------
    spec : str or ErrorMetric
        A canonical name, a registered alias (``mre`` -> ``mred``,
        ``er``/``error_rate`` -> ``error-rate``, ``wce``/``worst_case``
        -> ``worst-case``; case-insensitive), or an already-resolved
        metric object.

    Returns
    -------
    ErrorMetric

    Raises
    ------
    ValueError
        For anything outside the registry — the message lists the
        known names (surfaced verbatim as a 422 by the serving layer).
    """
    if isinstance(spec, ErrorMetric):
        return spec
    key = str(spec).strip().lower()
    key = _METRIC_ALIASES.get(key, key)
    metric = METRICS.get(key)
    if metric is None:
        raise ValueError(
            f"unknown error metric {spec!r}; known: {', '.join(METRICS)}"
        )
    return metric


# ----------------------------------------------------------------------
# Sampled estimation: metric estimates with confidence intervals
# ----------------------------------------------------------------------
#: Two-sided 95 % Student-t critical values by degrees of freedom; the
#: normal-approximation 1.96 serves dof > 30 (the error is < 2 % there).
_T_975 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)


def t_critical(dof: int) -> float:
    """Two-sided 95 % Student-t critical value for ``dof`` degrees.

    Exact table entries for dof 1..30, the normal approximation (1.96)
    beyond — no SciPy dependency.
    """
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if dof <= len(_T_975):
        return _T_975[dof - 1]
    return 1.96


@dataclass(frozen=True)
class MetricEstimate:
    """A sampled metric estimate with a 95 % confidence interval.

    ``value`` is the pooled point estimate over all samples;
    ``[ci_low, ci_high]`` the 95 % interval.  For mean-type metrics the
    interval is the replicate-stream Student-t interval over the
    per-replicate estimates (``replicates >= 2``), or the per-sample
    normal approximation for a single stream.  ``worst-case`` is
    special: a sampled maximum is a *certified lower bound* on the true
    worst case but admits no distribution-free upper bound, so its
    interval is ``[value, inf)``.
    """

    value: float
    ci_low: float
    ci_high: float
    stderr: float
    replicates: int

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def covers(self, true_value: float) -> bool:
        """Whether the interval contains a (known) true metric value."""
        return self.ci_low <= true_value <= self.ci_high


def _sample_contributions(
    metric: "ErrorMetric",
    distances: np.ndarray,
    normalizer: float,
    reference: np.ndarray,
) -> np.ndarray:
    """Per-sample terms whose mean is the metric (mean-type metrics)."""
    name = metric.name
    if name in ("wmed", "med"):
        return distances / normalizer
    if name == "mred":
        return relative_error_distances(distances, reference)
    if name == "error-rate":
        return (distances != 0).astype(np.float64)
    raise ValueError(f"metric {name!r} is not a per-sample mean")


def estimate_from_distances(
    metric: "ErrorMetric",
    distances: np.ndarray,
    normalizer: float,
    reference: np.ndarray,
    replicates: int = 1,
) -> MetricEstimate:
    """Estimate a metric (with 95 % CI) from sampled error distances.

    ``distances`` and ``reference`` hold ``replicates`` consecutive
    equal-length blocks, one per independent sample stream (the layout
    :class:`repro.core.objective.SampledObjective` draws).  The point
    estimate is the pooled reduction over all samples with uniform
    weights — for samples drawn from the objective's distribution, the
    sampling itself embodies the weighting, so the plain mean *is* the
    weighted-metric estimator.

    CI construction: ``replicates >= 2`` uses the Student-t interval
    over the per-replicate estimates (each an independent stream);
    a single replicate falls back to the per-sample normal
    approximation.  ``worst-case`` returns ``[value, inf)`` — see
    :class:`MetricEstimate`.  Lower bounds are clamped at 0 (all five
    metrics are non-negative).
    """
    distances = np.asarray(distances, dtype=np.float64).ravel()
    n_total = distances.size
    if replicates < 1 or n_total % replicates:
        raise ValueError(
            f"{n_total} samples do not split into {replicates} replicates"
        )
    reference = np.asarray(reference, dtype=np.int64).ravel()
    pooled_w = np.full(n_total, 1.0 / n_total)
    value = metric.from_distances(distances, pooled_w, normalizer, reference)
    if metric.name == "worst-case":
        per_rep = distances.reshape(replicates, -1).max(axis=1) / normalizer
        stderr = (
            float(per_rep.std(ddof=1)) / math.sqrt(replicates)
            if replicates >= 2
            else float("nan")
        )
        return MetricEstimate(value, value, float("inf"), stderr, replicates)
    if replicates >= 2:
        n = n_total // replicates
        rep_w = np.full(n, 1.0 / n)
        dist_rows = distances.reshape(replicates, n)
        ref_rows = reference.reshape(replicates, n)
        per_rep = np.array(
            [
                metric.from_distances(
                    dist_rows[r], rep_w, normalizer, ref_rows[r]
                )
                for r in range(replicates)
            ]
        )
        stderr = float(per_rep.std(ddof=1)) / math.sqrt(replicates)
        half = t_critical(replicates - 1) * stderr
    else:
        contrib = _sample_contributions(
            metric, distances, normalizer, reference
        )
        stderr = float(contrib.std(ddof=1)) / math.sqrt(n_total)
        half = 1.96 * stderr
    return MetricEstimate(
        value, max(0.0, value - half), value + half, stderr, replicates
    )


@dataclass(frozen=True)
class ErrorReport:
    """Bundle of standard error figures for one candidate circuit."""

    med: float
    wmed: float
    wmed_percent: float
    mre: float
    error_rate: float
    worst_case: int
    bias: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WMED={self.wmed_percent:.4f}%  MED={self.med:.2f}  "
            f"MRE={self.mre:.4f}  ER={self.error_rate:.3f}  "
            f"WCE={self.worst_case}  bias={self.bias:+.2f}"
        )


def evaluate_errors_against(
    reference: np.ndarray,
    approx: np.ndarray,
    weights=None,
    normalizer: Optional[float] = None,
) -> ErrorReport:
    """Full :class:`ErrorReport` against an arbitrary reference table.

    Component-agnostic sibling of :func:`evaluate_errors`: ``weights``
    is any per-vector importance vector (``None`` = uniform) and
    ``normalizer`` scales the weighted MED into the report's ``wmed``
    slot (``max |reference|`` when omitted).  Pass an objective's
    :class:`~repro.errors.weights.IntegerWeights` to reduce ``wmed``,
    ``error_rate`` and ``bias`` over exactly its ``W`` — then ``wmed``
    equals the objective's WMED bit for bit.  Float weights are
    quantized once here.
    """
    reference, approx = _check(reference, approx)
    if normalizer is None:
        normalizer = float(np.abs(reference).max()) or 1.0
    if weights is not None and not isinstance(weights, IntegerWeights):
        largest = int(np.abs(reference - approx).max(initial=1))
        weights = as_integer_weights(weights, largest, reference.size)
    w = mean_error_distance(reference, approx, weights) / normalizer
    return ErrorReport(
        med=mean_error_distance(reference, approx),
        wmed=w,
        wmed_percent=100.0 * w,
        mre=mean_relative_error(reference, approx, weights),
        error_rate=error_rate(reference, approx, weights),
        worst_case=worst_case_error(reference, approx),
        bias=error_bias(reference, approx, weights),
    )


def evaluate_errors(
    exact: np.ndarray,
    approx: np.ndarray,
    dist: Distribution,
) -> ErrorReport:
    """Compute the full :class:`ErrorReport` for a multiplier table."""
    return evaluate_errors_against(
        exact,
        approx,
        weights=vector_weights(dist, dist.width),
        normalizer=float(max_product_magnitude(dist.width, dist.signed)),
    )
