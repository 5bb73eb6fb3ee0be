"""The component-agnostic objective: Eq. (1) over any reference function.

The paper presents its method on multipliers "for the sake of
simplicity" (Section III), but the machinery is function-agnostic: a
candidate circuit is scored by

``F(C~) = area(C~)   if  error_metric(C~) <= E_i``
``F(C~) = infinity   otherwise``

where the error metric compares the candidate's exhaustive truth table
against a *reference* table under a per-vector *weight* vector.  This
module is the single home of that machinery:

* :class:`CircuitObjective` — reference table + integer weight vector
  + pluggable :class:`~repro.errors.metrics.ErrorMetric` (WMED, MED,
  MRED, error rate, worst case) + technology-library area term.  It owns
  the decode/area/evaluate hot path that every evaluator in the repo —
  including the compiled engine's
  :class:`~repro.engine.evaluator.CompiledObjective` — inherits, so
  there is exactly one implementation of each.  The weights are
  quantized once, at construction, to int64 counts (see
  :mod:`repro.errors.weights`), and every metric but ``mred`` is an
  exact integer reduction (:meth:`CircuitObjective.error_from_distances`).
* :class:`EvalResult` — the outcome record shared by all evaluators.

Component-specific constructors (multiplier, adder, MAC, arbitrary
netlist) live in :mod:`repro.core.components`; the legacy
``MultiplierFitness`` / ``CircuitFitness`` classes are thin subclasses
kept for backward compatibility.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..circuits.simulator import exhaustive_inputs, pack_input_vectors
from ..errors.metrics import (
    ErrorMetric,
    MetricEstimate,
    estimate_from_distances,
    get_metric,
)
from ..errors.weights import IntegerWeights, distance_bound, output_bits
from ..tech.library import TechLibrary, default_library
from .chromosome import Chromosome

__all__ = [
    "EvalResult",
    "CircuitObjective",
    "objective_weights",
    "SampleSpec",
    "SampledEvalResult",
    "SampledStimulus",
    "draw_sampled_stimulus",
    "SampledObjective",
]


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one candidate evaluation.

    ``fitness`` is Eq. (1): area when the error constraint holds, else
    ``inf``.  ``wmed`` holds the objective's error-metric value — named
    for the paper's central metric, it is the WMED only when the
    objective's metric is ``"wmed"`` (use the :attr:`error` alias in
    metric-generic code).  Magnitude metrics are normalized to [0, ~1]
    (multiply by 100 for the paper's percent figures).
    """

    fitness: float
    wmed: float
    area: float

    @property
    def error(self) -> float:
        """Metric-agnostic alias for the error term."""
        return self.wmed

    def feasible(self) -> bool:
        return np.isfinite(self.fitness)


def objective_weights(
    reference: np.ndarray,
    weights: Optional[np.ndarray],
    signed: bool,
    num_outputs: Optional[int] = None,
    component: str = "",
) -> IntegerWeights:
    """An objective's integer weights, as :class:`CircuitObjective` makes them.

    The weight total is set by the largest error distance a
    ``num_outputs``-bit candidate can reach against ``reference``
    (``num_outputs`` defaults to the narrowest bus holding the
    reference).  Characterization paths that weigh a design without
    building an objective call this to sum over the very same ``W``.
    """
    reference = np.asarray(reference, dtype=np.int64).ravel()
    if num_outputs is None:
        num_outputs = output_bits(reference, signed)
    return IntegerWeights.quantize(
        weights,
        reference.size,
        distance_bound(reference, num_outputs, signed),
        owner=f"{component or 'objective'} with {num_outputs}-bit outputs",
    )


class CircuitObjective:
    """Eq. (1) objective against an arbitrary reference function.

    Precomputes the exhaustive stimulus and quantizes the weight vector
    once; each candidate costs one packed simulation, one vectorized
    truth-table decode and one metric reduction.

    Args:
        num_inputs: Primary input count of the candidates; the reference
            table must enumerate all ``2**num_inputs`` vectors.
        reference: Exact outputs in vector order (``int64``).
        weights: Per-vector importance, any positive scale.  ``None``
            means uniform.  Quantized to :attr:`integer_weights` (int64
            counts with a power-of-two total); :attr:`weights` keeps
            their exact float image ``W / ΣW``.
        signed: Decode candidate output buses as two's complement.
        normalizer: Error scale so magnitude metrics land in [0, ~1];
            defaults to ``max |reference|`` (falling back to 1 for the
            all-zero function).
        metric: :class:`~repro.errors.metrics.ErrorMetric` or registry
            name (``"wmed"``, ``"med"``, ``"mred"``, ``"error-rate"``,
            ``"worst-case"``).
        library: Technology library for the area term.
        component: Optional tag naming the component family (used in
            reports and engine cache identity).
        num_outputs: Candidate output width in bits; bounds the error
            distances, which sets the weight total ``ΣW`` (the largest
            power of two with ``max|d| · ΣW < 2**63``).  Defaults to the
            narrowest bus that holds the reference.

    Raises:
        ValueError: When that bound leaves fewer than ``2**30`` units of
            weight resolution and the weights do not quantize exactly
            (the message names the component and the output width).
    """

    def __init__(
        self,
        num_inputs: int,
        reference: np.ndarray,
        weights: Optional[np.ndarray] = None,
        signed: bool = False,
        normalizer: Optional[float] = None,
        metric: object = "wmed",
        library: Optional[TechLibrary] = None,
        component: str = "",
        num_outputs: Optional[int] = None,
    ) -> None:
        reference = np.asarray(reference, dtype=np.int64).ravel()
        expected = 1 << num_inputs
        if reference.shape != (expected,):
            raise ValueError(
                f"reference must have {expected} entries, got {reference.shape}"
            )
        self.num_inputs = num_inputs
        self.num_vectors = expected
        self.reference = reference
        self.signed = signed
        self.component = component
        self.stimulus = exhaustive_inputs(num_inputs)
        #: The weights as int64 counts ``W`` (power-of-two ``ΣW``): what
        #: every exact reduction sums over.
        self.integer_weights = objective_weights(
            reference, weights, signed, num_outputs, component
        )
        #: ``W / ΣW`` per vector, exact (float form, e.g. for ``mred``).
        self.weights = self.integer_weights.probabilities()
        if normalizer is None:
            normalizer = float(np.abs(reference).max()) or 1.0
        if normalizer <= 0:
            raise ValueError("normalizer must be positive")
        self.normalizer = float(normalizer)
        self.metric: ErrorMetric = get_metric(metric)
        self.library = library or default_library()
        self._area_cache: Dict[Tuple[str, ...], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Decode hot path
    # ------------------------------------------------------------------
    def truth_table(self, chromosome: Chromosome) -> np.ndarray:
        """Decoded integer outputs of the candidate over all vectors.

        Equivalent to :func:`repro.circuits.simulator.words_to_values`
        but decodes all output bits in one vectorized bit-transpose (this
        sits on the search's hot path): unpack each output plane, stack
        them as the bit columns of one integer per vector, and repack.
        """
        words = chromosome.simulate(self.stimulus)
        n_bits = len(words)
        dtype = np.uint16 if n_bits <= 16 else np.uint64
        acc = np.zeros(self.num_vectors, dtype=dtype)
        for j, plane in enumerate(words):
            bits = np.unpackbits(plane.view(np.uint8), bitorder="little")[
                : self.num_vectors
            ].astype(dtype)
            acc |= bits << dtype(j)
        values = acc.astype(np.int64)
        if self.signed:
            values[values >= 1 << (n_bits - 1)] -= 1 << n_bits
        return values

    def error_distances(self, chromosome: Chromosome) -> np.ndarray:
        """Per-vector ``|reference - candidate|`` as ``int64``."""
        return np.abs(self.reference - self.truth_table(chromosome))

    def error_from_distances(self, distances: np.ndarray) -> float:
        """The objective's metric over a per-vector distance row.

        The one exhaustive reduction: every metric but ``mred`` goes
        through :meth:`ErrorMetric.from_stats` over the row's five
        integers and :attr:`integer_weights` — the same call the native
        decode's in-C statistics feed — and ``mred`` through the float
        form over :attr:`weights`.
        """
        metric = self.metric
        if metric.integer:
            weights = self.integer_weights
            return metric.from_stats(
                weights.stats(distances), weights, self.normalizer
            )
        return metric.from_distances(
            distances, self.weights, self.normalizer, self.reference
        )

    def error(self, chromosome: Chromosome) -> float:
        """The objective's error-metric value for a candidate."""
        return self.error_from_distances(self.error_distances(chromosome))

    def wmed(self, chromosome: Chromosome) -> float:
        """Historical alias for :meth:`error` (the paper's metric name)."""
        return self.error(chromosome)

    # ------------------------------------------------------------------
    # Area term
    # ------------------------------------------------------------------
    def _areas_by_fn_index(self, functions: Tuple[str, ...]) -> np.ndarray:
        areas = self._area_cache.get(functions)
        if areas is None:
            areas = np.array(
                [self.library.cell(fn).area for fn in functions],
                dtype=np.float64,
            )
            self._area_cache[functions] = areas
        return areas

    def area(self, chromosome: Chromosome) -> float:
        """Active-cone cell area of the candidate in um^2."""
        p = chromosome.params
        active = chromosome.active_nodes()
        if active.size == 0:
            return 0.0
        fn_genes = chromosome.genes[active * p.genes_per_node + p.arity]
        areas = self._areas_by_fn_index(p.functions)
        return float(areas[fn_genes].sum())

    # ------------------------------------------------------------------
    # Eq. (1)
    # ------------------------------------------------------------------
    def evaluate(self, chromosome: Chromosome, threshold: float) -> EvalResult:
        """Eq. (1): area when the error constraint holds, else inf."""
        error = self.error(chromosome)
        area = self.area(chromosome)
        fitness = area if error <= threshold else float("inf")
        return EvalResult(fitness=fitness, wmed=error, area=area)


# ----------------------------------------------------------------------
# Sampled evaluation: estimates with confidence intervals for wide
# operands (the exhaustive 2**ni vector space stops being practical
# past width ~10 for two-operand components)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SampleSpec:
    """How a sampled objective draws its stimulus.

    ``samples`` vectors per replicate, ``replicates`` independent
    streams, all derived from ``SeedSequence(seed)`` — the sample matrix
    (and therefore every estimate) is a pure function of this spec and
    the target distribution, never of backend, worker count or
    evaluation order.
    """

    samples: int = 4096
    replicates: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")

    @property
    def total(self) -> int:
        """Total stimulus vectors, ``samples * replicates``."""
        return self.samples * self.replicates

    def key(self) -> bytes:
        """Canonical identity bytes (folded into engine cache keys)."""
        return repr((self.samples, self.replicates, self.seed)).encode()


@dataclass(frozen=True)
class SampledEvalResult(EvalResult):
    """An :class:`EvalResult` whose error term is a sampled estimate.

    ``wmed`` (the :attr:`~EvalResult.error` alias) holds the pooled
    point estimate; ``[ci_low, ci_high]`` its 95 % confidence interval
    (see :class:`repro.errors.metrics.MetricEstimate` for the interval
    semantics, including the one-sided ``worst-case`` convention).
    """

    ci_low: float = float("nan")
    ci_high: float = float("nan")


@dataclass(frozen=True)
class SampledStimulus:
    """A reproducibly drawn sample matrix in packed simulation form.

    ``vectors[i]`` is the raw input-vector pattern of sample ``i``
    (operand ``x`` in the low bits, as in the exhaustive vector order);
    ``stimulus`` is the same set packed for the simulators, and samples
    are grouped as ``spec.replicates`` consecutive blocks of
    ``spec.samples``, one per spawned stream.
    """

    vectors: np.ndarray
    stimulus: np.ndarray
    num_inputs: int
    width: int
    spec: SampleSpec


def draw_sampled_stimulus(
    dist, num_inputs: int, spec: SampleSpec
) -> SampledStimulus:
    """Draw the sample matrix for a sampled objective.

    Stream discipline: replicate ``r`` uses a generator seeded from
    ``SeedSequence(spec.seed).spawn(replicates)[r]`` — the same spawning
    convention as :func:`repro.analysis.sweep.parallel_front` — and
    draws the ``x`` operand (the low ``dist.width`` bits) from ``dist``
    via ``sample_patterns`` plus one uniform draw for the remaining
    input bits.  Works with both materialized :class:`~repro.errors
    .distributions.Distribution` and parametric
    :class:`~repro.errors.distributions.WideDistribution` laws.
    """
    width = int(dist.width)
    rest_bits = num_inputs - width
    if rest_bits < 0:
        raise ValueError(
            f"distribution width {width} exceeds input count {num_inputs}"
        )
    if num_inputs > 62:
        raise ValueError(
            f"sampled vectors are packed into 62-bit patterns; "
            f"{num_inputs} inputs exceed that"
        )
    children = np.random.SeedSequence(spec.seed).spawn(spec.replicates)
    vectors = np.empty(spec.total, dtype=np.uint64)
    n = spec.samples
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        v = dist.sample_patterns(n, rng).astype(np.uint64)
        if rest_bits:
            rest = rng.integers(0, 1 << rest_bits, size=n, dtype=np.uint64)
            v = v | (rest << np.uint64(width))
        vectors[r * n : (r + 1) * n] = v
    return SampledStimulus(
        vectors=vectors,
        stimulus=pack_input_vectors(vectors, num_inputs),
        num_inputs=num_inputs,
        width=width,
        spec=spec,
    )


class SampledObjective(CircuitObjective):
    """Eq. (1) objective evaluated on a reproducible operand sample.

    The sampled counterpart of :class:`CircuitObjective` for operand
    widths whose exhaustive vector space (``2**num_inputs``) cannot be
    enumerated: the stimulus is a :class:`SampledStimulus` drawn from
    the target distribution, the reference is computed *at the sampled
    vectors only* (closed form, via ``reference_at``), and the weight
    vector is uniform — samples drawn from ``D`` embody the weighting,
    so the plain sample mean estimates the weighted metric.  ``med``
    and ``worst-case`` ignore weights exhaustively, so their sampling
    law is the uniform distribution instead of ``dist``.

    Every inherited decode/area/evaluate path works unchanged on the
    sample matrix; :meth:`evaluate` returns a :class:`SampledEvalResult`
    carrying the 95 % confidence interval.

    Args:
        num_inputs: Primary input count of the candidates.
        reference_at: ``vectors -> int64`` exact outputs at the given
            raw input-vector patterns (closed form; never a table).
        dist: Target distribution of the ``x`` operand (low bits).
        spec: Sample-count / replicate / seed specification.
        signed: Decode candidate output buses as two's complement.
        normalizer: Error scale (max ``|reference|`` over the *full*
            domain, closed form — so thresholds keep exhaustive
            semantics).
        metric: Metric name or :class:`~repro.errors.metrics
            .ErrorMetric`.
        library: Technology library for the area term.
        component: Component-family tag.
    """

    def __init__(
        self,
        num_inputs: int,
        reference_at: Callable[[np.ndarray], np.ndarray],
        dist,
        spec: SampleSpec,
        signed: bool = False,
        normalizer: Optional[float] = None,
        metric: object = "wmed",
        library: Optional[TechLibrary] = None,
        component: str = "",
    ) -> None:
        self.metric = get_metric(metric)
        self.dist = dist
        self.sample_spec = spec
        # med and worst-case are uniform-space metrics (their exhaustive
        # reductions ignore the weight vector), so estimate them from a
        # uniform sample; the weighted metrics sample from dist itself.
        if self.metric.name in ("med", "worst-case"):
            from ..errors.distributions import uniform

            self.sampling_dist = uniform(dist.width, dist.signed)
        else:
            self.sampling_dist = dist
        sampled = draw_sampled_stimulus(self.sampling_dist, num_inputs, spec)
        self.sampled = sampled
        self.num_inputs = num_inputs
        self.num_vectors = spec.total
        self.stimulus = sampled.stimulus
        self.reference = np.asarray(
            reference_at(sampled.vectors), dtype=np.int64
        ).ravel()
        if self.reference.shape != (spec.total,):
            raise ValueError(
                f"reference_at must return {spec.total} values, got "
                f"{self.reference.shape}"
            )
        self.weights = np.full(spec.total, 1.0 / spec.total)
        self.signed = signed
        if normalizer is None:
            normalizer = float(np.abs(self.reference).max()) or 1.0
        if normalizer <= 0:
            raise ValueError("normalizer must be positive")
        self.normalizer = float(normalizer)
        self.component = component
        self.library = library or default_library()
        self._area_cache: Dict[Tuple[str, ...], np.ndarray] = {}
        # Sample-spec identity: folded into the engine's cache salt so a
        # sampled estimate never aliases an exhaustive value or a
        # different sample spec's estimate for the same phenotype.  The
        # stimulus bytes pin the realized draw itself.
        h = hashlib.blake2b(digest_size=8)
        h.update(b"sampled")
        h.update(spec.key())
        h.update((getattr(dist, "spec", "") or dist.name).encode())
        h.update(self.stimulus.tobytes())
        self._sample_salt = h.digest()

    def error_from_distances(self, distances: np.ndarray) -> float:
        """The pooled point estimate (sampled objectives have no
        integer weights: the sampling itself embodies the weighting)."""
        return self.estimate_distances(distances).value

    def estimate_distances(self, distances: np.ndarray) -> MetricEstimate:
        """Metric estimate + 95 % CI from a per-sample distance row."""
        return estimate_from_distances(
            self.metric,
            distances,
            self.normalizer,
            self.reference,
            self.sample_spec.replicates,
        )

    def estimate(self, chromosome: Chromosome) -> MetricEstimate:
        """Simulate the candidate on the sample and estimate the metric."""
        return self.estimate_distances(self.error_distances(chromosome))

    def evaluate(
        self, chromosome: Chromosome, threshold: float
    ) -> SampledEvalResult:
        """Eq. (1) on the point estimate, carrying the 95 % CI."""
        est = self.estimate(chromosome)
        area = self.area(chromosome)
        fitness = area if est.value <= threshold else float("inf")
        return SampledEvalResult(
            fitness=fitness,
            wmed=est.value,
            area=area,
            ci_low=est.ci_low,
            ci_high=est.ci_high,
        )
