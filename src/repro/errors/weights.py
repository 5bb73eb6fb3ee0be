"""Integer vector weights: the exact form of the paper's ``D(x)``.

The paper weights every input vector by ``D(x)``, the operand
distribution measured in the application — a histogram of counts.  This
module keeps that weighting integer.  An objective's per-vector weights
are quantized once, at construction, to int64 counts ``W`` with a
power-of-two total ``ΣW``, and every weighted figure is an exact int64
sum over them:

* WMED = ``(Σ W·|d|) / ΣW / normalizer``;
* weighted error rate = ``Σ W·[d != 0] / ΣW``;
* bias and switching activity likewise (``Σ W·e``, ``Σ W·bit``).

Integer sums do not depend on summation order, thread count, BLAS build
or CPU.  The native decode, the numpy backend and the interpreted
objective therefore compute the same integers, and stored values are
the same on every host.

Quantization rules (:meth:`IntegerWeights.quantize`):

* ``ΣW`` is the largest power of two with ``max|d| · ΣW < 2**63`` for
  the largest distance the objective's output width allows
  (:func:`weight_total`), capped at ``2**53`` so every count — and the
  float image ``W / ΣW`` kept as ``objective.weights`` — is an exact
  ``float64``.  A total below ``2**30`` is refused with a ``ValueError``
  naming the objective, unless the weights quantize exactly at it (the
  uniform law over ``2**n <= ΣW`` vectors does); sums are never left to
  wrap.
* The counts are the largest-remainder apportionment of ``ΣW`` to the
  normalized weights, so they sum to ``ΣW`` exactly.  Uniform weights
  over ``2**n`` vectors become one constant count, so every uniform
  value equals the exact float mean (``s / N``) bit for bit.
* Weights that repeat with a period (the pmf of the low operand, tiled
  over the other inputs) are quantized and stored as that one period.
  The native decode then reads a cache-resident row.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "MAX_WEIGHT_TOTAL",
    "MIN_WEIGHT_TOTAL",
    "IntegerWeights",
    "weight_total",
    "output_bits",
    "distance_bound",
    "as_integer_weights",
]

#: Weighted sums are int64: ``Σ W·|d|`` must stay below this.
_INT64_LIMIT = 1 << 63
#: Cap on ``ΣW``: every count, and ``W / ΣW``, stays an exact float64.
MAX_WEIGHT_TOTAL = 1 << 53
#: Coarsest accepted resolution of the quantized distribution.
MIN_WEIGHT_TOTAL = 1 << 30


def weight_total(max_distance: int) -> int:
    """Largest power-of-two ``ΣW`` with ``max_distance · ΣW < 2**63``.

    Capped at :data:`MAX_WEIGHT_TOTAL`.  Any ``d < 2**k`` satisfies
    ``d · 2**(63 - k) < 2**63``, and doubling the total would break it
    for ``d >= 2**(k - 1)``, so the bit length of the bound decides.
    """
    bits = max(int(max_distance), 1).bit_length()
    return min(MAX_WEIGHT_TOTAL, 1 << (63 - bits))


def output_bits(reference: np.ndarray, signed: bool) -> int:
    """Narrowest output bus that can hold every ``reference`` value."""
    top = int(reference.max())
    if signed:
        bottom = int(reference.min())
        return max(top.bit_length(), (-bottom - 1).bit_length()) + 1
    return max(1, top.bit_length())


def distance_bound(
    reference: np.ndarray, num_outputs: int, signed: bool
) -> int:
    """Largest ``|reference - value|`` for any ``num_outputs``-bit value."""
    if signed:
        lo, hi = -(1 << (num_outputs - 1)), (1 << (num_outputs - 1)) - 1
    else:
        lo, hi = 0, (1 << num_outputs) - 1
    return max(int(reference.max()) - lo, hi - int(reference.min()), 0)


def _apportion(shares: np.ndarray, total: int) -> np.ndarray:
    """Counts proportional to ``shares`` that sum to ``total`` exactly.

    Largest-remainder apportionment: floor every scaled share, then hand
    the missing units to the largest remainders (ties to the lower
    index, via a stable sort).  ``total`` is a power of two, so scaling
    is exact.  If the float shares sum past 1, units are taken back from
    the smallest remainders instead.
    """
    scaled = shares * float(total)
    floor = np.floor(scaled)
    counts = floor.astype(np.int64)
    short = total - int(counts.sum())
    if short:
        frac = scaled - floor
        order = np.argsort(-frac if short > 0 else frac, kind="stable")
        order = order[shares[order] > 0]
        step = 1 if short > 0 else -1
        need = abs(short)
        while need:
            if step < 0:
                order = order[counts[order] > 0]
            take = order[:need]
            counts[take] += step
            need -= take.size
    return counts


class IntegerWeights:
    """Per-vector int64 weights ``W`` with a power-of-two total ``ΣW``.

    Stored as one period: ``W[v] = row[v % period]``, where the period
    divides ``num_vectors`` (uniform weights have period 1).  Build with
    :meth:`quantize`.

    Attributes:
        row: One period of the counts (``int64``).
        total: ``ΣW`` over all ``num_vectors`` vectors, a power of two.
        num_vectors: Length of the weighted vector space.
        max_distance: Largest ``|d|`` whose sums provably fit int64:
            the weighted ones (``ΣW·|d|``) and the plain ``Σ|d|`` over
            ``num_vectors`` vectors.  Larger distances raise in
            :meth:`check`.
        owner: Names the objective in error messages.
    """

    __slots__ = ("row", "total", "num_vectors", "max_distance", "owner")

    def __init__(
        self, row: np.ndarray, total: int, num_vectors: int, owner: str = ""
    ) -> None:
        self.row = np.ascontiguousarray(row, dtype=np.int64)
        self.total = int(total)
        self.num_vectors = int(num_vectors)
        # Weights that quantize exactly may total less than the vector
        # count, so the plain sum needs its own bound.
        self.max_distance = (_INT64_LIMIT - 1) // max(
            self.total, self.num_vectors
        )
        self.owner = owner or "weights"

    @classmethod
    def quantize(
        cls,
        weights: Optional[np.ndarray],
        num_vectors: int,
        max_distance: int,
        owner: str = "",
    ) -> "IntegerWeights":
        """Quantize float weights (``None`` = uniform) to integer counts.

        Args:
            weights: Per-vector importance, any positive scale.
            num_vectors: Vector count (the length ``weights`` must have).
            max_distance: Largest per-vector value the weighted sums
                will see (see :func:`distance_bound`); sets ``ΣW``.
            owner: Names the objective (component and output width) in
                the error raised when the bound leaves too little
                resolution.

        Raises:
            ValueError: On malformed weights, or when ``ΣW`` falls below
                ``2**30`` and the weights do not quantize exactly at it.
        """
        owner = owner or "weights"
        total = weight_total(max_distance)
        if weights is None:
            weights = np.ones(num_vectors)
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.shape != (num_vectors,):
            raise ValueError("weights length must match the vector count")
        if not np.all(np.isfinite(w)) or bool((w < 0).any()):
            raise ValueError("weights must be finite and non-negative")
        if not w.sum() > 0:
            raise ValueError("weights must have positive mass")
        period = w.size
        while period % 2 == 0 and np.array_equal(
            w[: period // 2], w[period // 2 : period]
        ):
            period //= 2
        shares = w[:period] / w[:period].sum()
        row_total = total // (w.size // period)
        counts = _apportion(shares, row_total) if row_total else None
        if counts is None or (
            total < MIN_WEIGHT_TOTAL
            and not np.array_equal(counts, shares * row_total)
        ):
            raise ValueError(
                f"{owner}: error distances up to {int(max_distance)} leave "
                f"an exact int64 weight total of only 2**"
                f"{total.bit_length() - 1}, too coarse for these weights "
                f"over {num_vectors} vectors (at least 2**"
                f"{MIN_WEIGHT_TOTAL.bit_length() - 1} is needed unless "
                "they quantize exactly)"
            )
        return cls(counts, total, num_vectors, owner)

    @property
    def period(self) -> int:
        return int(self.row.size)

    @property
    def counts(self) -> np.ndarray:
        """The full per-vector ``W`` (``int64``, ``num_vectors`` long)."""
        return np.tile(self.row, self.num_vectors // self.period)

    def probabilities(self) -> np.ndarray:
        """``W / ΣW`` per vector: exact, since ``ΣW`` is a power of two."""
        return np.tile(self.row / self.total, self.num_vectors // self.period)

    def check(self, max_distance: int) -> None:
        """Raise unless ``|d| <= max_distance`` sums exactly in int64.

        Covers both ``ΣW·|d| <= ΣW·max|d|`` and ``Σ|d| <= N·max|d|``.
        """
        if max_distance > self.max_distance:
            raise ValueError(
                f"{self.owner}: error distance {max_distance} exceeds "
                f"{self.max_distance}, the largest whose sums over "
                f"{self.num_vectors} vectors and a weight total of "
                f"2**{self.total.bit_length() - 1} fit int64"
            )

    def weighted_sum(self, values: np.ndarray) -> int:
        """Exact ``Σ W·values`` for integer (or boolean) ``values``.

        Callers bound ``|values|`` by :attr:`max_distance` (see
        :meth:`check`), so no partial sum leaves int64.  Integer
        ``np.dot`` runs numpy's own loop, never BLAS.
        """
        if self.period == 1:
            return int(self.row[0]) * int(values.sum())
        columns = values.reshape(-1, self.period).sum(axis=0, dtype=np.int64)
        return int(np.dot(columns, self.row))

    def stats(self, distances: np.ndarray) -> list:
        """The decode's five integers from a per-vector distance row.

        ``[Σ|d|, #{d != 0}, max|d|, Σ W·|d|, Σ W·[d != 0]]`` — the numpy
        reference for what the native decode accumulates in C.
        ``distances`` may be ``int64`` or ``float64`` holding integers.
        """
        d = np.asarray(distances)
        if d.dtype != np.int64:
            d = d.astype(np.int64)
        top = int(d.max())
        self.check(top)
        nonzero = d != 0
        return [
            int(d.sum()),
            int(np.count_nonzero(nonzero)),
            top,
            self.weighted_sum(d),
            self.weighted_sum(nonzero),
        ]


def as_integer_weights(
    weights, max_distance: int, num_vectors: Optional[int] = None
) -> IntegerWeights:
    """Pass :class:`IntegerWeights` through; quantize float weights.

    ``max_distance`` bounds the values the weights will sum (it sets a
    quantized total); ``num_vectors``, when given, is checked against
    the weights' length.
    """
    if isinstance(weights, IntegerWeights):
        if num_vectors is not None and weights.num_vectors != num_vectors:
            raise ValueError("weights length must match the vector count")
        return weights
    w = np.asarray(weights, dtype=np.float64).ravel()
    size = w.size if num_vectors is None else num_vectors
    return IntegerWeights.quantize(w, size, max_distance)
