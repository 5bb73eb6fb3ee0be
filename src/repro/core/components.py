"""Component builders: one objective constructor per datapath block.

The objective layer (:mod:`repro.core.objective`) is function-agnostic;
this module knows the concrete components — how to build an exact seed
circuit, what its reference truth table is, and how a data distribution
on the ``x`` operand maps to per-vector weights.  Everything the search
stack needs to approximate a component is derived from one
:class:`ComponentSpec`:

* ``multiplier`` — ``2w -> 2w`` bits, products (the paper's component);
* ``adder`` — ``2w -> w+1`` bits, unsigned sums with carry-out;
* ``mac`` — ``[x, y, acc] -> acc'`` multiply-accumulate slice with a
  ``2w+1``-bit accumulator (depth-2 sizing); exhaustive over
  ``2**(4w+1)`` vectors, so it is practical for ``w <= 5``;
* ``divider`` — ``2w -> w`` bits, unsigned quotients ``x // y`` with the
  ``x / 0 := 2**w - 1`` (all-ones) convention;
* ``subtractor`` — ``2w -> w+1`` bits, wrap-around two's-complement
  differences ``(x - y) mod 2**(w+1)``;
* ``barrel-shifter`` — ``2w -> w`` bits, logical left shifts
  ``(x << s) mod 2**w`` with ``s`` the low ``max(1, ceil(log2(w)))``
  bits of operand ``y``.

``netlist_objective`` covers anything else: it takes an arbitrary exact
netlist and uses its simulated truth table as the reference.

Interface shapes are not unique: the subtractor shares the adder's
``2w -> w+1`` shape, the barrel shifter the divider's ``2w -> w``.
:func:`infer_component` therefore returns *every* matching
``(component, width)`` pair and callers that need exactly one (e.g. the
CLI ``characterize`` command) must ask the user to disambiguate instead
of silently picking the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..circuits.netlist import Netlist
from ..circuits.simulator import truth_table
from ..errors.distributions import Distribution
from ..errors.truth_tables import (
    exact_product_table,
    max_product_magnitude,
    operand_values,
    operand_weights,
)
from ..tech.library import TechLibrary
from .objective import CircuitObjective, SampledObjective, SampleSpec

__all__ = [
    "ComponentSpec",
    "COMPONENTS",
    "component_names",
    "get_component",
    "infer_component",
    "component_objective",
    "sampled_component_objective",
    "multiplier_objective",
    "adder_objective",
    "mac_objective",
    "divider_objective",
    "subtractor_objective",
    "barrel_shifter_objective",
    "netlist_objective",
]

#: MAC widths above this are rejected: the objective is exhaustive over
#: ``2**(4w+1)`` vectors and 2**21 is the largest practical table.
_MAC_MAX_WIDTH = 5


def _mac_acc_width(width: int) -> int:
    """Accumulator width for the standard MAC slice (depth-2 sizing)."""
    return 2 * width + 1


def _decode(patterns: np.ndarray, bits: int, signed: bool) -> np.ndarray:
    """Numeric value of each ``bits``-wide pattern (shared decode table)."""
    return operand_values(bits, signed)[patterns]


def _wrap(values: np.ndarray, bits: int, signed: bool) -> np.ndarray:
    """Wrap integers to a ``bits``-wide bus and re-decode."""
    return _decode(values & ((1 << bits) - 1), bits, signed)


@dataclass(frozen=True)
class ComponentSpec:
    """Everything the search stack needs to know about one component.

    Attributes:
        name: Registry key (``"multiplier"``, ``"adder"``, ``"mac"``,
            ``"divider"``, ``"subtractor"``, ``"barrel-shifter"``).
        num_inputs: ``width -> ni`` of the standard interface.
        num_outputs: ``width -> no`` of the standard interface.
        build_seed: ``(width, signed) -> Netlist`` exact seed circuit.
        reference: ``(width, signed) -> int64`` closed-form truth table
            in vector order (always equal to simulating the seed).
        supports_signed: Whether a two's-complement variant exists.
        max_width: Largest practical operand width (exhaustive tables).
        reference_at: ``(width, signed, vectors) -> int64`` exact
            outputs at the given raw input-vector patterns — the
            closed-form per-vector sibling of ``reference``, usable at
            widths where the full table cannot be materialized (the
            sampled-evaluation path).
        max_abs_reference: ``(width, signed) -> int`` closed-form
            ``max |reference|`` over the full domain — the sampled
            objective's normalizer, equal to what the exhaustive
            objective derives from the materialized table.
        sampled_max_width: Largest operand width the sampled path
            supports (bounded by 62-bit vector patterns and int64
            reference arithmetic, not by table size).
    """

    name: str
    num_inputs: Callable[[int], int]
    num_outputs: Callable[[int], int]
    build_seed: Callable[[int, bool], Netlist]
    reference: Callable[[int, bool], np.ndarray]
    supports_signed: bool = True
    max_width: int = 16
    reference_at: Optional[
        Callable[[int, bool, np.ndarray], np.ndarray]
    ] = None
    max_abs_reference: Optional[Callable[[int, bool], int]] = None
    sampled_max_width: int = 31

    def check_width(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if width > self.max_width:
            raise ValueError(
                f"{self.name} objective is exhaustive over "
                f"2**{self.num_inputs(width)} vectors; width must be "
                f"<= {self.max_width} (the sampled path supports up to "
                f"{self.sampled_max_width})"
            )

    def check_sampled_width(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if self.reference_at is None or self.max_abs_reference is None:
            raise ValueError(
                f"{self.name} has no closed-form per-vector reference; "
                f"sampled evaluation is unavailable"
            )
        if width > self.sampled_max_width:
            raise ValueError(
                f"{self.name} sampled evaluation supports width <= "
                f"{self.sampled_max_width} (62-bit packed vectors, int64 "
                f"reference arithmetic); got {width}"
            )

    def resolve_signed(self, signed: bool) -> bool:
        """Clamp a requested signedness to what the component supports."""
        return signed and self.supports_signed

    def infer_width(self, num_inputs: int, num_outputs: int) -> Optional[int]:
        """Operand width matching an interface shape, or ``None``."""
        for width in range(1, 65):
            if (
                self.num_inputs(width) == num_inputs
                and self.num_outputs(width) == num_outputs
            ):
                return width
            if self.num_inputs(width) > num_inputs:
                return None
        return None


# ----------------------------------------------------------------------
# Seed builders and closed-form references
# ----------------------------------------------------------------------
def _multiplier_seed(width: int, signed: bool) -> Netlist:
    from ..circuits.generators import (
        build_baugh_wooley_multiplier,
        build_multiplier,
    )

    if signed:
        return build_baugh_wooley_multiplier(width)
    return build_multiplier(width, signed=False)


def _adder_seed(width: int, signed: bool) -> Netlist:
    from ..circuits.generators import build_ripple_carry_adder

    return build_ripple_carry_adder(width)


def _adder_reference(width: int, signed: bool) -> np.ndarray:
    from ..circuits.verify import reference_sums

    return reference_sums(width, signed=False)


def _mac_seed(width: int, signed: bool) -> Netlist:
    from ..circuits.generators.mac import build_mac

    return build_mac(width, _mac_acc_width(width), signed=signed)


def _mac_reference(width: int, signed: bool) -> np.ndarray:
    """``acc + x * y`` wrapped to the accumulator width, vector order."""
    acc_width = _mac_acc_width(width)
    ni = 2 * width + acc_width
    v = np.arange(1 << ni, dtype=np.int64)
    mask = (1 << width) - 1
    x = _decode(v & mask, width, signed)
    y = _decode((v >> width) & mask, width, signed)
    acc = _decode(v >> (2 * width), acc_width, signed)
    return _wrap(acc + x * y, acc_width, signed)


def _operand_grids(width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Unsigned ``(x, y)`` operand values for every input vector."""
    v = np.arange(1 << (2 * width), dtype=np.int64)
    return v & ((1 << width) - 1), v >> width


def _divider_seed(width: int, signed: bool) -> Netlist:
    from ..circuits.generators import build_restoring_divider

    return build_restoring_divider(width)


def _divider_reference(width: int, signed: bool) -> np.ndarray:
    """``x // y`` with ``x / 0 = 2**width - 1`` (all-ones), vector order.

    The all-ones convention is what a restoring array produces for free
    (a zero divisor never borrows, so every quotient bit restores to 1);
    encoding it here keeps the closed form equal to the seed circuit.
    """
    x, y = _operand_grids(width)
    return np.where(y == 0, (1 << width) - 1, x // np.maximum(y, 1))


def _subtractor_seed(width: int, signed: bool) -> Netlist:
    from ..circuits.generators import build_borrow_ripple_subtractor

    return build_borrow_ripple_subtractor(width)


def _subtractor_reference(width: int, signed: bool) -> np.ndarray:
    """``(x - y) mod 2**(width + 1)``, vector order.

    The two's-complement encoding of ``x - y`` wrapped to ``w + 1``
    bits: the borrow-out doubles as the sign bit, read unsigned.
    """
    x, y = _operand_grids(width)
    return (x - y) & ((1 << (width + 1)) - 1)


def _shifter_seed(width: int, signed: bool) -> Netlist:
    from ..circuits.generators import build_barrel_shifter

    return build_barrel_shifter(width)


def _shifter_reference(width: int, signed: bool) -> np.ndarray:
    """``(x << s) mod 2**width``, ``s`` = low shift bits of ``y``."""
    from ..circuits.generators import shift_amount_bits

    x, y = _operand_grids(width)
    s = y & ((1 << shift_amount_bits(width)) - 1)
    return (x << s) & ((1 << width) - 1)


# ----------------------------------------------------------------------
# Per-vector closed-form references (the sampled-evaluation path):
# identical arithmetic to the table builders above, but evaluated only
# at the given raw input-vector patterns, so they work at widths whose
# 2**ni tables cannot exist.
# ----------------------------------------------------------------------
def _decode_at(patterns: np.ndarray, bits: int, signed: bool) -> np.ndarray:
    """Numeric value of each ``bits``-wide pattern, without a table."""
    v = patterns.astype(np.int64)
    if signed:
        half = np.int64(1 << (bits - 1))
        v = np.where(v >= half, v - np.int64(1 << bits), v)
    return v


def _operands_at(vectors: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Raw ``(x, y)`` operand patterns of each vector (standard layout)."""
    v = vectors.astype(np.int64)
    mask = np.int64((1 << width) - 1)
    return v & mask, (v >> width) & mask


def _multiplier_reference_at(
    width: int, signed: bool, vectors: np.ndarray
) -> np.ndarray:
    x, y = _operands_at(vectors, width)
    return _decode_at(x, width, signed) * _decode_at(y, width, signed)


def _adder_reference_at(
    width: int, signed: bool, vectors: np.ndarray
) -> np.ndarray:
    x, y = _operands_at(vectors, width)
    return x + y


def _mac_reference_at(
    width: int, signed: bool, vectors: np.ndarray
) -> np.ndarray:
    acc_width = _mac_acc_width(width)
    x, y = _operands_at(vectors, width)
    acc = _decode_at(
        vectors.astype(np.int64) >> (2 * width), acc_width, signed
    )
    total = acc + _decode_at(x, width, signed) * _decode_at(y, width, signed)
    return _decode_at(
        total & np.int64((1 << acc_width) - 1), acc_width, signed
    )


def _divider_reference_at(
    width: int, signed: bool, vectors: np.ndarray
) -> np.ndarray:
    x, y = _operands_at(vectors, width)
    return np.where(y == 0, (1 << width) - 1, x // np.maximum(y, 1))


def _subtractor_reference_at(
    width: int, signed: bool, vectors: np.ndarray
) -> np.ndarray:
    x, y = _operands_at(vectors, width)
    return (x - y) & np.int64((1 << (width + 1)) - 1)


def _shifter_reference_at(
    width: int, signed: bool, vectors: np.ndarray
) -> np.ndarray:
    from ..circuits.generators import shift_amount_bits

    x, y = _operands_at(vectors, width)
    s = y & np.int64((1 << shift_amount_bits(width)) - 1)
    return (x << s) & np.int64((1 << width) - 1)


# Closed-form max |reference| over the full domain — each provably equal
# to the materialized table's maximum (asserted by the test suite at
# small widths): adder attains 2*(2**w - 1); the divider's x/0 all-ones
# convention and the s=0 shift attain 2**w - 1; the wrapped difference
# attains all-ones at (x=0, y=1); the MAC's wrapped accumulator attains
# the unsigned all-ones / the signed minimum at x*y = 0.
def _mac_max_abs(width: int, signed: bool) -> int:
    acc_width = _mac_acc_width(width)
    return (1 << (acc_width - 1)) if signed else (1 << acc_width) - 1


_MAX_ABS_REFERENCE: Dict[str, Callable[[int, bool], int]] = {
    "multiplier": max_product_magnitude,
    "adder": lambda w, s: (1 << (w + 1)) - 2,
    "mac": _mac_max_abs,
    "divider": lambda w, s: (1 << w) - 1,
    "subtractor": lambda w, s: (1 << (w + 1)) - 1,
    "barrel-shifter": lambda w, s: (1 << w) - 1,
}


COMPONENTS: Dict[str, ComponentSpec] = {
    "multiplier": ComponentSpec(
        name="multiplier",
        num_inputs=lambda w: 2 * w,
        num_outputs=lambda w: 2 * w,
        build_seed=_multiplier_seed,
        reference=exact_product_table,
        supports_signed=True,
        max_width=10,
        reference_at=_multiplier_reference_at,
        max_abs_reference=_MAX_ABS_REFERENCE["multiplier"],
        sampled_max_width=31,
    ),
    "adder": ComponentSpec(
        name="adder",
        num_inputs=lambda w: 2 * w,
        num_outputs=lambda w: w + 1,
        build_seed=_adder_seed,
        reference=_adder_reference,
        supports_signed=False,
        max_width=10,
        reference_at=_adder_reference_at,
        max_abs_reference=_MAX_ABS_REFERENCE["adder"],
        sampled_max_width=31,
    ),
    "mac": ComponentSpec(
        name="mac",
        num_inputs=lambda w: 2 * w + _mac_acc_width(w),
        num_outputs=lambda w: _mac_acc_width(w),
        build_seed=_mac_seed,
        reference=_mac_reference,
        supports_signed=True,
        max_width=_MAC_MAX_WIDTH,
        reference_at=_mac_reference_at,
        max_abs_reference=_MAX_ABS_REFERENCE["mac"],
        # ni = 4w + 1 must fit a 62-bit packed vector pattern.
        sampled_max_width=15,
    ),
    "divider": ComponentSpec(
        name="divider",
        num_inputs=lambda w: 2 * w,
        num_outputs=lambda w: w,
        build_seed=_divider_seed,
        reference=_divider_reference,
        supports_signed=False,
        max_width=10,
        reference_at=_divider_reference_at,
        max_abs_reference=_MAX_ABS_REFERENCE["divider"],
        sampled_max_width=31,
    ),
    "subtractor": ComponentSpec(
        name="subtractor",
        num_inputs=lambda w: 2 * w,
        num_outputs=lambda w: w + 1,
        build_seed=_subtractor_seed,
        reference=_subtractor_reference,
        supports_signed=False,
        max_width=10,
        reference_at=_subtractor_reference_at,
        max_abs_reference=_MAX_ABS_REFERENCE["subtractor"],
        sampled_max_width=31,
    ),
    "barrel-shifter": ComponentSpec(
        name="barrel-shifter",
        num_inputs=lambda w: 2 * w,
        num_outputs=lambda w: w,
        build_seed=_shifter_seed,
        reference=_shifter_reference,
        supports_signed=False,
        max_width=10,
        reference_at=_shifter_reference_at,
        max_abs_reference=_MAX_ABS_REFERENCE["barrel-shifter"],
        sampled_max_width=31,
    ),
}


def component_names() -> Tuple[str, ...]:
    """Registered component names, stable order (CLI choices, grids)."""
    return tuple(COMPONENTS)


def get_component(spec) -> ComponentSpec:
    """Resolve a component name (or pass a :class:`ComponentSpec`)."""
    if isinstance(spec, ComponentSpec):
        return spec
    comp = COMPONENTS.get(str(spec).strip().lower())
    if comp is None:
        raise ValueError(
            f"unknown component {spec!r}; known: {', '.join(COMPONENTS)}"
        )
    return comp


def infer_component(
    num_inputs: int, num_outputs: int
) -> Tuple[Tuple[ComponentSpec, int], ...]:
    """Every ``(component, width)`` matching an interface shape.

    Checked in registry order; returns an empty tuple when no
    registered component matches.  Interface shapes are *not* unique —
    a ``2w -> w+1`` netlist is both an adder and a subtractor, a
    ``2w -> w`` netlist both a divider and a barrel shifter (and the
    degenerate ``2 -> 2`` shape also fits a 1-bit multiplier) — so
    callers that need exactly one component must treat a multi-element
    result as ambiguous and ask for an explicit choice (e.g.
    ``--component`` on the CLI) rather than silently picking the first.
    """
    matches = []
    for comp in COMPONENTS.values():
        width = comp.infer_width(num_inputs, num_outputs)
        if width is not None:
            matches.append((comp, width))
    return tuple(matches)


# ----------------------------------------------------------------------
# Objective constructors
# ----------------------------------------------------------------------
def _operand_objective(
    name: str,
    width: int,
    dist: Distribution,
    metric: object,
    library: Optional[TechLibrary],
) -> CircuitObjective:
    """Shared exhaustive constructor for every registered component.

    Every component follows the same recipe: closed-form reference over
    the standard ``[x, y, ...]`` layout, signed when ``dist.signed``
    (unsigned-only components refuse a signed ``dist``), ``dist``
    weighting the ``x`` operand and every other input uniform,
    normalizer = max ``|reference|`` (the paper's percent semantics).
    The width is checked before the ``2**ni`` reference table is built.
    """
    comp = COMPONENTS[name]
    comp.check_width(width)
    if dist.width != width:
        raise ValueError("distribution width must match operand width")
    if dist.signed and not comp.supports_signed:
        raise ValueError(f"the {name} component is unsigned")
    num_inputs = comp.num_inputs(width)
    reference = comp.reference(width, dist.signed)
    return CircuitObjective(
        num_inputs=num_inputs,
        reference=reference,
        weights=operand_weights(dist, num_inputs),
        signed=dist.signed,
        normalizer=float(np.abs(reference).max()),
        metric=metric,
        library=library,
        component=name,
        num_outputs=comp.num_outputs(width),
    )


def multiplier_objective(
    width: int,
    dist: Distribution,
    metric: object = "wmed",
    library: Optional[TechLibrary] = None,
) -> CircuitObjective:
    """Objective for ``width``-bit multipliers (the paper's component).

    Signedness follows ``dist.signed``; the normalizer is the maximum
    exact product magnitude so thresholds keep the paper's percent
    semantics.
    """
    return _operand_objective("multiplier", width, dist, metric, library)


def adder_objective(
    width: int,
    dist: Distribution,
    metric: object = "wmed",
    library: Optional[TechLibrary] = None,
) -> CircuitObjective:
    """Objective for unsigned ``width``-bit adders (sum with carry-out)."""
    return _operand_objective("adder", width, dist, metric, library)


def divider_objective(
    width: int,
    dist: Distribution,
    metric: object = "wmed",
    library: Optional[TechLibrary] = None,
) -> CircuitObjective:
    """Objective for unsigned ``width``-bit dividers (``x // y``).

    The reference encodes the ``x / 0 := 2**width - 1`` (all-ones)
    convention, matching the restoring-array seed circuit; ``dist``
    weights the dividend ``x`` (the low input half).
    """
    return _operand_objective("divider", width, dist, metric, library)


def subtractor_objective(
    width: int,
    dist: Distribution,
    metric: object = "wmed",
    library: Optional[TechLibrary] = None,
) -> CircuitObjective:
    """Objective for unsigned ``width``-bit wrap-around subtractors.

    The ``w + 1``-bit reference is the two's-complement encoding of
    ``x - y`` wrapped to ``2**(w+1)`` and read unsigned (borrow-out =
    sign bit); error distances are therefore taken on the wrapped
    encoding, not on the signed difference.
    """
    return _operand_objective("subtractor", width, dist, metric, library)


def barrel_shifter_objective(
    width: int,
    dist: Distribution,
    metric: object = "wmed",
    library: Optional[TechLibrary] = None,
) -> CircuitObjective:
    """Objective for ``width``-bit logical-left barrel shifters.

    The shift amount is the low ``max(1, ceil(log2(width)))`` bits of
    operand ``y`` (see
    :func:`~repro.circuits.generators.shift_amount_bits`); ``dist``
    weights the shifted operand ``x``.
    """
    return _operand_objective("barrel-shifter", width, dist, metric, library)


def mac_objective(
    width: int,
    dist: Distribution,
    metric: object = "wmed",
    library: Optional[TechLibrary] = None,
) -> CircuitObjective:
    """Objective for ``[x, y, acc] -> acc + x*y`` MAC slices.

    The ``x`` operand follows ``dist`` (the application's data
    distribution, e.g. NN weights); ``y`` and the accumulator are
    uniform.  Exhaustive over ``2**(4w+1)`` vectors — practical for
    ``width <= 5``.
    """
    return _operand_objective("mac", width, dist, metric, library)


def component_objective(
    component: str,
    width: int,
    dist: Distribution,
    metric: object = "wmed",
    library: Optional[TechLibrary] = None,
) -> CircuitObjective:
    """The named component's exhaustive objective."""
    comp = get_component(component)
    return _operand_objective(comp.name, width, dist, metric, library)


def sampled_component_objective(
    component: str,
    width: int,
    dist,
    spec: Optional[SampleSpec] = None,
    metric: object = "wmed",
    library: Optional[TechLibrary] = None,
) -> SampledObjective:
    """Monte-Carlo objective for a registered component at any width.

    The sampled sibling of :func:`component_objective`: instead of
    materializing the ``2**ni`` reference table it draws ``spec.samples
    * spec.replicates`` input vectors (the ``x`` operand from ``dist``,
    every other input bit uniform, mirroring ``operand_weights``) and
    evaluates the component's closed-form ``reference_at`` only there.
    ``dist`` may be a parametric :class:`~repro.errors.distributions.
    WideDistribution` — nothing here touches a pmf — so this is the
    only constructor usable at ``width > max_width``.  At small widths
    it estimates the same quantity the exhaustive objective computes
    exactly (same normalizer, same metric semantics).
    """
    comp = get_component(component)
    comp.check_sampled_width(width)
    if dist.width != width:
        raise ValueError("distribution width must match operand width")
    if dist.signed and not comp.supports_signed:
        raise ValueError(f"the {comp.name} component is unsigned")
    signed = comp.resolve_signed(dist.signed)
    return SampledObjective(
        num_inputs=comp.num_inputs(width),
        reference_at=lambda v: comp.reference_at(width, signed, v),
        dist=dist,
        spec=spec if spec is not None else SampleSpec(),
        signed=signed,
        normalizer=float(comp.max_abs_reference(width, signed)),
        metric=metric,
        library=library,
        component=comp.name,
        num_outputs=comp.num_outputs(width),
    )


def netlist_objective(
    netlist: Netlist,
    dist: Optional[Distribution] = None,
    metric: object = "wmed",
    signed: bool = False,
    normalizer: Optional[float] = None,
    library: Optional[TechLibrary] = None,
) -> CircuitObjective:
    """Objective whose reference is an arbitrary exact netlist.

    The netlist is simulated exhaustively once; its truth table becomes
    the reference.  ``dist``, if given, weights the low ``dist.width``
    input bits (``None`` means uniform) and must agree with ``signed`` —
    a signed PMF over unsigned patterns (or vice versa) would put each
    pattern's mass on the wrong value.  This is the escape hatch for
    custom datapath blocks with no registered :class:`ComponentSpec`.
    """
    if dist is not None and dist.signed != signed:
        raise ValueError(
            f"distribution signedness ({dist.signed}) must match the "
            f"objective's ({signed})"
        )
    reference = truth_table(netlist, signed=signed)
    weights = (
        operand_weights(dist, netlist.num_inputs) if dist is not None else None
    )
    return CircuitObjective(
        num_inputs=netlist.num_inputs,
        reference=reference,
        weights=weights,
        signed=signed,
        normalizer=normalizer,
        metric=metric,
        library=library,
        component=netlist.name or "netlist",
        num_outputs=netlist.num_outputs,
    )
