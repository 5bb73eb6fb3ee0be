"""Switching-activity power estimation.

Dynamic power of a gate is modeled as

``P_dyn(g) = f_clk * act(g) * (E_switch(g) + Vdd^2 * sum(C_in of fanout))``

where ``act(g) = 2 * p * (1 - p)`` is the per-cycle toggle probability of
the gate's output under the temporal-independence assumption, and ``p`` is
the signal's 1-probability measured by simulation.  Crucially, ``p`` can
be measured under a *weighted* stimulus — e.g. the operand distribution D
used for WMED — so the power estimate reflects the application's data
statistics just like the error metric does.  Weighted probabilities
are exact integer sums ``Σ W·bit / ΣW`` over integer weights (see
:mod:`repro.errors.weights`), so the estimate does not depend on the
host's BLAS build or thread count.

Static (leakage) power is the sum of active-cell leakages.  Units work out
to uW when combining fJ, fF, GHz and nW as characterized in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..circuits.gates import gate_function
from ..circuits.netlist import Netlist
from ..circuits.simulator import exhaustive_inputs, simulate_signals, unpack_bits
from ..errors.weights import as_integer_weights
from .library import TechLibrary, default_library

__all__ = ["PowerReport", "signal_probabilities", "circuit_power"]


@dataclass(frozen=True)
class PowerReport:
    """Decomposed power estimate in uW."""

    dynamic: float
    leakage: float

    @property
    def total(self) -> float:
        return self.dynamic + self.leakage


def signal_probabilities(
    netlist: Netlist,
    input_words: Optional[np.ndarray] = None,
    weights=None,
    num_vectors: Optional[int] = None,
) -> Dict[int, float]:
    """Per-signal 1-probability over the stimulus, for active signals.

    Args:
        netlist: Circuit to analyze.
        input_words: Packed stimulus; defaults to exhaustive enumeration.
        weights: Optional per-vector probability weights (e.g. the WMED
            vector weights) — an objective's
            :class:`~repro.errors.weights.IntegerWeights`, or float
            weights, quantized here; defaults to uniform.  Weighted
            probabilities are the exact ``Σ W·bit / ΣW``.
        num_vectors: Number of valid test vectors in the stimulus.
            Defaults to ``2**num_inputs`` for the implicit exhaustive
            stimulus, to ``len(weights)`` when weights are given, and to
            the full packed capacity otherwise.

    Returns:
        Mapping from signal address to ``Pr[signal = 1]``.
    """
    if input_words is None:
        input_words = exhaustive_inputs(netlist.num_inputs)
        if num_vectors is None:
            num_vectors = 1 << netlist.num_inputs
    if num_vectors is None:
        num_vectors = int(input_words.shape[1]) * 64
    if weights is not None:
        weights = as_integer_weights(weights, 1)
        num_vectors = weights.num_vectors

    values = simulate_signals(netlist, input_words)
    probs: Dict[int, float] = {}
    for sig, words in enumerate(values):
        if words is None:
            continue
        bits = unpack_bits(words, num_vectors)
        if weights is None:
            probs[sig] = float(bits.astype(np.float64).mean())
        else:
            probs[sig] = weights.weighted_sum(bits) / weights.total
    return probs


def circuit_power(
    netlist: Netlist,
    library: Optional[TechLibrary] = None,
    input_words: Optional[np.ndarray] = None,
    weights=None,
    num_vectors: Optional[int] = None,
) -> PowerReport:
    """Estimate circuit power in uW under the given stimulus statistics.

    Args:
        netlist: Circuit to measure.
        library: Technology library (defaults to the 45 nm-class one).
        input_words: Packed stimulus; defaults to exhaustive enumeration.
        weights: Optional per-vector weights making the activity (and thus
            the power figure) data-distribution-aware.
        num_vectors: Valid vector count in an explicit stimulus (see
            :func:`signal_probabilities`).
    """
    lib = library or default_library()
    probs = signal_probabilities(netlist, input_words, weights, num_vectors)
    fanout_cap: Dict[int, float] = {}
    active = netlist.active_gate_indices()
    for k in active:
        gate = netlist.gates[k]
        spec = gate_function(gate.fn)
        cell = lib.cell(gate.fn)
        for src in gate.inputs[: spec.arity]:
            fanout_cap[src] = fanout_cap.get(src, 0.0) + cell.input_cap

    dynamic = 0.0
    leakage = 0.0
    for k in active:
        gate = netlist.gates[k]
        cell = lib.cell(gate.fn)
        sig = netlist.gate_signal(k)
        p = probs.get(sig, 0.0)
        activity = 2.0 * p * (1.0 - p)
        load = fanout_cap.get(sig, 0.0)
        # fJ * GHz = uW; fF * V^2 = fJ, so the load term folds in directly.
        dynamic += lib.clock_ghz * activity * (
            cell.switch_energy + lib.vdd * lib.vdd * load
        )
        leakage += cell.leakage * 1e-3
    return PowerReport(dynamic=dynamic, leakage=leakage)
