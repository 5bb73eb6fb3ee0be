"""Tests for the benchmark's own helpers (they import no program code)."""

from itertools import islice

import pytest

from perfbench import hostspeed, plan
from perfbench.spans import StepGaps, Tracer, layer_totals, self_times
from perfbench.summary import (
    TooFewSamples,
    median,
    min_samples,
    percentile,
    samples_beyond,
)


# ----------------------------------------------------------------------
# Percentile selection under the ten-samples-beyond rule
# ----------------------------------------------------------------------
def test_p99_needs_a_thousand_samples():
    assert min_samples(99) == 1000
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert min_samples(50) == 20


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))  # 1..1000
    assert percentile(values, 99) == 990
    assert percentile(list(reversed(values)), 99) == 990
    assert percentile(values, 50) == 500


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_median_of_even_and_odd_counts():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


# ----------------------------------------------------------------------
# The host-speed factor and the pausing generation clock
# ----------------------------------------------------------------------
def test_host_factor_is_relative_to_the_nominal_reference():
    nominal = hostspeed.NOMINAL_NS
    assert hostspeed.factor([nominal]) == 1.0
    assert hostspeed.factor([nominal, 2 * nominal]) == 1.5
    assert hostspeed.reference_ns() > 0


# ----------------------------------------------------------------------
# Self time from nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_once():
    spans = [
        (1, 0, "outer", 0, 100),
        (2, 1, "a", 10, 30),
        (3, 1, "b", 25, 50),      # overlaps a: 10..50 covered once
        (4, 2, "leaf", 12, 14),   # grandchild: only its parent's time
        (5, 1, "c", 90, 130),     # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[1] == 100 - 40 - 10
    assert own[2] == 20 - 2
    assert own[3] == 25
    assert own[4] == 2
    totals = layer_totals(spans)
    assert totals["outer"] == (1, 50)
    # Self times add up to the root's duration, plus what overlapping
    # siblings share (25..30) and what a child spends past its parent.
    assert sum(own.values()) == 100 + 5 + 30


def test_step_gaps_time_each_step_to_the_next_and_the_last_to_the_end():
    clock = StepGaps("loop", "step")
    for span in [
        (2, 1, "step", 10, 12),
        (3, 1, "step", 40, 41),
        (4, 1, "step", 70, 75),
        (1, 0, "loop", 0, 100),
        (6, 5, "step", 230, 231),
        (5, 0, "loop", 200, 260),
        (7, 0, "step", 300, 310),     # outside any loop: not a step
    ]:
        clock.append(span)
    assert sorted(clock.gaps) == [30, 30, 30, 30]
    assert clock.outers == 2


def test_step_gaps_as_a_tracer_sink():
    class Search:
        def step(self):
            return None

        def loop(self, n):
            for _ in range(n):
                self.step()

    clock = StepGaps("loop", "step")
    tracer = Tracer(spans=clock)
    tracer.patch(Search, "step", "step")
    tracer.patch(Search, "loop", "loop")
    Search().loop(5)
    Search().loop(3)
    tracer.restore()
    assert len(clock.gaps) == 8 and clock.outers == 2
    assert all(gap > 0 for gap in clock.gaps)


def test_tracer_records_nesting_and_restores():
    class Box:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    tracer = Tracer()
    tracer.patch(Box, "inner", "layer.inner", count=lambda self, x: x)
    tracer.patch(Box, "outer", "layer.outer")
    assert Box().outer(3) == 8
    tracer.restore()
    assert "inner" in vars(Box) and Box.inner.__name__ == "inner"
    assert Box().outer(3) == 8
    assert len(tracer.spans) == 2
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["layer.inner"][1] == by_name["layer.outer"][0]
    assert tracer.counts["layer.inner"] == 3


# ----------------------------------------------------------------------
# The serve request mix is a pure function of the seed
# ----------------------------------------------------------------------
IDS = ["0123456789abcdef0123456789abcdef", "fedcba9876543210fedcba9876543210"]


def _take(seed, window=0, conn=0, n=500):
    return list(islice(plan.request_stream(seed, window, conn, IDS), n))


def test_request_mix_is_deterministic_per_seed():
    assert _take(7) == _take(7)
    assert _take(7) != _take(8)
    assert _take(7, conn=0) != _take(7, conn=1)


def test_request_mix_covers_every_kind_with_fresh_budgets():
    requests = _take(3, n=4000)
    kinds = {r.kind for r in requests}
    assert kinds == {plan.HOT, plan.REVALIDATE, plan.BUDGET, plan.VERILOG}
    budgets = [r.target for r in requests if r.kind == plan.BUDGET]
    assert len(budgets) == len(set(budgets))
    other = {r.target for r in _take(3, window=1, n=4000)
             if r.kind == plan.BUDGET}
    assert not other & set(budgets)


def test_derived_seeds_differ_by_purpose_and_seed():
    spec = plan.EVOLVE["evolve-d2-w8"]
    assert plan.evolve_seeds(1, spec) == plan.evolve_seeds(1, spec)
    assert plan.evolve_seeds(1, spec) != plan.evolve_seeds(2, spec)
    assert plan.derive_seed(1, "grid") != plan.derive_seed(1, "recheck")
