"""The engine's int64 decode at every width the sampled path accepts.

Two contracts:

* parity — sampled objectives whose output buses are wider than 16 bits
  (up to the multiplier's 62 at width 31) run on the compiled engine,
  single and batched, on both backends and (natively) under both brood
  schedules, and equal the interpreter bit for bit: value, area and
  both confidence bounds;
* the reference the engine now trusts at those widths — each
  component's closed-form ``reference_at`` — equals a gate-by-gate
  simulation of the component's exact seed netlist
  (``simulate_reference``, which shares no code with the engine or the
  packed simulators) at seeded random vectors.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.circuits.simulator import simulate_reference
from repro.core import COMPONENTS, SampleSpec, netlist_to_chromosome
from repro.core.components import sampled_component_objective
from repro.core.mutation import mutate
from repro.engine import CompiledSampledObjective, native_available
from repro.engine import evaluator as engine_evaluator
from repro.engine.native import omp_threads
from repro.errors.distributions import paper_d2, uniform

BACKENDS = ["numpy"] + (["native"] if native_available() else [])
#: (backend, schedule) pairs: the threaded schedule is forced at these
#: small stimuli by dropping the engine's words-per-plane threshold.
SCHEDULES = [(backend, "serial") for backend in BACKENDS] + (
    [("native", "threaded")]
    if native_available() and omp_threads() > 1 else []
)

#: (component, width, signed): output buses of 17 to 62 bits.
WIDE_CASES = [
    ("multiplier", 16, False),
    ("multiplier", 24, False),
    ("multiplier", 31, False),
    ("multiplier", 16, True),
    ("multiplier", 31, True),
    ("mac", 15, False),
    ("mac", 15, True),
    ("adder", 31, False),
    ("subtractor", 31, False),
]

SPEC = SampleSpec(samples=128, replicates=2, seed=17)


@lru_cache(maxsize=None)
def _candidates(component, width, signed):
    """The exact seed and three mutants of it (deterministic)."""
    seed = netlist_to_chromosome(
        COMPONENTS[component].build_seed(width, signed)
    )
    rng = np.random.default_rng(width)
    chroms = [seed]
    for _ in range(3):
        chrom = chroms[-1]
        for _ in range(4):
            chrom, _ = mutate(chrom, 4, rng)
        chroms.append(chrom)
    return tuple(chroms)


def _dist(width, signed):
    return uniform(width, signed=True) if signed else paper_d2(width)


def _measure(result):
    return (result.wmed, result.area, result.ci_low, result.ci_high)


@pytest.mark.parametrize("metric", ("wmed", "mred", "worst-case"))
@pytest.mark.parametrize(
    "component,width,signed", WIDE_CASES,
    ids=[f"{c}-{w}-{'s' if s else 'u'}" for c, w, s in WIDE_CASES],
)
def test_wide_sampled_engine_equals_interpreter(
    component, width, signed, metric, monkeypatch
):
    def build():
        return sampled_component_objective(
            component, width, _dist(width, signed), SPEC, metric=metric
        )

    chroms = list(_candidates(component, width, signed))
    interpreted = build()
    assert chroms[0].params.num_outputs > 16
    want = [_measure(interpreted.evaluate(c, 0.01)) for c in chroms]
    tables = [interpreted.truth_table(c) for c in chroms]
    for backend, schedule in SCHEDULES:
        monkeypatch.setattr(
            engine_evaluator, "_THREADED_MIN_WORDS",
            1 if schedule == "threaded" else 1 << 62,
        )
        single = CompiledSampledObjective(build(), backend=backend)
        assert [_measure(single.evaluate(c, 0.01)) for c in chroms] == want
        batch = CompiledSampledObjective(build(), backend=backend)
        assert [
            _measure(r) for r in batch.evaluate_batch(chroms, 0.01)
        ] == want
        for chrom, table in zip(chroms, tables):
            assert np.array_equal(single.truth_table(chrom), table)
        stats = batch.stats()
        assert stats["backend"] == backend
        assert stats["omp"]["schedule"] == schedule
        assert stats["batch"]["calls"] > 0
        assert stats["fallback"] == []


def test_replicate_sums_that_could_reach_2_63_stay_on_the_row():
    # A 62-bit bus can reach |d| ~ 2**62, so 128-sample replicate sums
    # could wrap int64: width 31 keeps the float row form, width 24's
    # 48-bit bus reduces per replicate in integers.
    for width, integer in ((24, True), (31, False)):
        objective = sampled_component_objective(
            "multiplier", width, paper_d2(width), SPEC
        )
        assert objective.replicate_reduce is integer
        engine = CompiledSampledObjective(objective)
        assert engine.stats()["fast_reduce"] == ("wmed" if integer else None)


#: (component, width, signed) for the reference oracle: widths 12-31
#: (the MAC's ni = 4w + 1 caps it at 15), signed where supported.
ORACLE_CASES = [
    ("multiplier", 12, False),
    ("multiplier", 31, False),
    ("multiplier", 31, True),
    ("mac", 12, False),
    ("mac", 15, True),
    ("adder", 31, False),
    ("subtractor", 24, False),
    ("divider", 12, False),
    ("barrel-shifter", 31, False),
]


@pytest.mark.parametrize(
    "component,width,signed", ORACLE_CASES,
    ids=[f"{c}-{w}-{'s' if s else 'u'}" for c, w, s in ORACLE_CASES],
)
def test_reference_at_matches_seed_netlist(component, width, signed):
    comp = COMPONENTS[component]
    net = comp.build_seed(width, signed)
    ni, no = comp.num_inputs(width), comp.num_outputs(width)
    assert (net.num_inputs, net.num_outputs) == (ni, no)
    rng = np.random.default_rng(1000 * width + ni)
    vectors = np.concatenate([
        np.array([0, (1 << ni) - 1], dtype=np.uint64),
        rng.integers(0, 1 << ni, size=14, dtype=np.uint64),
    ])
    want = comp.reference_at(width, signed, vectors)
    for v, expected in zip(vectors.tolist(), want.tolist()):
        raw = simulate_reference(net, v)
        if signed and raw >> (no - 1):
            raw -= 1 << no
        assert raw == expected, (component, width, signed, v)
