"""Experiment orchestration: error-target sweeps producing trade-off fronts.

This is the flow behind Fig. 3 and Fig. 6, generalized over the
objective layer: for every target error level ``E_i``, run the
(1 + lambda) CGP search seeded with an exact component (multiplier,
adder, MAC, ...), keep the evolved circuit, and characterize it
electrically and under every error metric of interest.

Three sweep strategies are provided:

* :func:`evolve_front` — sequential, optionally chaining each target's
  run from the previous survivor (the paper's Pareto-sweep style);
* :func:`parallel_front` — one independent run per target, fanned out
  over a ``concurrent.futures`` executor.  Every run gets its own
  :class:`numpy.random.SeedSequence`-derived generator, so results are
  bit-reproducible for a given ``seed`` regardless of worker count,
  scheduling order, or executor kind (``parallel_front(...,
  max_workers=1)`` returns exactly what the pooled version does);
* :func:`grid_front` — the full ``component x metric x threshold``
  grid through the same reproducible fan-out machinery.

All route candidate evaluation through the compiled engine
(:mod:`repro.engine`) by default; pass ``engine="off"`` for the
interpreted objective (results are bit-identical either way).  Inside
every run, each generation's brood is evaluated through the engine's
batched path (``CompiledObjective.evaluate_batch``: one compile per
candidate, then the ``cgp_eval_batch`` dispatch).  The sweep fans
runs out over *processes/threads* here (one evaluator per worker —
arenas are single-owner); that is the parallel axis.  An evaluator
sends a brood to its *intra-brood* OpenMP team only in the main thread
of a process that is not a ``multiprocessing`` child, and only for
stimuli large enough to pay the team's hand-off (see
:mod:`repro.engine.evaluator`), so pool workers and worker threads run
serial and the two levels never oversubscribe the cores.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.netlist import Netlist
from ..circuits.simulator import truth_table
from ..core.chromosome import Chromosome
from ..core.components import (
    component_objective,
    get_component,
    sampled_component_objective,
)
from ..core.evolution import EvolutionConfig, EvolutionResult, evolve
from ..core.objective import CircuitObjective, SampleSpec, objective_weights
from ..core.seeding import netlist_to_chromosome, params_for_netlist
from ..errors.distributions import Distribution
from ..errors.metrics import get_metric, mean_error_distance
from ..errors.truth_tables import operand_weights
from ..obs.trace import span
from ..tech.library import TechLibrary, default_library
from ..tech.timing import TimingPowerSummary, characterize

__all__ = [
    "DesignPoint",
    "canonical_combos",
    "characterize_design",
    "characterize_design_sampled",
    "evolve_front",
    "parallel_front",
    "grid_front",
    "make_objective",
    "mac_summary",
    "PAPER_WMED_LEVELS",
]


def canonical_combos(
    components: Sequence[str], metrics: Sequence[str]
) -> List[Tuple[str, str]]:
    """Canonicalized, de-duplicated (component, metric) grid cells.

    Aliases like ``mre`` and ``mred`` must not silently run (then
    overwrite) the same cell twice.  Shared by :func:`grid_front` and
    the library builder's resume accounting, which must agree on the
    cell set exactly.
    """
    combos: List[Tuple[str, str]] = []
    for c in components:
        for m in metrics:
            combo = (get_component(c).name, get_metric(m).name)
            if combo not in combos:
                combos.append(combo)
    return combos

#: The WMED levels of Table I (percent).
PAPER_WMED_LEVELS = (0.0, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass
class DesignPoint:
    """One evolved design: circuit, truth table and measured figures.

    ``wmed_by_dist`` maps distribution names to normalized weighted-MED
    values against the component's reference — the cross-evaluation the
    paper performs in Fig. 3 (each design is "also evaluated using the
    remaining WMEDs that were not considered during the design").
    ``component`` / ``metric`` record which objective produced it.
    """

    name: str
    source: str
    threshold_percent: float
    netlist: Netlist
    table: np.ndarray
    summary: TimingPowerSummary
    wmed_by_dist: Dict[str, float]
    evolution: Optional[EvolutionResult] = None
    component: str = "multiplier"
    metric: str = "wmed"
    #: Wall-clock seconds the producing sweep task took (evolve +
    #: characterize); excluded from equality because timing is not part
    #: of what the design *is*.
    wall_s: float = field(default=0.0, compare=False)

    @property
    def power_mw(self) -> float:
        return self.summary.power_mw

    @property
    def area(self) -> float:
        return self.summary.area

    @property
    def pdp(self) -> float:
        return self.summary.pdp

    def wmed_percent(self, dist_name: str) -> float:
        return 100.0 * self.wmed_by_dist[dist_name]


def characterize_design(
    netlist: Netlist,
    width: int,
    dists: Sequence[Distribution],
    component: str = "multiplier",
    metric: str = "wmed",
    name: str = "",
    source: str = "",
    threshold_percent: float = float("nan"),
    library: Optional[TechLibrary] = None,
    activity_dist: Optional[Distribution] = None,
    evolution: Optional[EvolutionResult] = None,
) -> DesignPoint:
    """Measure a component netlist under all metrics and cost models.

    Args:
        netlist: Circuit with the component's standard interface.
        width: Operand width.
        dists: Distributions to cross-evaluate the weighted error under
            (all must share the signedness of the design).
        component: Registered component name (selects the reference).
        metric: Metric tag recorded on the point.
        name: Design label.
        source: Family/source tag (e.g. ``"proposed (D2)"``).
        threshold_percent: Error target this design was evolved for.
        library: Technology library.
        activity_dist: Distribution shaping the power model's switching
            activity; defaults to the first entry of ``dists``.
        evolution: Optional provenance (the CGP run that produced it).
    """
    if not dists:
        raise ValueError("at least one distribution required")
    comp = get_component(component)
    _check_component_signedness(comp, dists[0])
    signed = dists[0].signed
    if any(d.signed != signed for d in dists):
        raise ValueError("distributions disagree on signedness")
    act = activity_dist or dists[0]
    for d in (*dists, act):
        if d.width != width:
            raise ValueError(
                f"distribution width {d.width} != component width {width}"
            )
    table = truth_table(netlist, signed=signed)
    reference = comp.reference(width, signed)
    normalizer = float(np.abs(reference).max()) or 1.0
    ni = netlist.num_inputs

    def weights(d: Distribution):
        # The component objective's own integer weights for ``d``, so
        # wmed_by_dist[d] equals a WMED search's error under ``d`` bit
        # for bit, and activity sums over the same W.
        return objective_weights(
            reference, operand_weights(d, ni), signed,
            comp.num_outputs(width), comp.name,
        )

    summary = characterize(netlist, library, weights=weights(act))
    return DesignPoint(
        name=name or netlist.name,
        source=source,
        threshold_percent=threshold_percent,
        netlist=netlist,
        table=table,
        summary=summary,
        wmed_by_dist={
            d.name: mean_error_distance(reference, table, weights(d))
            / normalizer
            for d in dists
        },
        evolution=evolution,
        component=comp.name,
        metric=get_metric(metric).name,
    )


def characterize_design_sampled(
    netlist: Netlist,
    width: int,
    dists: Sequence[Distribution],
    sample: SampleSpec,
    component: str = "multiplier",
    metric: str = "wmed",
    name: str = "",
    source: str = "",
    threshold_percent: float = float("nan"),
    library: Optional[TechLibrary] = None,
    activity_dist: Optional[Distribution] = None,
    evolution: Optional[EvolutionResult] = None,
) -> DesignPoint:
    """Sampled sibling of :func:`characterize_design` for wide operands.

    Nothing here enumerates the ``2**ni`` vector space: error figures
    are WMED *estimates* from each distribution's reproducible sample
    (same stream discipline as the evolving objective), the power
    model's switching activity comes from the activity distribution's
    sampled stimulus (the :func:`mac_summary` approach), and
    ``DesignPoint.table`` holds the design's outputs *at the activity
    sample's vectors* — not a truth table indexed by vector.
    """
    from ..tech.area import circuit_area
    from ..tech.power import circuit_power
    from ..tech.timing import critical_path_delay

    if not dists:
        raise ValueError("at least one distribution required")
    comp = get_component(component)
    _check_component_signedness(comp, dists[0])
    signed = dists[0].signed
    if any(d.signed != signed for d in dists):
        raise ValueError("distributions disagree on signedness")
    act = activity_dist or dists[0]
    for d in (*dists, act):
        if d.width != width:
            raise ValueError(
                f"distribution width {d.width} != component width {width}"
            )
    chromosome = netlist_to_chromosome(netlist)
    wmed_by_dist: Dict[str, float] = {}
    table: Optional[np.ndarray] = None
    act_stimulus: Optional[np.ndarray] = None
    act_vectors = 0
    for d in (*dists, act):
        if d.name in wmed_by_dist and act_stimulus is not None:
            continue
        objective = sampled_component_objective(
            comp.name, width, d, sample, metric="wmed", library=library
        )
        if d.name not in wmed_by_dist:
            wmed_by_dist[d.name] = objective.estimate(chromosome).value
        if act_stimulus is None and d.name == act.name:
            table = objective.truth_table(chromosome)
            act_stimulus = objective.stimulus
            act_vectors = objective.num_vectors
    lib = library or default_library()
    summary = TimingPowerSummary(
        area=circuit_area(netlist, lib),
        power=circuit_power(
            netlist, lib, input_words=act_stimulus, num_vectors=act_vectors
        ),
        delay=critical_path_delay(netlist, lib),
    )
    return DesignPoint(
        name=name or netlist.name,
        source=source,
        threshold_percent=threshold_percent,
        netlist=netlist,
        table=table,
        summary=summary,
        wmed_by_dist=wmed_by_dist,
        evolution=evolution,
        component=comp.name,
        metric=get_metric(metric).name,
    )


def mac_summary(
    multiplier: Netlist,
    width: int,
    dist: Distribution,
    max_terms: int = 512,
    samples: int = 8192,
    rng: Optional[np.random.Generator] = None,
    library: Optional[TechLibrary] = None,
) -> TimingPowerSummary:
    """Area / power / delay / PDP of a MAC built around ``multiplier``.

    This is what Table I reports ("the design parameters are reported for
    the MAC units").  The MAC's input space is too wide for exhaustive
    activity extraction, so switching probabilities are sampled: the
    multiplier's x operand follows ``dist`` (the application's data
    distribution), the y operand and the accumulator are uniform.

    Args:
        multiplier: Multiplier core with the standard interface.
        width: Operand width ``w``.
        dist: Distribution of the x operand (e.g. NN weights).
        max_terms: Accumulation depth ``d`` sizing the accumulator.
        samples: Number of random stimulus vectors for the power model.
        rng: Sampling source.
        library: Technology library.
    """
    from ..circuits.generators.mac import accumulator_width, build_mac
    from ..circuits.simulator import pack_input_vectors

    rng = rng or np.random.default_rng(0)
    acc_width = accumulator_width(width, max_terms)
    mac = build_mac(width, acc_width, multiplier=multiplier, signed=dist.signed)

    x_idx = rng.choice(dist.size, size=samples, p=dist.pmf).astype(np.uint64)
    y_idx = rng.integers(0, 1 << width, size=samples, dtype=np.uint64)
    acc = rng.integers(0, 1 << acc_width, size=samples, dtype=np.uint64)
    vectors = (
        x_idx
        | (y_idx << np.uint64(width))
        | (acc << np.uint64(2 * width))
    )
    stimulus = pack_input_vectors(vectors, mac.num_inputs)
    lib = library or default_library()
    from ..tech.area import circuit_area
    from ..tech.power import circuit_power
    from ..tech.timing import critical_path_delay

    return TimingPowerSummary(
        area=circuit_area(mac, lib),
        power=circuit_power(mac, lib, input_words=stimulus, num_vectors=samples),
        delay=critical_path_delay(mac, lib),
    )


def make_objective(
    width: int,
    design_dist: Distribution,
    library: Optional[TechLibrary] = None,
    engine: str = "auto",
    component: str = "multiplier",
    metric: str = "wmed",
    sample: Optional[SampleSpec] = None,
) -> CircuitObjective:
    """Build the candidate objective the sweeps run on.

    ``engine`` selects the evaluation path: ``"auto"`` (compiled engine,
    native backend when buildable), ``"native"`` / ``"numpy"`` (compiled
    engine, forced backend) or ``"off"`` (the interpreted
    :class:`~repro.core.objective.CircuitObjective`).  All produce
    bit-identical results; the engine is just faster.

    ``sample`` switches to Monte-Carlo evaluation: the objective scores
    candidates on a reproducible operand sample (see
    :func:`~repro.core.components.sampled_component_objective`) instead
    of the exhaustive vector space, returning estimates with confidence
    intervals — the only mode available past each component's exhaustive
    ``max_width``.
    """
    if engine not in ("off", "auto", "native", "numpy"):
        raise ValueError(f"unknown engine mode {engine!r}")
    if sample is not None:
        objective = sampled_component_objective(
            component, width, design_dist, sample,
            metric=metric, library=library,
        )
    else:
        objective = component_objective(
            component, width, design_dist, metric=metric, library=library
        )
    if engine == "off":
        return objective
    from ..engine import CompiledObjective, CompiledSampledObjective

    if sample is not None:
        return CompiledSampledObjective(objective, backend=engine)
    return CompiledObjective(objective, backend=engine)


def _check_component_signedness(comp, dist: Distribution) -> None:
    """Fail fast when a signed distribution meets an unsigned component.

    Silently clamping would weight unsigned bit patterns by a signed
    PMF (pattern ``0b1000`` carrying the mass of value -8 while the
    tables treat it as +8) — plausible-looking but wrong numbers.
    """
    if dist.signed and not comp.supports_signed:
        raise ValueError(
            f"the {comp.name} component is unsigned; pass unsigned "
            f"distributions"
        )


def _resolve_seed_netlist(
    seed_netlist: Optional[Netlist],
    component: str,
    design_dist: Distribution,
    width: int,
    sample: Optional[SampleSpec] = None,
) -> Netlist:
    """Resolve + validate one sweep cell's seed before any work runs.

    Both guards fail fast in the caller: raising only inside a pool
    worker would discard every other cell's completed work.  Sampled
    sweeps are width-checked against the sampled bound (no exhaustive
    table is ever built), exhaustive sweeps against ``max_width``.
    """
    comp = get_component(component)
    _check_component_signedness(comp, design_dist)
    if sample is not None:
        comp.check_sampled_width(width)
    else:
        comp.check_width(width)
    if seed_netlist is not None:
        return seed_netlist
    return comp.build_seed(width, design_dist.signed)


def evolve_front(
    seed_netlist: Optional[Netlist],
    width: int,
    design_dist: Distribution,
    thresholds_percent: Sequence[float],
    eval_dists: Sequence[Distribution],
    config: Optional[EvolutionConfig] = None,
    rng: Optional[np.random.Generator] = None,
    library: Optional[TechLibrary] = None,
    extra_columns: int = 0,
    chain_targets: bool = True,
    engine: str = "auto",
    component: str = "multiplier",
    metric: str = "wmed",
    sample: Optional[SampleSpec] = None,
) -> List[DesignPoint]:
    """Sweep error targets, evolving one design per target.

    Args:
        seed_netlist: Exact circuit seeding the first run; ``None``
            builds the component's standard exact seed.
        width: Operand width.
        design_dist: Distribution used in the weighted fitness (the
            "driving" distribution of the proposed method).
        thresholds_percent: Target error levels in percent, ascending.
        eval_dists: Distributions to cross-evaluate each result under.
        config: Evolution budget per target.
        rng: Random source.
        library: Technology library for area/power.
        extra_columns: Spare CGP columns beyond the seed's gate count.
        chain_targets: Seed each target's run with the previous target's
            survivor (cheaper and mirrors how Pareto sweeps are run in
            practice); the first run always starts from the exact seed.
        engine: Evaluation path, see :func:`make_objective`.
        component: Registered component name (``multiplier``, ``adder``,
            ``mac``, ``divider``, ``subtractor``, ``barrel-shifter``).
        metric: Error metric driving Eq. (1).
        sample: When given, evaluate candidates (and characterize the
            survivors) on this reproducible operand sample instead of
            the exhaustive vector space — the wide-operand mode.

    Returns:
        One :class:`DesignPoint` per threshold, in sweep order.
    """
    rng = rng or np.random.default_rng()
    seed_netlist = _resolve_seed_netlist(
        seed_netlist, component, design_dist, width, sample
    )
    params = params_for_netlist(
        seed_netlist, extra_columns=extra_columns
    )
    seed = netlist_to_chromosome(seed_netlist, params)
    evaluator = make_objective(
        width, design_dist, library, engine, component, metric, sample
    )
    points: List[DesignPoint] = []
    parent: Chromosome = seed
    for level in thresholds_percent:
        result = evolve(
            parent, evaluator, threshold=level / 100.0, config=config, rng=rng
        )
        points.append(
            _characterize_evolved(
                result, width, design_dist, eval_dists, level, library,
                component, metric, sample,
            )
        )
        if chain_targets:
            parent = result.best
    return points


def _characterize_evolved(
    result: EvolutionResult,
    width: int,
    design_dist: Distribution,
    eval_dists: Sequence[Distribution],
    level: float,
    library: Optional[TechLibrary],
    component: str = "multiplier",
    metric: str = "wmed",
    sample: Optional[SampleSpec] = None,
) -> DesignPoint:
    """Name + characterize one evolved survivor (shared by all sweeps)."""
    comp = get_component(component)
    prefix = {
        "multiplier": "mul",
        "subtractor": "sub",
        "divider": "div",
        "barrel-shifter": "shl",
    }.get(comp.name, comp.name)
    netlist = result.best.to_netlist(
        name=f"{prefix}{width}_{design_dist.name}_{metric}{level:g}"
    )
    if sample is not None:
        return characterize_design_sampled(
            netlist,
            width,
            eval_dists,
            sample,
            component=component,
            metric=metric,
            name=netlist.name,
            source=f"proposed ({design_dist.name})",
            threshold_percent=level,
            library=library,
            activity_dist=design_dist,
            evolution=result,
        )
    return characterize_design(
        netlist,
        width,
        eval_dists,
        component=component,
        metric=metric,
        name=netlist.name,
        source=f"proposed ({design_dist.name})",
        threshold_percent=level,
        library=library,
        activity_dist=design_dist,
        evolution=result,
    )


def _front_task(
    args: Tuple,
) -> DesignPoint:
    """Evolve + characterize one error target (parallel-sweep worker).

    Module-level (picklable) so it runs under both thread and process
    executors.  Each task builds its own objective: engine arenas are
    single-owner (``BufferArena.assert_owner``), and process workers
    cannot share them anyway.  The objective's batched brood dispatch
    lives entirely inside this worker — serial in a pool worker, on the
    OpenMP team only for large stimuli in a main thread — and both
    schedules give identical results, so per-task results never depend
    on worker count.
    """
    (
        seed_netlist, width, design_dist, level, eval_dists,
        config, seed_seq, library, extra_columns, engine,
        component, metric, sample,
    ) = args
    t0 = perf_counter()
    with span(
        "build.cell",
        component=component, metric=metric, width=width, level=level,
    ) as sp:
        params = params_for_netlist(seed_netlist, extra_columns=extra_columns)
        seed = netlist_to_chromosome(seed_netlist, params)
        evaluator = make_objective(
            width, design_dist, library, engine, component, metric, sample
        )
        result = evolve(
            seed,
            evaluator,
            threshold=level / 100.0,
            config=config,
            rng=np.random.default_rng(seed_seq),
        )
        point = _characterize_evolved(
            result, width, design_dist, eval_dists, level, library,
            component, metric, sample,
        )
        sp.tag(evaluations=result.evaluations)
    point.wall_s = perf_counter() - t0
    return point


def _pool_class(executor: str):
    if executor == "process":
        return concurrent.futures.ProcessPoolExecutor
    if executor == "thread":
        return concurrent.futures.ThreadPoolExecutor
    raise ValueError(f"unknown executor {executor!r}")


def _run_tasks(
    tasks: List[Tuple],
    executor: str,
    max_workers: Optional[int],
    on_result: Optional[Callable[[int, DesignPoint], None]] = None,
) -> List[DesignPoint]:
    """Run sweep tasks, optionally reporting each completion as it lands.

    ``on_result(index, point)`` fires in the caller's process the moment
    task ``index`` finishes (completion order, not input order) — the
    hook the design-library builder uses to checkpoint each grid cell
    before the rest of the sweep is done.  Results are still returned in
    input order.
    """
    # Resolve (and thereby validate) the executor even when the pool is
    # never built (max_workers <= 1), so a typo doesn't surface only
    # once the sweep is scaled up.
    pool_cls = _pool_class(executor)
    if max_workers is not None and max_workers <= 1:
        points = []
        for i, t in enumerate(tasks):
            point = _front_task(t)
            if on_result is not None:
                on_result(i, point)
            points.append(point)
        return points
    with pool_cls(max_workers=max_workers) as pool:
        if on_result is None:
            return list(pool.map(_front_task, tasks))
        futures = {
            pool.submit(_front_task, t): i for i, t in enumerate(tasks)
        }
        results: List[Optional[DesignPoint]] = [None] * len(tasks)
        for future in concurrent.futures.as_completed(futures):
            i = futures[future]
            point = future.result()
            on_result(i, point)
            results[i] = point
        return results  # type: ignore[return-value]


def parallel_front(
    seed_netlist: Optional[Netlist],
    width: int,
    design_dist: Distribution,
    thresholds_percent: Sequence[float],
    eval_dists: Sequence[Distribution],
    config: Optional[EvolutionConfig] = None,
    seed: int = 0,
    max_workers: Optional[int] = None,
    executor: str = "process",
    library: Optional[TechLibrary] = None,
    extra_columns: int = 0,
    engine: str = "auto",
    component: str = "multiplier",
    metric: str = "wmed",
    sample: Optional[SampleSpec] = None,
) -> List[DesignPoint]:
    """Evolve one design per error target, targets in parallel.

    Unlike :func:`evolve_front` the runs are independent (each seeded
    from the exact circuit — ``chain_targets=False`` semantics), which is
    what makes them embarrassingly parallel.  Reproducibility: run ``i``
    draws its generator from ``SeedSequence(seed).spawn()[i]``, so the
    returned front depends only on ``seed`` and the arguments — never on
    worker count, executor kind, or completion order.

    Args:
        seed: Root entropy for the per-run generators.
        max_workers: Pool size; ``None`` lets the executor choose, values
            ``<= 1`` run serially in-process (no pool, same results).
        executor: ``"process"`` (default; true parallelism, arguments
            must be picklable) or ``"thread"`` (lighter; the native
            engine backend releases the GIL during simulation).
        (Other arguments as in :func:`evolve_front`.)

    Returns:
        One :class:`DesignPoint` per threshold, in input order.
    """
    seed_netlist = _resolve_seed_netlist(
        seed_netlist, component, design_dist, width, sample
    )
    levels = list(thresholds_percent)
    children = np.random.SeedSequence(seed).spawn(len(levels))
    tasks = [
        (
            seed_netlist, width, design_dist, level, tuple(eval_dists),
            config, child, library, extra_columns, engine,
            component, metric, sample,
        )
        for level, child in zip(levels, children)
    ]
    return _run_tasks(tasks, executor, max_workers)


def grid_front(
    width: int,
    design_dist: Distribution,
    thresholds_percent: Sequence[float],
    eval_dists: Sequence[Distribution],
    components: Sequence[str] = ("multiplier",),
    metrics: Sequence[str] = ("wmed",),
    config: Optional[EvolutionConfig] = None,
    seed: Union[int, np.random.SeedSequence] = 0,
    max_workers: Optional[int] = None,
    executor: str = "process",
    library: Optional[TechLibrary] = None,
    extra_columns: int = 0,
    engine: str = "auto",
    skip_cell: Optional[Callable[[str, str, float], bool]] = None,
    on_point: Optional[Callable[[str, str, float, DesignPoint], None]] = None,
    sample: Optional[SampleSpec] = None,
) -> Dict[Tuple[str, str], List[Optional[DesignPoint]]]:
    """Sweep the full ``component x metric x threshold`` grid.

    Every cell of the grid is an independent run fanned out over one
    executor pool, with the same :class:`~numpy.random.SeedSequence`
    reproducibility contract as :func:`parallel_front`: the result
    depends only on ``seed`` and the arguments.

    ``skip_cell(component, metric, level)`` (when given) excludes a cell
    from the sweep without disturbing the others' generators: per-cell
    seed children are allocated for the *full* grid before filtering, so
    a cell evolves identically whether its neighbours run or are skipped.
    Skipped cells come back as ``None``.  ``on_point(component, metric,
    level, point)`` fires in the caller's process as each cell completes
    (completion order) — together these two hooks are the checkpoint /
    resume surface the design-library builder
    (:mod:`repro.library.builder`) drives.

    Returns:
        ``{(component, metric): [DesignPoint per threshold]}`` with
        thresholds in input order (``None`` where ``skip_cell`` hit).
    """
    combos = canonical_combos(components, metrics)
    # Fail fast, before any cell runs: a signed distribution with an
    # unsigned component in the grid would otherwise only raise in a
    # worker after the other cells' work is done — and discard it all.
    for component, _ in combos:
        _check_component_signedness(get_component(component), design_dist)
    levels = list(thresholds_percent)
    if not levels:
        return {combo: [] for combo in combos}
    seed_seq = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    children = seed_seq.spawn(len(combos) * len(levels))
    tasks = []
    cell_of_task: List[Tuple[int, int]] = []
    for i, (component, metric) in enumerate(combos):
        if skip_cell is not None and all(
            skip_cell(component, metric, level) for level in levels
        ):
            continue  # the seed netlist build is not free; skip it too
        seed_net = _resolve_seed_netlist(
            None, component, design_dist, width, sample
        )
        for j, level in enumerate(levels):
            if skip_cell is not None and skip_cell(component, metric, level):
                continue
            tasks.append(
                (
                    seed_net, width, design_dist, level, tuple(eval_dists),
                    config, children[i * len(levels) + j], library,
                    extra_columns, engine, component, metric, sample,
                )
            )
            cell_of_task.append((i, j))
    on_result = None
    if on_point is not None:
        def on_result(task_index: int, point: DesignPoint) -> None:
            i, j = cell_of_task[task_index]
            on_point(combos[i][0], combos[i][1], levels[j], point)
    points = _run_tasks(tasks, executor, max_workers, on_result=on_result)
    grid: Dict[Tuple[str, str], List[Optional[DesignPoint]]] = {
        combo: [None] * len(levels) for combo in combos
    }
    for (i, j), point in zip(cell_of_task, points):
        grid[combos[i]][j] = point
    return grid
