"""Resumable library builds over component x metric x threshold x width grids.

:func:`build_library` drives :func:`repro.analysis.sweep.grid_front`
once per operand width and checkpoints every grid cell into the
:class:`~repro.library.store.DesignStore` the moment it completes (the
sweep layer's ``on_point`` hook fires in the builder's process as each
pool worker finishes).  Two properties follow:

* **Resumability** — a killed build restarts where it left off: cells
  already checkpointed are excluded via the sweep's ``skip_cell`` hook,
  and because :func:`~repro.analysis.sweep.grid_front` allocates its
  per-cell :class:`~numpy.random.SeedSequence` children for the *full*
  grid before filtering, the remaining cells evolve exactly the circuits
  they would have in an uninterrupted run.  A finished cell is never
  re-evolved; re-running a completed build is a no-op.
* **Pareto admission** — each completed cell's design is characterized
  (:func:`characterize_record`) and offered to the store, which admits
  only per-``(component, width, metric)``-group non-dominated rows and
  prunes any incumbents the newcomer dominates.

Cell identity (:func:`cell_id`) digests everything that determines a
cell's result — component, metric, width, distribution spec,
signedness, threshold, root seed, budget — so changing any search
parameter makes a fresh grid rather than silently reusing stale cells.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..analysis.sweep import DesignPoint, canonical_combos, grid_front
from ..circuits.simulator import truth_table
from ..core.chromosome import Chromosome
from ..core.components import component_objective, get_component
from ..core.evolution import EvolutionConfig
from ..core.serialization import chromosome_to_string
from ..errors.distributions import Distribution, distribution_from_spec
from ..errors.metrics import evaluate_errors_against, get_metric
from ..obs import catalog as _obs
from ..tech.library import TechLibrary, default_library
from ..tech.timing import characterize
from .store import DesignRecord, DesignStore, design_signature

__all__ = [
    "BuildSpec",
    "BuildReport",
    "build_library",
    "cell_id",
    "characterize_record",
    "library_fingerprint",
    "parse_shard",
]


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``--shard i/n`` spec into ``(index, count)``, zero-based.

    ``"2/4"`` means "the second of four shards" → ``(1, 4)``.  The
    1-based surface syntax matches how people number machines; the
    returned index is 0-based because it feeds a modular assignment.
    """
    parts = text.strip().split("/")
    if len(parts) != 2:
        raise ValueError(
            f"shard spec must look like i/n (got {text!r})"
        )
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"shard spec must be two integers i/n (got {text!r})"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"shard index must satisfy 1 <= i <= n (got {text!r})"
        )
    return index - 1, count


@dataclass(frozen=True)
class BuildSpec:
    """One reproducible library build: the grid and the search budget.

    ``dist`` is a distribution spec string (``uniform``, ``d1``, ``d2``,
    ``half-normal:<sigma>``, ``normal:<mean>:<std>``) instantiated per
    width.  ``signed`` selects two's-complement operands — only legal
    when every component in the grid supports it (the adder, divider,
    subtractor and barrel shifter do not).
    The build's results are a pure function of this spec: same spec,
    same designs, bit for bit.
    """

    components: Tuple[str, ...] = ("multiplier",)
    metrics: Tuple[str, ...] = ("wmed",)
    widths: Tuple[int, ...] = (4,)
    thresholds_percent: Tuple[float, ...] = (0.5, 1.0, 2.0)
    dist: str = "uniform"
    signed: bool = False
    generations: int = 2000
    extra_columns: int = 20
    seed: int = 0
    engine: str = "auto"

    def combos(self) -> List[Tuple[str, str]]:
        """Canonical, de-duplicated (component, metric) pairs, grid order.

        Shares :func:`~repro.analysis.sweep.canonical_combos` with
        :func:`~repro.analysis.sweep.grid_front`, so resume accounting
        and the cells that actually run can never disagree.
        """
        return canonical_combos(self.components, self.metrics)

    def dist_spec(self) -> str:
        """Normalized distribution spec (part of every cell identity)."""
        return self.dist.strip().lower()

    def cells(self) -> List[Tuple[int, str, str, float]]:
        """Every grid cell as ``(width, component, metric, threshold)``,
        in deterministic build order."""
        return [
            (width, component, metric, level)
            for width in self.widths
            for component, metric in self.combos()
            for level in self.thresholds_percent
        ]


@dataclass
class BuildReport:
    """Outcome counters of one :func:`build_library` invocation."""

    cells_total: int = 0
    cells_skipped: int = 0
    cells_run: int = 0
    added: int = 0
    dominated: int = 0
    duplicate: int = 0
    store_designs: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"cells: {self.cells_run} run, {self.cells_skipped} resumed "
            f"(of {self.cells_total}); designs: {self.added} added, "
            f"{self.dominated} dominated, {self.duplicate} duplicate; "
            f"store now holds {self.store_designs}"
        )


def library_fingerprint(library: Optional[TechLibrary]) -> str:
    """Digest of a technology library's search-relevant constants.

    The evolved circuits themselves depend on the library (Eq. (1)
    minimizes library-derived area), so it is part of every cell
    identity — resuming a build under different cell constants must
    re-run, not silently reuse stale rows.
    """
    lib = library or default_library()
    payload = repr((
        lib.name, lib.vdd, lib.clock_ghz,
        sorted(lib.cells.items()),
    ))
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def cell_id(
    component: str,
    metric: str,
    width: int,
    dist_spec: str,
    signed: bool,
    threshold_percent: float,
    seed: int,
    generations: int,
    extra_columns: int,
    library_fp: str = "",
) -> str:
    """Digest identifying one grid cell's full parameterization.

    ``library_fp`` is the :func:`library_fingerprint` of the technology
    library the cell evolves under (empty falls back to the default
    library's).  The evaluation ``engine`` is deliberately excluded:
    engine backends are bit-identical, so a build may resume on a
    machine without the C toolchain and still skip its finished cells.
    """
    payload = repr((
        get_component(component).name,
        get_metric(metric).name,
        int(width),
        dist_spec,
        bool(signed),
        float(threshold_percent),
        int(seed),
        int(generations),
        int(extra_columns),
        library_fp or library_fingerprint(None),
    ))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def characterize_record(
    chromosome: Chromosome,
    component: str,
    width: int,
    dist: Distribution,
    metric: str,
    library: Optional[TechLibrary] = None,
    threshold_percent: float = float("nan"),
    name: str = "",
    seed_key: str = "",
    generations: int = 0,
    evaluations: int = 0,
) -> DesignRecord:
    """Full, deterministic characterization of one evolved chromosome.

    This is the single code path producing a store row's numeric fields
    — the builder uses it at admission time and verification re-runs it
    from the stored chromosome text, so "re-characterization matches the
    stored record bit-for-bit" is checkable by plain equality.

    ``error`` is the search objective's own reduction
    (:meth:`~repro.core.objective.CircuitObjective.error_from_distances`)
    over the same integer distances, so it equals the evolution's final
    ``best_eval.error`` exactly, engine or no engine; ``area`` is the
    search's own float sum (:func:`~repro.tech.area.circuit_area`), so it
    equals ``best_eval.area`` the same way.  ``wmed``,
    ``error_rate``, ``bias`` and the power model's switching activity
    are exact integer sums over the objective's quantized weights, and
    ``mred`` a fixed-order float sum: no stored figure depends on the
    host's BLAS build or thread count.
    """
    comp = get_component(component)
    objective = component_objective(
        comp.name, width, dist, metric=metric, library=library
    )
    netlist = chromosome.to_netlist(name=name)
    table = truth_table(netlist, signed=objective.signed)
    distances = np.abs(objective.reference - table)
    error = objective.error_from_distances(distances)
    weights = objective.integer_weights
    report = evaluate_errors_against(
        objective.reference, table,
        weights=weights, normalizer=objective.normalizer,
    )
    # Same activity weighting as analysis.sweep.characterize_design, so
    # the electrical figures agree with the sweep-layer DesignPoints.
    summary = characterize(netlist, library, weights=weights)
    mred = get_metric("mred").from_distances(
        distances, objective.weights, objective.normalizer,
        objective.reference,
    )
    return DesignRecord(
        design_id=design_signature(netlist),
        component=comp.name,
        width=width,
        signed=objective.signed,
        metric=objective.metric.name,
        dist=dist.name,
        threshold_percent=float(threshold_percent),
        error=float(error),
        area=float(summary.area),
        power_uw=float(summary.power.total),
        delay_ps=float(summary.delay),
        pdp=float(summary.pdp),
        wmed=report.wmed,
        med=report.med,
        mred=mred,
        error_rate=report.error_rate,
        worst_case=report.worst_case,
        bias=report.bias,
        gates=len(netlist.active_gate_indices()),
        chromosome=chromosome_to_string(chromosome),
        name=name,
        seed_key=seed_key,
        generations=generations,
        evaluations=evaluations,
    )


def build_library(
    store: DesignStore,
    spec: BuildSpec,
    max_workers: Optional[int] = None,
    executor: str = "process",
    library: Optional[TechLibrary] = None,
    progress: Optional[Callable[[Tuple[int, str, str, float], str], None]] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> BuildReport:
    """Run (or resume) one library build; see the module docstring.

    Args:
        store: Destination store; also holds the cell checkpoints.
        spec: The grid + budget.  Identical spec against the same store
            is a no-op (every cell resumes as complete).
        max_workers: Pool width per grid; ``<= 1`` runs serially.
        executor: ``"process"`` or ``"thread"`` (see
            :func:`~repro.analysis.sweep.parallel_front`).
        library: Technology library for area/power/delay.
        progress: Optional ``progress((width, component, metric, level),
            status)`` hook, fired per completed cell after its checkpoint
            commits; an exception here aborts the build *between* cells,
            which is exactly the kill point resumption is tested against.
        shard: Optional ``(index, count)`` (zero-based; see
            :func:`parse_shard`).  Cell ``k`` of :meth:`BuildSpec.cells`
            belongs to shard ``k % count``; cells outside this shard are
            excluded through the same ``skip_cell`` hook resume uses, so
            — because :func:`~repro.analysis.sweep.grid_front` allocates
            the *full* grid's SeedSequence children before filtering —
            every shard evolves exactly the rows an unsharded build
            would for its cells, bit for bit.  ``n`` shards into ``n``
            stores + :func:`~repro.library.federation.merge_stores` is
            therefore row-identical to one unsharded build.

    Returns:
        A :class:`BuildReport` of cells run/resumed and admission
        counts; under sharding, over this shard's cells only.
    """
    all_cells = spec.cells()
    if shard is None:
        mine = set(all_cells)
    else:
        index, count = shard
        if not 0 <= index < count:
            raise ValueError(
                f"shard index out of range: ({index}, {count})"
            )
        mine = {c for k, c in enumerate(all_cells) if k % count == index}
    report = BuildReport(cells_total=len(mine))
    done = set(store.completed_cells())
    dist_spec = spec.dist_spec()
    library_fp = library_fingerprint(library)
    _obs.BUILD_CELLS_PLANNED.set(report.cells_total)
    _obs.BUILD_SHARD_INDEX.set(0 if shard is None else shard[0])
    _obs.BUILD_SHARD_COUNT.set(1 if shard is None else shard[1])

    def cid(width: int, component: str, metric: str, level: float) -> str:
        return cell_id(
            component, metric, width, dist_spec, spec.signed, level,
            spec.seed, spec.generations, spec.extra_columns,
            library_fp=library_fp,
        )

    config = EvolutionConfig(generations=spec.generations)
    for width in spec.widths:
        dist = distribution_from_spec(dist_spec, width, spec.signed)

        # Counted here, not inside skip(): grid_front probes skip_cell
        # more than once per cell (an all-skipped pre-check plus the
        # per-level filter), so instrumenting the hook would overcount.
        resumed = sum(
            1
            for component, metric in spec.combos()
            for level in spec.thresholds_percent
            if (width, component, metric, level) in mine
            and cid(width, component, metric, level) in done
        )
        if resumed:
            _obs.BUILD_CELLS.labels("resumed").inc(resumed)

        # Shard exclusion rides the resume hook: a cell outside this
        # shard is "skipped" exactly like an already-checkpointed one,
        # and grid_front's full-grid seed allocation keeps the cells
        # that do run on their unsharded RNG streams.
        def skip(component: str, metric: str, level: float) -> bool:
            return (
                (width, component, metric, level) not in mine
                or cid(width, component, metric, level) in done
            )

        def on_point(
            component: str, metric: str, level: float, point: DesignPoint
        ) -> None:
            record = characterize_record(
                point.evolution.best,
                component,
                width,
                dist,
                metric,
                library=library,
                threshold_percent=level,
                name=point.name,
                seed_key=f"seed={spec.seed} width={width}",
                generations=spec.generations,
                evaluations=point.evolution.evaluations,
            )
            search = point.evolution.best_eval
            if (record.error, record.area) != (search.error, search.area):
                raise RuntimeError(
                    f"characterization diverged from the search objective "
                    f"(error {record.error!r} vs {search.error!r}, area "
                    f"{record.area!r} vs {search.area!r}) for "
                    f"{component}/{metric}/w{width}@{level}"
                )
            status = store.add(record)
            store.mark_cell(
                cid(width, component, metric, level), component, metric,
                width, dist.name, level, status, record.design_id,
            )
            report.cells_run += 1
            setattr(report, status, getattr(report, status) + 1)
            # Fires in the builder's process (pool workers hand their
            # DesignPoint back before this hook runs), so the counters
            # land in the process the progress heartbeat reads.
            _obs.BUILD_CELLS.labels(status).inc()
            _obs.BUILD_EVALUATIONS.inc(point.evolution.evaluations)
            _obs.BUILD_CELL_SECONDS.observe(int(point.wall_s * 1e9))
            if progress is not None:
                progress((width, component, metric, level), status)

        grid_front(
            width,
            dist,
            spec.thresholds_percent,
            eval_dists=(dist,),
            components=spec.components,
            metrics=spec.metrics,
            config=config,
            seed=np.random.SeedSequence(entropy=(spec.seed, width)),
            max_workers=max_workers,
            executor=executor,
            library=library,
            extra_columns=spec.extra_columns,
            engine=spec.engine,
            skip_cell=skip,
            on_point=on_point,
        )
    report.cells_skipped = report.cells_total - report.cells_run
    report.store_designs = store.count()
    return report
