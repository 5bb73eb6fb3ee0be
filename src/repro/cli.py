"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

* ``evolve`` — run the error-constrained CGP approximation of a
  component (``--component
  {multiplier,adder,mac,divider,subtractor,barrel-shifter}``,
  ``--metric {wmed,med,mred,error-rate,worst-case}``) and write the
  result as a CGP chromosome string (plus a summary line); an
  ``--output`` file starts with a ``#`` line recording the component,
  signedness, distribution and metric,
* ``characterize`` — electrical + error report for a saved chromosome,
  under the objective its ``#`` line records (flags that contradict it
  are refused); for files without that line the component kind and
  operand width are detected from the chromosome interface when the
  shape is unambiguous (``--component`` is required when several
  components share it, e.g. adder/subtractor),
* ``export-verilog`` — emit structural Verilog for a saved chromosome,
* ``library`` — the persistent design library
  (:mod:`repro.library`): ``library build`` runs or resumes a grid
  build into an SQLite store (``--shard i/n`` builds one
  deterministic slice of the grid for distributed builds), ``library
  merge`` unions stores — e.g. shard outputs — under the same Pareto
  admission, ``library query`` selects the cheapest design inside an
  error budget (``--max-error``, ``--minimize {area,power,pdp}``,
  ``--front`` for the whole curve), ``library show`` prints one
  design in full, ``library export`` writes Verilog / netlist JSON /
  catalog tables, ``library stats`` summarizes the store,
* ``serve`` — the HTTP serving layer (:mod:`repro.serve`) over one or
  more built stores: ``repro serve --db designs.sqlite --port 8080``
  answers ``/v1/best``, ``/v1/front``, ``/v1/stats``,
  ``/v1/designs/{id}``, ``/openapi.json`` and ``/metrics``; repeating
  ``--db`` mounts several stores behind one federated query surface
  (see ``docs/serving.md``),
* ``obs`` — observability helpers (:mod:`repro.obs`): ``obs dump``
  prints the Prometheus exposition (this process, a running server via
  ``--url``, or a metrics slab file via ``--slab``); ``obs tail``
  prints or summarizes a ``REPRO_TRACE`` span log (see
  ``docs/observability.md``).

Distributions are named on the command line: ``uniform``, ``d1``, ``d2``,
``half-normal:<sigma>`` or ``normal:<mean>:<std>``; they weight the
``x`` operand (the low input bits) of any component.

Component notes: the ``adder``, ``divider``, ``subtractor`` and
``barrel-shifter`` components are unsigned (``--unsigned`` is implied);
the ``divider`` uses the ``x / 0 := all-ones`` convention; the ``mac``
objective is exhaustive over ``2**(4w+1)`` vectors, so it supports
``--width`` up to 5.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

import numpy as np

from .circuits.netlist import Netlist
from .circuits.verilog import to_verilog
from .core import (
    EvolutionConfig,
    evolve,
    get_component,
    infer_component,
    netlist_to_chromosome,
    params_for_netlist,
)
from .core.components import COMPONENTS, ComponentSpec, component_objective
from .core.serialization import chromosome_from_string, chromosome_to_string
from .errors import (
    Distribution,
    distribution_from_spec,
    evaluate_errors_against,
    metric_names,
    operand_weights,
)
from .tech import characterize

__all__ = ["main", "parse_distribution"]


def parse_distribution(spec: str, width: int, signed: bool) -> Distribution:
    """Parse a distribution spec string (see module docstring)."""
    return distribution_from_spec(spec, width, signed)


def _cmd_evolve(args: argparse.Namespace) -> int:
    comp = get_component(args.component)
    sample = None
    if args.eval == "sampled":
        from .core.objective import SampleSpec

        try:
            sample = SampleSpec(
                samples=args.samples,
                replicates=args.replicates,
                seed=args.seed,
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    try:
        if sample is not None:
            comp.check_sampled_width(args.width)
        else:
            comp.check_width(args.width)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    signed = comp.resolve_signed(not args.unsigned)
    try:
        dist = parse_distribution(args.dist, args.width, signed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    seed_net = comp.build_seed(args.width, signed)
    params = params_for_netlist(seed_net, extra_columns=args.extra_columns)
    seed = netlist_to_chromosome(seed_net, params)
    from .analysis.sweep import make_objective

    evaluator = make_objective(
        args.width,
        dist,
        engine=args.engine,
        component=comp.name,
        metric=args.metric,
        sample=sample,
    )
    result = evolve(
        seed,
        evaluator,
        threshold=args.wmed_percent / 100.0,
        config=EvolutionConfig(generations=args.generations),
        rng=np.random.default_rng(args.seed),
    )
    text = chromosome_to_string(result.best)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(
                _record_line(
                    comp.name, signed, args.dist, evaluator.metric.name
                )
                + text + "\n"
            )
    else:
        print(text)
    best = result.best_eval
    ci = ""
    if sample is not None:
        ci = (
            f" ci95=[{100 * best.ci_low:.4f}%, {100 * best.ci_high:.4f}%]"
            f" samples={sample.samples}x{sample.replicates}"
        )
    # The backend and brood schedule that served the run, and why any
    # evaluation fell back to the interpreter (--engine off has no
    # engine at all).
    engine = "off"
    if hasattr(evaluator, "stats"):
        stats = evaluator.stats()
        engine = f"{stats['backend']}/{stats['omp']['schedule']}"
        if stats["fallback"]:
            engine += f" fallback={','.join(stats['fallback'])}"
    print(
        f"# component={comp.name} metric={evaluator.metric.name} "
        f"error={100 * best.wmed:.4f}%{ci} "
        f"area={best.area:.1f}um2 "
        f"evaluations={result.evaluations} engine={engine}",
        file=sys.stderr,
    )
    return 0


def _record_line(component: str, signed: bool, dist: str, metric: str) -> str:
    """The ``#`` line ``evolve --output`` writes above the chromosome:
    what ``characterize`` needs to rebuild the objective it ran under."""
    return (
        f"# component={component} "
        f"signedness={'signed' if signed else 'unsigned'} "
        f"dist={''.join(dist.split()).lower()} metric={metric}\n"
    )


def _load_chromosome(path: str):
    """The chromosome saved at ``path`` and the ``key=value`` fields of
    its ``#`` lines (empty for files written without them)."""
    record = {}
    body = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                for field in line[1:].split():
                    key, _, value = field.partition("=")
                    record[key] = value
            else:
                body.append(line)
    return chromosome_from_string("".join(body)), record


def _contradiction(path: str, flag: str, given, key: str, recorded):
    return SystemExit(
        f"{path} was evolved with {key}={recorded}; {flag} asks for "
        f"{key}={given}"
    )


def _agree(path: str, record: dict, key: str, flag: str, given):
    """``given`` (a flag's value, None when absent) or else the value
    the file recorded under ``key``; refuses a flag that contradicts
    the record."""
    recorded = record.get(key)
    if given is not None and recorded is not None and given != recorded:
        raise _contradiction(path, flag, given, key, recorded)
    return recorded if given is None else given


def _resolve_component(
    net: Netlist, override: str
) -> Tuple[ComponentSpec, int]:
    """Component spec + operand width for a loaded chromosome's netlist."""
    if override != "auto":
        comp = get_component(override)
        width = comp.infer_width(net.num_inputs, net.num_outputs)
        if width is None:
            raise SystemExit(
                f"chromosome interface {net.num_inputs} -> "
                f"{net.num_outputs} bits does not match the "
                f"{comp.name} component"
            )
    else:
        matches = infer_component(net.num_inputs, net.num_outputs)
        if not matches:
            raise SystemExit(
                f"cannot infer a component from the {net.num_inputs} -> "
                f"{net.num_outputs}-bit interface; pass --component "
                f"{{{','.join(COMPONENTS)}}}"
            )
        if len(matches) > 1:
            # Shape collisions are real (adder/subtractor share
            # 2w -> w+1, divider/barrel-shifter share 2w -> w):
            # guessing would silently characterize against the wrong
            # reference, so demand an explicit choice.
            names = ", ".join(m.name for m, _ in matches)
            raise SystemExit(
                f"the {net.num_inputs} -> {net.num_outputs}-bit "
                f"interface is ambiguous: it matches {len(matches)} "
                f"components ({names}); pass --component to pick one"
            )
        comp, width = matches[0]
    # Same guard as evolve: an exhaustive table over this interface must
    # be practical before we build it.
    try:
        comp.check_width(width)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    return comp, width


def _cmd_characterize(args: argparse.Namespace) -> int:
    path = args.chromosome
    chromosome, record = _load_chromosome(path)
    net = chromosome.to_netlist()
    component = _agree(
        path, record, "component", "--component",
        None if args.component == "auto" else args.component,
    )
    comp, width = _resolve_component(net, component or "auto")
    signedness = _agree(
        path, record, "signedness", "--unsigned",
        "unsigned" if args.unsigned else None,
    )
    signed = comp.resolve_signed(signedness != "unsigned")
    recorded = record.get("dist")
    try:
        dist = parse_distribution(
            args.dist or recorded or "uniform", width, signed
        )
        # Specs are compared by the weights they give ("du" is
        # "uniform"), not by spelling.
        if args.dist and recorded and not np.array_equal(
            dist.pmf, parse_distribution(recorded, width, signed).pmf
        ):
            raise _contradiction(path, "--dist", args.dist, "dist", recorded)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    summary = characterize(net)
    objective = component_objective(comp.name, width, dist)
    table = objective.truth_table(chromosome)
    report = evaluate_errors_against(
        objective.reference,
        table,
        weights=operand_weights(dist, objective.num_inputs),
        normalizer=objective.normalizer,
    )
    print(f"component: {comp.name} (width {width}, "
          f"{'signed' if signed else 'unsigned'})")
    print(f"gates:  {len(net.active_gate_indices())}")
    print(f"area:   {summary.area:.1f} um2")
    print(f"power:  {summary.power.total / 1000:.4f} mW")
    print(f"delay:  {summary.delay:.0f} ps")
    print(f"pdp:    {summary.pdp:.1f} fJ")
    print(f"errors: {report}")
    return 0


def _split_csv(value: str) -> List[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _build_heartbeat():
    """Start the ``library build --progress`` heartbeat thread.

    Reads the obs catalog counters the builder increments per finished
    cell (they fire in the builder's process regardless of executor
    kind), so the thread needs no channel to the pool workers.  Returns
    a stop callable; a no-op one when metrics are disabled.
    """
    from time import monotonic

    from .obs import catalog as obs_catalog
    from .obs import enabled as obs_enabled

    if not obs_enabled():
        print(
            "[progress] REPRO_OBS=0: metrics disabled, heartbeat off",
            file=sys.stderr, flush=True,
        )
        return lambda: None

    import threading

    stop = threading.Event()
    t_start = monotonic()
    base_cells = obs_catalog.BUILD_CELLS.total()
    base_evals = obs_catalog.BUILD_EVALUATIONS.value

    def beat() -> None:
        while not stop.wait(2.0):
            now = monotonic()
            cells = obs_catalog.BUILD_CELLS.total() - base_cells
            total = obs_catalog.BUILD_CELLS_PLANNED.value
            evals = obs_catalog.BUILD_EVALUATIONS.value - base_evals
            elapsed = max(now - t_start, 1e-9)
            eta = ""
            if 0 < cells < total:
                remaining = elapsed / cells * (total - cells)
                eta = f"  ETA {remaining:.0f}s"
            print(
                f"[progress] cells {cells}/{total}  "
                f"{evals:,} evals ({evals / elapsed:,.0f}/s){eta}",
                file=sys.stderr, flush=True,
            )

    thread = threading.Thread(
        target=beat, name="build-heartbeat", daemon=True
    )
    thread.start()

    def finish() -> None:
        stop.set()
        thread.join(timeout=5.0)

    return finish


def _cmd_library_build(args: argparse.Namespace) -> int:
    from .library import BuildSpec, DesignStore, build_library, parse_shard

    shard = parse_shard(args.shard) if args.shard else None
    spec = BuildSpec(
        components=tuple(_split_csv(args.components)),
        metrics=tuple(_split_csv(args.metrics)),
        widths=tuple(int(w) for w in _split_csv(args.widths)),
        thresholds_percent=tuple(
            float(t) for t in _split_csv(args.thresholds)
        ),
        dist=args.dist,
        signed=not args.unsigned,
        generations=args.generations,
        extra_columns=args.extra_columns,
        seed=args.seed,
        engine=args.engine,
    )
    store = DesignStore(args.db)

    def progress(cell, status):
        width, component, metric, level = cell
        print(
            f"[cell] {component}/{metric} w={width} @{level:g}%: {status}",
            file=sys.stderr,
        )

    stop_heartbeat = (
        _build_heartbeat()
        if args.progress and not args.quiet
        else (lambda: None)
    )
    try:
        report = build_library(
            store, spec,
            max_workers=args.max_workers,
            executor=args.executor,
            progress=progress if args.verbose and not args.quiet else None,
            shard=shard,
        )
    finally:
        stop_heartbeat()
    if not args.quiet:
        print(report)
    return 0


def _cmd_library_merge(args: argparse.Namespace) -> int:
    from .library import merge_stores

    report = merge_stores(args.out, args.inputs)
    if not args.quiet:
        print(report)
    return 0


def _cmd_obs_dump(args: argparse.Namespace) -> int:
    from . import obs

    if args.url:
        from urllib.request import urlopen

        with urlopen(args.url) as response:
            sys.stdout.write(response.read().decode("utf-8"))
        return 0
    if args.slab:
        lanes = obs.read_slab(args.slab)
        sys.stdout.write(obs.render_prometheus(lanes=lanes))
        return 0
    sys.stdout.write(obs.render_prometheus())
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .obs.trace import read_spans, summarize

    try:
        spans = list(read_spans(args.path))
    except OSError as exc:
        raise SystemExit(f"cannot read trace {args.path!r}: {exc}") from None
    if args.summary:
        rows = summarize(spans)
        print(format_table(
            ("span", "count", "total (ms)", "mean (ms)", "max (ms)"),
            [
                [name, r["count"], f"{r['total_ms']:.3f}",
                 f"{r['mean_ms']:.3f}", f"{r['max_ms']:.3f}"]
                for name, r in rows.items()
            ],
        ))
        return 0
    for rec in spans[-args.limit:]:
        tags = rec.get("tags") or {}
        tag_text = " ".join(f"{k}={v}" for k, v in tags.items())
        print(
            f"{rec.get('name', '?'):<16} "
            f"{rec.get('dur_ns', 0) / 1e6:>10.3f} ms  "
            f"pid={rec.get('pid')} id={rec.get('id')} "
            f"parent={rec.get('parent') or '-'}"
            + (f"  {tag_text}" if tag_text else "")
        )
    return 0


def _library_cmd(fn):
    """Surface expected errors as one-line messages, not tracebacks."""

    def run(args: argparse.Namespace) -> int:
        try:
            return fn(args)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None

    return run


def _canonical_dist_name(spec: str, width: int) -> str:
    """Resolve a --dist filter to the name designs are stored under.

    ``library build --dist uniform`` stores rows under the
    distribution's *name* (``Du``); accept the same spec vocabulary on
    the query side (unrecognized strings pass through as literal stored
    names).
    """
    try:
        return distribution_from_spec(spec, width, False).name
    except ValueError:
        return spec


def _library_records(args: argparse.Namespace):
    """Shared record selection for the query/export subcommands."""
    from .library import DesignStore, best, front

    store = DesignStore(args.db)
    if args.dist is not None:
        args.dist = _canonical_dist_name(args.dist, args.width)
    signed = None
    if args.signed:
        signed = True
    elif args.unsigned:
        signed = False
    if getattr(args, "front", False):
        return store, front(
            store, args.component, args.width, args.metric,
            minimize=args.minimize, dist=args.dist, signed=signed,
            max_error_percent=args.max_error,
        )
    record = best(
        store, args.component, args.width, args.metric,
        max_error_percent=args.max_error, minimize=args.minimize,
        dist=args.dist, signed=signed,
    )
    return store, ([record] if record is not None else [])


def _cmd_library_query(args: argparse.Namespace) -> int:
    from .library import catalog_table

    _, records = _library_records(args)
    if not records:
        print("no stored design matches the query", file=sys.stderr)
        return 1
    print(catalog_table(records))
    return 0


def _cmd_library_show(args: argparse.Namespace) -> int:
    from .library import DesignStore

    store = DesignStore(args.db)
    matches = store.select(design_id_prefix=args.design_id)
    if not matches:
        print(f"no design with id prefix {args.design_id!r}", file=sys.stderr)
        return 1
    for r in matches:
        print(f"design:     {r.design_id}")
        print(f"component:  {r.component} (width {r.width}, "
              f"{'signed' if r.signed else 'unsigned'})")
        print(f"objective:  {r.metric} @ {r.threshold_percent:g}% "
              f"under {r.dist}")
        print(f"error:      {r.error_percent:.4f}%  (wmed={r.wmed:.6g} "
              f"med={r.med:.6g} mred={r.mred:.6g} er={r.error_rate:.4f} "
              f"wce={r.worst_case})")
        print(f"electrical: area={r.area:.1f} um2  "
              f"power={r.power_uw / 1000:.4f} mW  delay={r.delay_ps:.0f} ps  "
              f"pdp={r.pdp:.1f} fJ  gates={r.gates}")
        print(f"provenance: {r.seed_key}  generations={r.generations}  "
              f"evaluations={r.evaluations}")
        print(f"chromosome: {r.chromosome}")
    return 0


def _cmd_library_export(args: argparse.Namespace) -> int:
    from .library import export_records

    _, records = _library_records(args)
    if not records:
        print("no stored design matches the query", file=sys.stderr)
        return 1
    written = export_records(
        records, args.out, formats=tuple(_split_csv(args.formats))
    )
    for path in written:
        print(path)
    return 0


def _cmd_library_stats(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .library import DesignStore, stats

    summary = stats(DesignStore(args.db))
    print(f"designs: {summary['designs']}  "
          f"(from {summary['cells_completed']} completed build cells)")
    groups = summary["groups"]
    if groups:
        print(format_table(
            ("component", "width", "sign", "metric", "dist", "designs",
             "error span (%)", "area span (um2)"),
            [
                [
                    g["component"], g["width"],
                    "s" if g["signed"] else "u", g["metric"], g["dist"],
                    g["designs"],
                    f"{g['min_error_percent']:.4g}..{g['max_error_percent']:.4g}",
                    f"{g['min_area']:.4g}..{g['max_area']:.4g}",
                ]
                for g in groups
            ],
        ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from .serve import serve

    for path in args.db:
        if not os.path.exists(path):
            raise SystemExit(
                f"no design store at {path!r}; build one first with "
                "`repro library build --db ...`"
            )
    try:
        return serve(
            args.db[0] if len(args.db) == 1 else args.db,
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_size=args.cache_size,
            quiet=args.quiet,
            procs=args.procs,
        )
    except OSError as exc:
        # Bind failures (port in use, privileged port, bad host) are
        # operator mistakes, not bugs: one line, no traceback.
        raise SystemExit(
            f"cannot serve on {args.host}:{args.port}: {exc}"
        ) from None


def _cmd_export_verilog(args: argparse.Namespace) -> int:
    chromosome, _ = _load_chromosome(args.chromosome)
    text = to_verilog(chromosome.to_netlist(), module_name=args.module)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ev = sub.add_parser("evolve", help="evolve an approximate component")
    p_ev.add_argument("--width", type=int, default=8)
    p_ev.add_argument(
        "--component",
        choices=tuple(COMPONENTS),
        default="multiplier",
        help="datapath component to approximate (adder/divider/"
        "subtractor/barrel-shifter are unsigned; mac supports "
        "width <= 5)",
    )
    p_ev.add_argument(
        "--metric",
        choices=metric_names(),
        default="wmed",
        help="error metric constraining Eq. (1)",
    )
    p_ev.add_argument("--dist", default="uniform")
    p_ev.add_argument(
        "--wmed-percent", type=float, default=0.5,
        help="error budget in percent (under --metric, not only WMED)",
    )
    p_ev.add_argument("--generations", type=int, default=10_000)
    p_ev.add_argument("--extra-columns", type=int, default=20)
    p_ev.add_argument("--unsigned", action="store_true")
    p_ev.add_argument("--seed", type=int, default=0)
    p_ev.add_argument(
        "--eval",
        choices=("exhaustive", "sampled"),
        default="exhaustive",
        help="candidate scoring: 'exhaustive' enumerates every input "
        "vector (width-limited); 'sampled' estimates the metric on a "
        "reproducible operand sample with a 95%% confidence interval — "
        "required for wide operands (e.g. multipliers past width 10)",
    )
    p_ev.add_argument(
        "--samples", type=int, default=4096,
        help="sampled mode: vectors per replicate stream",
    )
    p_ev.add_argument(
        "--replicates", type=int, default=8,
        help="sampled mode: independent sample streams (the CI comes "
        "from the spread of their per-stream estimates)",
    )
    p_ev.add_argument(
        "--engine",
        choices=("auto", "native", "numpy", "off"),
        default="auto",
        help="candidate-evaluation path (results are identical; "
        "'off' is the interpreted evaluator)",
    )
    p_ev.add_argument("--output", help="chromosome file (stdout if omitted)")
    p_ev.set_defaults(func=_cmd_evolve)

    p_ch = sub.add_parser("characterize", help="report on a saved chromosome")
    p_ch.add_argument("chromosome", help="chromosome string file")
    p_ch.add_argument(
        "--component",
        choices=("auto",) + tuple(COMPONENTS),
        default="auto",
        help="component kind (auto = the one the file records, else "
        "detect from the chromosome interface shape; an ambiguous "
        "shape, e.g. adder/subtractor, demands an explicit choice)",
    )
    # Absent flags take the values `evolve --output` recorded in the
    # file (uniform and signed for files without them).
    p_ch.add_argument("--dist", default=None)
    p_ch.add_argument("--unsigned", action="store_true", default=None)
    p_ch.set_defaults(func=_cmd_characterize)

    p_vl = sub.add_parser("export-verilog", help="emit structural Verilog")
    p_vl.add_argument("chromosome", help="chromosome string file")
    p_vl.add_argument("--module", default="approx_circuit")
    p_vl.add_argument("--output", help="verilog file (stdout if omitted)")
    p_vl.set_defaults(func=_cmd_export_verilog)

    p_lib = sub.add_parser(
        "library",
        help="persistent design library "
        "(build / merge / query / show / export / stats)",
    )
    lib_sub = p_lib.add_subparsers(dest="library_command", required=True)

    def add_db(p):
        p.add_argument("--db", required=True, help="design store SQLite file")

    p_lb = lib_sub.add_parser(
        "build", help="run (or resume) a grid build into the store"
    )
    add_db(p_lb)
    p_lb.add_argument(
        "--components", default="multiplier",
        help="comma list from "
        f"{{{','.join(COMPONENTS)}}} "
        "(all but multiplier and mac need --unsigned)",
    )
    p_lb.add_argument(
        "--metrics", default="wmed",
        help=f"comma list from {{{','.join(metric_names())}}}",
    )
    p_lb.add_argument("--widths", default="4", help="comma list of widths")
    p_lb.add_argument(
        "--thresholds", default="0.5,1,2",
        help="comma list of error budgets in percent",
    )
    p_lb.add_argument("--dist", default="uniform")
    p_lb.add_argument("--unsigned", action="store_true")
    p_lb.add_argument("--generations", type=int, default=2000)
    p_lb.add_argument("--extra-columns", type=int, default=20)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.add_argument(
        "--engine", choices=("auto", "native", "numpy", "off"), default="auto"
    )
    p_lb.add_argument("--max-workers", type=int, default=None)
    p_lb.add_argument(
        "--executor", choices=("process", "thread"), default="process"
    )
    p_lb.add_argument(
        "--verbose", action="store_true", help="log each completed cell"
    )
    p_lb.add_argument(
        "--progress", action="store_true",
        help="periodic heartbeat (cells done/total, evals/s, ETA) "
        "from the obs counters",
    )
    p_lb.add_argument(
        "--quiet", action="store_true",
        help="suppress all build output (overrides --verbose/--progress)",
    )
    p_lb.add_argument(
        "--shard", default=None, metavar="I/N",
        help="build only every N-th grid cell starting at the I-th "
        "(1-based), e.g. --shard 2/4; shard outputs are bit-identical "
        "to the matching cells of an unsharded build and recombine "
        "with `library merge`",
    )
    p_lb.set_defaults(func=_library_cmd(_cmd_library_build))

    p_lm = lib_sub.add_parser(
        "merge",
        help="union stores (e.g. shard outputs) under Pareto admission",
    )
    p_lm.add_argument(
        "out",
        help="destination store (atomically created or replaced; an "
        "existing store at this path participates as one more input)",
    )
    p_lm.add_argument(
        "inputs", nargs="+", metavar="input",
        help="source store files (each must exist)",
    )
    p_lm.add_argument("--quiet", action="store_true")
    p_lm.set_defaults(func=_library_cmd(_cmd_library_merge))

    def add_query_args(p, with_front: bool):
        add_db(p)
        p.add_argument("--component", default="multiplier")
        p.add_argument("--width", type=int, required=True)
        p.add_argument("--metric", default="wmed")
        p.add_argument("--dist", default=None, help="distribution name filter")
        p.add_argument(
            "--max-error", type=float, default=None,
            help="error budget in percent",
        )
        p.add_argument(
            "--minimize", choices=("area", "power", "pdp"), default="area"
        )
        sign = p.add_mutually_exclusive_group()
        sign.add_argument(
            "--signed", action="store_true",
            help="only signed designs (default: either signedness)",
        )
        sign.add_argument(
            "--unsigned", action="store_true",
            help="only unsigned designs (default: either signedness)",
        )
        if with_front:
            p.add_argument(
                "--front", action="store_true",
                help="return the whole Pareto front instead of one design",
            )

    p_lq = lib_sub.add_parser("query", help="select designs by error budget")
    add_query_args(p_lq, with_front=True)
    p_lq.set_defaults(func=_library_cmd(_cmd_library_query))

    p_ls = lib_sub.add_parser("show", help="print one design in full")
    add_db(p_ls)
    p_ls.add_argument("design_id", help="design id (prefix accepted)")
    p_ls.set_defaults(func=_library_cmd(_cmd_library_show))

    p_le = lib_sub.add_parser("export", help="write design artifacts")
    add_query_args(p_le, with_front=True)
    p_le.add_argument("--out", required=True, help="output directory")
    p_le.add_argument(
        "--formats", default="verilog,netlist,catalog",
        help="comma subset of verilog,netlist,catalog",
    )
    p_le.set_defaults(func=_library_cmd(_cmd_library_export))

    p_lt = lib_sub.add_parser("stats", help="summarize the store")
    add_db(p_lt)
    p_lt.set_defaults(func=_library_cmd(_cmd_library_stats))

    p_sv = sub.add_parser(
        "serve", help="HTTP API over one or more built design stores"
    )
    p_sv.add_argument(
        "--db", required=True, action="append",
        help="design store SQLite file; repeat to mount several stores "
        "behind one federated query surface",
    )
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument("--port", type=int, default=8080)
    p_sv.add_argument(
        "--workers", type=int, default=8,
        help="request-handling thread pool size",
    )
    p_sv.add_argument(
        "--cache-size", type=int, default=1024,
        help="response-cache entries (0 disables caching)",
    )
    p_sv.add_argument(
        "--procs", type=int, default=1,
        help="worker processes sharing the port (SO_REUSEPORT or "
        "prefork fd passing); 1 = single-process, exactly as before",
    )
    p_sv.add_argument(
        "--quiet", action="store_true", help="suppress access logging"
    )
    p_sv.set_defaults(func=_library_cmd(_cmd_serve))

    p_obs = sub.add_parser(
        "obs", help="observability: metrics dump / trace tail"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_od = obs_sub.add_parser(
        "dump", help="print the Prometheus metrics exposition"
    )
    od_src = p_od.add_mutually_exclusive_group()
    od_src.add_argument(
        "--url",
        help="scrape a running server, "
        "e.g. http://127.0.0.1:8080/metrics",
    )
    od_src.add_argument(
        "--slab", help="read a metrics slab file directly (no server)"
    )
    p_od.set_defaults(func=_library_cmd(_cmd_obs_dump))

    p_ot = obs_sub.add_parser(
        "tail", help="print or summarize a REPRO_TRACE span log"
    )
    p_ot.add_argument("path", help="trace JSONL file")
    p_ot.add_argument(
        "--limit", type=int, default=20, help="spans to show (most recent)"
    )
    p_ot.add_argument(
        "--summary", action="store_true",
        help="aggregate per span name instead of listing spans",
    )
    p_ot.set_defaults(func=_library_cmd(_cmd_obs_tail))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
