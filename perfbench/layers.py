"""The program's layer boundaries, as the traced run patches them.

Each boundary is patched at the name its caller looks up — e.g.
``repro.core.evolution.mutate`` (the evolve loop's global), not
``repro.core.mutation.mutate`` — so the wrapper sits exactly on the
call the layer receives.  Layer names are the per-layer metric names.
"""

from __future__ import annotations

import importlib
from typing import Tuple

from perfbench.spans import Tracer

#: (layer, module, class or None for a module global, attribute)
ENGINE_BOUNDARIES: Tuple[Tuple[str, str, object, str], ...] = (
    ("core.mutate", "repro.core.evolution", None, "mutate"),
    ("core.active", "repro.core.chromosome", "Chromosome",
     "active_gene_positions"),
    ("core.select", "repro.core.evolution", None, "_evolve_loop"),
    ("engine.dispatch", "repro.engine.evaluator", "_EngineEvalMixin",
     "evaluate_batch"),
    ("engine.compile", "repro.engine.evaluator", "_Runtime",
     "compile_into_lane"),
    ("engine.compile", "repro.engine.evaluator", "_Runtime", "compile"),
    ("engine.signature", "repro.engine.evaluator", None,
     "phenotype_signature"),
    ("engine.area", "repro.engine.evaluator", "_Runtime", "lane_area"),
    ("engine.area", "repro.core.objective", "CircuitObjective", "area"),
    ("engine.cache", "repro.engine.cache", "EvalCache", "get"),
    ("engine.cache", "repro.engine.cache", "EvalCache", "put"),
    # execute_lane_stats calls C directly, so NativeLib.eval_batch alone
    # would miss it; execute is the single-candidate path.
    ("engine.kernel", "repro.engine.evaluator", "_Runtime", "execute_lane"),
    ("engine.kernel", "repro.engine.evaluator", "_Runtime",
     "execute_lane_stats"),
    ("engine.kernel", "repro.engine.evaluator", "_Runtime", "execute"),
    ("errors.reduce", "repro.errors.metrics", "ErrorMetric",
     "from_distances"),
    ("circuits.simulate", "repro.core.chromosome", "Chromosome", "simulate"),
    ("core.decode", "repro.core.objective", "CircuitObjective",
     "truth_table"),
    ("errors.estimate", "repro.core.objective", "SampledObjective",
     "estimate_distances"),
    ("tech.characterize", "repro.analysis.sweep", None, "characterize"),
    ("tech.characterize", "repro.library.builder", None, "characterize"),
    ("analysis.characterize_design", "repro.analysis.sweep", None,
     "characterize_design"),
    ("library.characterize_record", "repro.library.builder", None,
     "characterize_record"),
    ("library.store_add", "repro.library.store", "DesignStore", "add"),
    ("library.store_mark_cell", "repro.library.store", "DesignStore",
     "mark_cell"),
)

SERVE_BOUNDARIES: Tuple[Tuple[str, str, object, str], ...] = (
    ("serve.parse", "repro.serve.server", "_Handler", "parse_request"),
    ("serve.fast_path", "repro.serve.server", "_Handler", "_fast_response"),
    ("serve.write", "repro.serve.server", "_Handler", "_dispatch"),
    ("serve.dispatch", "repro.serve.server", None, "handle"),
    ("serve.validate", "repro.serve.api", None, "validate_query"),
    ("serve.etag", "repro.serve.api", None, "make_etag"),
    ("serve.cache", "repro.serve.cache", "ResponseCache", "get"),
    ("serve.cache", "repro.serve.cache", "ResponseCache", "put"),
    ("serve.wire", "repro.serve.server", "WireCache", "lookup"),
    ("serve.wire", "repro.serve.server", "WireCache", "put"),
)

#: Every layer the traced run can report, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [b[0] for b in ENGINE_BOUNDARIES]
    + [b[0] for b in SERVE_BOUNDARIES]
    + ["serve.handler"]
))


def _owner(module: str, cls):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def _one_lane(*args, **kwargs) -> int:
    return 1


def install_engine(tracer: Tracer) -> None:
    """Wrap the search, engine, error, tech and library boundaries.

    ``tracer.counts["engine.kernel"]`` receives the candidates the
    kernel layer executed: one per single-lane call, ``n_lanes`` per
    fused dispatch.
    """
    for layer, module, cls, attr in ENGINE_BOUNDARIES:
        count = _one_lane if layer == "engine.kernel" else None
        tracer.patch(_owner(module, cls), attr, layer, count=count)
    from repro.engine.evaluator import _Runtime

    tracer.patch(
        _Runtime, "execute_batch", "engine.kernel",
        count=lambda rt, n_lanes, *a, **k: n_lanes,
    )


def install_generations(tracer: Tracer) -> None:
    """Wrap only the evolve loop and the ``active_gene_positions`` call
    it makes once per generation: the untraced window's generation
    clock (see :class:`perfbench.spans.StepGaps`)."""
    for layer, module, cls, attr in ENGINE_BOUNDARIES:
        if layer in ("core.select", "core.active"):
            tracer.patch(_owner(module, cls), attr, layer)


def install_serve(tracer: Tracer) -> None:
    """Wrap the HTTP, dispatch, memo and route-handler boundaries."""
    for layer, module, cls, attr in SERVE_BOUNDARIES:
        tracer.patch(_owner(module, cls), attr, layer)
    from repro.serve.api import ROUTES

    # Route objects are frozen and bound into handle()'s defaults, so
    # the handler is wrapped on each route instance.
    for route in ROUTES:
        tracer.patch_frozen(route, "handler", "serve.handler")
