"""The static metric catalog: every production metric, declared once.

Everything here must be deterministic at import time — slot assignment
depends only on declaration order, and the slab's catalog digest
(:meth:`MetricsRegistry.catalog_digest`) is what lets a forked worker
attach to the supervisor's slab.  That is why this module imports
nothing from the rest of ``repro``: the serve route names are
hard-coded strings (``tests/test_obs.py`` pins them against the live
route table) rather than derived from ``serve.routes``.

Units follow Prometheus conventions: ``*_total`` counters, ``*_seconds``
histograms (raw observations are ``perf_counter_ns`` nanoseconds,
scaled by 1e-9 on exposition), gauges are plain int64.
"""

from __future__ import annotations

import os
from typing import Dict, List

from .metrics import registry

REGISTRY = registry()

#: Closed route-label vocabulary.  Must equal the serve route-table
#: names plus the "other" fallback (drift-tested in tests/test_obs.py).
ROUTE_LABELS = ("health", "best", "front", "stats", "design", "openapi",
                "metrics", "other")

# -- serve -------------------------------------------------------------
HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "Completed HTTP requests by route (wire fast path + dispatcher).",
    label="route", values=ROUTE_LABELS)
HTTP_LATENCY = REGISTRY.histogram(
    "repro_http_request_seconds",
    "Server-side request handling latency by route.",
    shift=10, buckets=24, scale=1e-9, label="route", values=ROUTE_LABELS)
HTTP_NOT_MODIFIED = REGISTRY.counter(
    "repro_http_not_modified_total",
    "Conditional requests answered 304 via ETag revalidation.")
HTTP_WIRE_HITS = REGISTRY.counter(
    "repro_http_wire_hits_total",
    "Requests served from the preserialised wire cache (no dispatch).")
HTTP_WIRE_FILLS = REGISTRY.counter(
    "repro_http_wire_fills_total",
    "Wire-cache entries memoized from dispatched responses.")
HTTP_DISPATCH = REGISTRY.counter(
    "repro_http_dispatch_total",
    "Requests that went through the full route dispatcher.")
RESPONSE_CACHE_HITS = REGISTRY.counter(
    "repro_serve_response_cache_hits_total",
    "Response-cache lookups that returned a cached body.")
RESPONSE_CACHE_MISSES = REGISTRY.counter(
    "repro_serve_response_cache_misses_total",
    "Response-cache lookups that fell through to the handler.")
SNAPSHOT_REBUILDS = REGISTRY.counter(
    "repro_serve_snapshot_rebuilds_total",
    "Immutable store snapshots rebuilt after on-disk state changes.")
SNAPSHOT_DESIGNS = REGISTRY.gauge(
    "repro_serve_snapshot_designs",
    "Designs in this worker's current store snapshot.")
SNAPSHOT_STATE_NS = REGISTRY.gauge(
    "repro_serve_snapshot_state_ns",
    "st_mtime_ns of the store file backing the current snapshot.")
WORKER_PID = REGISTRY.gauge(
    "repro_worker_pid",
    "OS pid of the serving process that owns this lane.")

# -- engine ------------------------------------------------------------
ENGINE_EVALS = REGISTRY.counter(
    "repro_engine_evals_total",
    "Candidate evaluations served (including eval-cache hits).")
ENGINE_EVAL_NS = REGISTRY.counter(
    "repro_engine_eval_ns_total",
    "Nanoseconds spent in evaluate()/evaluate_batch() bodies.")
ENGINE_COMPILE_NS = REGISTRY.counter(
    "repro_engine_compile_ns_total",
    "Nanoseconds spent compiling phenotypes into dispatch lanes.")
ENGINE_CACHE_HITS = REGISTRY.counter(
    "repro_engine_cache_hits_total",
    "Phenotype-signature eval-cache hits.")
ENGINE_CACHE_MISSES = REGISTRY.counter(
    "repro_engine_cache_misses_total",
    "Phenotype-signature eval-cache misses.")
ENGINE_BATCH_CALLS = REGISTRY.counter(
    "repro_engine_batch_calls_total",
    "Batched kernel dispatches (one C call per brood).")
ENGINE_BATCH_EVALS = REGISTRY.counter(
    "repro_engine_batch_evals_total",
    "Candidate lanes evaluated by batched kernel dispatches.")
ENGINE_BATCH_DEDUP = REGISTRY.counter(
    "repro_engine_batch_dedup_total",
    "Batch candidates answered by in-brood phenotype deduplication.")
ENGINE_BATCH_SIZE = REGISTRY.histogram(
    "repro_engine_batch_size",
    "Lanes per batched kernel dispatch.",
    shift=0, buckets=14, scale=1.0)
#: Closed vocabulary of why an evaluation ran on the interpreter: a gate
#: function without an engine opcode, an output bus wider than the
#: decode's 62 bits, or a reference whose magnitude reaches 2**62.
FALLBACK_REASONS = ("no-opcode", "output-width", "reference-range")
ENGINE_FALLBACK = REGISTRY.counter(
    "repro_engine_fallback_total",
    "Evaluations an engine-backed evaluator served on the interpreter, "
    "by reason.",
    label="reason", values=FALLBACK_REASONS)
ENGINE_BACKEND = REGISTRY.gauge(
    "repro_engine_backend_active",
    "1 when an evaluator with this backend has been constructed.",
    label="backend", values=("native", "numpy"))

# -- library build -----------------------------------------------------
BUILD_CELLS_PLANNED = REGISTRY.gauge(
    "repro_build_cells_planned",
    "Grid cells in the currently running library build.")
BUILD_CELLS = REGISTRY.counter(
    "repro_build_cells_total",
    "Library-build cells finished, by admission status.",
    label="status", values=("added", "dominated", "duplicate", "resumed"))
BUILD_EVALUATIONS = REGISTRY.counter(
    "repro_build_evaluations_total",
    "Evolution evaluations spent by finished build cells.")
BUILD_CELL_SECONDS = REGISTRY.histogram(
    "repro_build_cell_seconds",
    "Wall time per finished build cell.",
    shift=20, buckets=24, scale=1e-9)
STORE_ADMISSIONS = REGISTRY.counter(
    "repro_store_admissions_total",
    "DesignStore.add() outcomes by Pareto admission status.",
    label="status", values=("added", "dominated", "duplicate"))
STORE_PRUNED = REGISTRY.counter(
    "repro_store_pruned_total",
    "Incumbent designs pruned after being dominated by an admission.")
BUILD_SHARD_INDEX = REGISTRY.gauge(
    "repro_build_shard_index",
    "Zero-based shard index of the currently running sharded build.")
BUILD_SHARD_COUNT = REGISTRY.gauge(
    "repro_build_shard_count",
    "Total shard count of the currently running sharded build (1 when "
    "unsharded).")
MERGE_SOURCES = REGISTRY.counter(
    "repro_merge_sources_total",
    "Input stores read by library merges.")
MERGE_ROWS = REGISTRY.counter(
    "repro_merge_rows_total",
    "Rows offered to library merges, by Pareto admission status.",
    label="status", values=("added", "dominated", "duplicate"))
MERGE_CELLS = REGISTRY.counter(
    "repro_merge_cells_total",
    "Build-cell checkpoints united into merge outputs.")

# -- tracing -----------------------------------------------------------
TRACE_SPANS = REGISTRY.counter(
    "repro_trace_spans_total",
    "Spans written to the REPRO_TRACE JSONL sink.")

#: Pre-resolved children for hot paths: one dict lookup, no Family call.
#: In disabled mode child_map() is empty, so every label maps onto the
#: shared null metric and the hot path stays a plain dict index.
HTTP_REQUESTS_BY_ROUTE = (HTTP_REQUESTS.child_map()
                          or {v: HTTP_REQUESTS for v in ROUTE_LABELS})
HTTP_LATENCY_BY_ROUTE = (HTTP_LATENCY.child_map()
                         or {v: HTTP_LATENCY for v in ROUTE_LABELS})


def route_label(name: object) -> str:
    """Map an arbitrary route name onto the closed label vocabulary."""
    return name if name in HTTP_REQUESTS_BY_ROUTE else "other"


def fleet_summary() -> Dict[str, object]:
    """Per-worker view of the shared slab for ``/healthz``.

    A lane is reported when it has recorded anything (a live worker
    always has: ``repro_worker_pid`` is set at server construction) or
    when it is this process's own lane.
    """
    if not REGISTRY.entries():
        return {"enabled": False, "lanes": 0, "workers": [],
                "requests_total": 0, "snapshot_rebuilds": 0}
    lanes = REGISTRY.lanes_view()
    workers: List[Dict[str, int]] = []
    for i in range(lanes.shape[0]):
        lane = lanes[i]
        own = i == REGISTRY.lane_index
        if not lane.any() and not own:
            continue
        pid = int(lane[WORKER_PID.slot])
        workers.append({
            "lane": i,
            "pid": pid or (os.getpid() if own else 0),
            "requests": HTTP_REQUESTS.lane_sum(lane),
            "snapshot_designs": int(lane[SNAPSHOT_DESIGNS.slot]),
            "snapshot_rebuilds": int(lane[SNAPSHOT_REBUILDS.slot]),
        })
    return {
        "enabled": True,
        "lanes": int(lanes.shape[0]),
        "workers": workers,
        "requests_total": HTTP_REQUESTS.total(),
        "snapshot_rebuilds": SNAPSHOT_REBUILDS.total(),
    }
