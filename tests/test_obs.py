"""Observability: metrics registry, shared slab, Prometheus text,
span tracing, and the instrumentation contracts of engine / library /
serve.

The acceptance-critical test here is
:func:`test_multiprocess_metrics_exact_aggregation`: under ``--procs 2``
the route-labelled request counters scraped from *any* worker must sum
to exactly the number of requests the client completed — the shared
slab is what makes that possible.
"""

import json
import os
import re
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.library import BuildSpec, DesignRecord, DesignStore, build_library
from repro.obs import catalog as obs_catalog
from repro.obs import trace as obs_trace
from repro.obs.export import CONTENT_TYPE, render_prometheus
from repro.obs.metrics import CAPACITY, MetricsRegistry, enabled, registry
from repro.serve import MultiProcessServer, ROUTES, ServeContext, handle

pytestmark = pytest.mark.skipif(
    not enabled(), reason="REPRO_OBS=0 disables the metrics registry"
)

_FORK_OK = sys.platform != "win32"

W = 2
SPEC = BuildSpec(
    components=("multiplier",),
    metrics=("wmed",),
    widths=(W,),
    thresholds_percent=(2.0,),
    generations=30,
    seed=7,
)


# ----------------------------------------------------------------------
# A strict Prometheus text-format (0.0.4) parser.
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def parse_prometheus(text: str):
    """Parse exposition text, raising AssertionError on any malformation.

    Returns ``(families, samples)`` where ``families`` maps family name
    to its TYPE and ``samples`` maps sample name to a list of
    ``(labels_dict, float_value)``.
    """
    families = {}
    samples = {}
    helped = set()
    current = None
    for lineno, line in enumerate(text.splitlines(), 1):
        assert line == line.rstrip(), f"line {lineno}: trailing whitespace"
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name = rest.split(" ", 1)[0]
            assert _NAME_RE.match(name), f"line {lineno}: bad HELP name"
            assert name not in helped, f"line {lineno}: duplicate HELP {name}"
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4, f"line {lineno}: malformed TYPE"
            name, kind = parts[2], parts[3]
            assert _NAME_RE.match(name), f"line {lineno}: bad TYPE name"
            assert kind in ("counter", "gauge", "histogram"), \
                f"line {lineno}: unknown type {kind!r}"
            assert name in helped, f"line {lineno}: TYPE {name} before HELP"
            assert name not in families, f"line {lineno}: duplicate TYPE"
            families[name] = kind
            current = name
            continue
        assert not line.startswith("#"), f"line {lineno}: stray comment"
        m = _SAMPLE_RE.match(line)
        assert m, f"line {lineno}: malformed sample {line!r}"
        name = m.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        family = name if name in families else base
        assert family in families, \
            f"line {lineno}: sample {name} has no TYPE"
        assert family == current, \
            f"line {lineno}: sample {name} outside its family block"
        if families[family] == "histogram":
            assert name != family, \
                f"line {lineno}: bare histogram sample {name}"
        labels = {}
        if m.group("labels"):
            for pair in m.group("labels").split(","):
                lm = _LABEL_RE.match(pair)
                assert lm, f"line {lineno}: malformed label {pair!r}"
                labels[lm.group(1)] = lm.group(2)
        value = float(m.group("value"))
        assert value == value, f"line {lineno}: NaN value"
        samples.setdefault(name, []).append((labels, value))
    return families, samples


def check_histogram(samples, name, labels=None):
    """Cumulative-bucket, le-ordering and count/sum invariants."""
    labels = labels or {}

    def rows(suffix):
        return [
            (lb, v) for lb, v in samples.get(name + suffix, [])
            if all(lb.get(k) == v2 for k, v2 in labels.items())
        ]

    buckets = rows("_bucket")
    assert buckets, f"no buckets for {name} {labels}"
    les = [lb["le"] for lb, _ in buckets]
    assert les[-1] == "+Inf", "last bucket must be +Inf"
    finite = [float(le) for le in les[:-1]]
    assert finite == sorted(finite), "le edges must ascend"
    values = [v for _, v in buckets]
    assert values == sorted(values), "bucket counts must be cumulative"
    (_, count), = rows("_count")
    (_, total), = rows("_sum")
    assert values[-1] == count, "+Inf bucket must equal _count"
    assert total >= 0
    return count, total


# ----------------------------------------------------------------------
# Catalog / registry
# ----------------------------------------------------------------------
def test_route_labels_match_route_table():
    # The catalog hard-codes route names (it must not import the serve
    # layer); this is the drift alarm.
    assert set(obs_catalog.ROUTE_LABELS) == (
        {r.name for r in ROUTES} | {"other"}
    )
    assert obs_catalog.route_label("best") == "best"
    assert obs_catalog.route_label(None) == "other"
    assert obs_catalog.route_label("no-such-route") == "other"


def test_registry_dedups_and_bounds():
    reg = registry()
    again = reg.counter("repro_engine_evals_total", "ignored duplicate")
    assert again is obs_catalog.ENGINE_EVALS
    assert 0 < reg._next_slot <= CAPACITY


def test_counter_gauge_basics():
    reg = MetricsRegistry(capacity=64)
    c = reg.counter("t_total", "t")
    g = reg.gauge("t_gauge", "t")
    fam = reg.counter("t_routes_total", "t", label="route", values=("a", "b"))
    c.inc()
    c.inc(4)
    g.set(17)
    fam.labels("a").inc(2)
    fam.labels("b").inc(3)
    assert c.value == c.total() == 5
    assert g.value == 17
    assert fam.total() == 5
    assert fam.child_map()["a"].value == 2
    assert fam.lane_sum(reg.lanes_view()[0]) == 5
    with pytest.raises(KeyError):
        fam.labels("nope")


# ----------------------------------------------------------------------
# Histogram buckets (property-tested boundaries)
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    raw=st.integers(min_value=-10, max_value=1 << 48),
    shift=st.integers(min_value=0, max_value=24),
    buckets=st.integers(min_value=2, max_value=28),
)
def test_histogram_bucket_boundaries(raw, shift, buckets):
    reg = MetricsRegistry(capacity=64)
    h = reg.histogram("t_h", "t", shift=shift, buckets=buckets)
    idx = h.bucket_index(raw)
    edges = h.finite_edges()
    assert len(edges) == buckets - 1
    assert 0 <= idx < buckets
    if idx < buckets - 1:
        assert raw <= edges[idx], "observation above its bucket edge"
    else:
        assert buckets < 2 or raw > edges[-1] or idx == buckets - 1
    if 0 < idx:
        assert raw > edges[idx - 1], "observation at or below previous edge"
    h.observe(raw)
    counts = h.counts()
    assert sum(counts) == 1 and counts[idx] == 1
    assert h.raw_sum() == max(int(raw), 0)


def test_histogram_exposition_invariants():
    reg = MetricsRegistry(capacity=64)
    h = reg.histogram("t_lat_seconds", "t", shift=2, buckets=6, scale=1e-9)
    for raw in (0, 1, 4, 5, 8, 1000, 10**12):
        h.observe(raw)
    families, samples = parse_prometheus(render_prometheus(reg))
    assert families["t_lat_seconds"] == "histogram"
    count, total = check_histogram(samples, "t_lat_seconds")
    assert count == 7
    assert total == pytest.approx((1 + 4 + 5 + 8 + 1000 + 10**12) * 1e-9)
    # le values are the finite raw edges scaled into seconds.
    les = [lb["le"] for lb, _ in samples["t_lat_seconds_bucket"]]
    assert les[0] == "4e-09" and les[-1] == "+Inf"


# ----------------------------------------------------------------------
# Shared slab
# ----------------------------------------------------------------------
def _twin_registry() -> MetricsRegistry:
    """A registry with one fixed catalog (same digest every call)."""
    reg = MetricsRegistry(capacity=128)
    reg.counter("t_req_total", "t", label="route", values=("a", "b"))
    reg.gauge("t_pid", "t")
    reg.histogram("t_h", "t", shift=0, buckets=4)
    return reg


def test_slab_round_trip(tmp_path):
    writer0, writer1, reader = (
        _twin_registry(), _twin_registry(), _twin_registry()
    )
    path = writer0.create_slab(2, dir=str(tmp_path))
    writer0.attach(path, 0)
    writer1.attach(path, 1)
    writer0.get("t_req_total").labels("a").inc(5)
    writer1.get("t_req_total").labels("a").inc(7)
    writer1.get("t_req_total").labels("b").inc(1)
    writer0.get("t_pid").set(111)
    writer1.get("t_pid").set(222)
    # Either attached registry sees the fleet-wide sum.
    assert writer0.get("t_req_total").total() == 13
    assert writer1.get("t_req_total").total() == 13
    assert writer0.get("t_req_total").labels("a").per_lane() == [5, 7]
    # A detached reader can snapshot the slab by file alone.
    lanes = reader.read_slab(path)
    assert lanes.shape == (2, 128)
    assert int(lanes[:, reader.get("t_pid").slot].max()) == 222
    text = render_prometheus(reader, lanes=lanes)
    _, samples = parse_prometheus(text)
    assert samples["t_req_total"] == [
        ({"route": "a"}, 12.0), ({"route": "b"}, 1.0),
    ]
    # Gauges render per worker lane instead of summing.
    pid_rows = dict(
        (lb["worker"], v) for lb, v in samples["t_pid"]
    )
    assert pid_rows == {"0": 111.0, "1": 222.0}
    os.unlink(path)


def test_slab_rejects_catalog_drift(tmp_path):
    writer = _twin_registry()
    path = writer.create_slab(1, dir=str(tmp_path))
    other = MetricsRegistry(capacity=128)
    other.counter("different_total", "t")
    with pytest.raises(ValueError, match="digest"):
        other.attach(path, 0)
    with pytest.raises(ValueError, match="lane"):
        writer.attach(path, 5)
    os.unlink(path)


def test_slab_attach_does_not_copy_inherited_counts(tmp_path):
    # A forked worker inherits the supervisor's counts; copying them
    # into its lane would duplicate them once per worker.
    reg = _twin_registry()
    reg.get("t_req_total").labels("a").inc(99)
    path = reg.create_slab(2, dir=str(tmp_path))
    reg.attach(path, 0)
    assert reg.get("t_req_total").total() == 0
    os.unlink(path)


# ----------------------------------------------------------------------
# Dual-write bit-identity: legacy stats() dicts are untouched, and the
# registry observes exactly the same events.
# ----------------------------------------------------------------------
def test_engine_stats_shape_and_registry_deltas():
    from repro.analysis.sweep import make_objective
    from repro.core import EvolutionConfig, evolve, get_component
    from repro.core.seeding import netlist_to_chromosome, params_for_netlist
    from repro.errors.distributions import distribution_from_spec

    dist = distribution_from_spec("uniform", W, False)
    comp = get_component("multiplier")
    seed_net = comp.build_seed(W, False)
    seed = netlist_to_chromosome(seed_net, params_for_netlist(seed_net))
    before = {
        "batch_calls": obs_catalog.ENGINE_BATCH_CALLS.value,
        "batch_evals": obs_catalog.ENGINE_BATCH_EVALS.value,
        "batch_dedup": obs_catalog.ENGINE_BATCH_DEDUP.value,
        "cache_hits": obs_catalog.ENGINE_CACHE_HITS.value,
        "cache_misses": obs_catalog.ENGINE_CACHE_MISSES.value,
        "evals": obs_catalog.ENGINE_EVALS.value,
    }
    evaluator = make_objective(W, dist)
    evolve(seed, evaluator, threshold=0.02,
           config=EvolutionConfig(generations=25),
           rng=np.random.default_rng(0))
    stats = evaluator.stats()
    # The legacy dict shapes are pinned bit-for-bit: same keys, values
    # sourced from the per-instance counters exactly as before.
    assert set(stats) == {
        "backend", "cache", "fast_reduce", "runtimes", "fallback", "batch",
        "omp",
    }
    assert set(stats["batch"]) == {"calls", "evals", "dedup"}
    # Every evaluation ran compiled: no fallback reason to list.
    assert stats["fallback"] == []
    assert set(stats["cache"]) == {
        "entries", "max_entries", "hits", "misses", "hit_rate",
    }
    # And the global registry saw exactly the same events.
    assert (obs_catalog.ENGINE_BATCH_CALLS.value - before["batch_calls"]
            == stats["batch"]["calls"])
    assert (obs_catalog.ENGINE_BATCH_EVALS.value - before["batch_evals"]
            == stats["batch"]["evals"])
    assert (obs_catalog.ENGINE_BATCH_DEDUP.value - before["batch_dedup"]
            == stats["batch"]["dedup"])
    assert (obs_catalog.ENGINE_CACHE_HITS.value - before["cache_hits"]
            == stats["cache"]["hits"])
    assert (obs_catalog.ENGINE_CACHE_MISSES.value - before["cache_misses"]
            == stats["cache"]["misses"])
    assert obs_catalog.ENGINE_EVALS.value > before["evals"]
    assert obs_catalog.ENGINE_BACKEND.labels(evaluator.backend).value == 1


def test_response_cache_stats_shape_and_registry_deltas():
    from repro.serve import ResponseCache

    before_h = obs_catalog.RESPONSE_CACHE_HITS.value
    before_m = obs_catalog.RESPONSE_CACHE_MISSES.value
    cache = ResponseCache(maxsize=4)
    assert cache.get("k") is None
    cache.put("k", "v")
    assert cache.get("k") == "v"
    assert cache.get("k") == "v"
    stats = cache.stats()
    assert set(stats) == {"pid", "entries", "maxsize", "hits", "misses"}
    assert stats["hits"] == 2 and stats["misses"] == 1
    assert obs_catalog.RESPONSE_CACHE_HITS.value - before_h == 2
    assert obs_catalog.RESPONSE_CACHE_MISSES.value - before_m == 1


def test_store_admission_counters(tmp_path):
    def rec(error, area, design_id):
        return DesignRecord(
            design_id=design_id, component="multiplier", width=2,
            signed=False, metric="wmed", dist="Du", threshold_percent=1.0,
            error=error, area=area, power_uw=1.0, delay_ps=1.0, pdp=1.0,
            wmed=error, med=error, mred=error, error_rate=0.5,
            worst_case=1, bias=0.0, gates=3, chromosome="x",
        )

    store = DesignStore(str(tmp_path / "adm.sqlite"))
    before = {
        v: c.value for v, c in obs_catalog.STORE_ADMISSIONS.child_map().items()
    }
    before_pruned = obs_catalog.STORE_PRUNED.value
    assert store.add(rec(0.5, 100.0, "a" * 32)) == "added"
    assert store.add(rec(0.5, 100.0, "a" * 32)) == "duplicate"
    assert store.add(rec(0.6, 200.0, "b" * 32)) == "dominated"
    # Dominates the incumbent -> added, one row pruned.
    assert store.add(rec(0.4, 90.0, "c" * 32)) == "added"
    deltas = {
        v: c.value - before[v]
        for v, c in obs_catalog.STORE_ADMISSIONS.child_map().items()
    }
    assert deltas == {"added": 2, "duplicate": 1, "dominated": 1}
    assert obs_catalog.STORE_PRUNED.value - before_pruned == 1


# ----------------------------------------------------------------------
# Trace round trip: build.cell -> evolve.run nesting across a real build
# ----------------------------------------------------------------------
def test_trace_round_trip_build_nesting(tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    obs_trace.configure(trace_path)
    try:
        store = DesignStore(str(tmp_path / "lib.sqlite"))
        build_library(store, SPEC, max_workers=1, executor="thread")
    finally:
        obs_trace.configure(os.environ.get("REPRO_TRACE") or None)
    spans = list(obs_trace.read_spans(trace_path))
    cells = [s for s in spans if s["name"] == "build.cell"]
    runs = [s for s in spans if s["name"] == "evolve.run"]
    assert len(cells) == len(SPEC.cells()) == len(runs)
    cell_ids = {c["id"] for c in cells}
    for run in runs:
        # evolve.run nests under the build.cell that spawned it.
        assert run["parent"] in cell_ids
        assert run["dur_ns"] > 0
        assert set(run["tags"]) >= {"threshold", "lam", "generations",
                                    "evaluations"}
    for cell in cells:
        assert cell["parent"] is None
        assert cell["tags"]["component"] == "multiplier"
        assert cell["tags"]["width"] == W
        assert cell["pid"] == os.getpid()
        parent_dur = cell["dur_ns"]
        child = next(r for r in runs if r["parent"] == cell["id"])
        assert child["dur_ns"] <= parent_dur
    # JSONL round-trips through json exactly (tail/summary feed on this).
    with open(trace_path) as f:
        for line in f:
            assert json.loads(line)
    summary = obs_trace.summarize(spans)
    assert summary["build.cell"]["count"] == len(cells)
    assert summary["build.cell"]["total_ms"] >= summary["evolve.run"]["total_ms"]


def test_trace_disabled_is_noop_singleton(tmp_path):
    obs_trace.configure(None)
    try:
        a = obs_trace.span("x", k=1)
        b = obs_trace.span("y")
        assert a is b  # the shared null span: no allocation when off
        with a as sp:
            sp.tag(more=2)
        assert not obs_trace.enabled()
    finally:
        obs_trace.configure(os.environ.get("REPRO_TRACE") or None)


def test_trace_skips_torn_lines(tmp_path):
    p = tmp_path / "torn.jsonl"
    p.write_text('{"name":"a","dur_ns":5}\n{"name":"b","dur_n\n\n')
    spans = list(obs_trace.read_spans(str(p)))
    assert [s["name"] for s in spans] == ["a"]


# ----------------------------------------------------------------------
# /metrics endpoint + /healthz fleet block (dispatch level)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    db = str(tmp_path_factory.mktemp("obs") / "lib.sqlite")
    store = DesignStore(db)
    build_library(store, SPEC, max_workers=1, executor="thread")
    return ServeContext(store=store)


def test_metrics_endpoint_is_strict_prometheus(ctx):
    r = handle(ctx, "GET", "/metrics")
    assert r.status == 200
    assert r.content_type == CONTENT_TYPE
    families, samples = parse_prometheus(r.body.decode("utf-8"))
    for name, kind in [
        ("repro_http_requests_total", "counter"),
        ("repro_http_request_seconds", "histogram"),
        ("repro_engine_evals_total", "counter"),
        ("repro_engine_batch_size", "histogram"),
        ("repro_build_cells_total", "counter"),
        ("repro_store_admissions_total", "counter"),
        ("repro_serve_snapshot_designs", "gauge"),
    ]:
        assert families[name] == kind
    for label in obs_catalog.ROUTE_LABELS:
        check_histogram(samples, "repro_http_request_seconds",
                        {"route": label})


def test_request_counters_track_dispatch(ctx):
    def route_count(samples, route):
        for labels, value in samples["repro_http_requests_total"]:
            if labels == {"route": route}:
                return value
        return 0.0

    _, before = parse_prometheus(
        handle(ctx, "GET", "/metrics").body.decode())
    for _ in range(3):
        assert handle(ctx, "GET", "/healthz").status == 200
    assert handle(ctx, "GET", "/v1/stats").status == 200
    _, after = parse_prometheus(
        handle(ctx, "GET", "/metrics").body.decode())
    assert route_count(after, "health") - route_count(before, "health") == 3
    assert route_count(after, "stats") - route_count(before, "stats") == 1
    # The scrape counts itself only after rendering: the first scrape is
    # visible in the second, never in its own body.
    assert route_count(after, "metrics") - route_count(before, "metrics") == 1


def test_metrics_route_is_never_cached(ctx):
    route = next(r for r in ROUTES if r.name == "metrics")
    assert not route.cached
    assert route.media_type == "text/plain"
    r = handle(ctx, "GET", "/metrics")
    assert "ETag" not in dict(r.headers)


def test_healthz_fleet_block(ctx):
    body = handle(ctx, "GET", "/healthz").json()
    fleet = body["fleet"]
    assert fleet["enabled"] is True
    assert fleet["lanes"] == 1
    (worker,) = fleet["workers"]
    assert worker["lane"] == 0 and worker["pid"] == os.getpid()
    assert fleet["requests_total"] >= worker["requests"] >= 0
    assert isinstance(fleet["snapshot_rebuilds"], int)


# ----------------------------------------------------------------------
# THE acceptance test: exact fleet-wide request counts under --procs 2.
# ----------------------------------------------------------------------
@pytest.mark.skipif(not _FORK_OK, reason="needs fork()")
def test_multiprocess_metrics_exact_aggregation(tmp_path):
    db = str(tmp_path / "lib.sqlite")
    build_library(DesignStore(db), SPEC, max_workers=1, executor="thread")
    with MultiProcessServer(db, port=0, procs=2, quiet=True) as mps:
        base = f"http://127.0.0.1:{mps.port}"
        completed = 0
        # Mix of dispatcher-path and wire-fast-path (repeated URL)
        # requests, spread across workers by the kernel.
        for i in range(30):
            path = ("/healthz", "/v1/stats",
                    f"/v1/front?component=multiplier&width={W}")[i % 3]
            with urllib.request.urlopen(base + path) as resp:
                assert resp.status == 200
                resp.read()
            completed += 1

        def scrape():
            with urllib.request.urlopen(base + "/metrics") as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                return resp.read().decode("utf-8")

        # The wire fast path increments its counter just *after* the
        # response bytes go out, so allow a few retries for the last
        # in-flight increment to land — the assertion itself is exact.
        for attempt in range(40):
            _, samples = parse_prometheus(scrape())
            total = sum(v for _, v in samples["repro_http_requests_total"])
            expected = completed + attempt  # prior scrapes count too
            if total == expected:
                break
            time.sleep(0.05)
        assert total == expected, (
            f"fleet counter {total} != client-completed {expected}"
        )
        # Both workers are visible from one scrape: per-worker pid
        # gauges and the /healthz fleet block agree with the supervisor.
        pid_rows = {
            labels["worker"]: int(value)
            for labels, value in samples["repro_worker_pid"]
        }
        assert sorted(pid_rows.values()) == sorted(mps.pids)
        with urllib.request.urlopen(base + "/healthz") as resp:
            fleet = json.loads(resp.read())["fleet"]
        assert fleet["lanes"] == 2
        assert sorted(w["pid"] for w in fleet["workers"]) == sorted(mps.pids)
        slab = mps._slab
        assert slab is not None and os.path.exists(slab)
    assert not os.path.exists(slab)  # stop() unlinks the slab


# ----------------------------------------------------------------------
# Disabled mode (REPRO_OBS=0) — exercised in a subprocess because the
# registry is constructed at import time.
# ----------------------------------------------------------------------
def test_disabled_mode_is_null(tmp_path):
    code = """
import repro.obs as obs
from repro.obs.catalog import (ENGINE_EVALS, HTTP_REQUESTS,
                               HTTP_REQUESTS_BY_ROUTE, ROUTE_LABELS,
                               fleet_summary)
from repro.obs.metrics import NULL_METRIC, enabled

assert not enabled()
assert ENGINE_EVALS is NULL_METRIC
assert HTTP_REQUESTS.labels("best") is NULL_METRIC
# The hot-path dict still covers every route label.
assert set(HTTP_REQUESTS_BY_ROUTE) == set(ROUTE_LABELS)
HTTP_REQUESTS_BY_ROUTE["best"].inc()
ENGINE_EVALS.inc(5)
assert ENGINE_EVALS.value == 0
assert obs.render_prometheus().startswith("# repro observability disabled")
assert fleet_summary() == {"enabled": False, "lanes": 0, "workers": [],
                           "requests_total": 0, "snapshot_rebuilds": 0}
assert obs.create_slab(4) is None
obs.attach_worker(None, 0)
with obs.span("x", k=1) as sp:
    sp.tag(done=True)
print("ok")
"""
    env = dict(os.environ, REPRO_OBS="0", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# CLI: repro obs dump / tail
# ----------------------------------------------------------------------
def test_cli_obs_dump_local_and_slab(tmp_path, capsys):
    from repro.cli import main

    assert main(["obs", "dump"]) == 0
    text = capsys.readouterr().out
    families, _ = parse_prometheus(text)
    assert "repro_http_requests_total" in families

    reg = registry()
    path = reg.create_slab(2, dir=str(tmp_path))
    try:
        assert main(["obs", "dump", "--slab", path]) == 0
        families, _ = parse_prometheus(capsys.readouterr().out)
        assert "repro_engine_evals_total" in families
    finally:
        os.unlink(path)
        reg.slab_path = None


def test_cli_obs_tail_and_summary(tmp_path, capsys):
    from repro.cli import main

    trace_path = str(tmp_path / "t.jsonl")
    obs_trace.configure(trace_path)
    try:
        with obs_trace.span("outer", job="x"):
            with obs_trace.span("inner"):
                pass
    finally:
        obs_trace.configure(os.environ.get("REPRO_TRACE") or None)
    assert main(["obs", "tail", trace_path]) == 0
    out = capsys.readouterr().out
    assert "outer" in out and "inner" in out and "job=x" in out
    assert main(["obs", "tail", trace_path, "--summary"]) == 0
    out = capsys.readouterr().out
    assert "span" in out and "count" in out
    with pytest.raises(SystemExit, match="cannot read trace"):
        main(["obs", "tail", str(tmp_path / "missing.jsonl")])


def test_cli_build_progress_heartbeat(tmp_path, capsys):
    from repro.cli import main

    db = str(tmp_path / "b.sqlite")
    assert main([
        "library", "build", "--db", db, "--widths", str(W),
        "--thresholds", "2", "--generations", "20",
        "--max-workers", "1", "--executor", "thread", "--progress",
    ]) == 0
    # Too fast for a 2 s heartbeat tick, but the report still prints;
    # --quiet silences everything including the heartbeat.
    assert "cells:" in capsys.readouterr().out
    assert main([
        "library", "build", "--db", db, "--widths", str(W),
        "--thresholds", "2", "--generations", "20",
        "--max-workers", "1", "--executor", "thread",
        "--progress", "--quiet",
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[progress]" not in captured.err


# ----------------------------------------------------------------------
# Builder counters
# ----------------------------------------------------------------------
def test_build_counters_and_resume(tmp_path):
    store = DesignStore(str(tmp_path / "lib.sqlite"))
    cells = obs_catalog.BUILD_CELLS.child_map()
    before = {v: c.value for v, c in cells.items()}
    before_evals = obs_catalog.BUILD_EVALUATIONS.value
    before_seconds = sum(obs_catalog.BUILD_CELL_SECONDS.counts())
    report = build_library(store, SPEC, max_workers=1, executor="thread")
    assert obs_catalog.BUILD_CELLS_PLANNED.value == report.cells_total
    assert cells["added"].value - before["added"] == report.added
    assert cells["resumed"].value - before["resumed"] == 0
    assert (sum(obs_catalog.BUILD_CELL_SECONDS.counts()) - before_seconds
            == report.cells_run)
    assert obs_catalog.BUILD_EVALUATIONS.value > before_evals
    # Re-running the same spec resumes every cell, exactly once each.
    report2 = build_library(store, SPEC, max_workers=1, executor="thread")
    assert report2.cells_skipped == report.cells_total
    assert (cells["resumed"].value - before["resumed"]
            == report.cells_total)
