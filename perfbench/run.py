"""Repository benchmark: four workloads through the program's public APIs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload evolve-d2-w8 --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh process with the program's defaults: no
``REPRO_*`` knob and no thread-count variable reaches it (the only
variables set point the native-kernel cache and temporary files into
``perfbench/_work``).  An untimed prepare process builds the kernel
cache first.  ``--trace 0`` prints the end-to-end metrics, timings
scaled to a reference host (``hostspeed.py``); ``--trace 1`` runs an
untraced and then a traced window of the same work and prints the
per-layer metrics.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is
non-zero when any output check failed.  ``perfbench/README.md``
explains the workloads and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from time import perf_counter_ns
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
# The program itself is imported only by the oracle, after the windows.
sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench import hostspeed, plan  # noqa: E402
from perfbench.client import Connection, get, scrape  # noqa: E402
from perfbench.layers import LAYERS  # noqa: E402
from perfbench.summary import median, percentile  # noqa: E402

WORK = os.path.join(ROOT, "perfbench", "_work")

#: Routes whose server-side time /metrics reports per request.
SERVE_ROUTES = ("best", "front", "stats", "design")

#: Seconds a workload process may take (the first prepare in a fresh
#: checkout compiles the native kernel).
PREPARE_TIMEOUT = 600
RUN_TIMEOUT = 170

#: Fresh processes whose native-kernel load ``setup_s`` takes the
#: median of (evolve and library-build).
LOAD_SAMPLES = 5


class Failure(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def child_env(workdir: str) -> Dict[str, str]:
    """The program's defaults: strip every REPRO_* knob and every
    thread-count variable; keep the kernel cache and temporary files
    inside the checkout."""
    env = {
        k: v for k, v in os.environ.items()
        if not (k.startswith(("REPRO_", "OMP_", "GOMP_"))
                or k.endswith("_NUM_THREADS"))
    }
    env["REPRO_ENGINE_CACHE"] = os.path.join(WORK, "engine-cache")
    env["TMPDIR"] = workdir
    return env


def worker_cmd(mode: str, args, workdir: str, **extra) -> List[str]:
    cmd = [sys.executable, "-m", "perfbench.worker", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    for key, value in extra.items():
        cmd += [f"--{key}", value]
    return cmd


def run_worker(mode: str, args, workdir: str, env, timeout: float,
               **extra) -> dict:
    out = os.path.join(workdir, f"{mode}.json")
    proc = subprocess.run(
        worker_cmd(mode, args, workdir, out=out, **extra),
        cwd=ROOT, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise Failure(f"{mode} process exited with {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


#: The host-bound end-to-end metrics: measured raw and in
#: reference-host time (``hostspeed.py``).
TIMINGS = (("setup_s", "s"), ("ops_per_s", "1/s"), ("cpu_ms_per_op", "ms"),
           ("latency_p50_ms", "ms"))


def setup_seconds(samples) -> Dict[str, float]:
    """Median of ``[seconds, reference ns]`` set-up samples: ``raw``,
    and ``ref`` with each divided by its reference's speed factor."""
    return {
        "raw": median([s for s, _ in samples]),
        "ref": median([s / hostspeed.factor([ref]) for s, ref in samples]),
    }


def end_to_end(workload: str, timings: Dict[str, Dict[str, float]],
               area: float, rss_mb: float) -> Dict:
    """The reported end-to-end metrics: ``setup_s`` always, and the work
    timings of host-bound workloads, in reference-host time; the rest
    raw."""
    out = {}
    for name, unit in TIMINGS:
        scaled = name == "setup_s" or workload in plan.HOST_BOUND
        out[name] = metric(timings[name]["ref" if scaled else "raw"], unit)
    out["design_area_um2"] = metric(area, "um2")
    out["peak_rss_mb"] = metric(rss_mb, "MB")
    return out


#: Per-layer metrics outside the layer table, with their units; every
#: traced run reports all of them (0 where a workload has none).
EXTRA_LAYER_METRICS = (
    ("engine.lanes_per_call", "count"),
    ("core.neutral_skip_ratio", "share"),
    ("engine.cache_hit_ratio", "share"),
    ("engine.dedup_ratio", "share"),
    ("engine.interpreted_ratio", "share"),
    ("library.admitted_ratio", "share"),
    ("serve.wire_hit_ratio", "share"),
    ("serve.response_cache_hit_ratio", "share"),
    ("serve.dispatch_calls", "count"),
    ("serve.not_modified", "share"),
    ("serve.snapshot_rebuilds", "count"),
    *((f"serve.server_ms.{route}", "ms") for route in SERVE_ROUTES),
    ("serve.http_ms", "ms"),
    # serve-mixed's tail latency in the untraced window: reported here,
    # without a bound, because its run-to-run spread on a 2-vCPU VM is
    # far wider than any useful bound (see README).
    ("latency_p99_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.residual_share", "share"),
    ("trace.overhead", "share"),
)


def per_layer_names() -> List[Tuple[str, str]]:
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls_per_op", "count"),
                  (f"{layer}.self_ms_per_op", "ms"),
                  (f"{layer}.share", "share")]
    return names + list(EXTRA_LAYER_METRICS)


def per_layer(trace: dict, ops: int, wall_ms_per_op: float,
              overhead: float, extra: Dict[str, float]) -> Dict:
    """Per-layer metrics of one traced window.

    ``wall_ms_per_op`` is the time the layers must account for: the
    traced window's wall time per op (per request on the client's
    clock for ``serve-mixed``).  The residual is what no named layer
    covers.
    """
    values = {name: 0.0 for name, _ in per_layer_names()}
    self_total = 0.0
    for layer, (calls, self_ns) in trace["layers"].items():
        self_ms = self_ns / 1e6 / ops
        self_total += self_ms
        values[f"{layer}.calls_per_op"] = calls / ops
        values[f"{layer}.self_ms_per_op"] = self_ms
        values[f"{layer}.share"] = self_ms / wall_ms_per_op
    kernel_calls = trace["layers"].get("engine.kernel", (0, 0))[0]
    if kernel_calls:
        values["engine.lanes_per_call"] = (
            trace["counts"].get("engine.kernel", 0) / kernel_calls
        )
    residual = wall_ms_per_op - self_total
    values.update(extra)
    values["trace.wall_ms"] = wall_ms_per_op
    values["trace.residual_ms"] = residual
    values["trace.residual_share"] = residual / wall_ms_per_op
    values["trace.overhead"] = overhead
    units = dict(per_layer_names())
    return {name: metric(values[name], units[name]) for name in units}


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def native_loads(args, workdir: str, env) -> List[list]:
    """``[seconds, reference ns]`` native-kernel loads of
    ``LOAD_SAMPLES`` fresh processes.

    A process loads the kernel once, so one run gives one sample; the
    median of several is what ``setup_s`` adds for the load.
    """
    out = []
    for _ in range(LOAD_SAMPLES):
        res = run_worker("load", args, workdir, env, RUN_TIMEOUT)
        out.append([res["load_s"], res["ref_ns"]])
    return out


def run_inprocess(args, env_info: dict, workdir: str, env) -> dict:
    loads = native_loads(args, workdir, env)
    res = run_worker("run", args, workdir, env, RUN_TIMEOUT,
                     spans=spans_path(args.workload))
    timed = res["timed"]
    failed = res["failed"]
    errors = list(res["errors"])
    if env_info["native"] and res["backend"] != "native":
        failed = timed["ops"]
        errors.append(f"prepare found the native kernel but the run "
                      f"used {res['backend']}")
    slices = timed["slices"]
    work = timed["work"]
    ops = timed["ops"]
    setup = setup_seconds(res["setups"])
    load = setup_seconds(loads)
    setup_parts = {"set-up": setup, "native load": load}
    timings = {
        "setup_s": {k: setup[k] + load[k] for k in setup},
        "ops_per_s": {"raw": ops / (work["wall_ns"] / 1e9),
                      "ref": ops / (work["ref_wall_ns"] / 1e9)},
        "cpu_ms_per_op": {"raw": work["cpu_ns"] / 1e6 / ops,
                          "ref": work["ref_cpu_ns"] / 1e6 / ops},
        "latency_p50_ms": {"raw": work["latency_p50_ms"],
                           "ref": work["ref_latency_p50_ms"]},
    }
    report = {
        "attempted": timed["ops"], "failed": failed, "errors": errors,
        "backend": res["backend"],
        "timings": timings,
        "setup_parts": setup_parts,
        "host": work["wall_ns"] / work["ref_wall_ns"],
        "factors": work["factors"],
        "counts": {
            "ops": timed["ops"], "calls": len(slices),
            "host slices": len(work["factors"]),
            "latency samples": timed["latency_n"],
            "setup samples": len(res["setups"]),
            "load samples": len(loads),
        },
    }
    if args.trace:
        traced = res["traced"]
        # The traced window has references only between its calls.
        traced_rate = traced["ops"] / sum(
            ns / f for _, ns, _, f in traced["slices"])
        trace = traced["trace"]
        report["metrics"] = per_layer(
            trace, traced["ops"], trace["wall_ns"] / 1e6 / traced["ops"],
            1.0 - traced_rate / (ops / work["ref_wall_ns"]),
            timed["ratios"],
        )
        report["counts"]["traced ops"] = traced["ops"]
        report["counts"]["spans"] = trace["spans"]
    else:
        report["metrics"] = end_to_end(args.workload, timings, res["area"],
                                       timed["rss_mb"])
    return report


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class ServerProcess:
    """The server worker, driven line by line over stdin/stdout."""

    def __init__(self, args, workdir: str, env, db: str) -> None:
        self.proc = subprocess.Popen(
            worker_cmd("serve", args, workdir, db=db,
                       spans=spans_path(args.workload)),
            cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.ready = self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise Failure(
                f"server process exited with {self.proc.wait(timeout=10)}"
            )
        return json.loads(line)

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def command(self, text: str) -> dict:
        self.send(text)
        return self._reply()

    def mark(self) -> dict:
        """The server's ``mark``, with ``ref_ns`` the mean of the
        references the server and this process time at once: the two
        processes run on the two cores, and the host slows each core on
        its own."""
        self.send("mark")
        ref = hostspeed.reference_ns()
        reply = self._reply()
        reply["ref_ns"] = (reply["ref_ns"] + ref) / 2
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def counter_delta(m0: dict, m1: dict, key: str) -> float:
    return m1.get(key, 0.0) - m0.get(key, 0.0)


def serve_window(server: ServerProcess, port: int, seed: int, window: int,
                 seconds: float, design_ids, etags) -> dict:
    """One closed-loop window over two keep-alive connections.

    The window is cut into slices of ``plan.SERVE_SLICE_S``.  Between
    slices both connections pause while the server process reads its
    CPU time and both processes time the host-speed reference; a
    slice's speed factor is the mean of the references at its ends.
    Rates are medians over slices; each latency is also divided by its
    slice's factor.
    """
    m0 = scrape(port)
    conns = [
        Connection(port, plan.request_stream(seed, window, conn, design_ids),
                   etags)
        for conn in (0, 1)
    ]
    slice_ns = int(plan.SERVE_SLICE_S * 1e9)
    mark = server.mark()
    slices: List[dict] = []
    latencies: List[int] = []
    scaled: List[float] = []
    try:
        while (sum(x["wall_ns"] for x in slices) < seconds * 1e9
               or len(latencies) < plan.MIN_LATENCY_SAMPLES):
            if any(c.sock is None for c in conns):
                break
            before = [len(c.result.latencies_ns) for c in conns]
            t0 = perf_counter_ns()
            threads = [threading.Thread(target=c.run_until,
                                        args=(t0 + slice_ns,))
                       for c in conns]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            t1 = perf_counter_ns()
            end = server.mark()
            factor = hostspeed.factor([mark["ref_ns"], end["ref_ns"]])
            lat = [x for c, lo in zip(conns, before)
                   for x in c.result.latencies_ns[lo:]]
            slices.append({
                "requests": len(lat), "wall_ns": t1 - t0,
                "cpu_s": end["cpu_s"] - mark["cpu_after_s"],
                "factor": factor,
            })
            latencies += lat
            scaled += [x / factor for x in lat]
            mark = end
    finally:
        for c in conns:
            c.close()
    m1 = scrape(port)
    results = [c.result for c in conns]
    requests = len(latencies)
    if requests < plan.MIN_LATENCY_SAMPLES:
        raise Failure(f"only {requests} requests completed")
    extra = {
        "serve.wire_hit_ratio": counter_delta(
            m0, m1, "repro_http_wire_hits_total") / requests,
        "serve.dispatch_calls": (
            counter_delta(m0, m1, "repro_http_dispatch_total")
            - counter_delta(m0, m1,
                            'repro_http_requests_total{route="metrics"}')
        ) / requests,
        "serve.not_modified": counter_delta(
            m0, m1, "repro_http_not_modified_total") / requests,
        "serve.snapshot_rebuilds": counter_delta(
            m0, m1, "repro_serve_snapshot_rebuilds_total"),
    }
    hits = counter_delta(m0, m1, "repro_serve_response_cache_hits_total")
    misses = counter_delta(m0, m1,
                           "repro_serve_response_cache_misses_total")
    extra["serve.response_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    for route in SERVE_ROUTES:
        label = f'{{route="{route}"}}'
        count = counter_delta(
            m0, m1, f"repro_http_request_seconds_count{label}")
        total = counter_delta(
            m0, m1, f"repro_http_request_seconds_sum{label}")
        extra[f"serve.server_ms.{route}"] = 1e3 * total / count if count \
            else 0.0
    return {
        "requests": requests,
        "slices": [x for x in slices if x["requests"]],
        "rss_mb": mark["rss_mb"],
        "latencies_ns": latencies,
        "scaled_ns": scaled,
        "failed": sum(r.failed for r in results),
        "errors": results[0].errors + results[1].errors,
        "kept": results[0].kept + results[1].kept,
        "extra": extra,
    }


def serve_timings(window: dict) -> Dict[str, Dict[str, float]]:
    """A serve window's work timings, raw and in reference-host time."""
    slices = window["slices"]
    return {
        "ops_per_s": {
            "raw": median([x["requests"] / (x["wall_ns"] / 1e9)
                           for x in slices]),
            "ref": median([x["requests"] * x["factor"] / (x["wall_ns"] / 1e9)
                           for x in slices]),
        },
        "cpu_ms_per_op": {
            "raw": median([1e3 * x["cpu_s"] / x["requests"]
                           for x in slices]),
            "ref": median([1e3 * x["cpu_s"] / x["requests"] / x["factor"]
                           for x in slices]),
        },
        "latency_p50_ms": {"raw": median(window["latencies_ns"]) / 1e6,
                           "ref": median(window["scaled_ns"]) / 1e6},
    }


def oracle_mismatches(db: str, kept, etags) -> List[str]:
    """Compare kept bodies with the query API's own rendering.

    The oracle renders straight from ``repro.library.query`` over the
    same store file, so every memo layer of the server (snapshot,
    response cache, wire cache, ETags) is checked end to end.
    """
    from urllib.parse import parse_qsl, urlsplit

    from repro.library import DesignStore, best, front, stats
    from repro.library.export import record_verilog
    from repro.serve import record_to_json
    from repro.serve.api import json_response

    store = DesignStore(db)
    expected: Dict[str, bytes] = {}

    def render(target: str) -> bytes:
        url = urlsplit(target)
        query = dict(parse_qsl(url.query))
        if url.path == "/v1/stats":
            return json_response(200, stats(store)).body
        if url.path.startswith("/v1/designs/"):
            prefix = url.path.rsplit("/", 1)[1]
            record = store.select(design_id_prefix=prefix)[0]
            return record_verilog(record).encode("utf-8")
        select = (query["component"], int(query["width"]), query["metric"])
        if url.path == "/v1/front":
            records = front(store, *select)
            return json_response(200, {
                "count": len(records),
                "designs": [record_to_json(r) for r in records],
            }).body
        record = best(store, *select, minimize="area",
                      max_error_percent=float(query["max_error_percent"]))
        return json_response(200, {"design": record_to_json(record)}).body

    bad = []
    for request, status, etag, body in kept:
        if request.kind == plan.REVALIDATE:
            ok = body == b"" and etag.decode() == etags[request.target]
        else:
            if request.target not in expected:
                expected[request.target] = render(request.target)
            ok = body == expected[request.target]
        if not ok:
            bad.append(f"{request.kind} {request.target}: body differs "
                       "from the query API")
    return bad


def run_serve(args, prep: dict, workdir: str, env) -> dict:
    env_info = prep["env"]
    db = prep["db"]
    design_ids = prep["design_ids"]
    server = ServerProcess(args, workdir, env, db)
    try:
        port = server.ready["port"]
        etags = {}
        for target in plan.hot_targets():
            status, headers, _ = get(port, target)
            if status != 200:
                raise Failure(f"{target} answered {status}")
            etags[target] = headers[b"etag"].decode()
        windows = [serve_window(server, port, args.seed, 0, args.seconds,
                                design_ids, etags)]
        if args.trace:
            server.command("trace-on")
            windows.append(serve_window(server, port, args.seed, 1,
                                        args.seconds, design_ids, etags))
            trace = server.command("trace-off")
    finally:
        server.close()
    attempted = sum(w["requests"] + w["failed"] for w in windows)
    errors = [e for w in windows for e in w["errors"]][:5]
    mismatches = oracle_mismatches(
        db, [k for w in windows for k in w["kept"]], etags)
    failed = sum(w["failed"] for w in windows) + len(mismatches)
    errors += mismatches[:5]
    if env_info["native"] and prep["backend"] != "native":
        failed += attempted
        errors.append(f"prepare found the native kernel but the store "
                      f"build used {prep['backend']}")
    timed = windows[0]
    timings = serve_timings(timed)
    timings["setup_s"] = setup_seconds(server.ready["setups"])
    report = {
        "attempted": attempted, "failed": failed, "errors": errors,
        "backend": prep["backend"],
        "timings": timings,
        "host": median([x["factor"] for x in timed["slices"]]),
        "factors": [x["factor"] for x in timed["slices"]],
        "counts": {
            "requests": timed["requests"],
            "slices": len(timed["slices"]),
            "latency samples": len(timed["latencies_ns"]),
            "setup samples": len(server.ready["setups"]),
            "bodies checked": sum(len(w["kept"]) for w in windows),
        },
    }
    # The tail in reference-host time; the window has at least ten
    # samples beyond it (plan.MIN_LATENCY_SAMPLES).
    p99 = percentile(timed["scaled_ns"], 99) / 1e6
    if args.trace:
        traced = windows[1]
        lat_ms = sum(traced["latencies_ns"]) / 1e6 / traced["requests"]
        extra = dict(timed["extra"], latency_p99_ms=p99)
        report["metrics"] = per_layer(
            trace, traced["requests"], lat_ms,
            1.0 - serve_timings(traced)["ops_per_s"]["ref"]
            / timings["ops_per_s"]["ref"],
            extra,
        )
        report["metrics"]["serve.http_ms"] = report["metrics"][
            "trace.residual_ms"]
        report["counts"]["traced requests"] = traced["requests"]
        report["counts"]["spans"] = trace["spans"]
    else:
        report["metrics"] = end_to_end(args.workload, timings, prep["area"],
                                       timed["rss_mb"])
        report["unbounded"] = {"latency_p99_ms": metric(p99, "ms")}
    return report


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def spans_path(workload: str) -> str:
    return os.path.join(WORK, f"spans-{workload}.jsonl")


def run_workload(args) -> dict:
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = child_env(workdir)
    try:
        if args.workload == "serve-mixed":
            # The serve store is built here, untimed, from the seed.
            db = os.path.join(workdir, "serve.sqlite")
            prep = run_worker("prepare", args, workdir, env,
                              PREPARE_TIMEOUT, db=db)
            prep["db"] = db
            report = run_serve(args, prep, workdir, env)
        else:
            prep = run_worker("prepare", args, workdir, env,
                              PREPARE_TIMEOUT)
            report = run_inprocess(args, prep["env"], workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["env"] = prep["env"]
    return report


def print_report(args, report: dict) -> None:
    env = report["env"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: nproc={env['nproc']} backend={report['backend']} "
          f"native_available={env['native']} "
          f"omp_threads={env['omp_threads']} blas={env['blas']} "
          f"python={env['python']} numpy={env['numpy']}")
    print("samples: " + ", ".join(
        f"{k}={v}" for k, v in report["counts"].items()))
    factors = report["factors"]
    print(f"host speed factor: {report['host']:.3f} over the window; "
          f"median {median(factors):.3f}, min {min(factors):.3f}, "
          f"max {max(factors):.3f} over {len(factors)} slices")
    print("before host scaling: " + ", ".join(
        f"{name}={report['timings'][name]['raw']:.6g} {unit}"
        for name, unit in TIMINGS))
    for part, value in report.get("setup_parts", {}).items():
        print(f"setup_s part: {part} {value['ref']:.6g} s "
              f"({value['raw']:.6g} s before host scaling)")
    for name, m in report["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    for name, m in report.get("unbounded", {}).items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']} (no bound)")
    rate = report["failed"] / report["attempted"]
    print(f"  {'error_rate':<46} {rate:>14.6g} share "
          f"({report['failed']} failed of {report['attempted']})")
    for error in report["errors"]:
        print(f"  ERROR {error}")


def main(argv=None) -> int:
    # On SIGTERM, unwind: the finally blocks stop and reap the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=plan.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = plan.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        args.workload = name
        try:
            report = run_workload(args)
        except (Failure, subprocess.TimeoutExpired, OSError) as exc:
            print(f"perfbench {name}: {exc}", file=sys.stderr)
            return 2
        print_report(args, report)
        correct = report["failed"] == 0
        ok = ok and correct
        print(json.dumps({
            "correct": correct,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"],
        }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
