#!/usr/bin/env python3
"""UGC benchmark: ugcd end-to-end latency per workload, and (with --trace 1)
the same time split by layer through an in-process replay.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The first run builds ugcd and ugc_replay
into .bench_build/perfbench and the workload's graphs into its .ugb cache.
The last line of stdout is the JSON result; the lines before it are a
readable report, and the full report (run context, every metric with its
sample count, per-layer tags) is written under .bench_build/perfbench/
results/. See README.md.
"""

import argparse
import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from harness import (BenchError, geomean, is_failure, median,  # noqa: E402
                     p99_if_supported, quantile)
from layers import LAYER_TAGS, run_replay  # noqa: E402
from workloads import SETUP_REPS, WORKLOADS  # noqa: E402

# The open-loop generator counts as behind its schedule when its p99 send
# lag exceeds this; such a run is refused.
MAX_SEND_LAG_P99_MS = 20.0

# Wall-clock limit of one run after the build (the contract allows 180 s).
RUN_LIMIT_S = 170

UNITS = {"setup_s": "s", "p50_ms": "ms", "p99_ms": "ms", "qps": "1/s",
         "sat_qps": "1/s", "fail_share": "share", "bfs_ms": "ms",
         "sssp_ms": "ms", "pr_ms": "ms", "cc_ms": "ms", "msbfs_ms": "ms",
         "peak_rss_mb": "MB", "send_lag_p99_ms": "ms"}


def end_to_end(requests, burst, elapsed, extra, setups, rss):
    """Every end-to-end metric this workload defines, with sample counts."""
    latencies = [r.latency_ms for r in requests if not is_failure(r.response)]
    attempted = len(requests) + len(burst)
    failed = sum(1 for r in requests + burst if is_failure(r.response))
    metrics = {
        "setup_s": (median(setups), len(setups)),
        "p50_ms": (median(latencies), len(latencies)),
        "qps": (len(latencies) / elapsed, len(latencies)),
        "fail_share": (failed / attempted, attempted),
        "peak_rss_mb": (rss, 1),
    }
    p99 = p99_if_supported(latencies)
    if p99 is not None:
        metrics["p99_ms"] = (p99, len(latencies))
    by_class = {}
    for r in requests:
        if not is_failure(r.response):
            by_class.setdefault(r.cls, {}).setdefault(r.graph, []).append(
                r.latency_ms)
    for cls, graphs in by_class.items():
        # Per-class latency: geometric mean over the workload's graphs of
        # the per-graph median, so no class median sits between the modes
        # of two graphs of very different size.
        metrics[cls + "_ms"] = (
            geomean([median(v) for v in graphs.values()]),
            sum(len(v) for v in graphs.values()))
    if "sat_qps" in extra:
        metrics["sat_qps"] = (extra["sat_qps"], len(burst))
    if extra.get("lags"):
        metrics["send_lag_p99_ms"] = (quantile(extra["lags"], 0.99),
                                      len(extra["lags"]))
    return metrics, attempted, failed


def ugcd_layers(requests, elapsed, threads):
    """Per-layer metrics read off the daemon's own result lines."""
    ok = [r for r in requests if not is_failure(r.response)]
    overhead = [r.latency_ms - r.response["wall_ms"] for r in ok]
    return {
        "serve.overhead_ms.p50": quantile(overhead, 0.5),
        "serve.overhead_ms.p99": quantile(overhead, 0.99),
        "pool.utilization": sum(r.response["wall_ms"] for r in ok) /
        (threads * elapsed * 1000.0),
        "api.cache_hit_share": sum(1 for r in ok if r.response["cache_hit"]) /
        len(ok),
    }


def _timeout(signum, frame):
    raise BenchError("run exceeded %d s" % RUN_LIMIT_S)


def run(args):
    harness.check_checkout()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    harness.build()
    # Past the build, a run that hangs is a failure, not a long run.
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    threads = min(4, harness.nproc())
    context = harness.run_context(args.seed, threads)
    context["workload"] = args.workload
    context["seconds"] = args.seconds
    context["trace"] = args.trace
    if args.tiny:
        context["tiny"] = True

    workload.info, prep_s = harness.prep_graphs(workload.graph_specs())
    cpu_before = harness.cpu_ticks()
    context["graph_cache_prep_s"] = round(prep_s, 4)

    # Set-up, several times; the last daemon serves the timed phase.
    setups, daemon = [], None
    for _ in range(2 if args.tiny else SETUP_REPS):
        if daemon is not None:
            daemon.quit()
        daemon, ready = workload.start_daemon(threads)
        setups.append(ready)
    try:
        requests, burst, elapsed, extra = workload.timed(daemon, args.seconds)
        rss = daemon.peak_rss_mb()
        validated = workload.validate(daemon)
        _, (stats_req,) = daemon.send("stats")
        _, stats = daemon.wait_for(stats_req, ("stats",))
    except BaseException:
        daemon.close()
        raise
    daemon.quit()

    e2e, attempted, failed = end_to_end(requests, burst, elapsed, extra,
                                        setups, rss)
    timed_cycles = [("%s/%d" % (r.cls, i), r.response.get("cycles"))
                    for i, r in enumerate(workload.digest_requests(requests))]
    context["cycles_digest"] = harness.cycles_digest(validated + timed_cycles)
    context["validated"] = len(validated)
    context["engine_stats"] = {k: stats[k] for k in (
        "queries", "failures", "cache_hits", "cache_misses",
        "cache_evictions", "fused_queries")}
    context["steal_share"] = harness.steal_share(cpu_before)
    lag = e2e.get("send_lag_p99_ms")
    context["valid"] = lag is None or lag[0] <= MAX_SEND_LAG_P99_MS

    layer_metrics = {}
    if args.trace:
        layer_metrics = ugcd_layers(requests, elapsed, threads)
        layer_metrics.update(run_replay(workload, requests, threads))

    report = {"context": context,
              "end_to_end": {k: {"value": v, "unit": UNITS[k], "samples": n}
                             for k, (v, n) in e2e.items()},
              "per_layer": {k: {"value": v, "unit": LAYER_TAGS[k][0],
                                "moves": LAYER_TAGS[k][1]}
                            for k, v in layer_metrics.items()}}
    os.makedirs(harness.RESULTS_DIR, exist_ok=True)
    path = os.path.join(harness.RESULTS_DIR, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as out:
        json.dump(report, out, indent=1, sort_keys=True)

    print("# context " + json.dumps(context, sort_keys=True))
    for name, entry in sorted(report["end_to_end"].items()):
        print("# e2e   %-22s %14.4f %-6s n=%d" % (
            name, entry["value"], entry["unit"], entry["samples"]))
    for name, entry in sorted(report["per_layer"].items()):
        print("# layer %-34s %16.6g %-6s moves %s" % (
            name, entry["value"], entry["unit"], entry["moves"]))
    print("# report " + path)

    if not context["valid"]:
        raise BenchError("open-loop generator fell behind its schedule "
                         "(send lag p99 %.2f ms)" % lag[0])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = report["per_layer"] if args.trace else report["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchError("metrics not produced: " + ", ".join(missing))
    result = {
        "correct": len(validated) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny graphs and rates (harness smoke test)")
    args = parser.parse_args()
    begin = time.perf_counter()
    try:
        run(args)
    except BenchError as error:
        harness.log("perfbench: %s" % error)
        return 1
    harness.log("perfbench: %s seed %d done in %.1f s" % (
        args.workload, args.seed, time.perf_counter() - begin))
    return 0


if __name__ == "__main__":
    sys.exit(main())
