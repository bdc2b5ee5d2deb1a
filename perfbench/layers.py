"""Per-layer metrics: their units, the end-to-end metric each should move
(and on which workload), and the in-process replay that measures them."""

import json
import os
import subprocess

import harness
from harness import BenchError

# name -> (unit, end-to-end metric it should move, on which workload)
LAYER_TAGS = {
    "graph.open_ms": ("ms", "setup_s on every workload"),
    "graph.mapped_mb": ("MB", "peak_rss_mb on every workload"),
    "frontend.parse_ms": ("ms", "setup_s on serve_mix and analytics; "
                          "p50_ms on compile_cold"),
    "frontend.tokens_per_s": ("1/s", "setup_s on serve_mix and "
                              "analytics; p50_ms on compile_cold"),
    "api.overhead_ms": ("ms", "p50_ms on serve_mix"),
    "api.queue_wait_ms.p50": ("ms", "p99_ms on serve_mix"),
    "api.queue_wait_ms.p99": ("ms", "p99_ms on serve_mix"),
    "api.cache_hit_share": ("share", "sanity: ~1 on serve_mix, 0 on "
                            "compile_cold"),
    "api.fused_over_separate": ("ratio", "msbfs_ms on serve_mix"),
    "serve.line_us": ("us", "p50_ms on serve_mix"),
    "serve.overhead_ms.p50": ("ms", "p50_ms on serve_mix"),
    "serve.overhead_ms.p99": ("ms", "p99_ms on serve_mix"),
    "pool.utilization": ("share", "sat_qps on serve_mix"),
    "vm.apply_share.pr": ("share", "pr_ms on analytics"),
}
for _backend in ("cpu", "gpu", "swarm", "hb"):
    _moves = "setup_s on serve_mix and analytics (no timed-phase " \
             "metric); p50_ms/p99_ms on compile_cold"
    LAYER_TAGS["midend.compile_ms." + _backend] = ("ms", _moves)
    LAYER_TAGS["midend.passes." + _backend] = ("count", _moves)
    LAYER_TAGS["midend.ir_bytes." + _backend] = ("B", _moves)
for _algo in ("bfs", "sssp", "pr", "cc"):
    _moves = "%s_ms on analytics; qps/sat_qps on serve_mix" % _algo
    LAYER_TAGS.update({
        "vm.execute_ms." + _algo: ("ms", _moves),
        "vm.edges_per_s." + _algo: ("1/s", _moves),
        "vm.edges." + _algo: ("count", "exact; a change means other work"),
        "vm.rounds." + _algo: ("count", "exact; a change means other work"),
        "vm.par_execute_ms." + _algo: (
            "ms", "%s_ms on analytics once ugcd gives a lone query "
            "the pool; p99_ms on serve_mix must not worsen" % _algo),
        "vm.par_speedup." + _algo: (
            "ratio", "%s_ms on analytics (base: 1 thread)" % _algo),
        "udf.interp_over_compiled." + _algo: (
            "ratio", "%s_ms on analytics (base: compiled tier)" %
            _algo),
        "reference.ms." + _algo: ("ms", "%s_ms on analytics" % _algo),
        "vm.tax." + _algo: (
            "ratio", "%s_ms on analytics (base: reference.ms)" % _algo),
    })


def run_replay(workload, requests, threads):
    """Write the workload's replay plan and run ugc_replay on it."""
    base = os.path.join(harness.RESULTS_DIR, "%s-seed%d" % (
        workload.name, workload.seed))
    os.makedirs(harness.RESULTS_DIR, exist_ok=True)
    plan = base + ".plan"
    with open(plan, "w") as out:
        out.write("\n".join(workload.plan(requests, threads)) + "\n")
    metrics_path, spans_path = base + ".layers.json", base + ".spans.json"
    done = subprocess.run(
        [harness.REPLAY, "layers", plan, metrics_path, spans_path],
        env=harness.bench_env(), capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise BenchError("replay failed: " + done.stderr.strip())
    with open(metrics_path) as f:
        metrics = json.load(f)
    unknown = sorted(set(metrics) - set(LAYER_TAGS))
    if unknown:
        raise BenchError("replay produced untagged metrics: " +
                         ", ".join(unknown))
    return metrics
