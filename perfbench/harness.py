"""Shared pieces of the ugcd benchmark: build, run context, the daemon
client, and summary statistics. See README.md for what is measured."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
GRAPH_CACHE_DIR = os.path.join(BUILD_DIR, "graph-cache")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
UGCD = os.path.join(BUILD_DIR, "ugc", "tools", "ugcd")
REPLAY = os.path.join(BUILD_DIR, "ugc_replay")
REQUIRED_SOURCES = ["CMakeLists.txt", "src", "tools/ugcd.cpp", "apps",
                    "perfbench/CMakeLists.txt"]


class BenchError(Exception):
    """A run that must not report numbers."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- statistics -------------------------------------------------------------

def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise BenchError("median of no samples")
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    values = sorted(values)
    if not values:
        raise BenchError("quantile of no samples")
    pos = q * (len(values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def p99_if_supported(values):
    """p99 when at least ten samples lie beyond it, else None."""
    if len(values) * 0.01 < 10:
        return None
    return quantile(values, 0.99)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --- build and context ------------------------------------------------------

def nproc():
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def check_checkout():
    missing = [p for p in REQUIRED_SOURCES if not os.path.exists(p)]
    if missing:
        raise BenchError("not a UGC checkout (missing %s); run from the "
                         "repository root" % ", ".join(missing))


def build():
    """Configure and build ugcd and ugc_replay into BUILD_DIR."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, nproc()))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ugcd",
                  "ugc_replay", "-j", jobs])
    with open(os.path.join(BUILD_DIR, "build.log"), "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError("build failed: %s (see %s/build.log)" %
                                 (" ".join(cmd), BUILD_DIR))


def _cmake_cache():
    entries = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                entries[key.split(":")[0]] = value
    return entries


def _compiler(cache):
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10).stdout
        return out.splitlines()[0] if out else cxx
    except OSError:
        return cxx


def _commit():
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "apps", "perfbench", "CMakeLists.txt"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_context(seed, threads):
    cache = _cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    sanitize = cache.get("UGC_SANITIZE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper()))
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError("refusing to report numbers from a '%s' build" %
                         (build_type or "unoptimized"))
    if sanitize or "-fsanitize" in flags:
        raise BenchError("refusing to report numbers from a sanitizer build")
    return {
        "nproc": nproc(),
        "ugcd_threads": threads,
        "build_type": build_type,
        "compiler": _compiler(cache),
        "commit": _commit(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
    }


def cpu_ticks():
    """Aggregate CPU ticks from /proc/stat (user ... steal)."""
    with open("/proc/stat") as stat:
        return [int(x) for x in stat.readline().split()[1:9]]


def steal_share(before):
    """Share of CPU time the hypervisor gave to other guests since
    @p before: a measure of how noisy the host was during the run."""
    delta = [b - a for a, b in zip(before, cpu_ticks())]
    return round(delta[7] / max(1, sum(delta)), 4)


def prep_graphs(specs):
    """Build the workload's .ugb entries into GRAPH_CACHE_DIR (untimed).
    Returns ({spec: info}, seconds)."""
    os.makedirs(GRAPH_CACHE_DIR, exist_ok=True)
    begin = time.perf_counter()
    out = subprocess.run([REPLAY, "prep"] + specs, env=bench_env(),
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise BenchError("graph cache preparation failed: " + out.stderr)
    info = {}
    for line in out.stdout.splitlines():
        entry = json.loads(line)
        info["%s:%s" % (entry["dataset"], entry["scale"])] = entry
    return info, time.perf_counter() - begin


def bench_env():
    env = dict(os.environ)
    env["UGC_GRAPH_CACHE_DIR"] = os.path.abspath(GRAPH_CACHE_DIR)
    return env


# --- the daemon client ------------------------------------------------------

class Daemon:
    """One ugcd subprocess driven over stdin/stdout. One thread writes and
    one thread reads, timestamping each response line as it arrives: the
    caller itself in closed loops (wait_for), or a background thread while
    an open loop sends on its schedule (read_in_background). Request ids
    follow ugcd's numbering (one per non-empty line)."""

    def __init__(self, threads, extra_args=()):
        self.proc = subprocess.Popen(
            [UGCD, "--threads", str(threads)] + list(extra_args),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=bench_env(), text=True, bufsize=1)
        self.next_req = 1
        self._lock = threading.Lock()
        self._by_req = {}   # req id -> [(arrival time, response)]

    def send(self, *lines):
        """Write request lines in one write; returns (send time, req ids)."""
        text = "".join(line + "\n" for line in lines)
        self.proc.stdin.write(text)
        self.proc.stdin.flush()
        now = time.perf_counter()
        reqs = list(range(self.next_req, self.next_req + len(lines)))
        self.next_req += len(lines)
        return now, reqs

    def _read_one(self):
        raw = self.proc.stdout.readline()
        now = time.perf_counter()
        if not raw:
            raise BenchError("ugcd closed its output")
        try:
            response = json.loads(raw)
        except ValueError:
            response = {"type": "unparsable", "raw": raw}
        with self._lock:
            self._by_req.setdefault(response.get("req"), []).append(
                (now, response))

    def find(self, req, types):
        """(arrival time, response) of @p req with a type in @p types, if
        it has been read."""
        with self._lock:
            for when, response in self._by_req.get(req, []):
                if response.get("type") in types:
                    return when, response
        return None

    def wait_for(self, req, types):
        """Read on the calling thread until @p req has a response of one of
        @p types."""
        while True:
            found = self.find(req, types)
            if found:
                return found
            self._read_one()

    def read_in_background(self, req, types):
        """wait_for on a new thread; join it before reading again."""
        thread = threading.Thread(target=self.wait_for, args=(req, types),
                                  daemon=True)
        thread.start()
        return thread

    def responses(self, req):
        with self._lock:
            return list(self._by_req.get(req, []))

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def quit(self):
        try:
            _, (req,) = self.send("quit")
            self.wait_for(req, ("bye",))
        finally:
            self.close()

    def close(self):
        """Stop the daemon: end its input, then kill it if it lingers."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def outcome(daemon, req):
    """The final response of one request: its result line, or the error
    line for a malformed one; None when neither arrived."""
    for _, response in daemon.responses(req):
        if response.get("type") in ("result", "error"):
            return response
    return None


def is_failure(response):
    """Anything but an ok result line counts as a failed query: rejected
    and shed tickets, error lines, validation mismatches, no answer."""
    return (response is None or response.get("type") != "result"
            or not response.get("ok"))


def cycles_digest(entries):
    """sha256 over (label, modeled cycles) in request order."""
    digest = hashlib.sha256()
    for label, cycles in entries:
        digest.update(("%s=%s\n" % (label, cycles)).encode())
    return digest.hexdigest()[:16]
