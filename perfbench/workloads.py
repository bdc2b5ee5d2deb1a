"""The three ugcd workloads: set-up, timed phase, validation sample and the
in-process replay plan of each. README.md says why each was chosen."""

import random
import time

from harness import BenchError, Daemon, is_failure, outcome

# Open-loop arrival rate of serve_mix (requests/s). The same mix saturates
# at 300-490 requests/s on a shared 4-core host (sat_qps). Between runs of
# identical code, p50_ms moved by 29 % at 150 requests/s and by 17 % at
# 100, following the host's steal time; at 80 it stayed at 9-13 %.
SERVE_RATE = 80.0
SERVE_BURST = 512
SETUP_REPS = 15


class Request:
    """One timed query: its class, graph, and the ugcd line(s) sent."""

    def __init__(self, cls, graph, lines):
        self.cls = cls
        self.graph = graph
        self.lines = lines
        self.due = None       # open loop: when it was due to be sent
        self.sent = None      # perf_counter of the send
        self.received = None  # perf_counter of its result line
        self.response = None  # result (or error) line of its last req

    @property
    def latency_ms(self):
        begin = self.due if self.due is not None else self.sent
        return (self.received - begin) * 1000.0


class Workload:
    name = ""
    daemon_args = ()

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny
        self.info = {}

    # Subclasses define graph_specs(), setup_lines(), timed(), validation(),
    # digest_requests() and plan().

    def vertices(self, spec):
        return self.info[spec]["vertices"]

    def pool(self, spec):
        return self.info[spec]["connected"]

    def isolated(self, spec):
        iso = self.info[spec]["isolated"]
        return iso[0] if iso else 0

    # --- shared phases ---------------------------------------------------

    def start_daemon(self, threads):
        """Spawn ugcd and run the workload's set-up. Returns (daemon,
        seconds from spawn to ready)."""
        begin = time.perf_counter()
        daemon = Daemon(threads, self.daemon_args)
        try:
            lines = self.setup_lines() + ["storage"]
            _, reqs = daemon.send(*lines)
            for line, req in zip(lines, reqs):
                kinds = ("ok", "result", "error", "storage_summary")
                _, response = daemon.wait_for(req, kinds)
                if response["type"] == "error" or (
                        response["type"] == "result" and not response["ok"]):
                    raise BenchError("set-up line failed: %s -> %s" %
                                     (line, response))
                if line.startswith("graph") and not response.get("cache_hit"):
                    raise BenchError("graph was not a warm cache hit: %s" %
                                     response)
            ready = time.perf_counter() - begin
            for _, response in daemon.responses(reqs[-1]):
                if response.get("type") == "storage" and \
                        response.get("cache_built"):
                    raise BenchError("graph cache entry built during "
                                     "set-up: %s" % response)
            return daemon, ready
        except BaseException:
            daemon.close()
            raise

    def run_closed(self, daemon, requests):
        """Send each request after the previous one answered."""
        for request in requests:
            request.sent, reqs = daemon.send(*request.lines)
            request.received, request.response = daemon.wait_for(
                reqs[-1], ("result", "error"))
            for req in reqs[:-1]:
                _, response = daemon.wait_for(req, ("ok", "error"))
                if response["type"] == "error":
                    request.response = response

    def run_rounds(self, daemon, seconds, make_round):
        """Closed loop over whole rounds, ending within half a round of
        @p seconds."""
        done = []
        begin = time.perf_counter()
        rounds = 0
        while True:
            batch = make_round()
            self.run_closed(daemon, batch)
            done.extend(batch)
            rounds += 1
            elapsed = time.perf_counter() - begin
            if elapsed + 0.5 * elapsed / rounds >= seconds:
                return done, elapsed

    def validate(self, daemon):
        """Untimed: every class once with validate=, inline."""
        entries = []
        for label, line in self.validation():
            _, (req,) = daemon.send(line + " wait=1")
            _, response = daemon.wait_for(req, ("result", "error"))
            if is_failure(response):
                raise BenchError("validation failed: %s -> %s" %
                                 (line, response))
            entries.append((label, response["cycles"]))
        return entries


class ServeMix(Workload):
    """Open loop: async run lines on a seeded Poisson schedule."""

    name = "serve_mix"
    daemon_args = ("--max-in-flight", "1024")

    def scale(self):
        return "tiny" if self.tiny else "medium"

    def graph_specs(self):
        return ["RN:" + self.scale(), "TW:" + self.scale()]

    def spec(self, graph):
        return graph + ":" + self.scale()

    def setup_lines(self):
        s = self.scale()
        return ["builtins",
                "graph RN scale=%s" % s,
                "graph TW scale=%s" % s,
                "run algo=bfs graph=RN start=0 wait=1",
                "run algo=sssp graph=RN start=0 arg3=8192 wait=1",
                "run algo=pr graph=RN arg3=5 wait=1",
                "run algo=sssp graph=TW start=%d arg3=2 wait=1" %
                self.isolated(self.spec("TW"))]

    def make_request(self, rng):
        graph = rng.choice(["RN", "TW"])
        n = self.vertices(self.spec(graph))
        draw = rng.random()
        if draw < 0.60:
            return Request("bfs", graph, [
                "run algo=bfs graph=%s start=%d" % (graph, rng.randrange(n))])
        if draw < 0.85:
            delta = 8192 if graph == "RN" else 2
            return Request("sssp", graph, [
                "run algo=sssp graph=%s start=%d arg3=%d" %
                (graph, rng.randrange(n), delta)])
        if draw < 0.95:
            return Request("pr", graph, [
                "run algo=pr graph=%s arg3=5" % graph])
        sources = ",".join(str(v) for v in rng.sample(range(n), 8))
        return Request("msbfs", graph, [
            "run algo=bfs graph=%s sources=%s" % (graph, sources)])

    def schedule(self, seconds):
        rng = random.Random("%d/serve_mix" % self.seed)
        arrivals = random.Random("%d/arrivals" % self.seed)
        rate = 50.0 if self.tiny else SERVE_RATE
        requests, due = [], 0.0
        while True:
            due += arrivals.expovariate(rate)
            if due >= seconds:
                return requests, rng
            request = self.make_request(rng)
            request.due = due
            requests.append(request)

    def timed(self, daemon, seconds):
        requests, rng = self.schedule(seconds)
        sync_req = daemon.next_req + len(requests)
        reader = daemon.read_in_background(sync_req, ("synced",))
        origin = time.perf_counter() + 0.05
        lags = []
        for request in requests:
            target = origin + request.due
            now = time.perf_counter()
            if now < target:
                time.sleep(target - now)
            request.sent, (request.req,) = daemon.send(request.lines[0])
            lags.append((request.sent - target) * 1000.0)
            request.due = target
        daemon.send("sync")
        reader.join()
        if daemon.find(sync_req, ("synced",)) is None:
            raise BenchError("ugcd stopped answering during the open loop")
        for request in requests:
            found = daemon.find(request.req, ("result", "error"))
            if found is None:
                raise BenchError("no result line for req %d" % request.req)
            request.received, request.response = found
        elapsed = max(r.received for r in requests) - origin

        # Saturating burst of the same mix, inside the admission window.
        burst = [self.make_request(rng)
                 for _ in range(64 if self.tiny else SERVE_BURST)]
        begin, reqs = daemon.send(*[b.lines[0] for b in burst] + ["sync"])
        synced, _ = daemon.wait_for(reqs[-1], ("synced",))
        for b, req in zip(burst, reqs):
            b.response = outcome(daemon, req)
        ok = sum(1 for b in burst if not is_failure(b.response))
        extra = {"sat_qps": ok / (synced - begin), "lags": lags}
        return requests, burst, elapsed, extra

    def validation(self):
        rng = random.Random("%d/validate" % self.seed)
        out = []
        for graph in ("RN", "TW"):
            n = self.vertices(self.spec(graph))
            delta = 8192 if graph == "RN" else 2
            pool = self.pool(self.spec(graph))
            sources = ",".join(str(v) for v in rng.sample(range(n), 8))
            out += [
                ("bfs/" + graph, "run algo=bfs graph=%s start=%d validate=bfs"
                 % (graph, rng.choice(pool))),
                ("sssp/" + graph, "run algo=sssp graph=%s start=%d arg3=%d "
                 "validate=sssp" % (graph, rng.choice(pool), delta)),
                ("pr/" + graph, "run algo=pr graph=%s arg3=5 validate=pr" %
                 graph),
                ("msbfs/" + graph, "run algo=bfs graph=%s sources=%s "
                 "validate=bfs" % (graph, sources)),
            ]
        return out

    def digest_requests(self, requests):
        return requests

    def plan(self, requests, threads):
        lines = ["threads %d" % threads]
        for graph in ("RN", "TW"):
            lines.append("graph %s %s %s" % (graph, graph, self.scale()))
        for algo in ("bfs", "sssp", "pr"):
            lines.append("source %s builtin" % algo)
        per_class = {}
        for r in requests:
            if r.cls == "msbfs":
                continue
            key = (r.cls, r.graph)
            if per_class.get(key, 0) < 3:
                per_class[key] = per_class.get(key, 0) + 1
                lines.append("sample %s %s %s default %s %s" % (
                    r.cls, r.cls, r.graph, _opt(r.lines[0], "start", "0"),
                    _opt(r.lines[0], "arg3", "0")))
        fused = next(r for r in requests if r.cls == "msbfs")
        lines.append("fused %s %s" % (fused.graph,
                                      _opt(fused.lines[0], "sources", "")))
        lines.append("session open")
        origin = requests[0].due
        for r in requests[:1000]:
            algo = "bfs" if r.cls == "msbfs" else r.cls
            lines.append("squery %.3f %s %s %s %s %s" % (
                (r.due - origin) * 1000.0, algo, r.graph,
                _opt(r.lines[0], "start", "0"), _opt(r.lines[0], "arg3", "0"),
                _opt(r.lines[0], "sources", "")))
        lines += ["line " + l for l in self.setup_lines()]
        lines += ["probe " + r.lines[0] for r in requests[:200]]
        return lines


class Analytics(Workload):
    """Closed loop, one client, one `run ... wait=1` at a time on TW@medium.

    Not TW@large: run in turn with this workload on a host whose speed
    drifted, its medians spread nearly twice as much (README.md, "Noise")."""

    name = "analytics"

    def spec(self):
        return "TW:tiny" if self.tiny else "TW:medium"

    def graph_specs(self):
        return [self.spec(), "TW:tiny"]

    def setup_lines(self):
        return ["builtins",
                "graph TWM dataset=TW scale=%s" % self.spec().split(":")[1],
                "graph TWT dataset=TW scale=tiny",
                "run algo=bfs graph=TWT start=%d wait=1" %
                self.pool("TW:tiny")[0],
                "run algo=sssp graph=TWT start=%d arg3=2 wait=1" %
                self.pool("TW:tiny")[0],
                "run algo=cc graph=TWT wait=1",
                "run algo=pr graph=TWT arg3=10 wait=1",
                "run algo=sssp graph=TWM start=%d arg3=2 wait=1" %
                self.isolated(self.spec())]

    def make_round(self, rng):
        pool = self.pool(self.spec())
        classes = ["bfs", "bfs", "sssp", "sssp", "cc", "pr"]
        rng.shuffle(classes)
        out = []
        for cls in classes:
            if cls == "bfs":
                line = "run algo=bfs graph=TWM start=%d" % rng.choice(pool)
            elif cls == "sssp":
                line = "run algo=sssp graph=TWM start=%d arg3=2" % \
                    rng.choice(pool)
            elif cls == "cc":
                line = "run algo=cc graph=TWM"
            else:
                line = "run algo=pr graph=TWM arg3=10"
            out.append(Request(cls, "TWM", [line + " wait=1"]))
        return out

    def timed(self, daemon, seconds):
        # One untimed round first: the first queries on the graph after
        # set-up ran up to 1.4x slower than later ones.
        warmup = self.make_round(random.Random("%d/warmup" % self.seed))
        self.run_closed(daemon, warmup)
        for request in warmup:
            if is_failure(request.response):
                raise BenchError("warm-up query failed: %s -> %s" % (
                    request.lines[0], request.response))
        rng = random.Random("%d/analytics" % self.seed)
        requests, elapsed = self.run_rounds(
            daemon, seconds, lambda: self.make_round(rng))
        return requests, [], elapsed, {}

    def validation(self):
        rng = random.Random("%d/validate" % self.seed)
        pool = self.pool(self.spec())
        return [
            ("bfs", "run algo=bfs graph=TWM start=%d validate=bfs" %
             rng.choice(pool)),
            ("sssp", "run algo=sssp graph=TWM start=%d arg3=2 validate=sssp"
             % rng.choice(pool)),
            ("cc", "run algo=cc graph=TWM validate=cc"),
            ("pr", "run algo=pr graph=TWM arg3=10 validate=pr"),
        ]

    def digest_requests(self, requests):
        return requests[:6]

    def plan(self, requests, threads):
        first = requests[:6]
        lines = ["threads %d" % threads,
                 "graph TWM TW %s" % self.spec().split(":")[1]]
        for algo in ("bfs", "sssp", "pr", "cc"):
            lines.append("source %s builtin" % algo)
        for r in first:
            lines.append("sample %s %s TWM default %s %s" % (
                r.cls, r.cls, _opt(r.lines[0], "start", "0"),
                _opt(r.lines[0], "arg3", "0")))
        bfs = [r for r in requests if r.cls == "bfs"]
        starts = [_opt(r.lines[0], "start", "0") for r in bfs][:8]
        rng = random.Random("%d/fused" % self.seed)
        while len(starts) < 8:
            starts.append(str(rng.choice(self.pool(self.spec()))))
        lines.append("fused TWM %s" % ",".join(starts))
        lines.append("session closed")
        for r in first:
            if r.cls in ("bfs", "sssp"):
                lines.append("squery 0 %s TWM %s %s" % (
                    r.cls, _opt(r.lines[0], "start", "0"),
                    _opt(r.lines[0], "arg3", "0")))
        lines += ["line " + l for l in self.setup_lines()]
        lines += ["probe " + r.lines[0].replace(" wait=1", "")
                  for r in first if r.cls in ("bfs", "sssp")]
        return lines


APPS = {"bfs": "apps/bfs.gt", "sssp": "apps/sssp.gt",
        "pr": "apps/pagerank.gt"}
BACKENDS = ("cpu", "gpu", "swarm", "hb")
SCHEDULES = ("default", "tuned", "baseline")


class CompileCold(Workload):
    """Closed loop: re-register an apps/*.gt source, then run it once."""

    name = "compile_cold"

    def graph_specs(self):
        return ["RN:tiny", "TW:tiny"]

    def setup_lines(self):
        return ["graph RNT dataset=RN scale=tiny",
                "graph TWT dataset=TW scale=tiny"] + [
            "algo %s %s" % (algo, path) for algo, path in APPS.items()] + [
            "run algo=bfs graph=RNT start=0 wait=1",
            "run algo=sssp graph=RNT start=0 arg3=8192 wait=1",
            "run algo=pr graph=RNT arg3=5 wait=1",
            "run algo=sssp graph=TWT start=%d arg3=2 wait=1" %
            self.isolated("TW:tiny")]

    @staticmethod
    def _arg3(algo, graph):
        if algo == "sssp":
            return 8192 if graph == "RN" else 2
        return 5

    def _run_line(self, rng, algo, graph, backend, schedule):
        start = rng.choice(self.pool(graph + ":tiny"))
        return ("run algo=%s graph=%sT backend=%s schedule=%s start=%d "
                "arg3=%d" % (algo, graph, backend, schedule, start,
                             self._arg3(algo, graph)))

    def make_round(self, rng):
        combos = [(a, g, b, s) for a in APPS for g in ("RN", "TW")
                  for b in BACKENDS for s in SCHEDULES]
        rng.shuffle(combos)
        return [Request(a, g, ["algo %s %s" % (a, APPS[a]),
                               self._run_line(rng, a, g, b, s) + " wait=1"])
                for a, g, b, s in combos]

    def timed(self, daemon, seconds):
        rng = random.Random("%d/compile_cold" % self.seed)
        requests, elapsed = self.run_rounds(
            daemon, seconds, lambda: self.make_round(rng))
        return requests, [], elapsed, {}

    def validation(self):
        rng = random.Random("%d/validate" % self.seed)
        return [("%s/%s/%s/%s" % (a, g, b, s),
                 self._run_line(rng, a, g, b, s) + " validate=" + a)
                for a in APPS for g in ("RN", "TW") for b in BACKENDS
                for s in SCHEDULES]

    def digest_requests(self, requests):
        return requests[:len(APPS) * 2 * len(BACKENDS) * len(SCHEDULES)]

    def plan(self, requests, threads):
        lines = ["threads %d" % threads,
                 "graph RNT RN tiny", "graph TWT TW tiny"]
        for algo, path in APPS.items():
            lines.append("source %s file %s" % (algo, path))
        cpu = [r for r in requests if "backend=cpu" in r.lines[1]]
        seen = {}
        for r in cpu:
            key = (r.cls, r.graph)
            if seen.get(key, 0) < 2:
                seen[key] = seen.get(key, 0) + 1
                lines.append("sample %s %s %sT %s %s %s" % (
                    r.cls, r.cls, r.graph, _opt(r.lines[1], "schedule", ""),
                    _opt(r.lines[1], "start", "0"),
                    _opt(r.lines[1], "arg3", "0")))
        rng = random.Random("%d/fused" % self.seed)
        lines.append("fused TWT %s" % ",".join(
            str(v) for v in rng.sample(self.pool("TW:tiny"), 8)))
        lines.append("session closed")
        for r in cpu[:24]:
            lines.append("squery 0 %s %sT %s %s" % (
                r.cls, r.graph, _opt(r.lines[1], "start", "0"),
                _opt(r.lines[1], "arg3", "0")))
        lines += ["line " + l for l in self.setup_lines()]
        lines += ["probe " + r.lines[1].replace(" wait=1", "")
                  for r in requests[:24]]
        return lines


def _opt(line, key, default):
    for token in line.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    return default


WORKLOADS = {w.name: w for w in (ServeMix, Analytics, CompileCold)}
