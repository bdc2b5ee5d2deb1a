/**
 * @file
 * ugc_replay — the benchmark's in-process side (see README.md).
 *
 *   ugc_replay prep <CODE:scale>...
 *       Build (or reuse) the .ugb cache entries of each dataset in
 *       $UGC_GRAPH_CACHE_DIR, both weighted and unweighted, and print one
 *       JSON line per dataset: size, cache outcome, build time, and the
 *       vertex pools the request generator draws start vertices from.
 *
 *   ugc_replay layers <plan> <metrics.json> <spans.json>
 *       Replay a seeded request plan against libugc and time each layer
 *       through its public calls: datasets::loadCached, frontend::tokenize
 *       and compileSource, GraphVM::compile and execute, reference::*,
 *       Engine::run, Session::submit/wait and Server::handleLine. Spans
 *       are recorded here, around those calls; nothing inside src/ is
 *       instrumented. Writes the derived per-layer metrics and the raw
 *       spans as JSON.
 *
 * Plan directives, one per line:
 *   threads <n>
 *   graph <key> <CODE> <scale>
 *   source <algo> builtin | source <algo> file <path.gt>
 *   sample <class> <algo> <graph> <schedule> <start> <arg3>
 *   fused <graph> <s1,s2,...>
 *   squery <due_ms> <algo> <graph> <start> <arg3> [s1,s2,...]
 *   session open|closed
 *   line <ugcd request line>      (setup of the in-process server)
 *   probe <ugcd async run line>   (timed through Server::handleLine)
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "api/ugc.h"
#include "frontend/lexer.h"
#include "frontend/sema.h"
#include "graph/datasets.h"
#include "ir/printer.h"
#include "reference/reference.h"
#include "serve/server.h"
#include "vm/graphvm.h"

using namespace ugc;

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - begin).count();
}

/** One span: a named interval around a call into a layer. Spans of one
 *  request share @c request; @c parent indexes the enclosing span. */
struct Span
{
    std::string name;
    int64_t request = -1;
    int parent = -1;
    double startMs = 0.0;
    double endMs = 0.0;

    double ms() const { return endMs - startMs; }
};

/** In-memory span recorder; written out once when the replay ends. */
class Tracer
{
  public:
    Tracer() : _origin(Clock::now()) {}

    int
    open(const std::string &name, int64_t request = -1)
    {
        Span span;
        span.name = name;
        span.request = request;
        span.parent = _stack.empty() ? -1 : _stack.back();
        span.startMs = msBetween(_origin, Clock::now());
        _spans.push_back(span);
        _stack.push_back(static_cast<int>(_spans.size()) - 1);
        return _stack.back();
    }

    double
    close(int index)
    {
        _spans[index].endMs = msBetween(_origin, Clock::now());
        _stack.pop_back();
        return _spans[index].ms();
    }

    /** Record a span measured elsewhere (e.g. on another thread). */
    void
    add(const std::string &name, int64_t request, Clock::time_point begin,
        Clock::time_point end)
    {
        Span span;
        span.name = name;
        span.request = request;
        span.startMs = msBetween(_origin, begin);
        span.endMs = msBetween(_origin, end);
        _spans.push_back(span);
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "[\n";
        for (size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            char buf[96];
            std::snprintf(buf, sizeof buf, "\"start_ms\":%.4f,\"end_ms\":%.4f",
                          s.startMs, s.endMs);
            out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
                << ",\"parent\":" << s.parent << "," << buf << "}"
                << (i + 1 < _spans.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

  private:
    Clock::time_point _origin;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span; end() closes it early and returns its length in ms. */
class Scoped
{
  public:
    Scoped(Tracer &tracer, const std::string &name, int64_t request = -1)
        : _tracer(tracer), _index(tracer.open(name, request))
    {
    }
    ~Scoped() { end(); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    double
    end()
    {
        if (!_done) {
            _ms = _tracer.close(_index);
            _done = true;
        }
        return _ms;
    }

  private:
    Tracer &_tracer;
    int _index;
    bool _done = false;
    double _ms = 0.0;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Linear-interpolated quantile (q in [0, 1]). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] -
                                                           values[lo]);
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

std::vector<VertexId>
parseList(const std::string &text)
{
    std::vector<VertexId> out;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(std::stoll(item));
    return out;
}

// --- prep ------------------------------------------------------------------

int
prep(int argc, char **argv)
{
    for (int i = 2; i < argc; ++i) {
        const std::string spec = argv[i];
        const size_t colon = spec.find(':');
        datasets::Scale scale = datasets::Scale::Medium;
        if (colon == std::string::npos ||
            !datasets::parseScale(spec.substr(colon + 1), scale)) {
            std::fprintf(stderr, "ugc_replay: bad dataset spec '%s'\n",
                         spec.c_str());
            return 2;
        }
        const std::string code = spec.substr(0, colon);
        const Clock::time_point begin = Clock::now();
        bool hits = true;
        Graph graph;
        for (const bool weighted : {false, true}) {
            ugb::CacheReport report;
            Graph loaded = datasets::loadCached(code, scale, weighted,
                                                ugb::CachePolicy::Auto,
                                                &report);
            hits = hits && report.hit;
            if (report.backend != StorageBackend::Mmap) {
                std::fprintf(stderr,
                             "ugc_replay: %s did not land in the graph "
                             "cache (%s)\n",
                             spec.c_str(), report.cachePath.c_str());
                return 1;
            }
            if (!weighted)
                graph = loaded;
        }
        const double build_ms = msBetween(begin, Clock::now());

        // Vertex pools for the request generator: isolated vertices (a
        // trivially cheap query, used to materialize a graph variant at
        // set-up) and well-connected ones (out-degree at least the mean),
        // sampled at a fixed stride so the pool is seed-independent.
        const VertexId n = graph.numVertices();
        const double mean_degree =
            n ? static_cast<double>(graph.numEdges()) / n : 0.0;
        std::vector<VertexId> isolated, connected;
        for (VertexId v = 0; v < n; ++v) {
            if (graph.outDegree(v) == 0) {
                if (isolated.size() < 8)
                    isolated.push_back(v);
            } else if (graph.outDegree(v) >= mean_degree) {
                connected.push_back(v);
            }
        }
        const size_t stride = std::max<size_t>(1, connected.size() / 256);
        std::ostringstream pool;
        for (size_t k = 0; k < connected.size(); k += stride)
            pool << (k ? "," : "") << connected[k];
        std::ostringstream iso;
        for (size_t k = 0; k < isolated.size(); ++k)
            iso << (k ? "," : "") << isolated[k];
        std::printf("{\"dataset\":\"%s\",\"scale\":\"%s\",\"vertices\":%lld,"
                    "\"edges\":%lld,\"cache_hit\":%s,\"build_ms\":%.3f,"
                    "\"isolated\":[%s],\"connected\":[%s]}\n",
                    code.c_str(), datasets::scaleName(scale),
                    static_cast<long long>(n),
                    static_cast<long long>(graph.numEdges()),
                    hits ? "true" : "false", build_ms, iso.str().c_str(),
                    pool.str().c_str());
    }
    return 0;
}

// --- layers ----------------------------------------------------------------

struct GraphSpec
{
    std::string code;
    datasets::Scale scale = datasets::Scale::Medium;
};

struct Sample
{
    std::string cls, algo, graph, schedule;
    VertexId start = 0;
    int64_t arg3 = 0;
};

struct SessionQuery
{
    double dueMs = 0.0;
    Query query;
};

struct Plan
{
    unsigned threads = 1;
    std::vector<std::pair<std::string, GraphSpec>> graphs;
    std::vector<std::pair<std::string, std::string>> sources; // algo, text
    std::vector<Sample> samples;
    std::string fusedGraph;
    std::vector<VertexId> fusedSources;
    bool sessionOpen = false;
    std::vector<SessionQuery> session;
    std::vector<std::string> serverLines;
    std::vector<std::string> probes;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

Plan
readPlan(const std::string &path)
{
    Plan plan;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream tokens(line);
        std::string directive;
        if (!(tokens >> directive))
            continue;
        std::string rest;
        std::getline(tokens, rest);
        if (!rest.empty() && rest[0] == ' ')
            rest.erase(0, 1);
        std::istringstream args(rest);
        if (directive == "threads") {
            args >> plan.threads;
        } else if (directive == "graph") {
            std::string key, code, scale;
            args >> key >> code >> scale;
            GraphSpec spec{code, datasets::Scale::Medium};
            if (!datasets::parseScale(scale, spec.scale))
                throw std::runtime_error("bad scale in plan: " + line);
            plan.graphs.emplace_back(key, spec);
        } else if (directive == "source") {
            std::string algo, kind, file;
            args >> algo >> kind >> file;
            plan.sources.emplace_back(
                algo, kind == "builtin" ? algorithms::byName(algo).source
                                        : readFile(file));
        } else if (directive == "sample") {
            Sample s;
            args >> s.cls >> s.algo >> s.graph >> s.schedule >> s.start >>
                s.arg3;
            plan.samples.push_back(s);
        } else if (directive == "fused") {
            std::string list;
            args >> plan.fusedGraph >> list;
            plan.fusedSources = parseList(list);
        } else if (directive == "session") {
            std::string mode;
            args >> mode;
            plan.sessionOpen = mode == "open";
        } else if (directive == "squery") {
            SessionQuery sq;
            std::string list;
            args >> sq.dueMs >> sq.query.algorithm >> sq.query.graph >>
                sq.query.start >> sq.query.arg3 >> list;
            sq.query.sources = parseList(list);
            plan.session.push_back(sq);
        } else if (directive == "line") {
            plan.serverLines.push_back(rest);
        } else if (directive == "probe") {
            plan.probes.push_back(rest);
        } else {
            throw std::runtime_error("unknown plan directive: " + line);
        }
    }
    return plan;
}

bool
needsWeights(const std::string &algo)
{
    return algo == "sssp";
}

class Metrics
{
  public:
    void set(const std::string &name, double value) { _values[name] = value; }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{";
        bool first = true;
        for (const auto &[name, value] : _values) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.9g", value);
            out << (first ? "" : ",") << "\n  \"" << name << "\": " << buf;
            first = false;
        }
        out << "\n}\n";
    }

  private:
    std::map<std::string, double> _values;
};

constexpr int kReps = 5;

/** Layer `graph`: warm datasets::loadCached of every plan graph variant. */
void
graphLayer(const Plan &plan, Tracer &tracer, Metrics &metrics,
           std::map<std::string, Graph> &graphs)
{
    std::vector<double> totals;
    double mapped = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        double total = 0.0;
        mapped = 0.0;
        for (const auto &[key, spec] : plan.graphs) {
            for (const bool weighted : {false, true}) {
                ugb::CacheReport report;
                Scoped span(tracer, "graph.loadCached");
                Graph graph = datasets::loadCached(
                    spec.code, spec.scale, weighted, ugb::CachePolicy::Auto,
                    &report);
                total += span.end();
                if (!report.hit)
                    throw std::runtime_error("graph cache miss for " + key +
                                             " during the replay");
                mapped += static_cast<double>(graph.mappedBytes());
                graphs[key + (weighted ? "#w" : "")] = std::move(graph);
            }
        }
        totals.push_back(total);
    }
    metrics.set("graph.open_ms", median(totals));
    metrics.set("graph.mapped_mb", mapped / (1024.0 * 1024.0));
}

/** Layer `frontend`: tokenize and compileSource of every plan source. */
std::map<std::string, ProgramPtr>
frontendLayer(const Plan &plan, Tracer &tracer, Metrics &metrics)
{
    std::map<std::string, ProgramPtr> programs;
    std::vector<double> lex_totals, parse_totals;
    double tokens = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        double lex = 0.0, parse = 0.0;
        tokens = 0.0;
        for (const auto &[algo, source] : plan.sources) {
            Scoped lex_span(tracer, "frontend.tokenize");
            tokens += static_cast<double>(frontend::tokenize(source).size());
            lex += lex_span.end();
            Scoped parse_span(tracer, "frontend.compileSource");
            programs[algo] = frontend::compileSource(source, algo);
            parse += parse_span.end();
        }
        lex_totals.push_back(lex);
        parse_totals.push_back(parse);
    }
    metrics.set("frontend.parse_ms", median(parse_totals));
    metrics.set("frontend.tokens_per_s",
                tokens / (median(lex_totals) / 1000.0));
    return programs;
}

/** Layer `midend`: GraphVM::compile of every plan program per backend. */
void
midendLayer(const std::map<std::string, ProgramPtr> &programs,
            Tracer &tracer, Metrics &metrics)
{
    for (const std::string &backend : Engine::backendNames()) {
        std::unique_ptr<GraphVM> vm = Engine::makeBackend(backend);
        std::vector<double> totals;
        double passes = 0.0, ir_bytes = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
            double total = 0.0;
            passes = ir_bytes = 0.0;
            for (const auto &[algo, program] : programs) {
                Scoped span(tracer, "midend.compile." + backend);
                ProgramPtr lowered = vm->compile(*program);
                total += span.end();
                passes += static_cast<double>(vm->pipelinePassNames().size());
                ir_bytes += static_cast<double>(printProgram(*lowered).size());
            }
            totals.push_back(total);
        }
        metrics.set("midend.compile_ms." + backend, median(totals));
        metrics.set("midend.passes." + backend, passes);
        metrics.set("midend.ir_bytes." + backend, ir_bytes);
    }
}

datasets::GraphKind
kindOf(const Plan &plan, const std::string &key)
{
    for (const auto &[k, spec] : plan.graphs)
        if (k == key)
            return datasets::info(spec.code).kind;
    throw std::runtime_error("unknown graph key in plan: " + key);
}

void
runReference(const std::string &algo, const Graph &graph, VertexId start,
             int64_t arg3)
{
    if (algo == "bfs")
        reference::bfsLevels(graph, start);
    else if (algo == "sssp")
        reference::ssspDistances(graph, start);
    else if (algo == "pr")
        reference::pageRank(graph, static_cast<int>(arg3));
    else if (algo == "cc")
        reference::connectedComponents(graph);
    else
        throw std::runtime_error("no reference for " + algo);
}

/** Wall time of the vertex applies below @p scope: the profile's
 *  vertex:<label> scopes (apply:<label> scopes are edge traversals). */
int64_t
vertexApplyNs(const prof::Profile::Scope &scope)
{
    int64_t total = 0;
    for (const auto &child : scope.children) {
        if (child->name.rfind("vertex:", 0) == 0)
            total += child->wallNs;
        else
            total += vertexApplyNs(*child);
    }
    return total;
}

Query
sampleQuery(const Sample &s)
{
    Query query;
    query.algorithm = s.algo;
    query.graph = s.graph;
    query.schedule = s.schedule;
    query.start = s.start;
    query.arg3 = s.arg3;
    return query;
}

/** Layers `vm`, `udf`, `reference` and `api` (Engine::run) on the
 *  plan's CPU samples. */
void
executionLayers(const Plan &plan,
                const std::map<std::string, ProgramPtr> &programs,
                std::map<std::string, Graph> &graphs, Engine &engine,
                Tracer &tracer, Metrics &metrics)
{
    BackendOptions par_options, interp_options;
    par_options.numThreads = plan.threads;
    interp_options.udfTier = udf::UdfTier::Interp;
    std::unique_ptr<GraphVM> serial = Engine::makeBackend("cpu");
    std::unique_ptr<GraphVM> parallel =
        Engine::makeBackend("cpu", par_options);
    std::unique_ptr<GraphVM> interp = Engine::makeBackend("cpu",
                                                          interp_options);

    struct ClassTimes
    {
        std::vector<double> exec, par, interp, ref, overhead;
        double edges = 0.0, rounds = 0.0;
        int64_t applyNs = 0, runNs = 0;
    };
    std::map<std::string, ClassTimes> classes;

    int64_t request = 0;
    for (const Sample &s : plan.samples) {
        ++request;
        ClassTimes &times = classes[s.cls];
        ProgramPtr scheduled = programs.at(s.algo)->clone();
        if (s.schedule == "baseline")
            scheduled->clearSchedules();
        else if (s.schedule == "tuned")
            algorithms::applyTunedSchedule(*scheduled, s.algo, "cpu",
                                           kindOf(plan, s.graph));
        ProgramPtr lowered = serial->compile(*scheduled);
        const Graph &graph =
            graphs.at(s.graph + (needsWeights(s.algo) ? "#w" : ""));
        RunInputs inputs;
        inputs.graph = &graph;
        inputs.args = {0, 0, s.start, s.arg3};

        {
            Scoped span(tracer, "vm.execute", request);
            RunResult result = serial->execute(*lowered, inputs);
            times.exec.push_back(span.end());
            for (const IterationTrace &t : result.trace)
                times.edges += static_cast<double>(t.edgesTraversed);
            times.rounds += static_cast<double>(result.trace.size());
        }
        {
            Scoped span(tracer, "vm.execute.par", request);
            parallel->execute(*lowered, inputs);
            times.par.push_back(span.end());
        }
        {
            Scoped span(tracer, "vm.execute.interp", request);
            interp->execute(*lowered, inputs);
            times.interp.push_back(span.end());
        }
        {
            Scoped span(tracer, "reference." + s.algo, request);
            runReference(s.algo, graph, s.start, s.arg3);
            times.ref.push_back(span.end());
        }
        {
            Query query = sampleQuery(s);
            query.profiling = true;
            Scoped span(tracer, "api.Engine::run", request);
            const QueryResult result = engine.run(query);
            const double run_ms = span.end();
            if (!result.ok())
                throw std::runtime_error("replayed query failed: " +
                                         result.diagnostic);
            const prof::Profile::Scope *run =
                result.run.profile ? result.run.profile->find("run")
                                   : nullptr;
            if (!run)
                throw std::runtime_error("Engine::run returned no run scope");
            times.overhead.push_back(run_ms - run->wallNs / 1e6);
            times.applyNs += vertexApplyNs(*run);
            times.runNs += run->wallNs;
        }
    }

    std::vector<double> overheads;
    for (const auto &[cls, t] : classes) {
        const double exec_s = sum(t.exec) / 1000.0;
        metrics.set("vm.execute_ms." + cls, median(t.exec));
        metrics.set("vm.edges." + cls, t.edges);
        metrics.set("vm.rounds." + cls, t.rounds);
        metrics.set("vm.edges_per_s." + cls, t.edges / exec_s);
        metrics.set("vm.par_execute_ms." + cls, median(t.par));
        metrics.set("vm.par_speedup." + cls, sum(t.exec) / sum(t.par));
        metrics.set("udf.interp_over_compiled." + cls,
                    sum(t.interp) / sum(t.exec));
        metrics.set("reference.ms." + cls, median(t.ref));
        metrics.set("vm.tax." + cls, sum(t.exec) / sum(t.ref));
        if (cls == "pr")
            metrics.set("vm.apply_share.pr",
                        static_cast<double>(t.applyNs) /
                            static_cast<double>(t.runNs));
        overheads.insert(overheads.end(), t.overhead.begin(),
                         t.overhead.end());
    }
    metrics.set("api.overhead_ms", median(overheads));
}

/** api.fused_over_separate: one fused multi-source BFS against one
 *  single-source BFS per source, through Engine::run. */
void
fusionLayer(const Plan &plan, Engine &engine, Tracer &tracer,
            Metrics &metrics)
{
    if (plan.fusedSources.size() < 2)
        return;
    std::vector<double> fused, separate;
    for (int rep = 0; rep < 3; ++rep) {
        Query query;
        query.algorithm = "bfs";
        query.graph = plan.fusedGraph;
        query.sources = plan.fusedSources;
        Scoped fused_span(tracer, "api.Engine::run.fused");
        if (!engine.run(query).ok())
            throw std::runtime_error("fused bfs failed in the replay");
        fused.push_back(fused_span.end());

        Scoped separate_span(tracer, "api.Engine::run.separate");
        for (VertexId source : plan.fusedSources) {
            Query single;
            single.algorithm = "bfs";
            single.graph = plan.fusedGraph;
            single.start = source;
            if (!engine.run(single).ok())
                throw std::runtime_error("bfs failed in the replay");
        }
        separate.push_back(separate_span.end());
    }
    metrics.set("api.fused_over_separate", median(fused) / median(separate));
}

/** api.queue_wait_ms: Session::submit on the plan's schedule (open) or
 *  one at a time (closed). Completion is observed by a poller thread;
 *  queue wait = (completion - submit) - the query's own wall time. */
void
sessionLayer(const Plan &plan, Engine &engine, Tracer &tracer,
             Metrics &metrics)
{
    if (plan.session.empty())
        return;
    Session::Options options;
    options.maxInFlight = 4096;
    Session session(engine, options);
    std::vector<double> waits;

    if (!plan.sessionOpen) {
        int64_t request = 0;
        for (const SessionQuery &sq : plan.session) {
            const Clock::time_point begin = Clock::now();
            const uint64_t ticket = session.submit(sq.query);
            const QueryResult result = session.wait(ticket);
            const Clock::time_point end = Clock::now();
            tracer.add("api.Session::submit+wait", ++request, begin, end);
            if (!result.ok())
                throw std::runtime_error("session query failed: " +
                                         result.diagnostic);
            waits.push_back(msBetween(begin, end) - result.wallMs);
        }
    } else {
        struct Slot
        {
            uint64_t ticket = 0;
            Clock::time_point submitted;
            std::atomic<bool> ready{false};
        };
        std::vector<Slot> slots(plan.session.size());
        std::atomic<size_t> submitted{0};
        std::vector<Clock::time_point> completed(plan.session.size());
        std::vector<double> wall(plan.session.size(), 0.0);
        std::string failure;
        std::thread poller([&] {
            std::vector<bool> done(slots.size(), false);
            size_t remaining = slots.size();
            while (remaining > 0) {
                const size_t limit = submitted.load();
                for (size_t i = 0; i < limit; ++i) {
                    if (done[i] || !slots[i].ready.load())
                        continue;
                    if (!session.isDone(slots[i].ticket))
                        continue;
                    completed[i] = Clock::now();
                    const QueryResult result = session.wait(slots[i].ticket);
                    if (!result.ok() && failure.empty())
                        failure = result.diagnostic;
                    wall[i] = result.wallMs;
                    done[i] = true;
                    --remaining;
                }
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
        });
        const Clock::time_point origin = Clock::now();
        for (size_t i = 0; i < plan.session.size(); ++i) {
            std::this_thread::sleep_until(
                origin + std::chrono::microseconds(static_cast<int64_t>(
                             plan.session[i].dueMs * 1000.0)));
            slots[i].submitted = Clock::now();
            slots[i].ticket = session.submit(plan.session[i].query);
            slots[i].ready.store(true);
            submitted.store(i + 1);
        }
        poller.join();
        if (!failure.empty())
            throw std::runtime_error("session query failed: " + failure);
        for (size_t i = 0; i < slots.size(); ++i) {
            tracer.add("api.Session::submit+wait", static_cast<int64_t>(i),
                       slots[i].submitted, completed[i]);
            waits.push_back(
                std::max(0.0, msBetween(slots[i].submitted, completed[i]) -
                                  wall[i]));
        }
    }
    metrics.set("api.queue_wait_ms.p50", quantile(waits, 0.5));
    metrics.set("api.queue_wait_ms.p99", quantile(waits, 0.99));
}

/** serve.line_us: Server::handleLine for async run lines, in-process. */
void
serveLayer(const Plan &plan, Tracer &tracer, Metrics &metrics)
{
    if (plan.probes.empty())
        return;
    std::ostringstream sink;
    serve::ServerOptions options;
    options.engine.poolThreads = plan.threads;
    options.engine.graphCachePolicy = ugb::CachePolicy::Auto;
    options.session.maxInFlight = 4096;
    serve::Server server(options, sink);
    for (const std::string &line : plan.serverLines)
        server.handleLine(line);
    std::vector<double> line_us;
    for (const std::string &line : plan.probes) {
        Scoped span(tracer, "serve.handleLine");
        server.handleLine(line);
        line_us.push_back(span.end() * 1000.0);
    }
    server.drain();
    const std::string out = sink.str();
    if (out.find("\"ok\":false") != std::string::npos ||
        out.find("\"type\":\"error\"") != std::string::npos)
        throw std::runtime_error("in-process server reported a failure:\n" +
                                 out);
    metrics.set("serve.line_us", median(line_us));
}

int
layers(int argc, char **argv)
{
    if (argc != 5) {
        std::fprintf(stderr,
                     "usage: ugc_replay layers <plan> <metrics.json> "
                     "<spans.json>\n");
        return 2;
    }
    const Plan plan = readPlan(argv[2]);
    Tracer tracer;
    Metrics metrics;

    std::map<std::string, Graph> graphs;
    graphLayer(plan, tracer, metrics, graphs);
    const auto programs = frontendLayer(plan, tracer, metrics);
    midendLayer(programs, tracer, metrics);

    EngineOptions options;
    options.poolThreads = plan.threads;
    options.graphCachePolicy = ugb::CachePolicy::Auto;
    Engine engine(options);
    for (const auto &[algo, source] : plan.sources)
        engine.registerAlgorithm(algo, source);
    for (const auto &[key, spec] : plan.graphs)
        engine.loadDataset(spec.code, key, spec.scale);

    executionLayers(plan, programs, graphs, engine, tracer, metrics);
    fusionLayer(plan, engine, tracer, metrics);
    sessionLayer(plan, engine, tracer, metrics);
    serveLayer(plan, tracer, metrics);

    metrics.write(argv[3]);
    tracer.write(argv[4]);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    try {
        if (mode == "prep")
            return prep(argc, argv);
        if (mode == "layers")
            return layers(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "ugc_replay: %s\n", error.what());
        return 1;
    }
    std::fprintf(stderr, "usage: ugc_replay prep <CODE:scale>... | "
                         "ugc_replay layers <plan> <metrics.json> "
                         "<spans.json>\n");
    return 2;
}
