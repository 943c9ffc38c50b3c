#include "workloads.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "core/context.hh"
#include "core/engine.hh"
#include "core/kernels/kernels.hh"
#include "core/parallel/thread_pool.hh"
#include "core/service/service.hh"
#include "engines/single_machine.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "support/rng.hh"

namespace perfbench
{

namespace
{

using namespace khuzdul;

// ---------------------------------------------------------------
// Inputs: the stand-in recipes of graph/datasets.cc with an offset
// added to each fixed generator seed.  A run of seed s builds the
// family of instances with offsets s*K .. s*K+K-1, so seed 0's first
// instance is the registered stand-in edge for edge.
// ---------------------------------------------------------------

Graph
ljGraph(std::uint64_t offset, bool tiny)
{
    // "lj": rmat(16k, 110k, a=0.55), generator seed 1003.
    return tiny ? gen::rmat(2'000, 12'000, 0.55, 0.2, 0.2, 1003 + offset)
                : gen::rmat(16'000, 110'000, 0.55, 0.2, 0.2, 1003 + offset);
}

Graph
ptGraph(std::uint64_t offset, bool tiny)
{
    // "pt": smallWorld(32k, k=5, beta=0.2) + rmat(32k, 20k), seeds
    // 1002 and 2002.
    const VertexId n = tiny ? 4'000 : 32'000;
    return gen::merge(gen::smallWorld(n, 5, 0.2, 1002 + offset),
                      gen::rmat(n, tiny ? 2'500 : 20'000, 0.50, 0.22,
                                0.22, 2002 + offset));
}

Graph
mcGraph(std::uint64_t offset, bool tiny)
{
    // "mc": rmat(4k, 55k, a=0.45), generator seed 1001.
    return tiny ? gen::rmat(1'000, 8'000, 0.45, 0.2, 0.2, 1001 + offset)
                : gen::rmat(4'000, 55'000, 0.45, 0.2, 0.2, 1001 + offset);
}

/** Nodes of the simulated cluster in every workload. */
constexpr NodeId kNodes = 8;

/** Graph instances of a batch workload's run (see WorkloadDef). */
constexpr std::uint64_t kBatchInstances = 6;

/** Open-loop arrival rate of mc-serve (queries per second). */
constexpr double kServeRate = 12.0;

/** A workload's fixed definition. */
struct WorkloadDef
{
    /** Registered stand-in the recipe reproduces at offset 0. */
    std::string abbr;
    Graph (*make)(std::uint64_t offset, bool tiny);
    /** Graph instances per run (K): batch passes cycle through them,
     *  so one run's figures average over K draws of the recipe. */
    std::uint64_t instances = 1;
    core::GraphSetup setup;
    core::SessionConfig session;
    std::vector<Pattern> patterns;
    bool serve = false;
};

/** The stand-in configuration (bench_common standInEngineConfig):
 *  8 nodes, 1 MB chunks, 15% cache, admission threshold 32. */
WorkloadDef
standIn(const std::string &abbr, Graph (*make)(std::uint64_t, bool),
        unsigned threads)
{
    WorkloadDef def;
    def.abbr = abbr;
    def.make = make;
    def.setup.cluster = sim::ClusterConfig::paperDefault(kNodes);
    def.setup.cacheFraction = 0.15;
    def.setup.cacheDegreeThreshold = 32;
    def.session.chunkBytes = 1ull << 20;
    def.session.hostThreads = threads;
    return def;
}

WorkloadDef
defineWorkload(const std::string &name, unsigned threads)
{
    if (name == "lj-5cc") {
        WorkloadDef def = standIn("lj", ljGraph, threads);
        def.instances = kBatchInstances;
        def.patterns = {Pattern::clique(5)};
        return def;
    }
    if (name == "pt-sparse") {
        // bench_common cacheRegimeConfig: 4 KB chunks, 45% cache,
        // admission threshold 64.
        WorkloadDef def = standIn("pt", ptGraph, threads);
        def.setup.cacheFraction = 0.45;
        def.setup.cacheDegreeThreshold = 64;
        def.session.chunkBytes = 4ull << 10;
        def.instances = kBatchInstances;
        def.patterns = {Pattern::cycleOf(4), Pattern::tailedTriangle(),
                        Pattern::pathOf(4), Pattern::diamond(),
                        Pattern::clique(4)};
        return def;
    }
    if (name == "mc-serve") {
        // bench_steal's chunk size: enough chunks per unit for the
        // steal planner and crash adoption to have work to move.
        WorkloadDef def = standIn("mc", mcGraph, threads);
        def.session.chunkBytes = 64ull << 10;
        def.patterns = {Pattern::triangle(), Pattern::clique(4),
                        Pattern::clique(5), Pattern::diamond(),
                        Pattern::tailedTriangle(), Pattern::pathOf(4),
                        Pattern::starOf(4)};
        def.serve = true;
        return def;
    }
    throw std::invalid_argument("unknown workload: " + name);
}

bool
sameGraph(const Graph &a, const Graph &b)
{
    if (a.numVertices() != b.numVertices() || a.numArcs() != b.numArcs())
        return false;
    for (VertexId v = 0; v < a.numVertices(); ++v) {
        const auto na = a.neighbors(v);
        const auto nb = b.neighbors(v);
        if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
            return false;
    }
    return true;
}

/**
 * Seed check against the registered stand-in: the first instance of
 * seed 0 must reproduce it edge for edge, that of any other seed
 * must differ.  @p full is that full-size graph when the run already
 * built it.
 */
std::string
seedCheck(const WorkloadDef &def, std::uint64_t seed, const Graph *full)
{
    Graph owned;
    if (!full) {
        owned = def.make(seed * def.instances, false);
        full = &owned;
    }
    const bool same = sameGraph(*full, datasets::byName(def.abbr).graph);
    if (seed == 0 && !same)
        return "seed 0 does not reproduce stand-in " + def.abbr;
    if (seed != 0 && same)
        return "seed " + std::to_string(seed)
            + " reproduces the seed-0 stand-in " + def.abbr;
    return "";
}

// ---------------------------------------------------------------
// Set-up: graph + GraphContext + hub bitmaps + profile + plans.
// ---------------------------------------------------------------

/** One resident graph instance with its compiled plans. */
struct Resident
{
    std::string name; ///< "g<i>", prefix of its query keys
    std::unique_ptr<Graph> graph;
    std::unique_ptr<core::GraphContext> context;
    std::vector<ExtendPlan> plans;
    /** Oracle count of every plan's pattern (filled after set-up). */
    std::vector<Count> reference;
};

Resident
setUp(const WorkloadDef &def, std::uint64_t offset, std::size_t index,
      bool tiny, Tracer &tracer)
{
    Resident r;
    r.name = std::string("g") + std::to_string(index);
    {
        Tracer::Scope span(tracer, "graph.build");
        r.graph = std::make_unique<Graph>(def.make(offset, tiny));
    }
    {
        Tracer::Scope span(tracer, "context.partition");
        r.context = std::make_unique<core::GraphContext>(*r.graph,
                                                         def.setup);
    }
    {
        Tracer::Scope span(tracer, "context.hub_bitmaps");
        r.context->ensureHubBitmaps();
    }
    {
        Tracer::Scope span(tracer, "context.profile");
        r.context->profile();
    }
    {
        Tracer::Scope span(tracer, "pattern.compile");
        for (const Pattern &p : def.patterns)
            r.plans.push_back(
                compileGraphPi(p, r.context->profile(), PlanOptions{}));
    }
    return r;
}

/**
 * Oracle counts of every instance and pattern by a second execution
 * path (the Pangolin-like single-machine engine), one (instance,
 * pattern) task at a time on @p threads host threads.
 */
void
referenceCounts(std::vector<Resident> &family, const WorkloadDef &def,
                unsigned threads)
{
    const std::size_t np = def.patterns.size();
    for (Resident &r : family)
        r.reference.assign(np, 0);
    core::ThreadPool(threads).run(family.size() * np, [&](std::size_t t) {
        Resident &r = family[t / np];
        engines::SingleMachineEngine oracle(
            *r.context, engines::SingleMachineStyle::PangolinLike,
            engines::SingleMachineConfig{});
        r.reference[t % np] = oracle.count(def.patterns[t % np]).count;
    });
}

// ---------------------------------------------------------------
// Layer counters summed from RunStats and trace tallies.
// ---------------------------------------------------------------

struct LayerTotals
{
    double makespanNs = 0;
    double computeNs = 0;
    double commExposedNs = 0;
    double commTotalNs = 0;
    double schedulerNs = 0;
    double cacheNs = 0;
    double stealOverheadNs = 0;
    double recoveryOverheadNs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
    std::uint64_t chunks = 0;
    std::uint64_t embeddings = 0;
    std::uint64_t peakChunkBytes = 0;
    std::uint64_t intersectionItems = 0;
    std::uint64_t verticalReuses = 0;
    std::array<std::uint64_t, core::kNumKernelKinds> kernelCalls{};
    std::uint64_t listsRemote = 0;
    std::uint64_t listsLocal = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheInsertions = 0;
    std::uint64_t horizontalHits = 0;
    std::uint64_t horizontalDrops = 0;
    std::uint64_t fetchBatches = 0;
    std::uint64_t stealChunks = 0;
    std::uint64_t stealBytes = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsRetried = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t chunksAdopted = 0;
    std::uint64_t traceRecords = 0;

    void
    add(const sim::RunStats &stats,
        const std::vector<std::uint64_t> &trace_counts)
    {
        makespanNs += stats.makespanNs();
        bytes += stats.totalBytesSent();
        computeNs += stats.totalComputeNs();
        commExposedNs += stats.totalCommExposedNs();
        commTotalNs += stats.totalCommTotalNs();
        schedulerNs += stats.totalSchedulerNs();
        cacheNs += stats.totalCacheNs();
        stealOverheadNs += stats.totalStealOverheadNs();
        recoveryOverheadNs += stats.totalRecoveryNs()
            + stats.totalCheckpointOverheadNs() + stats.totalAdoptionNs();
        messages += stats.totalMessages();
        embeddings += stats.totalEmbeddings();
        stealChunks += stats.totalChunksStolen();
        stealBytes += stats.totalStealBytes();
        faultsInjected += stats.totalFaultsInjected();
        checkpoints += stats.totalCheckpoints();
        chunksAdopted += stats.totalChunksAdopted();
        // Counters without a RunStats total.
        for (const sim::NodeStats &n : stats.nodes) {
            chunks += n.chunksProcessed;
            peakChunkBytes = std::max(peakChunkBytes, n.peakChunkBytes);
            intersectionItems += n.intersectionItems;
            verticalReuses += n.verticalReuses;
            for (std::size_t k = 0; k < kernelCalls.size(); ++k)
                kernelCalls[k] += n.kernelCalls[k];
            listsRemote += n.listsFetchedRemote;
            listsLocal += n.listsServedLocal;
            cacheHits += n.staticCacheHits;
            cacheMisses += n.staticCacheMisses;
            cacheInsertions += n.staticCacheInsertions;
            horizontalHits += n.horizontalHits;
            horizontalDrops += n.horizontalDrops;
            faultsRetried += n.faultsRetried;
        }
        fetchBatches += trace_counts[static_cast<std::size_t>(
            sim::PhaseEvent::FetchBatchIssued)];
        for (const std::uint64_t c : trace_counts)
            traceRecords += c;
    }
};

std::vector<std::uint64_t>
traceCountsOf(const core::Engine &engine)
{
    std::vector<std::uint64_t> counts;
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e)
        counts.push_back(engine.traceCounts().count(
            static_cast<sim::PhaseEvent>(e)));
    return counts;
}

/**
 * Expected results of the queries of one run.  The first execution
 * of a query key fixes its modeled dump; every later execution must
 * match it byte for byte, and every count must equal the oracle's.
 */
class Checker
{
  public:
    /** True when the result is right; records the first failure. */
    bool
    check(Count expected, const std::string &key, Count count,
          const std::string &modeled_json)
    {
        if (count != expected) {
            fail("query " + key + " counted " + std::to_string(count)
                 + ", reference " + std::to_string(expected));
            return false;
        }
        auto [it, first] = modeled_.emplace(key, modeled_json);
        if (!first && it->second != modeled_json) {
            fail("modeled stats of query " + key
                 + " differ from its first execution");
            return false;
        }
        return true;
    }

    void
    fail(const std::string &why)
    {
        if (firstError_.empty())
            firstError_ = why;
    }

    const std::string &firstError() const { return firstError_; }

    /** FNV-1a over the modeled dumps of the fault-free keys (no
     *  '/' in the key), in key order: every run of a seed executes
     *  all of those, traced or not. */
    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = 1469598103934665603ull;
        for (const auto &[key, json] : modeled_) {
            if (key.find('/') != std::string::npos)
                continue;
            for (const char c : key + '\n' + json) {
                h ^= static_cast<unsigned char>(c);
                h *= 1099511628211ull;
            }
        }
        return h;
    }

  private:
    std::map<std::string, std::string> modeled_;
    std::string firstError_;
};

// ---------------------------------------------------------------
// Batch workloads: one pass = every pattern of the batch, each in a
// fresh Engine session over the shared context.
// ---------------------------------------------------------------

struct PassResult
{
    double runNs = 0; ///< summed Engine::run wall time
    double cpuNs = 0; ///< process CPU across those runs
    bool ok = true;
};

PassResult
runPass(Resident &r, const core::SessionConfig &session, Checker &checker,
        Tracer &tracer, LayerTotals *totals)
{
    PassResult pass;
    for (std::size_t i = 0; i < r.plans.size(); ++i) {
        try {
            std::unique_ptr<core::Engine> engine;
            {
                Tracer::Scope span(tracer, "engine.session");
                engine = std::make_unique<core::Engine>(*r.context,
                                                        session);
            }
            const double cpu0 = cpuNs();
            const double t0 = nowNs();
            Count count = 0;
            {
                Tracer::Scope span(tracer, "engine.run");
                count = engine->run(r.plans[i]);
            }
            pass.runNs += nowNs() - t0;
            pass.cpuNs += cpuNs() - cpu0;
            if (!checker.check(r.reference[i],
                               r.name + ":" + std::to_string(i), count,
                               engine->stats().toJson(false)))
                pass.ok = false;
            if (totals)
                totals->add(engine->stats(), traceCountsOf(*engine));
        } catch (const std::exception &e) {
            checker.fail(std::string("query failed: ") + e.what());
            pass.ok = false;
        }
    }
    return pass;
}

/** The passes of one tracer in runPhases(). */
struct Phase
{
    std::vector<double> latencyMs;
    double cpuNs = 0;  ///< process CPU over the window (first phase)
    double runCpuNs = 0;
    double runNs = 0;
    std::uint64_t failed = 0;
    std::uint64_t sloMet = 0; ///< passes right and within the limit
    std::vector<double> peakRssMb; ///< RSS high-water mark of each pass
};

/**
 * Step s visits instance s mod K of @p family and runs one pass per
 * tracer there, in order; phase i collects the passes of tracers[i].
 * Several tracers interleave on the same inputs, so slow drift of
 * the host cancels out of their difference.
 */
std::vector<Phase>
runPhases(std::span<Resident> family, const core::SessionConfig &session,
          Checker &checker, const std::vector<Tracer *> &tracers,
          double seconds, std::size_t min_steps, double slo_ms)
{
    std::vector<Phase> phases(tracers.size());
    const double cpu0 = cpuNs();
    const double t0 = nowNs();
    for (std::size_t step = 0;
         step < min_steps || nowNs() - t0 < seconds * 1e9; ++step) {
        for (std::size_t i = 0; i < tracers.size(); ++i) {
            Phase &phase = phases[i];
            resetPeakRss();
            const PassResult pass =
                runPass(family[step % family.size()], session, checker,
                        *tracers[i], nullptr);
            phase.peakRssMb.push_back(peakRssSinceResetMb());
            phase.latencyMs.push_back(pass.runNs * 1e-6);
            phase.runNs += pass.runNs;
            phase.runCpuNs += pass.cpuNs;
            if (!pass.ok)
                ++phase.failed;
            else if (pass.runNs * 1e-6 <= slo_ms)
                ++phase.sloMet;
        }
    }
    // Process CPU is only separable per phase with a single tracer.
    phases[0].cpuNs = cpuNs() - cpu0;
    return phases;
}

// ---------------------------------------------------------------
// Serve workload: a seeded open-loop Poisson stream.
// ---------------------------------------------------------------

enum FaultClass : int { Healthy = 0, Degraded = 1, Crashed = 2 };

struct ServeQuery
{
    double dueNs = 0;
    std::size_t pattern = 0;
    std::string key;
    core::SessionConfig session;
};

/**
 * A Poisson stream at kServeRate conditioned on its expected count:
 * round(rate * seconds) arrival times drawn uniformly over the window
 * and sorted, so every seed offers the same load.  Pattern and fault
 * class are stratified for the same reason: each block of 7 queries
 * holds every pattern once, each block of 8 holds two degraded
 * queries (stealing on) and one crash plan.
 */
std::vector<ServeQuery>
makeStream(const WorkloadDef &def, std::uint64_t seed, double seconds,
           unsigned units)
{
    Rng rng(0x5e12e5eedull ^ mix64(seed));
    const std::size_t num_patterns = def.patterns.size();
    std::vector<std::size_t> pattern_block;
    std::vector<int> fault_block;
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(kServeRate * seconds)));
    std::vector<double> due(count);
    for (double &t : due)
        t = rng.nextDouble() * seconds * 1e9;
    std::sort(due.begin(), due.end());
    std::vector<ServeQuery> stream;
    for (std::size_t i = 0; i < count; ++i) {
        if (i % num_patterns == 0) {
            pattern_block.resize(num_patterns);
            for (std::size_t p = 0; p < num_patterns; ++p)
                pattern_block[p] = p;
            for (std::size_t p = num_patterns - 1; p > 0; --p)
                std::swap(pattern_block[p],
                          pattern_block[rng.nextBounded(p + 1)]);
        }
        if (i % 8 == 0) {
            fault_block = {Degraded, Degraded, Crashed, Healthy,
                           Healthy,  Healthy,  Healthy, Healthy};
            for (std::size_t p = 7; p > 0; --p)
                std::swap(fault_block[p],
                          fault_block[rng.nextBounded(p + 1)]);
        }
        ServeQuery q;
        q.dueNs = due[i];
        q.pattern = pattern_block[i % num_patterns];
        q.session = def.session;
        q.key = std::to_string(q.pattern);
        switch (fault_block[i % 8]) {
        case Degraded: {
            const std::string node =
                std::to_string(rng.nextBounded(kNodes));
            q.session.faults.add("degrade:" + node + "-*:factor=6:from=0");
            q.session.faults.add("degrade:*-" + node + ":factor=6:from=0");
            // A flaky as well as slow node: two drops, then retried.
            q.session.faults.add("drop:*-" + node + ":msg=3:count=2");
            q.session.stealEnabled = true;
            q.key += "/degrade:" + node;
            break;
        }
        case Crashed: {
            const std::string unit = std::to_string(rng.nextBounded(units));
            q.session.faults.add("crash:" + unit + ":level=1:chunk=1");
            q.key += "/crash:" + unit;
            break;
        }
        default:
            break;
        }
        stream.push_back(std::move(q));
    }
    return stream;
}

struct ServeResult
{
    std::vector<double> latencyMs;   ///< due time -> completion
    std::vector<double> queueWaitMs; ///< latency minus run time
    std::vector<double> peakRssMb;   ///< RSS high-water mark per second
    double maxLagMs = 0;             ///< submit time - due time
    double cpuNs = 0;
    double wallNs = 0;
    std::uint64_t failed = 0;
    std::uint64_t sloMet = 0;
    unsigned peakInFlight = 0;
    std::uint64_t residencyProbes = 0;
    std::uint64_t residencyHits = 0;
    LayerTotals totals;
};

ServeResult
serveStream(Resident &r, const WorkloadDef &def,
            const std::vector<ServeQuery> &stream, const Options &options,
            Checker &checker, Tracer &tracer)
{
    core::ServiceOptions service_options;
    service_options.maxInFlight = options.threads;
    // One core stays free for the generator, so arrivals and
    // completions are observed on time.
    service_options.hostThreads = std::max(1u, options.threads - 1);
    core::QueryService service(*r.context, service_options);

    // Warm-up outside the window: one healthy query per pattern.
    for (const ExtendPlan &plan : r.plans)
        service.submit(plan, def.session);
    service.wait();
    const std::size_t base = service.submitted();
    for (std::size_t i = 0; i < base; ++i) {
        const core::QueryResult &res = service.result(i);
        if (res.failed)
            checker.fail("warm-up query failed: " + res.error);
        else
            checker.check(r.reference[i], std::to_string(i), res.count,
                          res.modeledJson);
    }

    ServeResult out;
    const std::uint64_t probes0 = r.context->crossQueryProbes();
    const std::uint64_t hits0 = r.context->crossQueryHits();
    std::vector<double> done_ns(stream.size(), -1);
    std::vector<std::size_t> outstanding;
    std::size_t next = 0;
    double rss_segment_ns = 0;
    resetPeakRss();
    const double cpu0 = cpuNs();
    const double t0 = nowNs();
    while (next < stream.size() || !outstanding.empty()) {
        double now = nowNs() - t0;
        if (now - rss_segment_ns >= 1e9) {
            out.peakRssMb.push_back(peakRssSinceResetMb());
            resetPeakRss();
            rss_segment_ns = now;
        }
        while (next < stream.size() && stream[next].dueNs <= now) {
            const ServeQuery &q = stream[next];
            {
                Tracer::Scope span(tracer, "service.submit");
                service.submit(r.plans[q.pattern], q.session);
            }
            now = nowNs() - t0;
            out.maxLagMs = std::max(out.maxLagMs, (now - q.dueNs) * 1e-6);
            outstanding.push_back(next++);
        }
        for (std::size_t k = 0; k < outstanding.size();) {
            const std::size_t idx = outstanding[k];
            if (service.finished(base + idx)) {
                done_ns[idx] = nowNs() - t0;
                outstanding[k] = outstanding.back();
                outstanding.pop_back();
            } else {
                ++k;
            }
        }
        double sleep_ns = 200e3;
        if (outstanding.empty() && next < stream.size())
            sleep_ns = std::min(1e6, stream[next].dueNs - (nowNs() - t0));
        if (sleep_ns > 0)
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                static_cast<std::int64_t>(sleep_ns)));
    }
    out.wallNs = nowNs() - t0;
    out.cpuNs = cpuNs() - cpu0;
    out.peakRssMb.push_back(peakRssSinceResetMb());
    service.wait();
    out.peakInFlight = service.peakInFlight();
    out.residencyProbes = r.context->crossQueryProbes() - probes0;
    out.residencyHits = r.context->crossQueryHits() - hits0;

    for (std::size_t i = 0; i < stream.size(); ++i) {
        const ServeQuery &q = stream[i];
        const core::QueryResult &res = service.result(base + i);
        const double latency_ms = (done_ns[i] - q.dueNs) * 1e-6;
        out.latencyMs.push_back(latency_ms);
        bool ok = !res.failed;
        if (res.failed)
            checker.fail("query " + q.key + " failed: " + res.error);
        else
            ok = checker.check(r.reference[q.pattern], q.key, res.count,
                               res.modeledJson);
        if (!ok) {
            ++out.failed;
            continue;
        }
        if (latency_ms <= options.sloMs)
            ++out.sloMet;
        out.queueWaitMs.push_back(latency_ms - res.stats.hostWallNs * 1e-6);
        out.totals.add(res.stats, res.traceCounts);
    }
    return out;
}

// ---------------------------------------------------------------
// Kernel-layer replay: the per-edge triangle inner loop
// (intersectManyCount over two full adjacency lists, hub rows
// available) under Auto and every forced mode.
// ---------------------------------------------------------------

struct Replay
{
    std::map<std::string, double> nsPerItem;
    double autoVsBest = 0;
};

Replay
kernelReplay(const Graph &g, bool tiny, Checker &checker)
{
    const std::vector<core::KernelMode> modes = {
        core::KernelMode::Auto, core::KernelMode::Merge,
        core::KernelMode::Gallop, core::KernelMode::Bitmap,
        core::KernelMode::Simd};
    std::vector<std::vector<double>> ns(modes.size());
    std::vector<Count> counts(modes.size());
    std::vector<core::WorkItems> items(modes.size());
    std::vector<VertexId> scratch_a, scratch_b;
    const int reps = tiny ? 1 : 5;
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t m = 0; m < modes.size(); ++m) {
            core::KernelDispatcher dispatcher(modes[m], &g);
            Count total = 0;
            core::WorkItems work = 0;
            const double t0 = nowNs();
            for (VertexId u = 0; u < g.numVertices(); ++u) {
                for (const VertexId v : g.neighbors(u)) {
                    if (v <= u)
                        continue;
                    const core::ListRef lists[2] = {
                        core::ListRef(g.neighbors(u), u),
                        core::ListRef(g.neighbors(v), v)};
                    Count c = 0;
                    work += dispatcher.intersectManyCount(
                        lists, c, scratch_a, scratch_b);
                    total += c;
                }
            }
            ns[m].push_back(nowNs() - t0);
            counts[m] = total;
            items[m] = work;
        }
    }
    Replay replay;
    double best = 0;
    for (std::size_t m = 0; m < modes.size(); ++m) {
        if (counts[m] != counts[0] || items[m] != items[0])
            checker.fail(std::string("kernel replay under ")
                         + core::kernelModeName(modes[m])
                         + " disagrees with auto");
        const double per_item = median(ns[m])
            / static_cast<double>(std::max<core::WorkItems>(items[m], 1));
        replay.nsPerItem[core::kernelModeName(modes[m])] = per_item;
        if (m > 0 && (best == 0 || per_item < best))
            best = per_item;
    }
    replay.autoVsBest = replay.nsPerItem["auto"] / best;
    return replay;
}

// ---------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------

/** Everything the traced run reports besides LayerTotals. */
struct LayerExtras
{
    double sessionMs = 0;
    double runMs = 0;
    double busyFrac = 0;
    double speedup = 0;
    double queueWaitMsP50 = 0;
    double peakInFlight = 0;
    double generatorLagMs = 0;
    double residencyHitRate = 0;
    double traceOverheadFrac = 0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

void
perLayerReport(Report &report, const Tracer &tracer,
               const LayerTotals &t, const LayerExtras &x,
               const Replay &replay)
{
    report.add("graph.build_ms", median(tracer.durationsMs("graph.build")),
               "ms");
    report.add("context.partition_ms",
               median(tracer.durationsMs("context.partition")), "ms");
    report.add("context.hub_bitmaps_ms",
               median(tracer.durationsMs("context.hub_bitmaps")), "ms");
    report.add("context.profile_ms",
               median(tracer.durationsMs("context.profile")), "ms");
    report.add("pattern.compile_ms",
               median(tracer.durationsMs("pattern.compile")), "ms");
    report.add("engine.session_ms", x.sessionMs, "ms");
    report.add("engine.run_ms", x.runMs, "ms");
    report.add("engine.chunks", t.chunks, "count");
    report.add("engine.embeddings", t.embeddings, "count");
    report.add("engine.peak_chunk_bytes", t.peakChunkBytes, "bytes");
    report.add("engine.scheduler_ns", t.schedulerNs, "ns");
    report.add("extender.compute_ns", t.computeNs, "ns");
    report.add("extender.intersection_items", t.intersectionItems,
               "count");
    report.add("extender.vertical_reuses", t.verticalReuses, "count");
    for (std::size_t k = 0; k < core::kNumKernelKinds; ++k)
        report.add(std::string("kernels.calls.")
                       + core::kernelKindName(
                           static_cast<core::KernelKind>(k)),
                   t.kernelCalls[k], "count");
    report.add("parallel.busy_frac", x.busyFrac, "frac");
    report.add("parallel.speedup", x.speedup, "x");
    report.add("provider.lists_remote", t.listsRemote, "count");
    report.add("provider.lists_local", t.listsLocal, "count");
    report.add("cache.hit_rate",
               ratio(t.cacheHits, t.cacheHits + t.cacheMisses), "frac");
    report.add("cache.insertions", t.cacheInsertions, "count");
    report.add("cache.cache_ns", t.cacheNs, "ns");
    report.add("horizontal.hits", t.horizontalHits, "count");
    report.add("horizontal.drops", t.horizontalDrops, "count");
    report.add("circulant.fetch_batches", t.fetchBatches, "count");
    report.add("circulant.comm_exposed_ns", t.commExposedNs, "ns");
    report.add("circulant.overlap_frac",
               t.commTotalNs > 0 ? 1.0 - t.commExposedNs / t.commTotalNs
                                 : 0,
               "frac");
    report.add("fabric.messages", t.messages, "count");
    report.add("modeled_makespan_ms", t.makespanNs * 1e-6, "ms");
    report.add("modeled_traffic_mb", static_cast<double>(t.bytes) / 1e6,
               "MB");
    report.add("service.queue_wait_ms_p50", x.queueWaitMsP50, "ms");
    report.add("service.peak_in_flight", x.peakInFlight, "count");
    report.add("service.generator_lag_ms", x.generatorLagMs, "ms");
    report.add("residency.hit_rate", x.residencyHitRate, "frac");
    report.add("steal.chunks", t.stealChunks, "count");
    report.add("steal.bytes", t.stealBytes, "bytes");
    report.add("steal.overhead_ns", t.stealOverheadNs, "ns");
    report.add("faults.injected", t.faultsInjected, "count");
    report.add("faults.retried", t.faultsRetried, "count");
    report.add("recovery.checkpoints", t.checkpoints, "count");
    report.add("recovery.chunks_adopted", t.chunksAdopted, "count");
    report.add("recovery.overhead_ns", t.recoveryOverheadNs, "ns");
    report.add("trace.records", t.traceRecords, "count");
    report.add("trace.overhead_frac", x.traceOverheadFrac, "frac");
    for (const auto &[mode, ns] : replay.nsPerItem)
        report.add("kernels.replay_ns_per_item." + mode, ns, "ns/item");
    report.add("kernels.auto_vs_best", replay.autoVsBest, "x");
}

std::string
fmt(const char *format, double a, double b = 0, double c = 0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

/**
 * @p rss_mb holds RSS high-water marks of the window's intervals
 * (one query pass, or one second of serving); peak_rss_mb is their
 * median, so one rare allocation spike does not decide it.
 */
void
endToEndReport(Outcome &out, double setup_s,
               const std::vector<double> &latency_ms, double cpu_ms,
               const std::vector<double> &rss_mb, double slo_met,
               double attempted, double failed)
{
    const Tail tail = tailOf(latency_ms);
    out.notes.push_back(fmt("latency_ms_tail is p%.2f of %.0f samples",
                            tail.percentile,
                            static_cast<double>(tail.samples)));
    out.report.add("setup_s", setup_s, "s");
    out.report.add("latency_ms_p50", median(latency_ms), "ms");
    out.report.add("latency_ms_tail", tail.value, "ms");
    out.report.add("cpu_ms_per_query", cpu_ms, "ms");
    out.report.add("peak_rss_mb", median(rss_mb), "MB");
    out.report.add("success_rate", 1.0 - ratio(failed, attempted), "frac");
    out.report.add("slo_met_frac", ratio(slo_met, attempted), "frac");
}

// ---------------------------------------------------------------
// Running a workload.
// ---------------------------------------------------------------

/**
 * Set up the whole family repeatedly, at least 7 times and for at
 * least 2 s (a single mc set-up takes ~20 ms), and keep the last one;
 * setup_s is the median.  Set-up spans of every repetition are
 * recorded.
 */
std::vector<Resident>
timedSetUp(const WorkloadDef &def, const Options &options, Tracer &tracer,
           double &setup_s)
{
    const int min_reps = options.tiny ? 2 : 7;
    const double min_ns = options.tiny ? 0 : 2e9;
    const std::uint64_t k = options.tiny ? std::min<std::uint64_t>(
                                               def.instances, 2)
                                         : def.instances;
    std::vector<double> seconds;
    std::vector<Resident> family;
    const double start = nowNs();
    for (int rep = 0; rep < min_reps || nowNs() - start < min_ns; ++rep) {
        family.clear();
        const double t0 = nowNs();
        for (std::uint64_t i = 0; i < k; ++i)
            family.push_back(setUp(def, options.seed * def.instances + i,
                                   i, options.tiny, tracer));
        seconds.push_back((nowNs() - t0) * 1e-9);
    }
    setup_s = median(seconds);
    return family;
}

void
runBatch(const WorkloadDef &def, const Options &options,
         std::vector<Resident> &family, double setup_s, Checker &checker,
         Tracer &tracer, Outcome &out)
{
    // Warm-up pass over every instance, outside the window; its stats
    // are the layer counters (every pass of an instance is modeled
    // identically).  A failed warm-up fails the run via the checker.
    LayerTotals totals;
    for (Resident &r : family)
        runPass(r, def.session, checker, tracer, &totals);

    const double slo = options.sloMs;
    if (!options.trace) {
        const Phase phase = runPhases(family, def.session, checker, {&tracer},
                                      options.seconds, family.size(), slo)[0];
        const double passes = static_cast<double>(phase.latencyMs.size());
        out.attempted = phase.latencyMs.size();
        out.failed = phase.failed;
        endToEndReport(out, setup_s, phase.latencyMs,
                       phase.cpuNs * 1e-6 / passes, phase.peakRssMb,
                       static_cast<double>(phase.sloMet), passes,
                       static_cast<double>(phase.failed));
        return;
    }

    // Traced run: every instance visit runs an untraced and a traced
    // pass; the difference is the span overhead.  The 1-thread
    // passes run on the first instance and compare with its N-thread
    // untraced passes.
    Tracer untraced(false);
    const std::vector<Phase> paired =
        runPhases(family, def.session, checker, {&untraced, &tracer},
                  options.seconds, family.size(), slo);
    const Phase &plain = paired[0];
    const Phase &traced = paired[1];
    core::SessionConfig one_thread = def.session;
    one_thread.hostThreads = 1;
    const Phase serial =
        runPhases(std::span<Resident>(family).first(1), one_thread, checker,
                  {&untraced}, 0, options.tiny ? 1 : 2, slo)[0];
    out.attempted = plain.latencyMs.size() + traced.latencyMs.size()
        + serial.latencyMs.size();
    out.failed = plain.failed + traced.failed + serial.failed;

    std::vector<double> first_parallel;
    for (std::size_t p = 0; p < plain.latencyMs.size(); p += family.size())
        first_parallel.push_back(plain.latencyMs[p]);

    LayerExtras x;
    x.sessionMs = median(tracer.durationsMs("engine.session"));
    x.runMs = median(tracer.durationsMs("engine.run"));
    x.busyFrac = ratio(traced.runCpuNs, traced.runNs * options.threads);
    x.speedup = ratio(median(serial.latencyMs), median(first_parallel));
    x.traceOverheadFrac = ratio(median(traced.latencyMs),
                                median(plain.latencyMs)) - 1.0;
    const Replay replay =
        kernelReplay(*family[0].graph, options.tiny, checker);
    perLayerReport(out.report, tracer, totals, x, replay);
}

/** Host cost (ns) of opening and closing one span, averaged over
 *  10^5 spans on a scratch tracer. */
double
spanCostNs()
{
    constexpr int kSpans = 100'000;
    Tracer scratch(true);
    const double t0 = nowNs();
    for (int i = 0; i < kSpans; ++i)
        Tracer::Scope span(scratch, "service.submit");
    return (nowNs() - t0) / kSpans;
}

void
runServe(const WorkloadDef &def, const Options &options, Resident &r,
         double setup_s, Checker &checker, Tracer &tracer, Outcome &out)
{
    const unsigned units = r.context->partition().numUnits();
    if (!options.trace) {
        const std::vector<ServeQuery> stream =
            makeStream(def, options.seed, options.seconds, units);
        const ServeResult s =
            serveStream(r, def, stream, options, checker, tracer);
        out.attempted = stream.size();
        out.failed = s.failed;
        endToEndReport(out, setup_s, s.latencyMs,
                       s.cpuNs * 1e-6 / static_cast<double>(stream.size()),
                       s.peakRssMb, static_cast<double>(s.sloMet),
                       static_cast<double>(stream.size()),
                       static_cast<double>(s.failed));
        out.notes.push_back(fmt("served %.0f queries in %.2f s, "
                                "generator lag at most %.3f ms",
                                static_cast<double>(stream.size()),
                                s.wallNs * 1e-9, s.maxLagMs));
        return;
    }

    // Traced run.  Two open-loop streams differ by more run-to-run
    // noise than the few spans the stream records cost, so the
    // overhead is the tracer's own cost: spans x cost per span.
    const std::vector<ServeQuery> stream =
        makeStream(def, options.seed, options.seconds, units);
    const std::size_t spans0 = tracer.size();
    const ServeResult traced =
        serveStream(r, def, stream, options, checker, tracer);
    const double stream_spans =
        static_cast<double>(tracer.size() - spans0);
    out.attempted = stream.size();
    out.failed = traced.failed;

    // Solo probe over the stream's first queries: a session per query
    // at N threads (session and run spans); fault-free ones again at
    // 1 thread for the speed-up.
    Tracer untraced(false);
    double serial_ns = 0;
    double parallel_ns = 0;
    for (std::size_t i = 0; i < stream.size() && i < 24; ++i) {
        const ServeQuery &q = stream[i];
        const bool healthy = q.session.faults.empty();
        for (const unsigned threads : {options.threads, 1u}) {
            if (threads == 1 && !healthy)
                continue;
            core::SessionConfig session = q.session;
            session.hostThreads = threads;
            Tracer &t = threads == 1 ? untraced : tracer;
            std::unique_ptr<core::Engine> engine;
            {
                Tracer::Scope span(t, "engine.session");
                engine = std::make_unique<core::Engine>(*r.context,
                                                        session);
            }
            const double t0 = nowNs();
            Count count = 0;
            {
                Tracer::Scope span(t, "engine.run");
                count = engine->run(r.plans[q.pattern]);
            }
            if (healthy)
                (threads == 1 ? serial_ns : parallel_ns) += nowNs() - t0;
            checker.check(r.reference[q.pattern], q.key, count,
                          engine->stats().toJson(false));
        }
    }

    LayerExtras x;
    x.sessionMs = median(tracer.durationsMs("engine.session"));
    x.runMs = median(tracer.durationsMs("engine.run"));
    x.busyFrac = ratio(traced.cpuNs, traced.wallNs * options.threads);
    x.speedup = ratio(serial_ns, parallel_ns);
    x.queueWaitMsP50 = median(traced.queueWaitMs);
    x.peakInFlight = traced.peakInFlight;
    x.generatorLagMs = traced.maxLagMs;
    x.residencyHitRate =
        ratio(traced.residencyHits, traced.residencyProbes);
    x.traceOverheadFrac =
        ratio(stream_spans * spanCostNs(), traced.wallNs);
    const Replay replay = kernelReplay(*r.graph, options.tiny, checker);
    perLayerReport(out.report, tracer, traced.totals, x, replay);
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"lj-5cc", "pt-sparse", "mc-serve"};
}

Outcome
runWorkload(const Options &options)
{
    const WorkloadDef def = defineWorkload(options.workload,
                                           options.threads);
    Tracer tracer(options.trace);
    Outcome out;

    double setup_s = 0;
    std::vector<Resident> family = timedSetUp(def, options, tracer, setup_s);

    // Outside every timed region: the seed check and the oracle.
    Checker checker;
    const std::string seed_error = seedCheck(
        def, options.seed, options.tiny ? nullptr : family[0].graph.get());
    if (!seed_error.empty())
        checker.fail(seed_error);
    referenceCounts(family, def, options.threads);

    if (def.serve)
        runServe(def, options, family[0], setup_s, checker, tracer, out);
    else
        runBatch(def, options, family, setup_s, checker, tracer, out);

    char fingerprint[32];
    std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                  static_cast<unsigned long long>(checker.fingerprint()));
    out.notes.push_back(std::string("modeled fingerprint ") + fingerprint);
    out.correct = checker.firstError().empty() && out.failed == 0;
    if (!checker.firstError().empty())
        out.notes.push_back("check failed: " + checker.firstError());
    return out;
}

} // namespace perfbench
