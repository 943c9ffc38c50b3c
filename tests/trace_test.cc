/**
 * @file
 * Phase-event tracing tests: the sink implementations in isolation,
 * the cross-check between the engine's internal event tallies and
 * its RunStats counters, and the observation-only guarantee (a run
 * is bit-exact with tracing enabled or disabled).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/engine.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "sim/trace.hh"

namespace khuzdul
{
namespace
{

core::EngineConfig
traceConfig()
{
    core::EngineConfig config;
    config.cluster = sim::ClusterConfig::paperDefault(4);
    config.cluster.socketsPerNode = 1;
    config.chunkBytes = 64 << 10;
    config.cacheDegreeThreshold = 8;
    return config;
}

TEST(Trace, PhaseEventNamesAreStable)
{
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::ChunkOpen),
                 "chunk_open");
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::FetchBatchIssued),
                 "fetch_batch_issued");
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::CacheMiss),
                 "cache_miss");
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::KernelDispatch),
                 "kernel_dispatch");
}

TEST(Trace, CountingSinkTalliesPerEvent)
{
    sim::CountingTraceSink sink;
    sink.emit({sim::PhaseEvent::ChunkOpen, 0, 0, 10, 0});
    sink.emit({sim::PhaseEvent::ChunkOpen, 1, 2, 5, 0});
    sink.emit({sim::PhaseEvent::CacheHit, 0, 0, 42, 0});
    EXPECT_EQ(sink.count(sim::PhaseEvent::ChunkOpen), 2u);
    EXPECT_EQ(sink.valueSum(sim::PhaseEvent::ChunkOpen), 15u);
    EXPECT_EQ(sink.count(sim::PhaseEvent::CacheHit), 1u);
    EXPECT_EQ(sink.total(), 3u);
    sink.reset();
    EXPECT_EQ(sink.total(), 0u);
    EXPECT_EQ(sink.valueSum(sim::PhaseEvent::ChunkOpen), 0u);
}

TEST(Trace, CountingSinkAbsorbSumsTallies)
{
    sim::CountingTraceSink a;
    sim::CountingTraceSink b;
    a.emit({sim::PhaseEvent::ChunkOpen, 0, 0, 10, 0});
    a.emit({sim::PhaseEvent::CacheHit, 0, 0, 3, 0});
    b.emit({sim::PhaseEvent::ChunkOpen, 1, 0, 7, 0});
    b.emit({sim::PhaseEvent::QueryRetried, 0, 0, 1, 0});

    // Absorbing in either order gives the same exact sum.
    sim::CountingTraceSink ab;
    ab.absorb(a);
    ab.absorb(b);
    sim::CountingTraceSink ba;
    ba.absorb(b);
    ba.absorb(a);
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
        const auto event = static_cast<sim::PhaseEvent>(e);
        EXPECT_EQ(ab.count(event), a.count(event) + b.count(event));
        EXPECT_EQ(ab.valueSum(event),
                  a.valueSum(event) + b.valueSum(event));
        EXPECT_EQ(ba.count(event), ab.count(event));
        EXPECT_EQ(ba.valueSum(event), ab.valueSum(event));
    }
    EXPECT_EQ(ab.count(sim::PhaseEvent::ChunkOpen), 2u);
    EXPECT_EQ(ab.valueSum(sim::PhaseEvent::ChunkOpen), 17u);
    EXPECT_EQ(ab.total(), 4u);

    // The absorbed sink is left untouched; an empty one adds nothing.
    EXPECT_EQ(a.total(), 2u);
    ab.absorb(sim::CountingTraceSink{});
    EXPECT_EQ(ab.total(), 4u);
}

TEST(Trace, BufferingSinkFlushReplaysInOrderThenEmpties)
{
    sim::BufferingTraceSink buffer;
    buffer.emit({sim::PhaseEvent::ChunkOpen, 2, 0, 1, 0});
    buffer.emit({sim::PhaseEvent::ChunkClose, 2, 0, 1, 0});
    EXPECT_EQ(buffer.size(), 2u);
    std::ostringstream out;
    sim::JsonLinesTraceSink sink(out);
    buffer.flushTo(sink);
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(out.str(),
              "{\"event\":\"chunk_open\",\"unit\":2,\"level\":0,"
              "\"value\":1,\"aux\":0}\n"
              "{\"event\":\"chunk_close\",\"unit\":2,\"level\":0,"
              "\"value\":1,\"aux\":0}\n");
}

TEST(Trace, JsonLinesSinkFormat)
{
    std::ostringstream out;
    sim::JsonLinesTraceSink sink(out);
    sink.emit({sim::PhaseEvent::FetchBatchIssued, 3, 2, 77, 5});
    EXPECT_EQ(out.str(),
              "{\"event\":\"fetch_batch_issued\",\"unit\":3,"
              "\"level\":2,\"value\":77,\"aux\":5}\n");
}

TEST(Trace, TeeFansOutToOptionalSecondary)
{
    sim::CountingTraceSink primary;
    sim::CountingTraceSink secondary;
    sim::TeeTraceSink tee(primary);
    EXPECT_EQ(tee.secondary(), nullptr);
    tee.emit({sim::PhaseEvent::ExtendStart, 0, 0, 1, 0});
    tee.secondary(&secondary);
    EXPECT_EQ(tee.secondary(), &secondary);
    tee.emit({sim::PhaseEvent::ExtendStart, 0, 0, 1, 0});
    tee.secondary(nullptr);
    EXPECT_EQ(tee.secondary(), nullptr);
    tee.emit({sim::PhaseEvent::ExtendStart, 0, 0, 1, 0});
    EXPECT_EQ(primary.count(sim::PhaseEvent::ExtendStart), 3u);
    EXPECT_EQ(secondary.count(sim::PhaseEvent::ExtendStart), 1u);
}

TEST(Trace, EngineEventsCrossCheckRunStats)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    core::Engine engine(g, traceConfig());
    engine.run(compileAutomine(Pattern::clique(4), {}));

    const sim::CountingTraceSink &t = engine.traceCounts();
    std::uint64_t chunks = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto &node : engine.stats().nodes) {
        chunks += node.chunksProcessed;
        hits += node.staticCacheHits;
        misses += node.staticCacheMisses;
    }
    EXPECT_GT(chunks, 0u);
    EXPECT_EQ(t.count(sim::PhaseEvent::ChunkOpen), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::ChunkClose), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::ExtendStart), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::ExtendEnd), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::CacheHit), hits);
    EXPECT_EQ(t.count(sim::PhaseEvent::CacheMiss), misses);
    // One socket per node: every issued batch crosses the network,
    // so issued events match the message count, and the issued
    // payload sum matches the bytes on the wire.
    EXPECT_EQ(t.count(sim::PhaseEvent::FetchBatchIssued),
              engine.stats().totalMessages());
    EXPECT_EQ(t.count(sim::PhaseEvent::FetchBatchCompleted),
              t.count(sim::PhaseEvent::FetchBatchIssued));
    EXPECT_EQ(t.valueSum(sim::PhaseEvent::FetchBatchIssued),
              engine.stats().totalBytesSent());
    // Kernel-dispatch events carry per-chunk call deltas whose sum
    // must equal the kernel-call totals accumulated in RunStats.
    std::uint64_t kernel_calls = 0;
    for (const auto &node : engine.stats().nodes)
        for (const std::uint64_t calls : node.kernelCalls)
            kernel_calls += calls;
    EXPECT_GT(kernel_calls, 0u);
    EXPECT_EQ(t.valueSum(sim::PhaseEvent::KernelDispatch),
              kernel_calls);
}

TEST(Trace, TracingIsObservationOnly)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    const auto plan = compileAutomine(Pattern::clique(4), {});

    core::Engine plain(g, traceConfig());
    const Count count_plain = plain.run(plan);

    core::Engine traced(g, traceConfig());
    std::ostringstream out;
    sim::JsonLinesTraceSink sink(out);
    traced.setTraceSink(&sink);
    const Count count_traced = traced.run(plan);

    EXPECT_EQ(count_traced, count_plain);
    EXPECT_FALSE(out.str().empty());
    // Bit-exact stats: attaching a sink must not perturb the run.
    EXPECT_DOUBLE_EQ(traced.stats().makespanNs(),
                     plain.stats().makespanNs());
    EXPECT_DOUBLE_EQ(traced.stats().totalComputeNs(),
                     plain.stats().totalComputeNs());
    EXPECT_DOUBLE_EQ(traced.stats().totalCacheNs(),
                     plain.stats().totalCacheNs());
    EXPECT_EQ(traced.stats().totalBytesSent(),
              plain.stats().totalBytesSent());
    EXPECT_EQ(traced.stats().totalMessages(),
              plain.stats().totalMessages());
    EXPECT_EQ(traced.stats().totalEmbeddings(),
              plain.stats().totalEmbeddings());
    EXPECT_EQ(traced.traceCounts().total(),
              plain.traceCounts().total());
}

/** Every per-event count and payload sum of @p a equals @p b's. */
void
expectSameTallies(const sim::CountingTraceSink &a,
                  const sim::CountingTraceSink &b, const std::string &what)
{
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
        const auto event = static_cast<sim::PhaseEvent>(e);
        EXPECT_EQ(a.count(event), b.count(event))
            << what << ": " << phaseEventName(event);
        EXPECT_EQ(a.valueSum(event), b.valueSum(event))
            << what << ": " << phaseEventName(event);
    }
}

/** traceConfig() with stealing, a degraded node and a unit crash, so
 *  the post-merge events (StealIssued/Completed, ChunkAdopted) fire. */
core::EngineConfig
faultedTraceConfig()
{
    core::EngineConfig config = traceConfig();
    config.chunkBytes = 16 << 10;
    config.stealEnabled = true;
    config.stealBacklogThresholdNs = 2.0e3;
    config.faults.add("degrade:3-*:factor=5:from=0");
    config.faults.add("crash:1:level=1:chunk=1");
    return config;
}

TEST(Trace, UnitTalliesMatchWithAndWithoutUserSink)
{
    // Units always tally; they buffer only while a user sink is
    // installed.  Both paths must fold to the same exact tallies at
    // every thread count, and the user sink must see them all.
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    const auto plan = compileAutomine(Pattern::clique(4), {});
    for (const bool faulted : {false, true}) {
        const core::EngineConfig base =
            faulted ? faultedTraceConfig() : traceConfig();
        sim::CountingTraceSink reference;
        for (const unsigned threads : {1u, 4u}) {
            const std::string what =
                std::string(faulted ? "faulted" : "healthy")
                + " threads=" + std::to_string(threads);
            core::EngineConfig config = base;
            config.hostThreads = threads;

            core::Engine plain(g, config);
            const Count count_plain = plain.run(plan);

            core::Engine traced(g, config);
            sim::CountingTraceSink user;
            traced.setTraceSink(&user);
            EXPECT_EQ(traced.run(plan), count_plain) << what;

            EXPECT_GT(plain.traceCounts().total(), 0u) << what;
            expectSameTallies(plain.traceCounts(), traced.traceCounts(),
                              what + " no sink vs sink");
            expectSameTallies(traced.traceCounts(), user,
                              what + " engine vs user sink");
            if (threads == 1)
                reference = plain.traceCounts();
            expectSameTallies(plain.traceCounts(), reference,
                              what + " vs threads=1");
            if (faulted) {
                const sim::CountingTraceSink &t = plain.traceCounts();
                EXPECT_GT(t.count(sim::PhaseEvent::StealIssued), 0u);
                EXPECT_EQ(t.count(sim::PhaseEvent::StealCompleted),
                          t.count(sim::PhaseEvent::StealIssued));
                EXPECT_EQ(t.count(sim::PhaseEvent::UnitCrashed), 1u);
                EXPECT_GT(t.count(sim::PhaseEvent::ChunkAdopted), 0u);
            }
        }
    }
}

TEST(Trace, TalliesAccumulateAcrossSinkInstallAndRemoval)
{
    // One session runs with a sink, without, then with one again;
    // a twin session never has a sink.  Engine tallies must match
    // the twin's after every run, and the user sink must see exactly
    // the runs it was installed for.
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    const auto plan = compileAutomine(Pattern::clique(4), {});
    core::EngineConfig config = traceConfig();
    config.hostThreads = 4;
    core::Engine engine(g, config);
    core::Engine twin(g, config);

    sim::CountingTraceSink user;
    engine.setTraceSink(&user);
    engine.run(plan);
    twin.run(plan);
    expectSameTallies(engine.traceCounts(), twin.traceCounts(), "run 1");
    expectSameTallies(user, engine.traceCounts(), "user after run 1");
    const sim::CountingTraceSink after_first = engine.traceCounts();

    engine.setTraceSink(nullptr);
    engine.run(plan);
    twin.run(plan);
    expectSameTallies(engine.traceCounts(), twin.traceCounts(), "run 2");
    expectSameTallies(user, after_first, "user after run 2");
    EXPECT_GT(engine.traceCounts().total(), after_first.total());
    const sim::CountingTraceSink after_second = engine.traceCounts();

    engine.setTraceSink(&user);
    engine.run(plan);
    twin.run(plan);
    expectSameTallies(engine.traceCounts(), twin.traceCounts(), "run 3");
    // The sink saw runs 1 and 3: the engine's total minus run 2.
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
        const auto event = static_cast<sim::PhaseEvent>(e);
        const std::uint64_t run2_count =
            after_second.count(event) - after_first.count(event);
        const std::uint64_t run2_value =
            after_second.valueSum(event) - after_first.valueSum(event);
        EXPECT_EQ(user.count(event),
                  engine.traceCounts().count(event) - run2_count)
            << phaseEventName(event);
        EXPECT_EQ(user.valueSum(event),
                  engine.traceCounts().valueSum(event) - run2_value)
            << phaseEventName(event);
    }
}

TEST(Trace, FailedMergeLeavesSameTalliesOnBothPaths)
{
    // A byte cap fires during the ordered merge, after some units'
    // tallies are folded.  With or without a user sink the engine
    // must hold the same partial tallies, and the next run must not
    // fold any leftovers of the failed one.
    const Graph g = gen::rmat(400, 4000, 0.6, 0.15, 0.15, 44);
    const auto plan = compileAutomine(Pattern::clique(4), {});
    core::EngineConfig config = traceConfig();
    config.cachePolicy = core::CachePolicy::None;
    config.horizontalSharing = false;
    config.hostThreads = 4;

    core::Engine fresh(g, config);
    fresh.run(plan);
    const std::uint64_t total_bytes = fresh.fabric().totalBytes();
    ASSERT_GT(total_bytes, 0u);

    sim::CountingTraceSink partial;
    for (const bool with_sink : {false, true}) {
        const std::string what = with_sink ? "sink" : "no sink";
        core::Engine engine(g, config);
        sim::CountingTraceSink user;
        if (with_sink)
            engine.setTraceSink(&user);
        engine.fabric().setByteCap(total_bytes / 2);
        EXPECT_THROW(engine.run(plan), sim::ByteCapExceededFault);
        // Some but not all units were folded before the cap fired.
        EXPECT_GT(engine.traceCounts().total(), 0u) << what;
        EXPECT_LT(engine.traceCounts().total(),
                  fresh.traceCounts().total()) << what;
        if (with_sink) {
            expectSameTallies(engine.traceCounts(), partial, what);
            expectSameTallies(user, partial, what + " user sink");
        } else {
            partial = engine.traceCounts();
        }

        engine.fabric().setByteCap(0);
        engine.run(plan);
        for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
            const auto event = static_cast<sim::PhaseEvent>(e);
            EXPECT_EQ(engine.traceCounts().count(event),
                      partial.count(event)
                          + fresh.traceCounts().count(event))
                << what << ": " << phaseEventName(event);
            EXPECT_EQ(engine.traceCounts().valueSum(event),
                      partial.valueSum(event)
                          + fresh.traceCounts().valueSum(event))
                << what << ": " << phaseEventName(event);
        }
        if (with_sink)
            expectSameTallies(user, engine.traceCounts(),
                              what + " user sink after rerun");
    }
}

TEST(Trace, ResetStatsClearsEventCounts)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    core::Engine engine(g, traceConfig());
    engine.run(compileAutomine(Pattern::triangle(), {}));
    EXPECT_GT(engine.traceCounts().total(), 0u);
    engine.resetStats();
    EXPECT_EQ(engine.traceCounts().total(), 0u);
}

} // namespace
} // namespace khuzdul
