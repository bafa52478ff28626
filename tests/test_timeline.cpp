/**
 * @file
 * Tests of the timeline tracer: category parsing and gating, ring-cap
 * drop-oldest behaviour, Chrome-trace export validity, event ordering
 * under concurrent parallelFor emission, the trace_summarize fold, and
 * an end-to-end tiny-scene trace through the full simulator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/stats/report.hpp"
#include "src/stats/timeline.hpp"
#include "src/trace/render.hpp"
#include "src/util/parallel.hpp"

namespace sms {
namespace {

/** Tracer fixture: every test starts and ends with tracing off. */
class TimelineTest : public ::testing::Test
{
  protected:
    void SetUp() override { timelineShutdown(); }
    void TearDown() override
    {
        timelineShutdown();
        if (!trace_path_.empty())
            std::remove(trace_path_.c_str());
    }

    /** Enable tracing with no export path (tests export explicitly). */
    void
    enable(uint32_t categories = kTimelineAllCategories,
           size_t cap = 1u << 16)
    {
        TimelineConfig config;
        config.categories = categories;
        config.ring_capacity = cap;
        timelineConfigure(config);
    }

    /** Export to a per-test temp file and parse the document. */
    JsonValue
    exportAndParse()
    {
        trace_path_ = std::string("test_timeline_") +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".json";
        std::string error;
        EXPECT_TRUE(timelineExportTo(trace_path_, error)) << error;
        std::ifstream in(trace_path_, std::ios::binary);
        EXPECT_TRUE(in.good());
        std::ostringstream buffer;
        buffer << in.rdbuf();
        JsonValue doc;
        EXPECT_TRUE(JsonValue::parse(buffer.str(), doc, error)) << error;
        return doc;
    }

    std::string trace_path_;
};

TEST_F(TimelineTest, CategoryParsing)
{
    uint32_t mask = 0;
    std::string error;
    EXPECT_TRUE(timelineParseCategories("stack,cache", mask, error));
    EXPECT_EQ(mask,
              static_cast<uint32_t>(TimelineCategory::Stack) |
                  static_cast<uint32_t>(TimelineCategory::Cache));
    EXPECT_TRUE(timelineParseCategories("all", mask, error));
    EXPECT_EQ(mask, kTimelineAllCategories);
    EXPECT_TRUE(timelineParseCategories("default", mask, error));
    EXPECT_EQ(mask, kTimelineDefaultCategories);
    EXPECT_TRUE(timelineParseCategories("", mask, error));
    EXPECT_EQ(mask, kTimelineDefaultCategories);
    EXPECT_TRUE(timelineParseCategories("default,stackops", mask, error));
    EXPECT_EQ(mask, kTimelineAllCategories);
    EXPECT_FALSE(timelineParseCategories("bogus", mask, error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST_F(TimelineTest, CategoryListRoundTrips)
{
    for (uint32_t mask :
         {kTimelineDefaultCategories, kTimelineAllCategories,
          static_cast<uint32_t>(TimelineCategory::Dram)}) {
        uint32_t parsed = 0;
        std::string error;
        ASSERT_TRUE(timelineParseCategories(timelineCategoryList(mask),
                                            parsed, error))
            << error;
        EXPECT_EQ(parsed, mask);
    }
    // StackOps is deliberately not part of the default mask.
    EXPECT_EQ(kTimelineDefaultCategories &
                  static_cast<uint32_t>(TimelineCategory::StackOps),
              0u);
}

TEST_F(TimelineTest, OffByDefaultAndEmissionsAreNoOps)
{
    EXPECT_FALSE(timelineAnyOn());
    EXPECT_FALSE(timelineOn(TimelineCategory::Stack));
    timelineSpan(TimelineCategory::Stack, "ignored", 0, 10);
    timelineInstantNow(TimelineCategory::Stack, "ignored");
    timelineCounter(TimelineCategory::Dram, "ignored", 0, 1);
    TimelineStats stats = timelineStats();
    EXPECT_FALSE(stats.enabled);
    EXPECT_EQ(stats.events_recorded, 0u);
}

TEST_F(TimelineTest, CategoryFilterDropsDisabledCategories)
{
    enable(static_cast<uint32_t>(TimelineCategory::Cache));
    EXPECT_TRUE(timelineOn(TimelineCategory::Cache));
    EXPECT_FALSE(timelineOn(TimelineCategory::Stack));
    timelineSpan(TimelineCategory::Stack, "dropped", 0, 5);
    timelineSpan(TimelineCategory::Cache, "kept", 0, 5);
    TimelineStats stats = timelineStats();
    EXPECT_EQ(stats.events_recorded, 1u);
}

TEST_F(TimelineTest, RingCapDropsOldestKeepsNewest)
{
    enable(kTimelineAllCategories, 8);
    for (uint64_t i = 0; i < 20; ++i)
        timelineSpan(TimelineCategory::Sim, "span", i, 1);

    TimelineStats stats = timelineStats();
    EXPECT_EQ(stats.events_recorded, 20u);
    EXPECT_EQ(stats.events_kept, 8u);
    EXPECT_EQ(stats.events_dropped, 12u);

    JsonValue doc = exportAndParse();
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::vector<uint64_t> ts;
    for (const JsonValue &e : events->elements())
        if (e.stringOr("ph", "") == "X")
            ts.push_back(static_cast<uint64_t>(e.numberOr("ts", -1.0)));
    // Drop-oldest: exactly the last 8 timestamps survive, in order.
    ASSERT_EQ(ts.size(), 8u);
    for (size_t i = 0; i < ts.size(); ++i)
        EXPECT_EQ(ts[i], 12 + i);
    EXPECT_EQ(doc.find("otherData")->numberOr("events_dropped", 0.0),
              12.0);
}

TEST_F(TimelineTest, ExportIsValidChromeTraceJson)
{
    enable();
    uint32_t pid = timelineNewProcess("test process");
    timelineNameThread(pid, 3, "test thread");
    TimelineContext &ctx = timelineContext();
    ctx.pid = pid;
    ctx.tid = 3;
    ctx.now = 40;
    timelineSpan(TimelineCategory::Sim, "work", 10, 25, 7, "items");
    timelineInstantNow(TimelineCategory::Stack, "borrow", 2, "chain_len");
    timelineCounter(TimelineCategory::Dram, "backlog", 50, 11);
    ctx = TimelineContext{};

    JsonValue doc = exportAndParse();
    EXPECT_EQ(doc.stringOr("displayTimeUnit", ""), "ms");
    const JsonValue *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->stringOr("schema", ""), "sms-timeline-1");

    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw_process_meta = false, saw_thread_meta = false;
    bool saw_span = false, saw_instant = false, saw_counter = false;
    for (const JsonValue &e : events->elements()) {
        std::string ph = e.stringOr("ph", "");
        std::string name = e.stringOr("name", "");
        if (ph == "M" && name == "process_name" &&
            e.numberOr("pid", -1.0) == pid)
            saw_process_meta = true;
        if (ph == "M" && name == "thread_name" &&
            e.numberOr("tid", -1.0) == 3)
            saw_thread_meta = true;
        if (ph == "X" && name == "work") {
            saw_span = true;
            EXPECT_EQ(e.numberOr("ts", 0.0), 10.0);
            EXPECT_EQ(e.numberOr("dur", 0.0), 25.0);
            EXPECT_EQ(e.numberOr("pid", 0.0), pid);
            EXPECT_EQ(e.numberOr("tid", 0.0), 3.0);
            EXPECT_EQ(e.stringOr("cat", ""), "sim");
            ASSERT_NE(e.find("args"), nullptr);
            EXPECT_EQ(e.find("args")->numberOr("items", 0.0), 7.0);
        }
        if (ph == "i" && name == "borrow") {
            saw_instant = true;
            // Instants stamp at the context's current cycle.
            EXPECT_EQ(e.numberOr("ts", 0.0), 40.0);
            EXPECT_EQ(e.stringOr("s", ""), "t");
        }
        if (ph == "C" && name == "backlog") {
            saw_counter = true;
            ASSERT_NE(e.find("args"), nullptr);
            EXPECT_EQ(e.find("args")->numberOr("value", 0.0), 11.0);
        }
    }
    EXPECT_TRUE(saw_process_meta);
    EXPECT_TRUE(saw_thread_meta);
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_counter);
}

TEST_F(TimelineTest, ConcurrentEmissionKeepsPerTrackOrder)
{
    enable();
    constexpr size_t kTracks = 8;
    constexpr uint64_t kPerTrack = 200;
    parallelFor(kTracks, [&](size_t i) {
        TimelineContext &ctx = timelineContext();
        ctx.pid = 1;
        ctx.tid = static_cast<uint32_t>(i);
        for (uint64_t k = 0; k < kPerTrack; ++k)
            timelineSpan(TimelineCategory::Sim, "work", k * 10, 5, i,
                         "track");
        ctx = TimelineContext{};
    });

    TimelineStats stats = timelineStats();
    EXPECT_EQ(stats.events_recorded, kTracks * kPerTrack);
    EXPECT_EQ(stats.events_dropped, 0u);

    JsonValue doc = exportAndParse();
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // Per (pid, tid) track: all events present, timestamps ascending in
    // file order whatever thread interleaving produced them.
    std::vector<uint64_t> seen(kTracks, 0);
    std::vector<double> last_ts(kTracks, -1.0);
    for (const JsonValue &e : events->elements()) {
        if (e.stringOr("ph", "") != "X")
            continue;
        auto tid = static_cast<size_t>(e.numberOr("tid", -1.0));
        ASSERT_LT(tid, kTracks);
        double ts = e.numberOr("ts", -1.0);
        EXPECT_GE(ts, last_ts[tid]);
        last_ts[tid] = ts;
        ++seen[tid];
    }
    for (size_t i = 0; i < kTracks; ++i)
        EXPECT_EQ(seen[i], kPerTrack) << "track " << i;
}

TEST_F(TimelineTest, SummarizeFoldsPerCategoryTotals)
{
    enable();
    timelineSpan(TimelineCategory::Cache, "l1_miss", 0, 100);
    timelineSpan(TimelineCategory::Cache, "l2_miss", 50, 300);
    timelineInstantNow(TimelineCategory::Stack, "borrow");
    timelineInstantNow(TimelineCategory::Stack, "flush");
    timelineInstantNow(TimelineCategory::Stack, "flush");
    timelineCounter(TimelineCategory::Dram, "dram_backlog", 10, 4);
    timelineCounter(TimelineCategory::Dram, "dram_backlog", 20, 9);

    JsonValue doc = exportAndParse();
    std::vector<TraceCategorySummary> summaries;
    std::string error;
    ASSERT_TRUE(summarizeTraceDocument(doc, summaries, error)) << error;
    ASSERT_EQ(summaries.size(), 3u); // cache, dram, stack (sorted)
    EXPECT_EQ(summaries[0].category, "cache");
    EXPECT_EQ(summaries[0].span_events, 2u);
    EXPECT_EQ(summaries[0].span_time, 400u);
    EXPECT_EQ(summaries[1].category, "dram");
    EXPECT_EQ(summaries[1].counter_events, 2u);
    EXPECT_EQ(summaries[1].counter_max, 9u);
    EXPECT_EQ(summaries[2].category, "stack");
    EXPECT_EQ(summaries[2].instant_events, 3u);
    EXPECT_EQ(summaries[2].span_time, 0u);

    JsonValue not_a_trace = JsonValue::object();
    EXPECT_FALSE(summarizeTraceDocument(not_a_trace, summaries, error));
}

TEST_F(TimelineTest, SummarizeEmptyTraceYieldsZeroTotals)
{
    // A configured-but-idle tracer exports a valid document with no
    // events; the fold must succeed and report exact zeros, not fail.
    enable();
    JsonValue doc = exportAndParse();
    TraceSummary summary;
    std::string error;
    ASSERT_TRUE(summarizeTrace(doc, summary, error)) << error;
    EXPECT_TRUE(summary.categories.empty());
    EXPECT_TRUE(summary.names.empty());
    EXPECT_EQ(summary.doc_events, 0u);
    EXPECT_EQ(summary.events_recorded, 0u);
    EXPECT_EQ(summary.events_dropped, 0u);
}

TEST_F(TimelineTest, SummarizeBreaksDownPerName)
{
    enable();
    timelineSpan(TimelineCategory::Sim, "fetch", 0, 40);
    timelineSpan(TimelineCategory::Sim, "fetch", 50, 10);
    timelineSpan(TimelineCategory::Sim, "intersect", 90, 20);
    timelineInstantNow(TimelineCategory::Stack, "borrow");

    JsonValue doc = exportAndParse();
    TraceSummary summary;
    std::string error;
    ASSERT_TRUE(summarizeTrace(doc, summary, error)) << error;
    ASSERT_EQ(summary.names.size(), 3u); // sorted by (category, name)
    EXPECT_EQ(summary.names[0].category, "sim");
    EXPECT_EQ(summary.names[0].name, "fetch");
    EXPECT_EQ(summary.names[0].span_events, 2u);
    EXPECT_EQ(summary.names[0].span_time, 50u);
    EXPECT_EQ(summary.names[1].name, "intersect");
    EXPECT_EQ(summary.names[1].span_time, 20u);
    EXPECT_EQ(summary.names[2].category, "stack");
    EXPECT_EQ(summary.names[2].name, "borrow");
    EXPECT_EQ(summary.names[2].instant_events, 1u);
    // Per-name rows sum to the per-category rows.
    uint64_t sim_name_time = summary.names[0].span_time +
                             summary.names[1].span_time;
    for (const TraceCategorySummary &s : summary.categories)
        if (s.category == "sim") {
            EXPECT_EQ(s.span_time, sim_name_time);
        }
}

TEST_F(TimelineTest, SummarizeReportsRingDrops)
{
    // With a ring that can only hold 4 of 12 events, the header's
    // recorded/dropped counters must surface through the summary so
    // consumers know the totals are lower bounds.
    enable(kTimelineAllCategories, 4);
    for (uint64_t i = 0; i < 12; ++i)
        timelineSpan(TimelineCategory::Sim, "span", i * 10, 5);

    JsonValue doc = exportAndParse();
    TraceSummary summary;
    std::string error;
    ASSERT_TRUE(summarizeTrace(doc, summary, error)) << error;
    EXPECT_EQ(summary.events_recorded, 12u);
    EXPECT_EQ(summary.events_dropped, 8u);
    EXPECT_EQ(summary.doc_events, 4u);
    ASSERT_EQ(summary.categories.size(), 1u);
    EXPECT_EQ(summary.categories[0].span_events, 4u);
}

TEST_F(TimelineTest, EndToEndTinySceneProducesMultiCategoryTrace)
{
    enable();
    RenderParams params;
    params.width = 24;
    params.height = 24;
    params.spp = 1;
    params.max_bounces = 2;
    auto workload = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny,
                                    &params);
    // A small register-buffer forces RB spills, so the stack category
    // sees traffic even on a tiny scene.
    SimResult result =
        runWorkload(*workload, makeGpuConfig(StackConfig::sms(2, 8)));
    EXPECT_GT(result.cycles, 0u);

    JsonValue doc = exportAndParse();
    std::vector<TraceCategorySummary> summaries;
    std::string error;
    ASSERT_TRUE(summarizeTraceDocument(doc, summaries, error)) << error;
    uint64_t with_span_time = 0;
    uint64_t stack_activity = 0, dram_activity = 0;
    for (const TraceCategorySummary &s : summaries) {
        if (s.span_time > 0)
            ++with_span_time;
        if (s.category == "stack")
            stack_activity = s.instant_events + s.span_events;
        if (s.category == "dram")
            dram_activity = s.counter_events;
    }
    // Cold caches guarantee cache spans; every step emits sim spans;
    // the tiny RB guarantees spill instants; cold misses reach DRAM.
    EXPECT_GE(with_span_time, 2u);
    EXPECT_GT(stack_activity, 0u);
    EXPECT_GT(dram_activity, 0u);

    // The trace process carries the scene/config label for Perfetto.
    bool saw_label = false;
    for (const JsonValue &e : doc.find("traceEvents")->elements()) {
        if (e.stringOr("ph", "") == "M" &&
            e.stringOr("name", "") == "process_name") {
            std::string label =
                e.find("args")->stringOr("name", "");
            if (label.find("BUNNY") != std::string::npos)
                saw_label = true;
        }
    }
    EXPECT_TRUE(saw_label);
}

TEST_F(TimelineTest, SweepTapeWorkHasSpans)
{
    // Building, loading and storing tapes each get a span on the
    // sweep's wall-clock process, on a row naming the scene and
    // variant, with the tape's jobs and bytes as args.
    enable(static_cast<uint32_t>(TimelineCategory::Sweep));
    RenderParams params;
    params.width = 16;
    params.height = 16;
    params.max_bounces = 1;
    std::vector<std::shared_ptr<Workload>> workloads = {
        prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny, &params)};
    std::vector<benchutil::SweepColumn> columns(2);
    columns[1].layout = NodeLayoutConfig::quantized(8);

    const std::string dir = "/tmp/sms_timeline_tapes_" +
                            std::to_string(static_cast<long>(::getpid()));
    const char *old_cache = std::getenv("SMS_WORKLOAD_CACHE");
    std::string saved = old_cache ? old_cache : "";
    ::setenv("SMS_WORKLOAD_CACHE", dir.c_str(), 1);
    benchutil::runSweep(workloads, columns, 1); // builds and stores
    benchutil::runSweep(workloads, columns, 1); // loads
    if (old_cache)
        ::setenv("SMS_WORKLOAD_CACHE", saved.c_str(), 1);
    else
        ::unsetenv("SMS_WORKLOAD_CACHE");
    std::string rm = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(rm.c_str());

    JsonValue doc = exportAndParse();
    std::map<std::string, int> spans;
    std::set<std::string> rows;
    for (const JsonValue &e : doc.find("traceEvents")->elements()) {
        std::string name = e.stringOr("name", "");
        if (e.stringOr("ph", "") == "M" && name == "thread_name")
            rows.insert(e.find("args")->stringOr("name", ""));
        if (e.stringOr("ph", "") != "X" || name.rfind("tape_", 0) != 0)
            continue;
        EXPECT_EQ(e.stringOr("cat", ""), "sweep");
        const JsonValue *args = e.find("args");
        ASSERT_NE(args, nullptr) << name;
        // The first sweep's loads miss: no tape, zero jobs and bytes.
        if (args->numberOr("jobs", 0.0) == 0.0) {
            EXPECT_EQ(name, "tape_load");
            EXPECT_EQ(args->numberOr("bytes", -1.0), 0.0);
            ++spans["tape_load (miss)"];
            continue;
        }
        EXPECT_EQ(args->numberOr("jobs", 0.0),
                  static_cast<double>(workloads[0]->render.jobs.size()))
            << name;
        EXPECT_GT(args->numberOr("bytes", 0.0), 0.0) << name;
        ++spans[name];
    }
    EXPECT_EQ(spans["tape_build"], 2);
    EXPECT_EQ(spans["tape_store"], 2);
    EXPECT_EQ(spans["tape_load"], 2);
    EXPECT_EQ(spans["tape_load (miss)"], 2);
    EXPECT_EQ(rows.count("BUNNY tape"), 1u);
    EXPECT_EQ(rows.count("BUNNY q8 tape"), 1u);
}

TEST_F(TimelineTest, ShutdownDiscardsRecordingAndDisables)
{
    enable();
    timelineSpan(TimelineCategory::Sim, "work", 0, 1);
    EXPECT_EQ(timelineStats().events_recorded, 1u);
    timelineShutdown();
    EXPECT_FALSE(timelineAnyOn());
    EXPECT_EQ(timelineStats().events_recorded, 0u);
    // Re-enabling starts a fresh recording.
    enable();
    EXPECT_EQ(timelineStats().events_recorded, 0u);
    timelineSpan(TimelineCategory::Sim, "work", 0, 1);
    EXPECT_EQ(timelineStats().events_recorded, 1u);
}

} // namespace
} // namespace sms
