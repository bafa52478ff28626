/**
 * @file
 * Tests for the live metrics registry and sampler: the gated-off path
 * (no counter moves while telemetry is off), registry identity,
 * exact sums under concurrent increments, histogram bucket
 * boundaries, the sms-metrics-1 JSONL series written by the sampler,
 * the series validator's rejection cases, and the series-tail reader
 * that live watchers use.
 *
 * Ordering matters: the telemetry gate and the done flag are
 * process-wide and sticky, so the gated-off expectations run first
 * (gtest executes tests in registration order) before any test
 * configures the sampler, and metricsFinish() runs after every test
 * that expects `done: false`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/stats/metrics.hpp"
#include "src/stats/report.hpp"

namespace sms {
namespace {

TEST(MetricsGatedOff, NothingMovesWhileOff)
{
    ASSERT_FALSE(metricsOn());
    MetricCounter &c = metricCounter("test.gated_counter");
    MetricGauge &g = metricGauge("test.gated_gauge");
    MetricHistogram &h =
        metricHistogram("test.gated_hist", {1.0, 10.0});
    c.add(5);
    g.set(7);
    g.add(3);
    g.max(99);
    h.observe(0.5);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    for (uint64_t count : h.counts())
        EXPECT_EQ(count, 0u);
}

TEST(MetricsGatedOff, HistogramReregisterWithOtherBoundsDies)
{
    metricHistogram("test.rereg_hist", {1.0, 2.0});
    EXPECT_DEATH(metricHistogram("test.rereg_hist", {1.0, 3.0}),
                 "re-registered");
}

TEST(MetricsRegistry, LookupReturnsStableIdentity)
{
    MetricCounter &a = metricCounter("test.identity");
    MetricCounter &b = metricCounter("test.identity");
    EXPECT_EQ(&a, &b);
    MetricGauge &ga = metricGauge("test.identity_gauge");
    MetricGauge &gb = metricGauge("test.identity_gauge");
    EXPECT_EQ(&ga, &gb);
    MetricHistogram &ha = metricHistogram("test.identity_hist", {1.0});
    MetricHistogram &hb = metricHistogram("test.identity_hist", {1.0});
    EXPECT_EQ(&ha, &hb);
}

/** Everything below runs with the sampler configured (gate on). */
class MetricsOnTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // No export path: the registry is live but nothing is written
        // unless the individual test configures a path itself.
        MetricsConfig config;
        config.interval_ms = 3600000; // effectively manual-flush only
        metricsConfigure(config);
        ASSERT_TRUE(metricsOn());
        ASSERT_TRUE(metricsStats().enabled);
    }
};

TEST_F(MetricsOnTest, ConcurrentIncrementsSumExactly)
{
    MetricCounter &c = metricCounter("test.concurrent");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i)
                c.add(1);
        });
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(c.value(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsOnTest, GaugeSetAddMax)
{
    MetricGauge &g = metricGauge("test.gauge_ops");
    g.set(10);
    EXPECT_EQ(g.value(), 10);
    g.add(-3);
    EXPECT_EQ(g.value(), 7);
    g.max(5); // below current: no change
    EXPECT_EQ(g.value(), 7);
    g.max(42);
    EXPECT_EQ(g.value(), 42);
}

TEST_F(MetricsOnTest, HistogramBucketBoundaries)
{
    MetricHistogram &h =
        metricHistogram("test.bounds_hist", {1.0, 3.0, 10.0});
    // Bounds are inclusive upper bounds; one overflow bucket after.
    h.observe(0.5);  // bucket 0
    h.observe(1.0);  // bucket 0 (exactly on the bound)
    h.observe(1.001); // bucket 1
    h.observe(3.0);  // bucket 1
    h.observe(9.99); // bucket 2
    h.observe(10.0); // bucket 2
    h.observe(10.5); // overflow
    std::vector<uint64_t> counts = h.counts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 2u);
    EXPECT_EQ(counts[3], 1u);
}

TEST_F(MetricsOnTest, SnapshotSortedAndCollectorMerged)
{
    static std::atomic<uint64_t> external{123};
    metricsAddCollector(
        [](const std::function<void(const char *, uint64_t)> &sink) {
            sink("test.external_counter", external.load());
        });
    metricCounter("test.snap_counter").add(4);
    MetricsSnapshot snap = metricsSnapshot();
    EXPECT_GT(snap.seq, 0u);
    for (size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LE(snap.counters[i - 1].first, snap.counters[i].first);
    EXPECT_EQ(snap.counterOr("test.external_counter", 0), 123u);
    EXPECT_GE(snap.counterOr("test.snap_counter", 0), 4u);
    EXPECT_EQ(snap.counterOr("test.no_such_counter", 77), 77u);
}

TEST_F(MetricsOnTest, SamplerWritesValidSeries)
{
    std::string path =
        ::testing::TempDir() + "metrics_series_test.jsonl";
    std::remove(path.c_str());
    MetricsConfig config;
    config.path = path;
    config.interval_ms = 5;
    metricsConfigure(config);
    MetricCounter &c = metricCounter("test.series_counter");
    for (int i = 0; i < 10; ++i) {
        c.add(3);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    metricsFlushNow();
    metricsFlushNow();

    std::vector<JsonValue> lines;
    std::string error;
    ASSERT_TRUE(readJsonLines(path, lines, error)) << error;
    ASSERT_GE(lines.size(), 2u);
    EXPECT_TRUE(validateMetricsSeries(lines, error)) << error;
    EXPECT_EQ(lines[0].stringOr("schema", ""), kMetricsSchema);
    EXPECT_GE(metricsStats().samples, lines.size());
    std::remove(path.c_str());

    // Hand the state back to the manual-flush config so later tests
    // are not surprised by a 5 ms sampler.
    MetricsConfig quiet;
    quiet.interval_ms = 3600000;
    metricsConfigure(quiet);
}

/** One hand-built series line: shard 1/2, not done, counter `c`. */
JsonValue
sample(uint64_t seq, double wall, long pid, uint64_t counter)
{
    JsonValue line = JsonValue::object();
    line["schema"] = kMetricsSchema;
    JsonValue shard = JsonValue::object();
    shard["index"] = 1;
    shard["count"] = 2;
    line["shard"] = std::move(shard);
    line["pid"] = static_cast<long long>(pid);
    line["seq"] = seq;
    line["wall_ms"] = wall;
    line["done"] = false;
    JsonValue counters = JsonValue::object();
    counters["c"] = counter;
    line["counters"] = std::move(counters);
    return line;
}

/** Write @p text verbatim to a fresh scratch file; returns its path. */
std::string
writeScratch(const std::string &name, const std::string &text)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream(path, std::ios::trunc) << text;
    return path;
}

/** Read the tail of @p path, failing the test when it is rejected. */
MetricsSnapshot
tailOf(const std::string &path)
{
    MetricsTail tail;
    std::string error;
    EXPECT_TRUE(readMetricsTail(path, tail, error)) << error;
    EXPECT_GE(tail.age_seconds, 0.0);
    return tail.snapshot;
}

TEST_F(MetricsOnTest, ValidatorRejectsBrokenSeries)
{
    std::string error;

    std::vector<JsonValue> ok = {sample(1, 0.0, 42, 5),
                                 sample(2, 1.0, 42, 9)};
    EXPECT_TRUE(validateMetricsSeries(ok, error)) << error;

    std::vector<JsonValue> empty;
    EXPECT_FALSE(validateMetricsSeries(empty, error));

    std::vector<JsonValue> bad_schema = {sample(1, 0.0, 42, 5)};
    bad_schema[0]["schema"] = "sms-bench-1";
    EXPECT_FALSE(validateMetricsSeries(bad_schema, error));
    EXPECT_NE(error.find("schema"), std::string::npos);

    std::vector<JsonValue> mixed_pid = {sample(1, 0.0, 42, 5),
                                        sample(2, 1.0, 43, 9)};
    EXPECT_FALSE(validateMetricsSeries(mixed_pid, error));
    EXPECT_NE(error.find("pids"), std::string::npos);

    std::vector<JsonValue> stale_seq = {sample(2, 0.0, 42, 5),
                                        sample(2, 1.0, 42, 9)};
    EXPECT_FALSE(validateMetricsSeries(stale_seq, error));
    EXPECT_NE(error.find("seq"), std::string::npos);

    std::vector<JsonValue> wall_back = {sample(1, 5.0, 42, 5),
                                        sample(2, 1.0, 42, 9)};
    EXPECT_FALSE(validateMetricsSeries(wall_back, error));
    EXPECT_NE(error.find("wall_ms"), std::string::npos);

    std::vector<JsonValue> counter_back = {sample(1, 0.0, 42, 9),
                                           sample(2, 1.0, 42, 5)};
    EXPECT_FALSE(validateMetricsSeries(counter_back, error));
    EXPECT_NE(error.find("backwards"), std::string::npos);

    std::vector<JsonValue> shard_moves = {sample(1, 0.0, 42, 5),
                                          sample(2, 1.0, 42, 9)};
    shard_moves[1]["shard"]["index"] = 2;
    EXPECT_FALSE(validateMetricsSeries(shard_moves, error));
    EXPECT_NE(error.find("shard identity changes"), std::string::npos);

    std::vector<JsonValue> bad_shard = {sample(1, 0.0, 42, 5)};
    bad_shard[0]["shard"]["index"] = 3;
    EXPECT_FALSE(validateMetricsSeries(bad_shard, error));
    EXPECT_NE(error.find("out of range"), std::string::npos);

    std::vector<JsonValue> undone = {sample(1, 0.0, 42, 5),
                                     sample(2, 1.0, 42, 9)};
    undone[0]["done"] = true;
    EXPECT_FALSE(validateMetricsSeries(undone, error));
    EXPECT_NE(error.find("done went from true"), std::string::npos);

    std::vector<JsonValue> stays_done = {sample(1, 0.0, 42, 5),
                                         sample(2, 1.0, 42, 9)};
    stays_done[0]["done"] = true;
    stays_done[1]["done"] = true;
    EXPECT_TRUE(validateMetricsSeries(stays_done, error)) << error;
}

TEST_F(MetricsOnTest, TailRoundTripsTheLastLine)
{
    std::string path = ::testing::TempDir() + "metrics_tail_rt.jsonl";
    std::remove(path.c_str());
    MetricsConfig config;
    config.path = path;
    config.interval_ms = 3600000;
    config.shard_index = 2;
    config.shard_count = 4;
    metricsConfigure(config);
    metricCounter("test.tail_counter").add(7);
    metricsFlushNow();
    metricsFlushNow();

    std::vector<JsonValue> lines;
    std::string error;
    ASSERT_TRUE(readJsonLines(path, lines, error)) << error;
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_TRUE(validateMetricsSeries(lines, error)) << error;
    const JsonValue &last = lines.back();

    MetricsSnapshot tail = tailOf(path);
    EXPECT_EQ(tail.shard_index, 2u);
    EXPECT_EQ(tail.shard_count, 4u);
    EXPECT_EQ(tail.pid, static_cast<long>(::getpid()));
    EXPECT_EQ(tail.seq, last.find("seq")->asU64());
    EXPECT_EQ(tail.wall_ms, last.find("wall_ms")->asNumber());
    EXPECT_FALSE(tail.done);
    EXPECT_EQ(tail.counterOr("test.tail_counter", 0), 7u);
    EXPECT_EQ(tail.counters.size(),
              last.find("counters")->members().size());
    std::remove(path.c_str());

    MetricsConfig quiet;
    quiet.interval_ms = 3600000;
    metricsConfigure(quiet);
}

TEST(MetricsTail, UnterminatedLineIsSkipped)
{
    auto line = [](uint64_t seq, size_t counters) {
        JsonValue l = sample(seq, static_cast<double>(seq), 42, seq);
        for (size_t i = 0; i < counters; ++i)
            l["counters"]["test.pad_" + std::to_string(i)] = i;
        return l.dump(0) + "\n";
    };
    // A valid but unterminated line is still a write in progress. The
    // second line outgrows the first read window, and so does the only
    // line of the second file.
    std::string text = line(1, 0) + line(2, 500) + line(3, 0);
    text.pop_back();
    MetricsSnapshot tail = tailOf(writeScratch("tail_torn.jsonl", text));
    EXPECT_EQ(tail.seq, 2u);
    EXPECT_EQ(tail.counters.size(), 501u);

    tail = tailOf(writeScratch("tail_single.jsonl", line(1, 500)));
    EXPECT_EQ(tail.seq, 1u);
    EXPECT_EQ(tail.shard_index, 1u);
    EXPECT_EQ(tail.shard_count, 2u);
}

TEST(MetricsTail, RejectsWhatIsNotASeriesTail)
{
    MetricsTail tail;
    std::string error;
    std::string complete = sample(1, 0.0, 42, 5).dump(0) + "\n";

    std::string torn = complete.substr(0, complete.size() / 2);
    EXPECT_FALSE(readMetricsTail(writeScratch("tail_only_torn.jsonl", torn),
                                 tail, error));
    EXPECT_NE(error.find("no complete line"), std::string::npos);

    JsonValue foreign = sample(2, 1.0, 42, 5);
    foreign["schema"] = "sms-bench-1";
    EXPECT_FALSE(readMetricsTail(
        writeScratch("tail_foreign.jsonl", complete + foreign.dump(0) + "\n"),
        tail, error));
    EXPECT_NE(error.find("schema"), std::string::npos);

    JsonValue bad_shard = sample(2, 1.0, 42, 5);
    bad_shard["shard"]["index"] = 5;
    EXPECT_FALSE(readMetricsTail(
        writeScratch("tail_shard.jsonl",
                     complete + bad_shard.dump(0) + "\n"),
        tail, error));
    EXPECT_NE(error.find("out of range"), std::string::npos);

    EXPECT_FALSE(readMetricsTail(::testing::TempDir() + "tail_missing",
                                 tail, error));
}

// The done flag is sticky for the process, so the test that never
// finishes runs before the one that does.
TEST_F(MetricsOnTest, ShutdownWithoutFinishLeavesDoneFalse)
{
    std::string path = ::testing::TempDir() + "metrics_no_finish.jsonl";
    std::remove(path.c_str());
    MetricsConfig config;
    config.path = path;
    config.interval_ms = 3600000;
    metricsConfigure(config);
    metricsShutdown(); // the final flush of a worker that died in fatal()
    EXPECT_FALSE(metricsOn());
    EXPECT_FALSE(tailOf(path).done);
    std::remove(path.c_str());
}

TEST_F(MetricsOnTest, FinishLeavesDoneTailWithAllCells)
{
    std::string path = ::testing::TempDir() + "metrics_finish.jsonl";
    std::remove(path.c_str());
    MetricsConfig config;
    config.path = path;
    config.interval_ms = 3600000;
    metricsConfigure(config);
    metricCounter("sweep.cells_owned").add(3);
    for (int cell = 0; cell < 3; ++cell) {
        metricCounter("sweep.cells_done").add(1);
        metricsFlushNow();
    }
    EXPECT_FALSE(tailOf(path).done);

    metricsFinish();
    MetricsSnapshot tail = tailOf(path);
    EXPECT_TRUE(tail.done);
    EXPECT_EQ(tail.counterOr("sweep.cells_owned", 0), 3u);
    EXPECT_EQ(tail.counterOr("sweep.cells_done", 0), 3u);

    // Sticky: the later flushes (sampler ticks, the exit flush) stay
    // done, and the whole series validates.
    metricsFlushNow();
    metricsShutdown();
    EXPECT_TRUE(tailOf(path).done);
    std::vector<JsonValue> lines;
    std::string error;
    ASSERT_TRUE(readJsonLines(path, lines, error)) << error;
    EXPECT_EQ(lines.size(), 6u);
    EXPECT_TRUE(validateMetricsSeries(lines, error)) << error;
    std::remove(path.c_str());
}

} // namespace
} // namespace sms
