/**
 * @file
 * Tests for sharded sweep execution: the shard-spec parser, the
 * exactly-once round-robin partition for ragged shard counts, and the
 * merge that must reassemble shard-worker records into a record
 * bit-identical to a single-process run (zero-epsilon compare,
 * including the re-checked conservation invariant on the merged
 * cycle-accounting aggregate).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/serve/sweep_shard.hpp"
#include "src/stats/report.hpp"

namespace sms {
namespace {

/** RAII environment-variable override. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_old_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_old_;
    std::string old_;
};

/** Restores the process to "not sharded" when a test scope ends. */
class ScopedShardReset
{
  public:
    ~ScopedShardReset() { setSweepShardSpec(SweepShardSpec{}); }
};

TEST(ParseSweepShardSpec, Valid)
{
    SweepShardSpec spec;
    std::string error;
    ASSERT_TRUE(parseSweepShardSpec("1/1", spec, error)) << error;
    EXPECT_EQ(spec.index, 1u);
    EXPECT_EQ(spec.count, 1u);
    ASSERT_TRUE(parseSweepShardSpec("3/7", spec, error)) << error;
    EXPECT_EQ(spec.index, 3u);
    EXPECT_EQ(spec.count, 7u);
    ASSERT_TRUE(parseSweepShardSpec("10/10", spec, error)) << error;
    EXPECT_EQ(spec.index, 10u);
    EXPECT_EQ(spec.count, 10u);
}

TEST(ParseSweepShardSpec, Invalid)
{
    SweepShardSpec spec;
    std::string error;
    for (const char *bad :
         {"", "1", "/", "1/", "/2", "0/2", "3/2", "0/0", "a/b", "1/2x",
          "x1/2", "1 / 2", "-1/2", "1/-2", "1//2", "1/2/3"}) {
        error.clear();
        EXPECT_FALSE(parseSweepShardSpec(bad, spec, error))
            << "accepted \"" << bad << "\"";
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(SweepShardSpec, InactiveOwnsEverything)
{
    SweepShardSpec spec; // count = 0
    EXPECT_FALSE(spec.active());
    for (uint64_t g = 0; g < 100; ++g)
        EXPECT_TRUE(spec.owns(g));
}

TEST(SweepShardSpec, RaggedPartitionIsExactlyOnce)
{
    // Every cell of the flattened grid must be owned by exactly one
    // shard for any N — including N that does not divide the cell
    // count and N larger than the grid.
    for (uint64_t cells : {1u, 5u, 10u, 16u}) {
        for (uint32_t n : {1u, 2u, 3u, 4u, 7u, 10u, 33u}) {
            for (uint64_t g = 0; g < cells; ++g) {
                unsigned owners = 0;
                for (uint32_t i = 1; i <= n; ++i) {
                    SweepShardSpec spec{i, n};
                    ASSERT_TRUE(spec.active());
                    if (spec.owns(g))
                        ++owners;
                }
                EXPECT_EQ(owners, 1u)
                    << "cell " << g << " of " << cells << " with " << n
                    << " shards";
            }
        }
    }
}

TEST(SweepShardSpec, BalancedWithinOne)
{
    // Round-robin keeps shard loads within one cell of each other.
    const uint64_t cells = 17;
    const uint32_t n = 5;
    std::vector<uint64_t> load(n, 0);
    for (uint64_t g = 0; g < cells; ++g)
        for (uint32_t i = 1; i <= n; ++i)
            if ((SweepShardSpec{i, n}).owns(g))
                ++load[i - 1];
    uint64_t lo = load[0], hi = load[0];
    for (uint64_t l : load) {
        lo = std::min(lo, l);
        hi = std::max(hi, l);
    }
    EXPECT_LE(hi - lo, 1u);
}

/**
 * Run the 2-scene x 3-config grid under @p spec and report it through
 * a JsonReporter into a temp file; returns the written record.
 */
JsonValue
runGridAs(const SweepShardSpec &spec, const std::string &path)
{
    using benchutil::JsonReporter;
    using benchutil::runSweep;
    std::remove(path.c_str());
    setSweepShardSpec(spec);

    std::string json_arg = "--json=" + path;
    std::vector<char> arg1(json_arg.begin(), json_arg.end());
    arg1.push_back('\0');
    char arg0[] = "bench";
    char *argv[] = {arg0, arg1.data(), nullptr};
    int argc = 2;
    JsonReporter reporter("figShardTest", argc, argv);
    EXPECT_TRUE(reporter.enabled());

    std::vector<std::shared_ptr<Workload>> workloads = {
        prepareWorkload(SceneId::REF, ScaleProfile::Tiny),
        prepareWorkload(SceneId::WKND, ScaleProfile::Tiny),
    };
    std::vector<StackConfig> configs = {StackConfig::baseline(8),
                                        StackConfig::sms(),
                                        StackConfig::withSh(8, 8)};
    reporter.addSweep(runSweep(workloads, configs, {}, 2));
    reporter.finish();

    std::vector<JsonValue> records;
    std::string error;
    EXPECT_TRUE(readJsonLines(path, records, error)) << error;
    EXPECT_EQ(records.size(), 1u);
    std::remove(path.c_str());
    return records.empty() ? JsonValue() : std::move(records.back());
}

TEST(MergeShardRecords, TwoShardMergeIsBitIdenticalToSingleProcess)
{
    ScopedEnv no_wkld("SMS_WORKLOAD_CACHE", nullptr);
    ScopedEnv no_res("SMS_RESULT_CACHE", nullptr);
    ScopedEnv no_json("SMS_JSON", nullptr);
    ScopedShardReset reset;
    std::string dir = testing::TempDir();

    JsonValue whole =
        runGridAs(SweepShardSpec{}, dir + "sms_shard_whole.jsonl");
    JsonValue shard1 = runGridAs(SweepShardSpec{1, 2},
                                 dir + "sms_shard_1of2.jsonl");
    JsonValue shard2 = runGridAs(SweepShardSpec{2, 2},
                                 dir + "sms_shard_2of2.jsonl");

    // Worker records carry the shard block and leave the cross-cell
    // derived values null/absent.
    ASSERT_NE(shard1.find("shard"), nullptr);
    ASSERT_NE(shard2.find("shard"), nullptr);
    EXPECT_EQ(shard1.find("summary"), nullptr);
    EXPECT_EQ(whole.find("shard"), nullptr);

    JsonValue merged;
    std::string error;
    ASSERT_TRUE(mergeShardRecords({shard1, shard2}, merged, error))
        << error;
    EXPECT_EQ(merged.find("shard"), nullptr);
    ASSERT_NE(merged.find("merge"), nullptr);
    EXPECT_EQ(merged.find("merge")->numberOr("shards", 0.0), 2.0);

    // The merged peak RSS is the largest worker's, not a sum.
    auto peakRss = [](const JsonValue &rec) {
        const JsonValue *t = rec.find("throughput");
        return t ? t->numberOr("peak_rss_mb", 0.0) : 0.0;
    };
    EXPECT_GT(peakRss(shard1), 0.0);
    EXPECT_EQ(peakRss(merged), std::max(peakRss(shard1), peakRss(shard2)));

    // Zero-epsilon compare against the single-process record: every
    // cell counter, every recomputed normalized column, both summary
    // geomeans, and the per-cell cycle-accounting leaves must be
    // bit-identical.
    CompareOptions options;
    options.ipc_eps = 0.0;
    options.traffic_eps = 0.0;
    options.check_accounting = true;
    options.accounting_eps = 0.0;
    std::vector<CompareIssue> issues;
    ASSERT_EQ(compareBenchRecords(whole, merged, options, issues, error),
              CompareStatus::Ok)
        << error;
    EXPECT_TRUE(issues.empty())
        << issues.size() << " issues, first: " << issues[0].where << " "
        << issues[0].metric;

    // The summary block itself (geomeans recomputed by the merge) is
    // textually identical to the single-process serialization.
    ASSERT_NE(merged.find("summary"), nullptr);
    EXPECT_EQ(merged.find("summary")->dump(),
              whole.find("summary")->dump());

    // The merged aggregate re-checked conservation and covers the full
    // grid.
    const JsonValue *aggregate = merged.find("aggregate");
    ASSERT_NE(aggregate, nullptr);
    EXPECT_EQ(aggregate->numberOr("cells", 0.0), 6.0);
    ASSERT_NE(aggregate->find("depth_hist"), nullptr);
    const JsonValue *accounting = aggregate->find("cycle_accounting");
    ASSERT_NE(accounting, nullptr);
    EXPECT_GT(accounting->numberOr("warp_active_cycles", 0.0), 0.0);
}

TEST(MergeShardRecords, RejectsStructurallyBrokenShardSets)
{
    ScopedEnv no_wkld("SMS_WORKLOAD_CACHE", nullptr);
    ScopedEnv no_res("SMS_RESULT_CACHE", nullptr);
    ScopedEnv no_json("SMS_JSON", nullptr);
    ScopedShardReset reset;
    std::string dir = testing::TempDir();

    JsonValue whole =
        runGridAs(SweepShardSpec{}, dir + "sms_shard_whole2.jsonl");
    JsonValue shard1 = runGridAs(SweepShardSpec{1, 2},
                                 dir + "sms_shard_e1.jsonl");
    JsonValue shard2 = runGridAs(SweepShardSpec{2, 2},
                                 dir + "sms_shard_e2.jsonl");

    JsonValue merged;
    std::string error;

    // Missing shard: only 1 of 2 present.
    error.clear();
    EXPECT_FALSE(mergeShardRecords({shard1}, merged, error));
    EXPECT_FALSE(error.empty());

    // Duplicate shard index.
    error.clear();
    EXPECT_FALSE(mergeShardRecords({shard1, shard1}, merged, error));
    EXPECT_FALSE(error.empty());

    // An unsharded record cannot participate in a merge.
    error.clear();
    EXPECT_FALSE(mergeShardRecords({whole, shard2}, merged, error));
    EXPECT_FALSE(error.empty());

    // Mixed figures.
    JsonValue renamed = shard2;
    renamed["figure"] = JsonValue("figOther");
    error.clear();
    EXPECT_FALSE(mergeShardRecords({shard1, renamed}, merged, error));
    EXPECT_FALSE(error.empty());

    // Incomplete grid: a half-grid worker relabeled as a full run of
    // one shard is missing every cell the other worker owned.
    JsonValue lone = shard1;
    lone["shard"]["count"] = JsonValue(1.0);
    error.clear();
    EXPECT_FALSE(mergeShardRecords({lone}, merged, error));
    EXPECT_FALSE(error.empty());

    // Empty input.
    error.clear();
    EXPECT_FALSE(mergeShardRecords({}, merged, error));
    EXPECT_FALSE(error.empty());
}

TEST(CompareBenchRecords, ShardWorkerVsFullRunIsSchemaMismatch)
{
    ScopedEnv no_wkld("SMS_WORKLOAD_CACHE", nullptr);
    ScopedEnv no_res("SMS_RESULT_CACHE", nullptr);
    ScopedEnv no_json("SMS_JSON", nullptr);
    ScopedShardReset reset;
    std::string dir = testing::TempDir();

    JsonValue whole =
        runGridAs(SweepShardSpec{}, dir + "sms_shard_cmp_w.jsonl");
    JsonValue shard1 = runGridAs(SweepShardSpec{1, 2},
                                 dir + "sms_shard_cmp_1.jsonl");

    CompareOptions options;
    std::vector<CompareIssue> issues;
    std::string error;
    EXPECT_EQ(compareBenchRecords(whole, shard1, options, issues, error),
              CompareStatus::SchemaMismatch);
    EXPECT_EQ(compareBenchRecords(shard1, whole, options, issues, error),
              CompareStatus::SchemaMismatch);
    // Shard-vs-shard of the same half-grid stays comparable.
    EXPECT_EQ(compareBenchRecords(shard1, shard1, options, issues,
                                  error),
              CompareStatus::Ok)
        << error;
}

} // namespace
} // namespace sms
