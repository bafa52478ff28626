/**
 * @file
 * Tests for the bench harness utilities: degenerate-cell handling in
 * the normalized-IPC geomean (a zero-IPC config must not abort the
 * sweep), the off-chip normalization direction fix, strict SMS_FULL
 * parsing, the JsonReporter flag/path plumbing, and which sweeps
 * regenerate the scene of a workload loaded from a snapshot.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unistd.h>

#include "bench/bench_util.hpp"
#include "src/trace/cache_io.hpp"

namespace sms {
namespace benchutil {
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

/** Fresh per-test cache directory, removed on destruction. */
class TempCacheDir
{
  public:
    explicit TempCacheDir(const char *tag)
        : path_(std::string("/tmp/sms_bench_util_") + tag + "_" +
                std::to_string(static_cast<long>(::getpid())))
    {
        std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
    ~TempCacheDir()
    {
        std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Full JSON of every cell of two sweeps must match. */
void
expectSameCells(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t s = 0; s < a.results.size(); ++s) {
        ASSERT_EQ(a.results[s].size(), b.results[s].size());
        for (size_t c = 0; c < a.results[s].size(); ++c)
            EXPECT_EQ(toJson(a.results[s][c]).dump(),
                      toJson(b.results[s][c]).dump())
                << a.sceneLabel(s) << " " << a.configLabel(c);
    }
}

/** Synthetic 2-scene sweep; cell IPC = instructions / 1000 cycles. */
SweepResult
makeSweep(const std::vector<std::vector<uint64_t>> &instructions,
          const std::vector<std::vector<uint64_t>> &offchip)
{
    SweepResult sweep;
    size_t num_configs = instructions[0].size();
    sweep.columns.resize(num_configs);
    sweep.columns[0].stack = StackConfig::baseline(8);
    for (size_t c = 1; c < num_configs; ++c)
        sweep.columns[c].stack = StackConfig::sms();
    for (size_t s = 0; s < instructions.size(); ++s) {
        sweep.scene_names.push_back("S" + std::to_string(s));
        std::vector<SimResult> row(num_configs);
        for (size_t c = 0; c < num_configs; ++c) {
            row[c].cycles = 1000;
            row[c].instructions = instructions[s][c];
            row[c].offchip_accesses = offchip[s][c];
        }
        sweep.results.push_back(std::move(row));
    }
    return sweep;
}

TEST(NormIpc, DegenerateCellIsNanNotFatal)
{
    // Scene 1's config 1 produced zero instructions (a degenerate run).
    SweepResult sweep = makeSweep({{800, 900}, {800, 0}},
                                  {{100, 90}, {100, 90}});
    EXPECT_TRUE(std::isfinite(normIpc(sweep, 0, 1)));
    EXPECT_TRUE(std::isnan(normIpc(sweep, 1, 1)));
}

TEST(NormIpc, DegenerateBaselineIsNanNotFatal)
{
    SweepResult sweep =
        makeSweep({{0, 900}}, {{100, 90}});
    EXPECT_TRUE(std::isnan(normIpc(sweep, 0, 1)));
}

TEST(NormIpc, WarningsNameTheFullColumnLabel)
{
    // A variant column is reported by its display label, not by its
    // bare stack name.
    SweepResult sweep = makeSweep({{800, 0}}, {{0, 90}});
    sweep.columns[1].stack = StackConfig::baseline(8);
    sweep.columns[1].arch = TraversalArchConfig::stackless();
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(std::isnan(normIpc(sweep, 0, 1)));
    normOffchip(sweep, 0, 1);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("normIpc: degenerate IPC for scene S0 (config "
                       "'RB_8+sl'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("normOffchip: scene S0 config 'RB_8+sl'"),
              std::string::npos)
        << err;
}

TEST(MeanNormIpc, SkipsDegenerateCellsAndStaysFinite)
{
    // The satellite fix: previously the NaN/zero ratio reached the
    // geomean's positivity assertion and aborted the whole bench.
    SweepResult sweep = makeSweep({{800, 880}, {800, 0}},
                                  {{100, 90}, {100, 90}});
    double mean = meanNormIpc(sweep, 1);
    EXPECT_TRUE(std::isfinite(mean));
    EXPECT_NEAR(mean, 1.1, 1e-9); // only scene 0 contributes
}

TEST(MeanNormIpc, AllDegenerateIsNan)
{
    SweepResult sweep = makeSweep({{800, 0}, {800, 0}},
                                  {{100, 90}, {100, 90}});
    EXPECT_TRUE(std::isnan(meanNormIpc(sweep, 1)));
}

TEST(NormOffchip, ZeroBaselineReportsRegressionDirection)
{
    // The asymmetric-clamp fix: baseline 0, measured 50 used to report
    // 1.0 ("no change"); it must now report a value > 1 (a regression).
    SweepResult sweep = makeSweep({{800, 800}}, {{0, 50}});
    EXPECT_GT(normOffchip(sweep, 0, 1), 1.0);
}

TEST(NormOffchip, BothZeroIsNoChange)
{
    SweepResult sweep = makeSweep({{800, 800}}, {{0, 0}});
    EXPECT_DOUBLE_EQ(normOffchip(sweep, 0, 1), 1.0);
}

TEST(NormOffchip, ZeroMeasuredIsFlooredNotZero)
{
    // A config that eliminates off-chip traffic entirely must not zero
    // the downstream geomean.
    SweepResult sweep = makeSweep({{800, 800}}, {{100, 0}});
    double r = normOffchip(sweep, 0, 1);
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, 1.0e-6);
}

TEST(MeanNormOffchip, MixedCellsFinite)
{
    SweepResult sweep = makeSweep({{800, 800}, {800, 800}},
                                  {{0, 50}, {100, 90}});
    EXPECT_TRUE(std::isfinite(meanNormOffchip(sweep, 1)));
}

TEST(ProfileFromEnv, StrictParse)
{
    {
        ScopedEnv env("SMS_FULL", nullptr);
        EXPECT_EQ(profileFromEnv(), ScaleProfile::Small);
    }
    {
        ScopedEnv env("SMS_FULL", "");
        EXPECT_EQ(profileFromEnv(), ScaleProfile::Small);
    }
    {
        ScopedEnv env("SMS_FULL", "0");
        EXPECT_EQ(profileFromEnv(), ScaleProfile::Small);
    }
    {
        ScopedEnv env("SMS_FULL", "1");
        EXPECT_EQ(profileFromEnv(), ScaleProfile::Large);
    }
    {
        // The old prefix match accepted any string starting with '1'.
        ScopedEnv env("SMS_FULL", "1x");
        EXPECT_EQ(profileFromEnv(), ScaleProfile::Small);
    }
    {
        ScopedEnv env("SMS_FULL", "yes");
        EXPECT_EQ(profileFromEnv(), ScaleProfile::Small);
    }
}

TEST(JsonReporter, DisabledWithoutFlagOrEnv)
{
    ScopedEnv env("SMS_JSON", nullptr);
    char arg0[] = "bench";
    char *argv[] = {arg0, nullptr};
    int argc = 1;
    JsonReporter reporter("figX", argc, argv);
    EXPECT_FALSE(reporter.enabled());
    reporter.finish(); // no-op, must not crash
}

TEST(JsonReporter, ConsumesJsonFlagFromArgv)
{
    ScopedEnv env("SMS_JSON", nullptr);
    char arg0[] = "bench";
    char arg1[] = "--json=/tmp/out.json";
    char arg2[] = "--benchmark_filter=NONE";
    char *argv[] = {arg0, arg1, arg2, nullptr};
    int argc = 3;
    JsonReporter reporter("figX", argc, argv);
    EXPECT_TRUE(reporter.enabled());
    EXPECT_EQ(reporter.path(), "/tmp/out.json");
    // The flag is stripped so benchmark::Initialize never sees it.
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--benchmark_filter=NONE");
}

TEST(JsonReporter, BareFlagResolvesToFigureDefault)
{
    ScopedEnv env("SMS_JSON", nullptr);
    char arg0[] = "bench";
    char arg1[] = "--json";
    char *argv[] = {arg0, arg1, nullptr};
    int argc = 2;
    JsonReporter reporter("fig13", argc, argv);
    EXPECT_TRUE(reporter.enabled());
    EXPECT_EQ(reporter.path(), "BENCH_fig13.json");
    EXPECT_EQ(argc, 1);
}

TEST(JsonReporter, EnvDirectoryResolvesToDefaultName)
{
    std::string dir = testing::TempDir();
    ScopedEnv env("SMS_JSON", dir.c_str());
    char arg0[] = "bench";
    char *argv[] = {arg0, nullptr};
    int argc = 1;
    JsonReporter reporter("fig5", argc, argv);
    ASSERT_TRUE(reporter.enabled());
    if (dir.back() != '/')
        dir += '/';
    EXPECT_EQ(reporter.path(), dir + "BENCH_fig5.json");
}

TEST(JsonReporter, EndToEndSweepRecord)
{
    std::string path = testing::TempDir() + "sms_bench_util_test.jsonl";
    std::remove(path.c_str());
    ScopedEnv env("SMS_JSON", path.c_str());

    char arg0[] = "bench";
    char *argv[] = {arg0, nullptr};
    int argc = 1;
    JsonReporter reporter("figX", argc, argv);
    ASSERT_TRUE(reporter.enabled());

    // Includes a degenerate zero-IPC cell: the record must still be
    // written, with NaN cells serialized as null.
    SweepResult sweep = makeSweep({{800, 880}, {800, 0}},
                                  {{100, 90}, {100, 90}});
    reporter.addSweep(sweep);
    reporter.finish();

    std::vector<JsonValue> records;
    std::string error;
    ASSERT_TRUE(readJsonLines(path, records, error)) << error;
    ASSERT_EQ(records.size(), 1u);
    const JsonValue &rec = records[0];
    EXPECT_EQ(rec.stringOr("schema", ""), "sms-bench-1");
    EXPECT_EQ(rec.stringOr("figure", ""), "figX");
    const JsonValue *results = rec.find("results");
    ASSERT_NE(results, nullptr);
    EXPECT_EQ(results->size(), 4u); // 2 scenes x 2 configs
    // The degenerate cell (scene 1, config 1) has a null norm_ipc.
    EXPECT_TRUE(results->at(3).find("norm_ipc")->isNull());
    const JsonValue *summary = rec.find("summary");
    ASSERT_NE(summary, nullptr);
    ASSERT_EQ(summary->size(), 2u);
    EXPECT_NEAR(summary->at(1).numberOr("mean_norm_ipc", 0.0), 1.1,
                1e-9);
    EXPECT_GE(rec.numberOr("wall_seconds", -1.0), 0.0);

    // Run-level throughput block: present, finite, self-consistent.
    const JsonValue *throughput = rec.find("throughput");
    ASSERT_NE(throughput, nullptr);
    for (const char *field :
         {"prepare_wall_seconds", "sweep_wall_seconds", "cells",
          "sim_cycles_total", "sim_cycles_per_sec", "peak_rss_mb"}) {
        ASSERT_NE(throughput->find(field), nullptr) << field;
        EXPECT_TRUE(std::isfinite(throughput->numberOr(field, NAN)))
            << field;
    }
    EXPECT_EQ(throughput->numberOr("cells", -1.0), 4.0);
    EXPECT_GT(throughput->numberOr("peak_rss_mb", 0.0), 0.0);
    const JsonValue *cache = throughput->find("workload_cache");
    ASSERT_NE(cache, nullptr);
    ASSERT_NE(cache->find("hits"), nullptr);
    ASSERT_NE(cache->find("misses"), nullptr);

    std::remove(path.c_str());
}

TEST(RunSweep, ThreadCountDoesNotChangeCounters)
{
    // Determinism satellite: a sweep is counter-identical (full JSON
    // record of every cell) no matter how the grid is scheduled across
    // worker threads or chunks.
    ScopedEnv env("SMS_WORKLOAD_CACHE", nullptr);
    std::vector<std::shared_ptr<Workload>> workloads = {
        prepareWorkload(SceneId::REF, ScaleProfile::Tiny),
        prepareWorkload(SceneId::WKND, ScaleProfile::Tiny),
    };
    std::vector<StackConfig> configs = {StackConfig::baseline(8),
                                        StackConfig::sms()};

    SweepResult serial = runSweep(workloads, configs, {}, 1);
    SweepResult threaded = runSweep(workloads, configs, {}, 4);
    ASSERT_EQ(serial.results.size(), threaded.results.size());
    for (size_t s = 0; s < serial.results.size(); ++s) {
        ASSERT_EQ(serial.results[s].size(), threaded.results[s].size());
        for (size_t c = 0; c < serial.results[s].size(); ++c)
            EXPECT_EQ(toJson(serial.results[s][c]).dump(),
                      toJson(threaded.results[s][c]).dump())
                << "scene " << serial.sceneLabel(s) << " config " << c;
    }
}

TEST(RunSweep, WarmTapeSweepRebuildsNoScene)
{
    // Workloads loaded from snapshots carry no scene, and a sweep whose
    // tapes all load from disk only replays: no scene is regenerated.
    TempCacheDir dir("warm");
    ScopedEnv env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    ScopedEnv no_results("SMS_RESULT_CACHE", nullptr);
    const std::vector<StackConfig> configs = {StackConfig::baseline(8),
                                              StackConfig::sms()};
    auto prepare = [] {
        return std::vector<std::shared_ptr<Workload>>{
            prepareWorkload(SceneId::WKND, ScaleProfile::Tiny),
            prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny)};
    };
    SweepResult cold = runSweep(prepare(), configs, {}, 4);

    resetWorkloadCacheStats();
    resetTraversalTapeStats();
    auto warm_workloads = prepare();
    SweepResult warm = runSweep(warm_workloads, configs, {}, 4);
    EXPECT_EQ(workloadCacheStats().hits, 2u);
    EXPECT_EQ(traversalTapeStats().disk_loads, 2u);
    EXPECT_EQ(traversalTapeStats().jobs_recorded, 0u);
    EXPECT_EQ(workloadCacheStats().scene_rebuilds, 0u);
    expectSameCells(cold, warm);
}

TEST(RunSweep, CorruptTapesRebuildTheSceneOnce)
{
    // One scene, two traversal variants: two tapes. With both tapes
    // corrupt, a warm sweep runs both build tasks, concurrently on four
    // threads, and they share one regenerated scene.
    TempCacheDir dir("corrupt");
    ScopedEnv env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    ScopedEnv no_results("SMS_RESULT_CACHE", nullptr);
    const std::vector<SweepColumn> columns = {
        SweepColumn{.stack = StackConfig::baseline(8)},
        SweepColumn{.stack = StackConfig::baseline(8),
                    .layout = NodeLayoutConfig::quantized(8)},
        SweepColumn{.stack = StackConfig::sms(),
                    .layout = NodeLayoutConfig::quantized(8)},
    };
    SweepResult cold = runSweep(
        {prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny)}, columns, 4);

    auto warm_workload = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    // Columns 1 and 2 share the quantized variant's tape.
    for (const SweepColumn &column : {columns[0], columns[1]}) {
        std::string path = traversalTapePath(
            dir.path(), warm_workload->id, warm_workload->profile,
            warm_workload->params, column.variant());
        std::string file;
        ASSERT_TRUE(readFile(path, file));
        file[file.size() / 2] ^= 0x01;
        ASSERT_TRUE(writeFileAtomic(path, file));
    }
    resetWorkloadCacheStats();
    resetTraversalTapeStats();
    SweepResult warm = runSweep({warm_workload}, columns, 4);
    EXPECT_EQ(traversalTapeStats().failures, 2u);
    EXPECT_EQ(traversalTapeStats().disk_stores, 2u);
    EXPECT_EQ(workloadCacheStats().scene_rebuilds, 1u);
    expectSameCells(cold, warm);
}

} // namespace
} // namespace benchutil
} // namespace sms
