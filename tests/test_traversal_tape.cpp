/**
 * Tests for the traversal tape: encoding round-trips, the functional
 * pass that writes tapes, sweep-level tape sharing (grids identical
 * across thread counts and tape sources), and on-disk persistence.
 * Byte identity of every variant's tape and results is pinned by
 * test_variant_pins.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/sim/traversal_sim.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/stats/report.hpp"
#include "src/trace/render.hpp"
#include "src/trace/workload_cache.hpp"

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

/** Fresh per-test cache directory, removed on destruction. */
class TempCacheDir
{
  public:
    TempCacheDir()
        : path_("/tmp/sms_tape_test_" +
                std::to_string(static_cast<long>(::getpid())) + "_" +
                std::to_string(counter_++))
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
    static int counter_;
    std::string path_;
};

int TempCacheDir::counter_ = 0;

/** Full machine-readable dump — the strictest SimResult equality. */
std::string
resultJson(const SimResult &r)
{
    return toJson(r).dump();
}

std::shared_ptr<Workload>
tinyWorkload(SceneId id)
{
    RenderParams params = RenderParams::forScene(id);
    params.width = 24;
    params.height = 18;
    params.max_bounces = 2;
    return prepareWorkload(id, ScaleProfile::Tiny, &params);
}

TEST(TraversalTape, FetchPhaseRoundTrip)
{
    JobTape tape;
    TapeWriter writer(&tape);
    FetchLineList lines = {
        packFetchLine(0 * kLineBytes, TrafficClass::Node),
        packFetchLine(3 * kLineBytes, TrafficClass::Node),
        packFetchLine(4 * kLineBytes, TrafficClass::Primitive),
        packFetchLine(1000 * kLineBytes, TrafficClass::Stack),
    };
    // The packed entry IS the wire layout: line index above the 2-bit
    // traffic class.
    EXPECT_EQ(lines[2], (4u << 2) | 1u);
    EXPECT_EQ(fetchLineAddr(lines[3]), 1000 * kLineBytes);
    EXPECT_EQ(fetchLineClass(lines[3]), TrafficClass::Stack);
    writer.fetchPhase(lines, true, true, 17);
    writer.fetchPhase({}, false, true, 63);
    EXPECT_EQ(tape.steps, 2u);

    TapeCursor cursor(&tape);
    ASSERT_EQ(cursor.fetchCount(), lines.size());
    uint64_t line_index = 0;
    for (uint64_t packed : lines)
        EXPECT_EQ(cursor.fetchLine(line_index), packed);
    bool has_internal = false, has_leaf = false;
    uint32_t max_prims = 0;
    cursor.fetchOp(has_internal, has_leaf, max_prims);
    EXPECT_TRUE(has_internal);
    EXPECT_TRUE(has_leaf);
    EXPECT_EQ(max_prims, 17u);

    EXPECT_EQ(cursor.fetchCount(), 0u);
    cursor.fetchOp(has_internal, has_leaf, max_prims);
    EXPECT_FALSE(has_internal);
    EXPECT_TRUE(has_leaf);
    EXPECT_EQ(max_prims, 63u);
    EXPECT_TRUE(cursor.atEnd());
}

TEST(TraversalTape, FetchLineWithUnknownTrafficClassIsRejected)
{
    // The class field is two bits wide but holds only three classes; a
    // tape carrying the fourth value must stop replay, not index past
    // the per-class counters.
    JobTape tape;
    TapeWriter writer(&tape);
    writer.fetchPhase({(5u << 2) | 3u}, true, false, 0);
    TapeCursor cursor(&tape);
    ASSERT_EQ(cursor.fetchCount(), 1u);
    uint64_t line_index = 0;
    EXPECT_DEATH(cursor.fetchLine(line_index), "traffic class 3");
}

TEST(TraversalTape, StacklessBacktrackToUnknownNodeIsRejected)
{
    // Replay trusts a tape once its checksum and fingerprint match. A
    // one-lane stackless tape whose root descends into internal node
    // 0x3fffffff, which descends into a leaf that finishes, must stop
    // replay when the lane backtracks to that node, not index the
    // parent links with it.
    auto w = tinyWorkload(SceneId::REF);
    GpuConfig config = GpuConfig::tableI();
    config.traversal_arch = TraversalArchConfig::stackless();
    StacklessLinks links = StacklessLinks::build(w->bvh);
    MemorySystem mem(config.resolvedMemConfig(), config.num_sms);
    SharedMemory shared(config.shared_latency);
    WarpJob job;
    job.active[0] = true;

    JobTape tape;
    TapeWriter writer(&tape);
    uint64_t far_node = ChildRef::makeInternal(0x3fffffff).stackValue();
    uint64_t leaf = ChildRef::makeLeaf(0, 1).stackValue();
    writer.fetchPhase({}, true, false, 0);
    writer.internalVisit(6, &far_node, 1);
    writer.fetchPhase({}, true, false, 0);
    writer.internalVisit(6, &leaf, 1);
    writer.fetchPhase({}, false, true, 1);
    writer.leafVisit(1, false);

    TraversalSim sim(w->bvh, config, job, tape, 0, 0, 0x100000000ull, mem,
                     shared, nullptr, nullptr, &links);
    EXPECT_DEATH(
        {
            Cycle now = 0;
            while (!sim.done())
                now = sim.stepStack(sim.stepFetch(now));
        },
        "backtracks to node 1073741823, but the BVH has [0-9]+ parent "
        "links");
}

TEST(TraversalTape, LaneActionRoundTrip)
{
    JobTape tape;
    TapeWriter writer(&tape);

    // Internal visit pushing ChildRef bit patterns whose 2-bit kind
    // lives in the high bits — the kind-swizzle must restore them
    // exactly.
    uint64_t pushes[3] = {
        (1ull << 30) | 5,        // internal node 5
        (2ull << 30) | (77 << 6) | 3, // leaf, offset 77, count 3
        (1ull << 30) | 0x3fffffff,    // max internal index
    };
    writer.internalVisit(6, pushes, 3);
    writer.leafVisit(9, true);
    writer.leafVisit(2, false);

    TapeCursor cursor(&tape);
    TapeCursor::LaneAction a = cursor.laneAction();
    EXPECT_FALSE(a.is_leaf);
    EXPECT_EQ(a.tests, 6u);
    EXPECT_EQ(a.pushes, 3u);
    for (uint32_t i = 0; i < 3; ++i)
        EXPECT_EQ(cursor.pushValue(), pushes[i]);

    a = cursor.laneAction();
    EXPECT_TRUE(a.is_leaf);
    EXPECT_TRUE(a.abandoned);
    EXPECT_EQ(a.tests, 9u);

    a = cursor.laneAction();
    EXPECT_TRUE(a.is_leaf);
    EXPECT_FALSE(a.abandoned);
    EXPECT_EQ(a.tests, 2u);
    EXPECT_TRUE(cursor.atEnd());
}

TEST(TraversalTape, PassCountsAndFingerprintsItsTape)
{
    auto w = tinyWorkload(SceneId::REF);
    resetTraversalTapeStats();
    TraversalTape tape = buildWorkloadTape(*w, TraversalVariant{});
    TraversalTapeStats stats = traversalTapeStats();
    EXPECT_EQ(stats.jobs_recorded, w->render.jobs.size());
    EXPECT_EQ(stats.bytes, tape.totalBytes());

    EXPECT_EQ(tape.jobs.size(), w->render.jobs.size());
    EXPECT_EQ(tape.fingerprint,
              workloadFingerprint(w->render.jobs, w->bvh));
    EXPECT_GT(tape.totalBytes(), 0u);
    for (const JobTape &job : tape.jobs)
        EXPECT_EQ(job.mismatches, 0u);

    // A caller-supplied tape and one simulateJobs builds itself drive
    // identical timing runs.
    GpuConfig config = makeGpuConfig(StackConfig::sms());
    SimOptions options;
    options.tape = &tape;
    EXPECT_EQ(resultJson(runWorkload(*w, config, options)),
              resultJson(runWorkload(*w, config)));
}

TEST(TraversalTape, SweepGridsIdenticalAcrossThreadsAndTapeSources)
{
    std::vector<std::shared_ptr<Workload>> workloads = {
        tinyWorkload(SceneId::REF), tinyWorkload(SceneId::WKND)};
    std::vector<StackConfig> configs = {
        StackConfig::baseline(8), StackConfig::withSh(8, 8),
        StackConfig::sms()};
    auto grid_json = [&](unsigned threads) {
        benchutil::SweepResult sweep =
            benchutil::runSweep(workloads, configs, {}, threads);
        std::string all;
        for (const auto &row : sweep.results)
            for (const SimResult &r : row)
                all += resultJson(r) + "\n";
        return all;
    };

    // Reference: every cell on its own, each building its own tape.
    std::string cells;
    for (const auto &w : workloads)
        for (const StackConfig &stack : configs)
            cells += resultJson(runWorkload(*w, makeGpuConfig(stack))) +
                     "\n";

    // One build per scene, shared by its three cells.
    resetTraversalTapeStats();
    std::string one = grid_json(1);
    TraversalTapeStats stats = traversalTapeStats();
    EXPECT_EQ(stats.jobs_recorded, workloads[0]->render.jobs.size() +
                                       workloads[1]->render.jobs.size());
    EXPECT_EQ(stats.jobs_replayed, 3 * stats.jobs_recorded);
    EXPECT_EQ(stats.failures, 0u);

    EXPECT_EQ(one, cells);
    EXPECT_EQ(grid_json(3), cells);

    // Tapes from disk replay to the same grid.
    TempCacheDir dir;
    ScopedEnv cache_env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    EXPECT_EQ(grid_json(3), cells); // builds and stores
    resetTraversalTapeStats();
    EXPECT_EQ(grid_json(3), cells); // loads
    EXPECT_EQ(traversalTapeStats().disk_loads, 2u);
    EXPECT_EQ(traversalTapeStats().jobs_recorded, 0u);
}

TEST(TraversalTape, DiskTapePersistsAndReplaysAcrossRuns)
{
    TempCacheDir dir;
    ScopedEnv cache_env("SMS_WORKLOAD_CACHE", dir.path().c_str());

    std::vector<std::shared_ptr<Workload>> workloads = {
        tinyWorkload(SceneId::REF)};
    std::vector<StackConfig> configs = {StackConfig::baseline(8),
                                        StackConfig::sms()};

    resetTraversalTapeStats();
    benchutil::SweepResult cold =
        benchutil::runSweep(workloads, configs, {}, 1);
    TraversalTapeStats after_cold = traversalTapeStats();
    EXPECT_GT(after_cold.jobs_recorded, 0u);
    EXPECT_EQ(after_cold.disk_loads, 0u);
    EXPECT_EQ(after_cold.disk_stores, 1u);

    std::string tape_path =
        traversalTapePath(dir.path(), workloads[0]->id,
                          workloads[0]->profile, workloads[0]->params);
    struct stat st{};
    ASSERT_EQ(::stat(tape_path.c_str(), &st), 0)
        << "tape not written to " << tape_path;

    // Second sweep: every cell (including the first) replays from disk.
    resetTraversalTapeStats();
    benchutil::SweepResult warm =
        benchutil::runSweep(workloads, configs, {}, 1);
    TraversalTapeStats after_warm = traversalTapeStats();
    EXPECT_EQ(after_warm.jobs_recorded, 0u);
    EXPECT_EQ(after_warm.disk_loads, 1u);
    EXPECT_GT(after_warm.jobs_replayed, 0u);

    for (size_t c = 0; c < configs.size(); ++c)
        EXPECT_EQ(resultJson(cold.results[0][c]),
                  resultJson(warm.results[0][c]));
}

TEST(TraversalTape, CorruptDiskTapeIsRebuiltNotTrusted)
{
    TempCacheDir dir;
    ScopedEnv cache_env("SMS_WORKLOAD_CACHE", dir.path().c_str());

    std::vector<std::shared_ptr<Workload>> workloads = {
        tinyWorkload(SceneId::REF)};
    std::vector<StackConfig> configs = {StackConfig::baseline(8),
                                        StackConfig::sms()};

    benchutil::SweepResult cold =
        benchutil::runSweep(workloads, configs, {}, 1);
    std::string tape_path =
        traversalTapePath(dir.path(), workloads[0]->id,
                          workloads[0]->profile, workloads[0]->params);

    // Flip one byte in the middle of the tape.
    std::FILE *f = std::fopen(tape_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_GT(size, 32);
    std::fseek(f, size / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    resetTraversalTapeStats();
    benchutil::SweepResult rebuilt =
        benchutil::runSweep(workloads, configs, {}, 1);
    TraversalTapeStats stats = traversalTapeStats();
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_GT(stats.jobs_recorded, 0u); // rebuilt from scratch
    EXPECT_EQ(stats.disk_stores, 1u);   // tape rewritten

    for (size_t c2 = 0; c2 < configs.size(); ++c2)
        EXPECT_EQ(resultJson(cold.results[0][c2]),
                  resultJson(rebuilt.results[0][c2]));

    // The rewritten tape validates again.
    resetTraversalTapeStats();
    benchutil::runSweep(workloads, configs, {}, 1);
    EXPECT_EQ(traversalTapeStats().disk_loads, 1u);
    EXPECT_EQ(traversalTapeStats().failures, 0u);
}

TEST(TraversalTape, DiskSweepBuildsAndReplaysSideBySide)
{
    // One scene's tape loads from disk, the other's is corrupt and
    // rebuilt, so the loaded scene's cells run while the other scene's
    // build task does — at 4 threads, on different workers. The rebuilt
    // scene is SHIP, whose build outlasts REF's cells: a cell that did
    // not wait for its build would read a half-written tape and fail.
    TempCacheDir dir;
    std::vector<std::shared_ptr<Workload>> workloads = {
        tinyWorkload(SceneId::REF), tinyWorkload(SceneId::SHIP)};
    std::vector<StackConfig> configs = {
        StackConfig::baseline(8), StackConfig::withSh(8, 8),
        StackConfig::sms()};

    auto grid_json = [](const benchutil::SweepResult &sweep) {
        std::string all;
        for (const auto &row : sweep.results)
            for (const SimResult &r : row)
                all += resultJson(r) + "\n";
        return all;
    };
    std::string mem =
        grid_json(benchutil::runSweep(workloads, configs, {}, 1));

    ScopedEnv cache_env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    benchutil::runSweep(workloads, configs, {}, 1); // writes both tapes
    const Workload &corrupt = *workloads[1];
    std::string corrupt_path = traversalTapePath(
        dir.path(), corrupt.id, corrupt.profile, corrupt.params);

    for (unsigned threads : {1u, 4u}) {
        // Flip one byte in the middle of the second scene's tape (the
        // previous sweep rewrote it intact).
        std::FILE *f = std::fopen(corrupt_path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        ASSERT_GT(size, 32);
        std::fseek(f, size / 2, SEEK_SET);
        int byte = std::fgetc(f);
        std::fseek(f, size / 2, SEEK_SET);
        std::fputc(byte ^ 0xff, f);
        std::fclose(f);

        resetTraversalTapeStats();
        benchutil::SweepResult sweep =
            benchutil::runSweep(workloads, configs, {}, threads);
        TraversalTapeStats stats = traversalTapeStats();
        EXPECT_EQ(grid_json(sweep), mem) << threads << " threads";
        EXPECT_EQ(stats.disk_loads, 1u) << threads << " threads";
        EXPECT_EQ(stats.failures, 1u) << threads << " threads";
        EXPECT_EQ(stats.disk_stores, 1u) << threads << " threads";
        for (const auto &row : sweep.cell_origin)
            for (benchutil::CellOrigin origin : row)
                EXPECT_EQ(origin, benchutil::CellOrigin::Simulated)
                    << threads << " threads";
    }
}

TEST(TraversalTape, MismatchedTapeFailsFingerprintCheck)
{
    TempCacheDir dir;
    auto ref = tinyWorkload(SceneId::REF);
    auto wknd = tinyWorkload(SceneId::WKND);

    TraversalTape tape = buildWorkloadTape(*ref, TraversalVariant{});
    ASSERT_TRUE(saveTraversalTape(dir.path(), *ref, tape));

    // A tape saved for REF must not validate against WKND even if the
    // file is copied onto WKND's key.
    std::string ref_path = traversalTapePath(
        dir.path(), ref->id, ref->profile, ref->params);
    std::string wknd_path = traversalTapePath(
        dir.path(), wknd->id, wknd->profile, wknd->params);
    std::string cmd = "cp '" + ref_path + "' '" + wknd_path + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    resetTraversalTapeStats();
    TraversalTape loaded;
    EXPECT_FALSE(loadTraversalTape(dir.path(), *wknd, loaded));
    EXPECT_EQ(traversalTapeStats().failures, 1u);

    // The genuine key still loads.
    EXPECT_TRUE(loadTraversalTape(dir.path(), *ref, loaded));
    EXPECT_EQ(loaded.fingerprint, tape.fingerprint);
    EXPECT_EQ(loaded.jobs.size(), tape.jobs.size());
    for (size_t j = 0; j < tape.jobs.size(); ++j) {
        EXPECT_EQ(loaded.jobs[j].bytes, tape.jobs[j].bytes);
        EXPECT_EQ(loaded.jobs[j].steps, tape.jobs[j].steps);
    }
}

} // namespace
} // namespace sms
