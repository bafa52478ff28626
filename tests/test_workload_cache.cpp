/**
 * @file
 * Tests for the workload snapshot cache: bit-exact round-trips (the
 * timing simulation over a reloaded workload must be counter-identical
 * to one over a freshly prepared workload), corruption tolerance, and
 * the hit/miss/store accounting surfaced in the bench throughput
 * records.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/sim/gpu_sim.hpp"
#include "src/stats/report.hpp"
#include "src/trace/render.hpp"
#include "src/sim/traversal_tape.hpp"
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
        : path_("/tmp/sms_wkld_cache_test_" +
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

std::string
simResultJson(const Workload &workload)
{
    SimResult result =
        runWorkload(workload, makeGpuConfig(StackConfig::sms()));
    return toJson(result).dump();
}

TEST(WorkloadCache, DisabledWithoutEnv)
{
    ScopedEnv env("SMS_WORKLOAD_CACHE", nullptr);
    resetWorkloadCacheStats();
    auto w = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    ASSERT_NE(w, nullptr);
    WorkloadCacheStats stats = workloadCacheStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.stores, 0u);
}

TEST(WorkloadCache, ColdRunStoresWarmRunHits)
{
    TempCacheDir dir;
    ScopedEnv env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    resetWorkloadCacheStats();

    auto cold = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    WorkloadCacheStats after_cold = workloadCacheStats();
    EXPECT_EQ(after_cold.misses, 1u);
    EXPECT_EQ(after_cold.stores, 1u);
    EXPECT_EQ(after_cold.hits, 0u);

    auto warm = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    WorkloadCacheStats after_warm = workloadCacheStats();
    EXPECT_EQ(after_warm.hits, 1u);
    EXPECT_EQ(after_warm.misses, 1u);
    EXPECT_EQ(after_warm.failures, 0u);

    // The snapshot round-trip is bit-exact: same image, same job
    // stream, and a counter-identical timing simulation (full JSON
    // record compare).
    EXPECT_EQ(cold->render.film.contentHash(),
              warm->render.film.contentHash());
    EXPECT_EQ(cold->render.jobs.size(), warm->render.jobs.size());
    EXPECT_EQ(cold->render.rays, warm->render.rays);
    EXPECT_EQ(simResultJson(*cold), simResultJson(*warm));
}

TEST(WorkloadCache, DistinctKeysPerProfileAndParams)
{
    TempCacheDir dir;
    RenderParams a = RenderParams::forScene(SceneId::REF);
    RenderParams b = a;
    b.spp = a.spp + 1;
    std::string path_a = workloadSnapshotPath(dir.path(), SceneId::REF,
                                             ScaleProfile::Tiny, a);
    std::string path_b = workloadSnapshotPath(dir.path(), SceneId::REF,
                                             ScaleProfile::Tiny, b);
    std::string path_c = workloadSnapshotPath(dir.path(), SceneId::REF,
                                             ScaleProfile::Small, a);
    std::string path_d = workloadSnapshotPath(dir.path(), SceneId::WKND,
                                             ScaleProfile::Tiny, a);
    EXPECT_NE(path_a, path_b);
    EXPECT_NE(path_a, path_c);
    EXPECT_NE(path_a, path_d);
}

TEST(WorkloadCache, CorruptSnapshotIsRebuiltNotTrusted)
{
    TempCacheDir dir;
    ScopedEnv env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    resetWorkloadCacheStats();

    auto cold = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    std::string path = workloadSnapshotPath(
        dir.path(), SceneId::REF, ScaleProfile::Tiny,
        RenderParams::forScene(SceneId::REF));

    // Flip one byte in the middle of the snapshot.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_GT(size, 64);
    std::fseek(f, size / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    auto rebuilt = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    WorkloadCacheStats stats = workloadCacheStats();
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.stores, 2u); // snapshot rewritten after rebuild
    EXPECT_EQ(simResultJson(*cold), simResultJson(*rebuilt));

    // The rewritten snapshot validates again.
    auto warm = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    EXPECT_EQ(workloadCacheStats().hits, 1u);
    EXPECT_EQ(simResultJson(*cold), simResultJson(*warm));
}

TEST(WorkloadCache, TruncatedSnapshotIsRejected)
{
    TempCacheDir dir;
    ScopedEnv env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    resetWorkloadCacheStats();

    prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    std::string path = workloadSnapshotPath(
        dir.path(), SceneId::REF, ScaleProfile::Tiny,
        RenderParams::forScene(SceneId::REF));
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_EQ(::truncate(path.c_str(), st.st_size / 3), 0);

    auto rebuilt = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(workloadCacheStats().failures, 1u);
    EXPECT_EQ(workloadCacheStats().hits, 0u);
}

TEST(WorkloadCache, ConcurrentWritersNeverCorruptOrLeakTemps)
{
    // Multi-process/multi-thread safety stress: several writers race
    // saving the same snapshot and tape keys while readers load them
    // concurrently. Writes go through writeFileAtomic (unique temp +
    // rename), so a reader must only ever see a complete, validating
    // entry — zero failures — and no temp files may be left behind.
    TempCacheDir dir;
    ScopedEnv env("SMS_WORKLOAD_CACHE", nullptr); // explicit-dir API
    resetWorkloadCacheStats();

    auto workload = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    ASSERT_NE(workload, nullptr);
    TraversalTape tape = buildWorkloadTape(*workload, TraversalVariant{});

    RenderParams params = RenderParams::forScene(SceneId::REF);
    constexpr int kWriters = 4;
    constexpr int kIters = 6;
    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                EXPECT_TRUE(saveWorkloadSnapshot(
                    dir.path(), *workload, ScaleProfile::Tiny, params));
                EXPECT_TRUE(
                    saveTraversalTape(dir.path(), *workload, tape));
                // A concurrent reader sees a complete entry or (before
                // the first rename lands) none — never a partial one.
                auto loaded = loadWorkloadSnapshot(
                    dir.path(), SceneId::REF, ScaleProfile::Tiny,
                    params);
                if (loaded)
                    EXPECT_EQ(loaded->render.film.contentHash(),
                              workload->render.film.contentHash());
                TraversalTape replay;
                loadTraversalTape(dir.path(), *workload, replay);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    // No reader ever saw a torn entry.
    EXPECT_EQ(workloadCacheStats().failures, 0u);

    // Final state validates and no atomic-write temporaries leaked.
    auto final_load = loadWorkloadSnapshot(dir.path(), SceneId::REF,
                                           ScaleProfile::Tiny, params);
    ASSERT_NE(final_load, nullptr);
    EXPECT_EQ(final_load->render.film.contentHash(),
              workload->render.film.contentHash());
    TraversalTape final_tape;
    EXPECT_TRUE(loadTraversalTape(dir.path(), *workload, final_tape));

    DIR *d = ::opendir(dir.path().c_str());
    ASSERT_NE(d, nullptr);
    while (struct dirent *ent = ::readdir(d)) {
        std::string name = ent->d_name;
        EXPECT_EQ(name.find(".tmp."), std::string::npos)
            << "leaked temp file: " << name;
    }
    ::closedir(d);
}

} // namespace
} // namespace sms
