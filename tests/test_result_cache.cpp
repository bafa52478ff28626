/**
 * @file
 * Tests for the content-addressed result cache: bit-exact SimResult
 * round-trips, key separation across configs/workloads, corruption
 * tolerance (an invalid entry is a counted failure and a miss, never a
 * wrong result), and the fully-warm sweep path that must perform zero
 * simulateJobs() calls.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

#include "bench/bench_util.hpp"
#include "src/serve/result_cache.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/stats/report.hpp"
#include "src/trace/render.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/trace/cache_io.hpp"

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
        : path_("/tmp/sms_result_cache_test_" +
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

TEST(ResultCache, DisabledWithoutEnv)
{
    ScopedEnv env("SMS_RESULT_CACHE", nullptr);
    EXPECT_EQ(resultCacheDir(), "");
}

TEST(ResultCache, RoundTripIsBitExact)
{
    TempCacheDir dir;
    resetResultCacheStats();

    auto workload = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    ASSERT_NE(workload, nullptr);
    GpuConfig config = makeGpuConfig(StackConfig::sms());
    SimResult fresh = runWorkload(*workload, config);

    uint64_t fingerprint =
        workloadFingerprint(workload->render.jobs, workload->bvh);
    uint64_t digest = gpuConfigDigest(config);
    ASSERT_TRUE(storeCachedResult(dir.path(), workload->id,
                                  workload->profile, fingerprint, digest,
                                  fresh, 1.5));

    SimResult cached;
    double wall = 0.0;
    ASSERT_TRUE(loadCachedResult(dir.path(), workload->id,
                                 workload->profile, fingerprint, digest,
                                 cached, wall));
    // Every serialized counter survives the round trip (full JSON
    // record compare), and the recording run's wall rides along.
    EXPECT_EQ(toJson(fresh).dump(), toJson(cached).dump());
    EXPECT_DOUBLE_EQ(wall, 1.5);

    ResultCacheStats stats = resultCacheStats();
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.failures, 0u);
}

TEST(ResultCache, MissingEntryIsQuietMiss)
{
    TempCacheDir dir;
    resetResultCacheStats();
    SimResult result;
    double wall = 0.0;
    EXPECT_FALSE(loadCachedResult(dir.path(), SceneId::REF,
                                  ScaleProfile::Tiny, 0x1234, 0x5678,
                                  result, wall));
    ResultCacheStats stats = resultCacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.failures, 0u);
}

TEST(ResultCache, DigestSeparatesConfigs)
{
    // Every GpuConfig field participates in the digest: different stack
    // configurations — and the same configuration with a different L1
    // size — must key to different entries.
    uint64_t base =
        gpuConfigDigest(makeGpuConfig(StackConfig::baseline(8)));
    uint64_t sms = gpuConfigDigest(makeGpuConfig(StackConfig::sms()));
    uint64_t sms_l1 =
        gpuConfigDigest(makeGpuConfig(StackConfig::sms(), 64 * 1024));
    uint64_t deep =
        gpuConfigDigest(makeGpuConfig(StackConfig::baseline(16)));
    EXPECT_NE(base, sms);
    EXPECT_NE(sms, sms_l1);
    EXPECT_NE(base, deep);

    // Deterministic across calls.
    EXPECT_EQ(sms, gpuConfigDigest(makeGpuConfig(StackConfig::sms())));
}

TEST(ResultCache, DigestSeparatesTraversalVariantAxes)
{
    // The node-layout, ray-order and architecture axes change the
    // functional traversal, so configs differing ONLY there must map to
    // distinct cache cells; likewise the decode-latency knob.
    GpuConfig base = makeGpuConfig(StackConfig::sms());
    uint64_t d_base = gpuConfigDigest(base);

    GpuConfig q8 = base;
    q8.node_layout = NodeLayoutConfig::quantized(8);
    GpuConfig q4 = base;
    q4.node_layout = NodeLayoutConfig::quantized(4);
    GpuConfig mort = base;
    mort.ray_order = RayOrderConfig::octantMorton();
    GpuConfig both = q8;
    both.ray_order = RayOrderConfig::octantMorton();
    GpuConfig sl = base;
    sl.traversal_arch = TraversalArchConfig::stackless();
    GpuConfig decode = base;
    decode.timing.node_decode_op += 2;

    EXPECT_NE(gpuConfigDigest(q8), d_base);
    EXPECT_NE(gpuConfigDigest(q4), d_base);
    EXPECT_NE(gpuConfigDigest(q8), gpuConfigDigest(q4));
    EXPECT_NE(gpuConfigDigest(mort), d_base);
    EXPECT_NE(gpuConfigDigest(both), gpuConfigDigest(q8));
    EXPECT_NE(gpuConfigDigest(both), gpuConfigDigest(mort));
    EXPECT_NE(gpuConfigDigest(sl), d_base);
    EXPECT_NE(gpuConfigDigest(decode), d_base);

    // An exact layout ignores bits_per_plane: not part of the key.
    GpuConfig exact_bits = base;
    exact_bits.node_layout.bits_per_plane = 12;
    EXPECT_EQ(gpuConfigDigest(exact_bits), d_base);
}

TEST(ResultCache, PathSeparatesKeys)
{
    std::string a = resultCachePath("/d", SceneId::REF,
                                    ScaleProfile::Tiny, 0x1, 0x2);
    std::string b = resultCachePath("/d", SceneId::REF,
                                    ScaleProfile::Tiny, 0x1, 0x3);
    std::string c = resultCachePath("/d", SceneId::REF,
                                    ScaleProfile::Small, 0x1, 0x2);
    std::string d = resultCachePath("/d", SceneId::WKND,
                                    ScaleProfile::Tiny, 0x1, 0x2);
    std::string e = resultCachePath("/d", SceneId::REF,
                                    ScaleProfile::Tiny, 0x9, 0x2);
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    EXPECT_NE(a, e);
}

TEST(ResultCache, CorruptEntryIsFailureThenRewritten)
{
    TempCacheDir dir;
    resetResultCacheStats();

    auto workload = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    GpuConfig config = makeGpuConfig(StackConfig::sms());
    SimResult fresh = runWorkload(*workload, config);
    uint64_t fingerprint =
        workloadFingerprint(workload->render.jobs, workload->bvh);
    uint64_t digest = gpuConfigDigest(config);
    ASSERT_TRUE(storeCachedResult(dir.path(), workload->id,
                                  workload->profile, fingerprint, digest,
                                  fresh, 0.5));

    // Flip one byte in the middle of the entry.
    std::string path = resultCachePath(dir.path(), workload->id,
                                       workload->profile, fingerprint,
                                       digest);
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_GT(size, 32);
    std::fseek(f, size / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    resetResultCacheStats();
    SimResult cached;
    double wall = 0.0;
    EXPECT_FALSE(loadCachedResult(dir.path(), workload->id,
                                  workload->profile, fingerprint, digest,
                                  cached, wall));
    ResultCacheStats stats = resultCacheStats();
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 0u);

    // Rewritten entry validates again.
    ASSERT_TRUE(storeCachedResult(dir.path(), workload->id,
                                  workload->profile, fingerprint, digest,
                                  fresh, 0.5));
    ASSERT_TRUE(loadCachedResult(dir.path(), workload->id,
                                 workload->profile, fingerprint, digest,
                                 cached, wall));
    EXPECT_EQ(toJson(fresh).dump(), toJson(cached).dump());
}

TEST(ResultCache, TruncatedEntryIsRejected)
{
    TempCacheDir dir;
    resetResultCacheStats();

    auto workload = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    GpuConfig config = makeGpuConfig(StackConfig::baseline(8));
    SimResult fresh = runWorkload(*workload, config);
    uint64_t fingerprint =
        workloadFingerprint(workload->render.jobs, workload->bvh);
    uint64_t digest = gpuConfigDigest(config);
    ASSERT_TRUE(storeCachedResult(dir.path(), workload->id,
                                  workload->profile, fingerprint, digest,
                                  fresh, 0.5));

    std::string path = resultCachePath(dir.path(), workload->id,
                                       workload->profile, fingerprint,
                                       digest);
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_EQ(::truncate(path.c_str(), st.st_size / 3), 0);

    resetResultCacheStats();
    SimResult cached;
    double wall = 0.0;
    EXPECT_FALSE(loadCachedResult(dir.path(), workload->id,
                                  workload->profile, fingerprint, digest,
                                  cached, wall));
    EXPECT_EQ(resultCacheStats().failures, 1u);
}

TEST(ResultCache, OversizedTraceCountIsRejected)
{
    // A depth-trace count that claims more 16-byte records than the
    // entry holds, under a valid checksum, must be a counted failure,
    // never a resize to that many records.
    TempCacheDir dir;
    auto workload = prepareWorkload(SceneId::REF, ScaleProfile::Tiny);
    GpuConfig config = makeGpuConfig(StackConfig::baseline(8));
    SimResult fresh = runWorkload(*workload, config);
    ASSERT_TRUE(fresh.depth_trace.empty());
    uint64_t fingerprint =
        workloadFingerprint(workload->render.jobs, workload->bvh);
    uint64_t digest = gpuConfigDigest(config);
    ASSERT_TRUE(storeCachedResult(dir.path(), workload->id,
                                  workload->profile, fingerprint, digest,
                                  fresh, 0.5));
    std::string path = resultCachePath(dir.path(), workload->id,
                                       workload->profile, fingerprint,
                                       digest);
    std::string file;
    ASSERT_TRUE(readFile(path, file));

    // The empty trace's count is followed by jobs, warps, rays and
    // mismatches (20 bytes) and the checksum.
    const size_t count_at = file.size() - 8 - 20 - 8;
    uint64_t count;
    std::memcpy(&count, &file[count_at], sizeof count);
    ASSERT_EQ(count, 0u);
    // 2^32 records, the most the reader used to accept: 64 GiB.
    count = 1ull << 32;
    std::memcpy(&file[count_at], &count, sizeof count);
    uint64_t sum = xxh64(file.data(), file.size() - 8);
    std::memcpy(&file[file.size() - 8], &sum, sizeof sum);
    ASSERT_TRUE(writeFileAtomic(path, file));

    resetResultCacheStats();
    SimResult cached;
    double wall = 0.0;
    EXPECT_FALSE(loadCachedResult(dir.path(), workload->id,
                                  workload->profile, fingerprint, digest,
                                  cached, wall));
    EXPECT_EQ(resultCacheStats().failures, 1u);
}

TEST(ResultCache, WarmSweepSimulatesNothing)
{
    using benchutil::CellOrigin;
    using benchutil::runSweep;
    using benchutil::SweepResult;

    TempCacheDir dir;
    ScopedEnv env("SMS_RESULT_CACHE", dir.path().c_str());
    ScopedEnv no_wkld("SMS_WORKLOAD_CACHE", nullptr);

    std::vector<std::shared_ptr<Workload>> workloads = {
        prepareWorkload(SceneId::REF, ScaleProfile::Tiny),
        prepareWorkload(SceneId::WKND, ScaleProfile::Tiny),
    };
    std::vector<StackConfig> configs = {StackConfig::baseline(8),
                                        StackConfig::sms()};

    resetResultCacheStats();
    SweepResult cold = runSweep(workloads, configs, {}, 2);
    ResultCacheStats after_cold = resultCacheStats();
    EXPECT_EQ(after_cold.misses, 4u);
    EXPECT_EQ(after_cold.stores, 4u);
    EXPECT_EQ(after_cold.hits, 0u);
    for (const auto &row : cold.cell_origin)
        for (CellOrigin origin : row)
            EXPECT_EQ(origin, CellOrigin::Simulated);

    // The warm sweep must be served entirely from the cache: no tape
    // built, zero simulateJobs() calls, every cell a hit, counters
    // identical.
    resetResultCacheStats();
    resetSimulateJobsCallCount();
    resetTraversalTapeStats();
    SweepResult warm = runSweep(workloads, configs, {}, 2);
    EXPECT_EQ(simulateJobsCallCount(), 0u);
    EXPECT_EQ(traversalTapeStats().jobs_recorded, 0u);
    EXPECT_EQ(traversalTapeStats().jobs_replayed, 0u);
    ResultCacheStats after_warm = resultCacheStats();
    EXPECT_EQ(after_warm.hits, 4u);
    EXPECT_EQ(after_warm.misses, 0u);
    EXPECT_EQ(after_warm.failures, 0u);
    for (const auto &row : warm.cell_origin)
        for (CellOrigin origin : row)
            EXPECT_EQ(origin, CellOrigin::CacheHit);
    for (size_t s = 0; s < cold.results.size(); ++s)
        for (size_t c = 0; c < cold.results[s].size(); ++c)
            EXPECT_EQ(toJson(cold.results[s][c]).dump(),
                      toJson(warm.results[s][c]).dump())
                << "scene " << s << " config " << c;
}

} // namespace
} // namespace sms
