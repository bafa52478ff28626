/**
 * @file
 * Tests for the workload snapshot cache: bit-exact round-trips (the
 * timing simulation over a reloaded workload must be counter-identical
 * to one over a freshly prepared workload), the scene a loaded workload
 * regenerates, corruption tolerance, the envelope checksum, and the
 * hit/miss/store accounting surfaced in the bench throughput records.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <random>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/sim/gpu_sim.hpp"
#include "src/stats/report.hpp"
#include "src/trace/render.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/trace/cache_io.hpp"
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

/** Little-endian bytes of @p v, as the cache writers store it. */
template <typename T>
std::string
le(T v)
{
    return std::string(reinterpret_cast<const char *>(&v), sizeof v);
}

/**
 * @p file with the u64 at @p offset set to @p value and the checksum
 * recomputed: a file that passes the envelope check and lies inside.
 */
std::string
resealed(std::string file, size_t offset, uint64_t value)
{
    std::memcpy(&file[offset], &value, sizeof value);
    uint64_t sum = xxh64(file.data(), file.size() - 8);
    std::memcpy(&file[file.size() - 8], &sum, sizeof sum);
    return file;
}

std::string
simResultJson(const Workload &workload)
{
    SimResult result =
        runWorkload(workload, makeGpuConfig(StackConfig::sms()));
    return toJson(result).dump();
}

/** Same IEEE-754 bit patterns, component by component. */
bool
sameBits(const Vec3 &a, const Vec3 &b)
{
    return std::memcmp(&a.x, &b.x, sizeof(float)) == 0 &&
           std::memcmp(&a.y, &b.y, sizeof(float)) == 0 &&
           std::memcmp(&a.z, &b.z, sizeof(float)) == 0;
}

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Scene equality, triangle for triangle and material for material. */
void
expectSameScene(const Scene &a, const Scene &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_TRUE(sameBits(a.camera.position, b.camera.position) &&
                sameBits(a.camera.lookAt, b.camera.lookAt) &&
                sameBits(a.camera.up, b.camera.up) &&
                sameBits(a.camera.verticalFovDeg, b.camera.verticalFovDeg));
    EXPECT_TRUE(sameBits(a.light.position, b.light.position) &&
                sameBits(a.light.intensity, b.light.intensity));
    ASSERT_EQ(a.materials().size(), b.materials().size());
    for (size_t m = 0; m < a.materials().size(); ++m) {
        const Material &x = a.materials()[m];
        const Material &y = b.materials()[m];
        EXPECT_TRUE(sameBits(x.albedo, y.albedo) &&
                    sameBits(x.emission, y.emission) &&
                    sameBits(x.reflectivity, y.reflectivity))
            << "material " << m;
    }
    ASSERT_EQ(a.triangleCount(), b.triangleCount());
    ASSERT_EQ(a.sphereCount(), b.sphereCount());
    for (uint32_t t = 0; t < a.triangleCount(); ++t) {
        const Triangle &x = a.triangles()[t];
        const Triangle &y = b.triangles()[t];
        EXPECT_TRUE(sameBits(x.v0, y.v0) && sameBits(x.v1, y.v1) &&
                    sameBits(x.v2, y.v2))
            << "triangle " << t;
    }
    for (uint32_t s = 0; s < a.sphereCount(); ++s) {
        EXPECT_TRUE(sameBits(a.spheres()[s].center, b.spheres()[s].center) &&
                    sameBits(a.spheres()[s].radius, b.spheres()[s].radius))
            << "sphere " << s;
    }
    for (uint32_t p = 0; p < a.primitiveCount(); ++p)
        EXPECT_EQ(a.primitiveMaterialId(p), b.primitiveMaterialId(p))
            << "primitive " << p;
}

TEST(EnvelopeSum, MatchesPublishedXxh64Values)
{
    // The published XXH64 values (seed 0) of these strings.
    EXPECT_EQ(xxh64("", 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(xxh64("a", 1), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(xxh64("abc", 3), 0x44bc2cf5ad770999ull);
    const char *text = "Nobody inspects the spammish repetition";
    EXPECT_EQ(xxh64(text, std::strlen(text)), 0xfbcea83c8a378bf1ull);
}

TEST(EnvelopeSum, EveryBitFlipAndTruncationChangesTheSum)
{
    // The envelope sum must catch every damage FNV-1a caught: any one
    // flipped bit and any truncation of a seeded 4 KiB buffer.
    std::string buffer(4096, '\0');
    std::mt19937_64 rng(20);
    for (char &c : buffer)
        c = static_cast<char>(rng());
    const uint64_t sum = xxh64(buffer.data(), buffer.size());
    for (size_t at = 0; at < buffer.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            buffer[at] = static_cast<char>(buffer[at] ^ (1 << bit));
            ASSERT_NE(xxh64(buffer.data(), buffer.size()), sum)
                << "bit " << bit << " of byte " << at;
            buffer[at] = static_cast<char>(buffer[at] ^ (1 << bit));
        }
    }
    for (size_t n = 0; n < buffer.size(); ++n)
        ASSERT_NE(xxh64(buffer.data(), n), sum) << "truncated to " << n;
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

TEST(WorkloadCache, LoadedWorkloadRegeneratesItsSceneOnce)
{
    // A snapshot holds no scene. The loaded workload regenerates it on
    // the first scene() call, equal to makeScene()'s, and only once; a
    // freshly prepared workload never counts a rebuild.
    TempCacheDir dir;
    ScopedEnv env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    resetWorkloadCacheStats();
    auto cold = prepareWorkload(SceneId::WKND, ScaleProfile::Tiny);
    cold->scene();
    EXPECT_EQ(workloadCacheStats().scene_rebuilds, 0u);

    auto warm = prepareWorkload(SceneId::WKND, ScaleProfile::Tiny);
    ASSERT_EQ(workloadCacheStats().hits, 1u);
    EXPECT_EQ(workloadCacheStats().scene_rebuilds, 0u);
    const Scene &scene = warm->scene();
    EXPECT_EQ(workloadCacheStats().scene_rebuilds, 1u);
    EXPECT_EQ(&warm->scene(), &scene);
    EXPECT_EQ(workloadCacheStats().scene_rebuilds, 1u);
    expectSameScene(scene, makeScene(SceneId::WKND, ScaleProfile::Tiny));
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

TEST(WorkloadCache, OversizedCountsAreRejected)
{
    // A snapshot whose node, index or job count claims more records
    // than the file holds, under a valid checksum, must be a counted
    // failure and a rebuild, never a reservation of that many records.
    TempCacheDir dir;
    auto w = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    ASSERT_TRUE(saveWorkloadSnapshot(dir.path(), *w, w->profile, w->params));
    std::string path =
        workloadSnapshotPath(dir.path(), w->id, w->profile, w->params);
    std::string pristine;
    ASSERT_TRUE(readFile(path, pristine));

    // Each count is found by the field next to it.
    const WideBvh &bvh = w->bvh;
    struct Count
    {
        const char *name;
        std::string context; ///< the count and a neighbouring field
        size_t at;           ///< the count's offset in context
    };
    const Count counts[] = {
        {"nodes",
         le(bvh.rootRef().bits()) + le<uint64_t>(bvh.nodes().size()), 4},
        {"prim indices",
         le<uint64_t>(bvh.primIndices().size()) + le(bvh.primIndices()[0]),
         0},
        {"jobs",
         le<uint64_t>(w->render.rays) + le<uint64_t>(w->render.jobs.size()),
         8},
    };
    for (const Count &count : counts) {
        size_t at = pristine.find(count.context);
        ASSERT_NE(at, std::string::npos) << count.name;
        ASSERT_TRUE(writeFileAtomic(
            path, resealed(pristine, at + count.at, 1ull << 40)));
        resetWorkloadCacheStats();
        EXPECT_EQ(loadWorkloadSnapshot(dir.path(), w->id, w->profile,
                                       w->params),
                  nullptr)
            << count.name;
        EXPECT_EQ(workloadCacheStats().failures, 1u) << count.name;
    }
}

TEST(WorkloadCache, OversizedTapeChunkIsRejected)
{
    TempCacheDir dir;
    auto w = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    ASSERT_TRUE(saveTraversalTape(
        dir.path(), *w, buildWorkloadTape(*w, TraversalVariant{})));
    std::string path =
        traversalTapePath(dir.path(), w->id, w->profile, w->params);
    std::string file;
    ASSERT_TRUE(readFile(path, file));
    // Magic, version, fingerprint, job count, then the first job's
    // step and mismatch counts and its byte length.
    const size_t first_length = 8 + 4 + 8 + 8 + 4 + 4;
    ASSERT_TRUE(
        writeFileAtomic(path, resealed(file, first_length, 1ull << 40)));

    resetTraversalTapeStats();
    TraversalTape tape;
    EXPECT_FALSE(loadTraversalTape(dir.path(), *w, tape));
    EXPECT_EQ(traversalTapeStats().failures, 1u);
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
                if (loaded) {
                    EXPECT_EQ(loaded->render.film.contentHash(),
                              workload->render.film.contentHash());
                }
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
