/**
 * @file
 * Allocation regression tests. A counting global operator new measures
 * heap allocations in three places:
 *  - the tape-replay hot loop: a Tiny SHIP workload's tape replays
 *    under RB_4+SH_4+SK+RA, whose stack manager prices a shared-memory
 *    bank-conflict count on every SH round, and must stay far below one
 *    allocation per simulated step;
 *  - the BVH build: the binary builder and the wide collapse allocate
 *    nothing per node;
 *  - the snapshot cache: a save seals its envelope in the buffer it
 *    wrote, and a load reads the body in the file it read, so neither
 *    copies the body.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

#include "src/bvh/wide_bvh.hpp"
#include "src/scene/registry.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/trace/render.hpp"
#include "src/trace/workload_cache.hpp"

namespace {
std::atomic<uint64_t> g_allocations{0};
/** Allocations of at least g_large_bytes bytes. */
std::atomic<uint64_t> g_large_allocations{0};
std::atomic<size_t> g_large_bytes{SIZE_MAX};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size >= g_large_bytes.load(std::memory_order_relaxed))
        g_large_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line: inlined into a new-expression's cleanup, the free()
// below draws GCC's -Wmismatched-new-delete, which cannot see that the
// operator new above is the one that called malloc().
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace sms {
namespace {

TEST(ReplayAllocations, FewerThanHalfAnAllocationPerStep)
{
    auto w = prepareWorkload(SceneId::SHIP, ScaleProfile::Tiny);
    GpuConfig config = makeGpuConfig(StackConfig::sms(4, 4));
    TraversalTape tape = buildWorkloadTape(*w, config.variant());

    SimOptions replay;
    replay.tape = &tape;
    uint64_t before = g_allocations.load();
    SimResult replayed = runWorkload(*w, config, replay);
    uint64_t allocations = g_allocations.load() - before;

    uint64_t tape_steps = 0;
    for (const JobTape &job : tape.jobs)
        tape_steps += job.steps;
    ASSERT_EQ(replayed.ops.steps, tape_steps);
    ASSERT_GT(replayed.ops.steps, 0u);
    // The workload must actually drive the SH stack's bank-conflict
    // count, or this test pins nothing.
    EXPECT_GT(replayed.shared_mem.accesses, 50000u);
    double per_step = static_cast<double>(allocations) /
                      static_cast<double>(replayed.ops.steps);
    EXPECT_LT(per_step, 0.5)
        << allocations << " allocations over " << replayed.ops.steps
        << " replayed steps";
}

TEST(BuildAllocations, BvhBuildAllocatesNothingPerNode)
{
    Scene scene = makeScene(SceneId::BUNNY, ScaleProfile::Small);
    ASSERT_GT(scene.primitiveCount(), 40000u);

    uint64_t before = g_allocations.load();
    BinaryBvh binary = BinaryBvh::build(scene);
    uint64_t build = g_allocations.load() - before;
    // The build's arrays, each builder's binning scratch, and the
    // threads of its fragments.
    EXPECT_LT(build, 100u) << binary.nodes().size() << " binary nodes";

    before = g_allocations.load();
    WideBvh wide = WideBvh::fromBinary(scene, binary);
    uint64_t collapse = g_allocations.load() - before;
    // The primitive-index copy and the node array's growth.
    EXPECT_LT(collapse, 100u) << wide.nodes().size() << " wide nodes";
}

/** Allocations of at least @p bytes that @p fn makes. */
template <typename Fn>
uint64_t
largeAllocations(size_t bytes, Fn &&fn)
{
    g_large_allocations = 0;
    g_large_bytes = bytes;
    fn();
    g_large_bytes = SIZE_MAX;
    return g_large_allocations.load();
}

TEST(CacheAllocations, SnapshotSaveAndLoadHoldOneBodySizedBuffer)
{
    auto w = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    const std::string dir = "/tmp/sms_alloc_cache_" +
                            std::to_string(static_cast<long>(::getpid()));
    ASSERT_TRUE(saveWorkloadSnapshot(dir, *w, w->profile, w->params));
    std::string path =
        workloadSnapshotPath(dir, w->id, w->profile, w->params);
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    // The envelope: an 8-byte magic and an 8-byte checksum.
    const size_t body = static_cast<size_t>(st.st_size) - 16;

    EXPECT_LE(largeAllocations(body, [&] {
                  saveWorkloadSnapshot(dir, *w, w->profile, w->params);
              }),
              1u);
    // Besides the file, a load allocates the decoded job array, which
    // here is larger than the body: a job takes 1,752 B in memory and
    // at most that on disk.
    const uint64_t job_array =
        w->render.jobs.size() * sizeof(WarpJob) >= body ? 1 : 0;
    std::shared_ptr<Workload> loaded;
    EXPECT_LE(largeAllocations(body, [&] {
                  loaded = loadWorkloadSnapshot(dir, w->id, w->profile,
                                                w->params);
              }),
              1u + job_array);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->render.jobs.size(), w->render.jobs.size());
    std::remove(path.c_str());
    ::rmdir(dir.c_str());
}

} // namespace
} // namespace sms
