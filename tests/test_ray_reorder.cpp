/**
 * @file
 * Ray-stream reorder tests: sort-key structure, determinism, ray
 * multiset preservation, the barrier dependency structure of the
 * repacked stream, and end-to-end simulation of reordered (and
 * quantized) traversal variants against the functional oracle. Their
 * tapes and results are pinned byte for byte by test_variant_pins.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/bvh/node_layout.hpp"
#include "src/scene/registry.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/sim/ray_reorder.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/trace/render.hpp"

namespace sms {
namespace {

constexpr uint64_t kMortonMask = (1ull << 30) - 1;

using RayFacts = std::tuple<float, float, float, float, float, float,
                            uint32_t, bool, float, uint32_t, bool>;

/** Every active ray of @p jobs with its oracle values, sorted. */
std::vector<RayFacts>
rayMultiset(const WarpJobList &jobs)
{
    std::vector<RayFacts> out;
    for (const WarpJob &job : jobs)
        for (uint32_t l = 0; l < kWarpSize; ++l)
            if (job.active[l])
                out.emplace_back(job.rays[l].origin.x,
                                 job.rays[l].origin.y,
                                 job.rays[l].origin.z, job.rays[l].dir.x,
                                 job.rays[l].dir.y, job.rays[l].dir.z,
                                 job.segment, job.any_hit,
                                 job.expected_t[l], job.expected_prim[l],
                                 job.expected_hit[l]);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(RayOrderKey, OctantOccupiesTopBitsMortonTheRest)
{
    Aabb bounds({0, 0, 0}, {100, 100, 100});
    Ray at_lo({0, 0, 0}, {1, 1, 1});
    Ray at_hi({100, 100, 100}, {1, 1, 1});
    // Same octant, extreme origins: morton spans [0, 2^30).
    EXPECT_EQ(rayOrderKey(at_lo, bounds) & kMortonMask, 0u);
    EXPECT_EQ(rayOrderKey(at_hi, bounds) & kMortonMask, kMortonMask);
    EXPECT_EQ(rayOrderKey(at_lo, bounds) >> 30,
              rayOrderKey(at_hi, bounds) >> 30);
    // Flipping one direction sign changes the octant (top bits).
    Ray flipped({0, 0, 0}, {-1, 1, 1});
    EXPECT_NE(rayOrderKey(at_lo, bounds) >> 30,
              rayOrderKey(flipped, bounds) >> 30);
    // All-positive directions sort before all-negative ones.
    Ray negative({0, 0, 0}, {-1, -1, -1});
    EXPECT_LT(rayOrderKey(at_lo, bounds),
              rayOrderKey(negative, bounds));
}

TEST(RayOrderKey, MortonIsMonotonicAlongTheDiagonal)
{
    Aabb bounds({0, 0, 0}, {64, 64, 64});
    uint64_t prev = 0;
    for (int i = 0; i < 8; ++i) {
        float v = static_cast<float>(i * 8);
        Ray ray({v, v, v}, {1, 1, 1});
        uint64_t key = rayOrderKey(ray, bounds) & kMortonMask;
        if (i > 0) {
            EXPECT_GT(key, prev);
        }
        prev = key;
    }
}

class RayReorderWorkload : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload_ = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    }
    static void TearDownTestSuite() { workload_.reset(); }

    static std::shared_ptr<Workload> workload_;
};

std::shared_ptr<Workload> RayReorderWorkload::workload_;

TEST_F(RayReorderWorkload, NoneModeIsIdentity)
{
    const WarpJobList &jobs = workload_->render.jobs;
    WarpJobList same =
        reorderJobs(jobs, workload_->bvh, RayOrderConfig::none());
    ASSERT_EQ(same.size(), jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        EXPECT_EQ(same[j].job_id, jobs[j].job_id);
        EXPECT_EQ(same[j].parent, jobs[j].parent);
        EXPECT_EQ(same[j].barrier, jobs[j].barrier);
    }
}

TEST_F(RayReorderWorkload, ReorderPreservesTheRayMultiset)
{
    const WarpJobList &jobs = workload_->render.jobs;
    WarpJobList reordered = reorderJobs(jobs, workload_->bvh,
                                        RayOrderConfig::octantMorton());
    EXPECT_EQ(rayMultiset(reordered), rayMultiset(jobs));
}

TEST_F(RayReorderWorkload, ReorderIsDeterministic)
{
    const WarpJobList &jobs = workload_->render.jobs;
    WarpJobList a = reorderJobs(jobs, workload_->bvh,
                                RayOrderConfig::octantMorton());
    WarpJobList b = reorderJobs(jobs, workload_->bvh,
                                RayOrderConfig::octantMorton());
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].barrier, b[j].barrier);
        EXPECT_EQ(a[j].segment, b[j].segment);
        EXPECT_EQ(a[j].active, b[j].active);
        for (uint32_t l = 0; l < kWarpSize; ++l) {
            if (!a[j].active[l])
                continue;
            EXPECT_EQ(a[j].rays[l].origin.x, b[j].rays[l].origin.x);
            EXPECT_EQ(a[j].expected_prim[l], b[j].expected_prim[l]);
        }
    }
}

TEST_F(RayReorderWorkload, BarrierStructureReplacesParentEdges)
{
    const WarpJobList &jobs = workload_->render.jobs;
    WarpJobList reordered = reorderJobs(jobs, workload_->bvh,
                                        RayOrderConfig::octantMorton());
    ASSERT_FALSE(reordered.empty());
    int32_t prev_barrier = -1;
    bool saw_barrier = false;
    for (size_t j = 0; j < reordered.size(); ++j) {
        const WarpJob &job = reordered[j];
        EXPECT_EQ(job.job_id, static_cast<uint32_t>(j));
        EXPECT_EQ(job.parent, -1);
        // A barrier always points at an earlier job and never moves
        // backwards across the stream (batches are emitted in order).
        EXPECT_LT(job.barrier, static_cast<int32_t>(j));
        EXPECT_GE(job.barrier, prev_barrier);
        prev_barrier = job.barrier;
        if (job.barrier >= 0)
            saw_barrier = true;
    }
    // The bunny workload traces secondary rays, so at least one later
    // wavefront batch must carry a real barrier.
    EXPECT_TRUE(saw_barrier);
    // Jobs within one batch share segment/any_hit with their batch.
    for (size_t j = 1; j < reordered.size(); ++j)
        if (reordered[j].barrier == reordered[j - 1].barrier) {
            EXPECT_EQ(reordered[j].segment, reordered[j - 1].segment);
        }
}

TEST_F(RayReorderWorkload, SimulatedVariantsMatchTheOracle)
{
    SimResult base =
        runWorkload(*workload_, makeGpuConfig(StackConfig::sms()));
    EXPECT_EQ(base.mismatches, 0u);

    // Reordered, quantized, and combined variants all run the full
    // timing simulation; runWorkload() itself asserts zero oracle
    // mismatches, and the ray population must be unchanged.
    GpuConfig reorder = makeGpuConfig(StackConfig::sms());
    reorder.ray_order = RayOrderConfig::octantMorton();
    SimResult r = runWorkload(*workload_, reorder);
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_EQ(r.rays, base.rays);

    GpuConfig quantized = makeGpuConfig(StackConfig::sms());
    quantized.node_layout = NodeLayoutConfig::quantized(8);
    SimResult q = runWorkload(*workload_, quantized);
    EXPECT_EQ(q.mismatches, 0u);
    EXPECT_EQ(q.rays, base.rays);
    // Inflated boxes can only add node visits, never remove them.
    EXPECT_GE(q.ops.node_visits, base.ops.node_visits);

    GpuConfig both = makeGpuConfig(StackConfig::sms());
    both.node_layout = NodeLayoutConfig::quantized(8);
    both.ray_order = RayOrderConfig::octantMorton();
    SimResult qr = runWorkload(*workload_, both);
    EXPECT_EQ(qr.mismatches, 0u);
    EXPECT_EQ(qr.rays, base.rays);
}

} // namespace
} // namespace sms
