/**
 * @file
 * Allocation regression test for the tape-replay hot loop. A counting
 * global operator new measures heap allocations while a Tiny SHIP
 * workload's tape replays under RB_4+SH_4+SK+RA, whose stack manager
 * prices a shared-memory bank-conflict count on every SH round. The
 * replay must stay far below one allocation per simulated step.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/sim/gpu_sim.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/trace/render.hpp"

namespace {
std::atomic<uint64_t> g_allocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
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

} // namespace
} // namespace sms
