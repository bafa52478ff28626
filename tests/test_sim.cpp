/**
 * @file
 * Tests of the GPU timing simulator: determinism, oracle agreement,
 * configuration-independent functional behaviour, and the monotonic
 * traffic properties the paper's evaluation rests on.
 */

#include <gtest/gtest.h>

#include "src/stats/report.hpp"
#include "src/trace/render.hpp"

namespace sms {
namespace {

/** Shared tiny workload so the suite stays fast. */
const Workload &
bunnyWorkload()
{
    static std::shared_ptr<Workload> workload = [] {
        RenderParams params;
        params.width = 24;
        params.height = 24;
        params.spp = 1;
        params.max_bounces = 2;
        return prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny,
                               &params);
    }();
    return *workload;
}

const Workload &
shipWorkload()
{
    static std::shared_ptr<Workload> workload = [] {
        RenderParams params;
        params.width = 24;
        params.height = 24;
        params.spp = 1;
        params.max_bounces = 2;
        return prepareWorkload(SceneId::SHIP, ScaleProfile::Tiny,
                               &params);
    }();
    return *workload;
}

/** simulateJobs() of @p jobs, with their tape built first. */
SimResult
simulate(const Workload &w, const WarpJobList &jobs, const GpuConfig &config)
{
    TraversalTape tape =
        buildTraversalTape(*w.scene(), w.bvh, jobs, config.variant());
    SimOptions options;
    options.tape = &tape;
    return simulateJobs(w.bvh, jobs, config, options);
}

class SimConfigTest : public ::testing::TestWithParam<StackConfig>
{
};

TEST_P(SimConfigTest, MatchesFunctionalOracle)
{
    // runWorkload() asserts mismatches == 0 internally; surface it.
    SimResult r = runWorkload(bunnyWorkload(), makeGpuConfig(GetParam()));
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
}

TEST_P(SimConfigTest, Deterministic)
{
    SimResult a = runWorkload(shipWorkload(), makeGpuConfig(GetParam()));
    SimResult b = runWorkload(shipWorkload(), makeGpuConfig(GetParam()));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.offchip_accesses, b.offchip_accesses);
    EXPECT_EQ(a.shared_mem.conflict_cycles, b.shared_mem.conflict_cycles);
    EXPECT_EQ(a.depth_hist.total(), b.depth_hist.total());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SimConfigTest,
    ::testing::Values(StackConfig::baseline(8), StackConfig::baseline(2),
                      StackConfig::rbFull(), StackConfig::withSh(8, 8),
                      StackConfig::withSh(8, 8, true, false),
                      StackConfig::sms(), StackConfig::sms(2, 8)),
    [](const auto &info) {
        std::string name = info.param.name();
        for (char &c : name)
            if (c == '+')
                c = '_';
        return name;
    });

TEST(Sim, InstructionsAreConfigIndependent)
{
    // Normalized IPC must reduce to a cycle ratio: the instruction
    // stream cannot depend on the stack configuration.
    const Workload &w = shipWorkload();
    SimResult base = runWorkload(w, makeGpuConfig(StackConfig::baseline(8)));
    SimResult full = runWorkload(w, makeGpuConfig(StackConfig::rbFull()));
    SimResult sms = runWorkload(w, makeGpuConfig(StackConfig::sms()));
    EXPECT_EQ(base.instructions, full.instructions);
    EXPECT_EQ(base.instructions, sms.instructions);
    EXPECT_EQ(base.ops.node_visits, sms.ops.node_visits);
    EXPECT_EQ(base.ops.prim_tests, sms.ops.prim_tests);
    EXPECT_EQ(base.ops.steps, sms.ops.steps);
}

TEST(Sim, DepthHistogramConfigIndependent)
{
    // Stack depth is a property of the traversal, not of the hardware
    // realization (Fig. 4/5 are measured once).
    const Workload &w = shipWorkload();
    SimResult a = runWorkload(w, makeGpuConfig(StackConfig::baseline(8)));
    SimResult b = runWorkload(w, makeGpuConfig(StackConfig::sms()));
    EXPECT_EQ(a.depth_hist.total(), b.depth_hist.total());
    EXPECT_EQ(a.depth_hist.maxSeen(), b.depth_hist.maxSeen());
    EXPECT_DOUBLE_EQ(a.depth_hist.mean(), b.depth_hist.mean());
}

TEST(Sim, RbFullNeverTouchesMemoryForStacks)
{
    SimResult r =
        runWorkload(shipWorkload(), makeGpuConfig(StackConfig::rbFull()));
    EXPECT_EQ(r.stack.rb_spills, 0u);
    EXPECT_EQ(r.stack.global_stores, 0u);
    EXPECT_EQ(r.stack.global_loads, 0u);
    EXPECT_EQ(r.stack.sh_stores, 0u);
    EXPECT_EQ(r.shared_mem.accesses, 0u);
}

TEST(Sim, SmallerRbSpillsMore)
{
    const Workload &w = shipWorkload();
    SimResult rb2 = runWorkload(w, makeGpuConfig(StackConfig::baseline(2)));
    SimResult rb8 = runWorkload(w, makeGpuConfig(StackConfig::baseline(8)));
    SimResult rb16 =
        runWorkload(w, makeGpuConfig(StackConfig::baseline(16)));
    EXPECT_GT(rb2.stack.rb_spills, rb8.stack.rb_spills);
    EXPECT_GT(rb8.stack.rb_spills, rb16.stack.rb_spills);
    EXPECT_GE(rb2.offchip_accesses, rb8.offchip_accesses);
}

TEST(Sim, ShStackAbsorbsOffchipTraffic)
{
    // The paper's core claim: the SH stack converts off-chip stack
    // traffic into shared-memory traffic.
    const Workload &w = shipWorkload();
    SimResult base = runWorkload(w, makeGpuConfig(StackConfig::baseline(8)));
    SimResult sh = runWorkload(w, makeGpuConfig(StackConfig::withSh(8, 8)));
    EXPECT_LT(sh.stack.global_stores, base.stack.global_stores);
    EXPECT_GT(sh.stack.sh_stores, 0u);
    EXPECT_LE(sh.offchip_accesses, base.offchip_accesses);
    EXPECT_GT(sh.shared_mem.accesses, 0u);
}

TEST(Sim, ReallocationReducesGlobalSpills)
{
    const Workload &w = shipWorkload();
    SimResult sh =
        runWorkload(w, makeGpuConfig(StackConfig::withSh(8, 8, true,
                                                         false)));
    SimResult ra = runWorkload(w, makeGpuConfig(StackConfig::sms()));
    EXPECT_GT(ra.stack.borrows, 0u);
    EXPECT_LE(ra.stack.global_stores, sh.stack.global_stores);
}

TEST(Sim, SkewReducesConflictCycles)
{
    const Workload &w = shipWorkload();
    SimResult plain =
        runWorkload(w, makeGpuConfig(StackConfig::withSh(8, 8)));
    SimResult skew = runWorkload(
        w, makeGpuConfig(StackConfig::withSh(8, 8, true, false)));
    EXPECT_LT(skew.shared_mem.conflict_cycles,
              plain.shared_mem.conflict_cycles);
}

TEST(Sim, ShCarveOutShrinksL1)
{
    GpuConfig none = makeGpuConfig(StackConfig::baseline(8));
    GpuConfig sh8 = makeGpuConfig(StackConfig::withSh(8, 8));
    GpuConfig sh16 = makeGpuConfig(StackConfig::withSh(8, 16));
    EXPECT_EQ(none.effectiveL1Bytes(), 64u * 1024u);
    EXPECT_EQ(sh8.effectiveL1Bytes(), 56u * 1024u);
    EXPECT_EQ(sh16.effectiveL1Bytes(), 48u * 1024u);
    GpuConfig forced = makeGpuConfig(StackConfig::baseline(8), 16 * 1024);
    EXPECT_EQ(forced.effectiveL1Bytes(), 16u * 1024u);
}

TEST(Sim, LargerL1Helps)
{
    const Workload &w = bunnyWorkload();
    SimResult small = runWorkload(
        w, makeGpuConfig(StackConfig::baseline(8), 16 * 1024));
    SimResult large = runWorkload(
        w, makeGpuConfig(StackConfig::baseline(8), 256 * 1024));
    EXPECT_LT(large.cycles, small.cycles);
}

TEST(Sim, JobAccountingMatchesWorkload)
{
    const Workload &w = bunnyWorkload();
    SimResult r = runWorkload(w, makeGpuConfig(StackConfig::baseline(8)));
    EXPECT_EQ(r.jobs, w.render.jobs.size());
    EXPECT_EQ(r.rays, w.render.rays);
    EXPECT_GT(r.warps, 0u);
}

TEST(Sim, DepthTraceOnlyForRequestedWarps)
{
    SimOptions options;
    options.depth_trace_warps = {0};
    SimResult r = runWorkload(bunnyWorkload(),
                              makeGpuConfig(StackConfig::baseline(8)),
                              options);
    EXPECT_GT(r.depth_trace.size(), 0u);
    for (const DepthTraceRecord &rec : r.depth_trace)
        EXPECT_EQ(rec.warp_id, 0u);

    SimResult no_trace = runWorkload(
        bunnyWorkload(), makeGpuConfig(StackConfig::baseline(8)));
    EXPECT_TRUE(no_trace.depth_trace.empty());
}

TEST(Sim, MoreSmsFinishFaster)
{
    // Throughput sanity: doubling the SM count cannot slow the frame.
    const Workload &w = shipWorkload();
    GpuConfig few = makeGpuConfig(StackConfig::baseline(8));
    few.num_sms = 2;
    GpuConfig many = makeGpuConfig(StackConfig::baseline(8));
    many.num_sms = 8;
    SimResult few_r = runWorkload(w, few);
    SimResult many_r = runWorkload(w, many);
    EXPECT_LE(many_r.cycles, few_r.cycles);
}

TEST(Sim, CyclesCoverZeroLatencyCompletionTies)
{
    // Regression: frame cycles are the maximum over ALL event
    // retirement cycles, not just the event the heap happens to pop
    // last. A job whose lanes are all inactive retires with zero
    // latency, tying with whatever else shares its issue cycle —
    // appending one must never change the reported frame length, and
    // the seq tie-break must keep the whole result deterministic.
    const Workload &w = bunnyWorkload();
    GpuConfig config = makeGpuConfig(StackConfig::sms());

    SimResult base = simulate(w, w.render.jobs, config);

    WarpJobList padded = w.render.jobs;
    WarpJob idle;
    idle.job_id = static_cast<uint32_t>(padded.size());
    idle.warp_id = padded.back().warp_id + 1;
    padded.push_back(idle);

    SimResult with_idle = simulate(w, padded, config);
    EXPECT_EQ(with_idle.cycles, base.cycles);
    EXPECT_EQ(with_idle.instructions, base.instructions);
    EXPECT_EQ(with_idle.jobs, base.jobs + 1);

    // Exact-JSON determinism across repeated runs, including the
    // padded job list where completion ties are guaranteed.
    SimResult again = simulate(w, padded, config);
    EXPECT_EQ(toJson(with_idle).dump(), toJson(again).dump());
}

TEST(Sim, EmptyJobListCompletes)
{
    const Workload &w = bunnyWorkload();
    SimResult r = simulate(w, {}, makeGpuConfig(StackConfig::baseline(8)));
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.jobs, 0u);
}

} // namespace
} // namespace sms
