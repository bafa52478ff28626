/**
 * @file
 * Direct tests of the RT-unit pipeline model (TraversalSim) replaying
 * one-job tapes from the functional pass, and of the GpuConfig
 * plumbing, at a finer grain than the whole-GPU suite.
 */

#include <gtest/gtest.h>

#include "src/bvh/traverse.hpp"
#include "src/sim/traversal_sim.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/trace/render.hpp"

namespace sms {
namespace {

/** Six well-separated triangles: a guaranteed two-level BVH. */
Scene
twoTriangleScene()
{
    Scene scene;
    uint16_t mat = scene.addMaterial({});
    for (int i = 0; i < 6; ++i) {
        float x = -5.0f + 2.0f * i;
        float z = 5.0f + 2.0f * i;
        scene.addTriangle(
            Triangle({x - 1, -1, z}, {x + 1, -1, z}, {x, 1, z}), mat);
    }
    return scene;
}

/** Job with one active lane shooting at the first triangle. */
WarpJob
singleLaneJob(const Scene &scene, const WideBvh &bvh)
{
    WarpJob job;
    job.job_id = 0;
    job.warp_id = 0;
    Ray ray({-5, 0, 0}, {0, 0, 1}, 1e-4f);
    job.rays[0] = ray;
    job.active[0] = true;
    HitRecord hit = traverseClosest(scene, bvh, ray);
    job.expected_hit[0] = hit.valid();
    job.expected_t[0] = hit.t;
    job.expected_prim[0] = hit.primitive;
    return job;
}

struct Rig
{
    Scene scene;
    WideBvh bvh;
    GpuConfig config;
    MemorySystem mem;
    SharedMemory shared;

    Rig()
        : scene(twoTriangleScene()), bvh(WideBvh::build(scene)),
          config(GpuConfig::tableI()),
          mem(config.resolvedMemConfig(), config.num_sms),
          shared(config.shared_latency)
    {}

    /** The functional pass's tape of @p job, run as job 0. */
    JobTape
    tape(const WarpJob &job) const
    {
        return buildTraversalTape(scene, bvh, {job}, TraversalVariant{})
            .jobs[0];
    }
};

TEST(TraversalSim, RunsSingleLaneJobToCompletion)
{
    Rig rig;
    WarpJob job = singleLaneJob(rig.scene, rig.bvh);
    JobTape tape = rig.tape(job);
    TraversalSim sim(rig.bvh, rig.config, job, tape, 0, 0, 0x100000000ull,
                     rig.mem, rig.shared, nullptr);
    ASSERT_FALSE(sim.done());

    Cycle now = 0;
    int guard = 0;
    while (!sim.done()) {
        Cycle op_done = sim.stepFetch(now);
        EXPECT_GE(op_done, now);
        Cycle done = sim.stepStack(op_done);
        EXPECT_GE(done, op_done);
        now = done;
        ASSERT_LT(++guard, 1000) << "traversal did not terminate";
    }
    EXPECT_EQ(sim.mismatches(), 0u);
    EXPECT_GE(sim.counters().steps, 2u); // at least root + a leaf
    EXPECT_GT(sim.counters().box_tests, 0u);
    EXPECT_GT(sim.counters().prim_tests, 0u);
    // Shallow traversal: the 8-entry RB stack never spills.
    EXPECT_EQ(sim.stackStats().rb_spills, 0u);
}

TEST(TraversalSim, InactiveJobCompletesImmediately)
{
    Rig rig;
    WarpJob job;
    job.job_id = 0;
    JobTape tape = rig.tape(job);
    TraversalSim sim(rig.bvh, rig.config, job, tape, 0, 0, 0x100000000ull,
                     rig.mem, rig.shared, nullptr);
    EXPECT_TRUE(sim.done());
    EXPECT_EQ(sim.mismatches(), 0u);
}

TEST(TraversalSim, WrongOracleIsDetected)
{
    // The validation path must actually fire: corrupt the oracle and
    // expect the functional pass to count a mismatch, which the timing
    // run reports from the tape.
    Rig rig;
    WarpJob job = singleLaneJob(rig.scene, rig.bvh);
    EXPECT_EQ(rig.tape(job).mismatches, 0u);
    job.expected_hit[0] = !job.expected_hit[0];
    JobTape tape = rig.tape(job);
    EXPECT_EQ(tape.mismatches, 1u);
    TraversalSim sim(rig.bvh, rig.config, job, tape, 0, 0, 0x100000000ull,
                     rig.mem, rig.shared, nullptr);
    Cycle now = 0;
    while (!sim.done())
        now = sim.stepStack(sim.stepFetch(now));
    EXPECT_EQ(sim.mismatches(), 1u);
}

TEST(TraversalSim, AnyHitTerminatesEarly)
{
    Rig rig;
    WarpJob closest = singleLaneJob(rig.scene, rig.bvh);
    WarpJob shadow = closest;
    shadow.any_hit = true;
    // An occluded shadow ray along the same path.
    shadow.expected_hit[0] = true;

    auto run_steps = [&](const WarpJob &job) {
        JobTape tape = rig.tape(job);
        TraversalSim sim(rig.bvh, rig.config, job, tape, 0, 0,
                         0x100000000ull, rig.mem, rig.shared, nullptr);
        Cycle now = 0;
        while (!sim.done())
            now = sim.stepStack(sim.stepFetch(now));
        EXPECT_EQ(sim.mismatches(), 0u);
        return sim.counters().prim_tests;
    };
    uint64_t closest_tests = run_steps(closest);
    uint64_t shadow_tests = run_steps(shadow);
    // The any-hit query can stop at the first accepted hit.
    EXPECT_LE(shadow_tests, closest_tests);
}

TEST(TraversalSim, DepthObserverReceivesRootPush)
{
    class Counter : public DepthObserver
    {
      public:
        void
        onStackAccess(uint32_t, uint32_t depth) override
        {
            ++events;
            if (depth > max_depth)
                max_depth = depth;
        }
        uint32_t events = 0;
        uint32_t max_depth = 0;
    };

    Rig rig;
    WarpJob job = singleLaneJob(rig.scene, rig.bvh);
    Counter obs;
    JobTape tape = rig.tape(job);
    TraversalSim sim(rig.bvh, rig.config, job, tape, 0, 0, 0x100000000ull,
                     rig.mem, rig.shared, &obs);
    Cycle now = 0;
    while (!sim.done())
        now = sim.stepStack(sim.stepFetch(now));
    EXPECT_GT(obs.events, 0u);
    EXPECT_GE(obs.max_depth, 1u);
}

TEST(TraversalSim, FetchTouchesNodeAndPrimitiveTraffic)
{
    Rig rig;
    WarpJob job = singleLaneJob(rig.scene, rig.bvh);
    JobTape tape = rig.tape(job);
    TraversalSim sim(rig.bvh, rig.config, job, tape, 0, 0, 0x100000000ull,
                     rig.mem, rig.shared, nullptr);
    Cycle now = 0;
    while (!sim.done())
        now = sim.stepStack(sim.stepFetch(now));
    EXPECT_GT(rig.mem.l1(0).stats().loads, 0u);
    EXPECT_GT(rig.mem.l1(0).missesByClass(TrafficClass::Node), 0u);
    EXPECT_GT(rig.mem.l1(0).missesByClass(TrafficClass::Primitive), 0u);
}

TEST(TraversalSim, ConflictedSharedLoadGatingARoundIsABankConflict)
{
    // A hand-written three-step tape on RB_1+SH_8 (no skew), replayed by
    // eight even lanes that all act alike. Fetches are empty and carry
    // no op latency, so every cycle of the job is a stack cycle.
    //   step 1: each lane pops the root and pushes two nodes; the first
    //           spills to SH slot 0 (one shared store);
    //   step 2: each lane pops its RB entry, and the eager refill loads
    //           slot 0 back: the round's only transaction, a shared
    //           load by eight lanes whose words share one bank pair;
    //   step 3: each lane pops the refilled node and finishes.
    // The store keeps the shared pipeline busy past the warp's own
    // step-2 stack round, so the load's conflict passes fall inside
    // the manager stall that step 3 waits out.
    Rig rig;
    GpuConfig config = GpuConfig::tableI();
    config.stack = StackConfig::withSh(1, 8);
    WarpJob job;
    job.job_id = 0;
    std::vector<SharedLaneRequest> refill;
    for (uint32_t lane = 0; lane < 16; lane += 2) {
        job.active[lane] = true;
        refill.push_back({lane, lane * 8 * kStackEntryBytes});
    }
    const uint32_t passes = SharedMemory::conflictPasses(refill);
    ASSERT_EQ(passes, 8u);

    JobTape tape;
    TapeWriter writer(&tape);
    const uint64_t pushed[2] = {ChildRef::makeInternal(1).stackValue(),
                                ChildRef::makeInternal(2).stackValue()};
    for (int step = 0; step < 3; ++step) {
        writer.fetchPhase({}, false, false, 0);
        for (uint32_t lane = 0; lane < 16; lane += 2)
            writer.internalVisit(0, pushed, step == 0 ? 2 : 0);
    }

    TraversalSim sim(rig.bvh, config, job, tape, 0, 0, 0x100000000ull,
                     rig.mem, rig.shared, nullptr);
    Cycle now = 0;
    while (!sim.done())
        now = sim.stepStack(sim.stepFetch(now));

    EXPECT_EQ(sim.counters().steps, 3u);
    EXPECT_EQ(sim.stackStats().sh_loads, 8u);
    EXPECT_EQ(rig.shared.stats().conflicted_accesses, 2u);
    const CycleAccount &a = sim.account();
    EXPECT_EQ(a.leaf(CycleLeaf::StallShmemBankConflict), passes - 1);
    // The rest of the load's stall is refill; the three steps' own
    // stack rounds are issue work; nothing else is charged.
    EXPECT_GT(a.leaf(CycleLeaf::StallStackRefill), 0u);
    EXPECT_EQ(a.leaf(CycleLeaf::Issue), 3 * config.timing.stack_round);
    EXPECT_EQ(a.activeSum(), a.leaf(CycleLeaf::StallShmemBankConflict) +
                                 a.leaf(CycleLeaf::StallStackRefill) +
                                 a.leaf(CycleLeaf::Issue));
    // Conservation: every cycle from admission (0) to retirement.
    EXPECT_EQ(a.activeSum(), now);
}

// ---------------------------------------------------------------------
// GpuConfig
// ---------------------------------------------------------------------

TEST(GpuConfig, TableIDefaults)
{
    GpuConfig config = GpuConfig::tableI();
    EXPECT_EQ(config.num_sms, 8u);
    EXPECT_EQ(config.max_warps_per_rt, 4u);
    EXPECT_EQ(config.unified_bytes, 64u * 1024u);
    EXPECT_EQ(config.mem.l1_latency, 20u);
    EXPECT_EQ(config.mem.l2_latency, 160u);
    EXPECT_EQ(config.mem.l2.ways, 16u);
    EXPECT_FALSE(config.mem.l1.allocate_on_store); // write-around L1
    EXPECT_TRUE(config.stack.name() == "RB_8");
}

TEST(GpuConfig, ResolvedMemConfigAppliesCarveOut)
{
    GpuConfig config = GpuConfig::tableI();
    config.stack = StackConfig::withSh(8, 8);
    MemoryHierarchyConfig resolved = config.resolvedMemConfig();
    EXPECT_EQ(resolved.l1.size_bytes, 56u * 1024u);
    EXPECT_EQ(config.sharedStackBytes(), 8u * 1024u);
}

TEST(GpuConfig, OverrideBeatsCarveOut)
{
    GpuConfig config = GpuConfig::tableI();
    config.stack = StackConfig::withSh(8, 8);
    config.l1_override_bytes = 128 * 1024;
    EXPECT_EQ(config.effectiveL1Bytes(), 128u * 1024u);
}

TEST(GpuConfig, OversizedShStackIsFatal)
{
    GpuConfig config = GpuConfig::tableI();
    config.stack = StackConfig::withSh(8, 64); // 64 KB: nothing left
    EXPECT_EXIT(config.effectiveL1Bytes(), ::testing::ExitedWithCode(1),
                "do not fit");
}

} // namespace
} // namespace sms
