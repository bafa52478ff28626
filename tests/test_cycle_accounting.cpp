/**
 * @file
 * Tests of the top-down cycle accounting: leaf-name round trips, the
 * CycleAccount arithmetic, the conservation invariant across the
 * paper's configuration matrix (every simulated warp-active cycle is
 * attributed to exactly one leaf, at zero epsilon), the slot-budget
 * closure via idle.done, the JSON block emitted with every bench
 * record, and a cross-validation of the accounting totals against the
 * independently recorded timeline trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/stats/cycle_accounting.hpp"
#include "src/stats/report.hpp"
#include "src/stats/timeline.hpp"
#include "src/trace/render.hpp"

namespace sms {
namespace {

TEST(CycleLeaf, NamesRoundTrip)
{
    for (int i = 0; i < kCycleLeafCount; ++i) {
        CycleLeaf leaf = static_cast<CycleLeaf>(i);
        EXPECT_EQ(cycleLeafFromName(cycleLeafName(leaf)), i);
    }
    EXPECT_EQ(cycleLeafFromName("bogus"), -1);
    EXPECT_EQ(cycleLeafFromName(""), -1);
    // Exactly one idle leaf; everything else counts as warp-active.
    int idle = 0;
    for (int i = 0; i < kCycleLeafCount; ++i)
        if (cycleLeafIsIdle(static_cast<CycleLeaf>(i)))
            ++idle;
    EXPECT_EQ(idle, 1);
    EXPECT_TRUE(cycleLeafIsIdle(CycleLeaf::IdleDone));
}

TEST(CycleAccount, SumsAndMerge)
{
    CycleAccount a;
    a.add(CycleLeaf::Issue, 10);
    a.add(CycleLeaf::Intersect, 5);
    a.add(CycleLeaf::StallMemL2Miss, 3);
    a.warp_active_cycles = 18;
    EXPECT_EQ(a.activeSum(), 18u);
    EXPECT_TRUE(a.conserved());
    a.add(CycleLeaf::IdleDone, 4);
    a.slot_cycles = 22;
    EXPECT_EQ(a.activeSum(), 18u); // idle is not warp-active
    EXPECT_EQ(a.totalSum(), 22u);
    EXPECT_TRUE(a.conserved());

    CycleAccount b;
    b.add(CycleLeaf::Issue, 1);
    b.warp_active_cycles = 1;
    b.slot_cycles = 1;
    b.merge(a);
    EXPECT_EQ(b.leaf(CycleLeaf::Issue), 11u);
    EXPECT_EQ(b.warp_active_cycles, 19u);
    EXPECT_EQ(b.slot_cycles, 23u);
    EXPECT_TRUE(b.conserved());

    CycleAccount leaky;
    leaky.add(CycleLeaf::Issue, 2);
    leaky.warp_active_cycles = 3;
    EXPECT_FALSE(leaky.conserved());
}

TEST(CycleAccount, JsonShape)
{
    CycleAccount a;
    a.add(CycleLeaf::StallStackBorrowChain, 7);
    a.add(CycleLeaf::IdleDone, 2);
    a.warp_active_cycles = 7;
    a.slot_cycles = 9;
    JsonValue v = toJson(a);
    EXPECT_EQ(v.numberOr("version", 0),
              static_cast<double>(kCycleAccountingVersion));
    EXPECT_EQ(v.numberOr("warp_active_cycles", 0), 7.0);
    EXPECT_EQ(v.numberOr("slot_cycles", 0), 9.0);
    const JsonValue *leaves = v.find("leaves");
    ASSERT_NE(leaves, nullptr);
    EXPECT_EQ(leaves->numberOr("stall.stack.borrow_chain", 0), 7.0);
    EXPECT_EQ(leaves->numberOr("idle.done", 0), 2.0);
    // The stall.arch.backtrack leaf only exists under the stackless
    // architecture; at zero it is suppressed so default-architecture
    // records stay byte-identical to older files.
    EXPECT_EQ(leaves->size(), static_cast<size_t>(kCycleLeafCount) - 1);
    EXPECT_EQ(leaves->find("stall.arch.backtrack"), nullptr);
    a.add(CycleLeaf::StallArchBacktrack, 3);
    JsonValue v2 = toJson(a);
    const JsonValue *leaves2 = v2.find("leaves");
    ASSERT_NE(leaves2, nullptr);
    EXPECT_EQ(leaves2->size(), static_cast<size_t>(kCycleLeafCount));
    EXPECT_EQ(leaves2->numberOr("stall.arch.backtrack", 0), 3.0);
}

class CycleAccountingSim : public ::testing::Test
{
  protected:
    std::shared_ptr<Workload>
    makeWorkload(SceneId id = SceneId::BUNNY)
    {
        RenderParams params;
        params.width = 20;
        params.height = 20;
        params.spp = 1;
        params.max_bounces = 2;
        return prepareWorkload(id, ScaleProfile::Tiny, &params);
    }

    /** Every invariant the accounting promises, on one result. */
    void
    expectConserved(const SimResult &r, const GpuConfig &config)
    {
        // Run-level conservation at zero epsilon.
        EXPECT_EQ(r.accounting.activeSum(), r.accounting.warp_active_cycles);
        // Slot-budget closure: idle.done absorbs exactly the unused
        // warp-slot cycles, nothing more.
        EXPECT_EQ(r.accounting.totalSum(), r.accounting.slot_cycles);
        EXPECT_EQ(r.accounting.slot_cycles,
                  static_cast<uint64_t>(config.num_sms) *
                      config.max_warps_per_rt * r.cycles);

        // Per-SM trees carry the same invariants and sum to the run
        // aggregate leaf by leaf.
        ASSERT_EQ(r.sm_accounting.size(), config.num_sms);
        CycleAccount sum;
        for (const CycleAccount &sm : r.sm_accounting) {
            EXPECT_EQ(sm.activeSum(), sm.warp_active_cycles);
            EXPECT_EQ(sm.totalSum(), sm.slot_cycles);
            EXPECT_EQ(sm.slot_cycles,
                      static_cast<uint64_t>(config.max_warps_per_rt) *
                          r.cycles);
            sum.merge(sm);
        }
        for (int i = 0; i < kCycleLeafCount; ++i)
            EXPECT_EQ(sum.leaves[i], r.accounting.leaves[i])
                << cycleLeafName(static_cast<CycleLeaf>(i));
        EXPECT_EQ(sum.warp_active_cycles,
                  r.accounting.warp_active_cycles);
    }
};

TEST_F(CycleAccountingSim, ConservationHoldsAcrossConfigMatrix)
{
    auto workload = makeWorkload();
    const StackConfig configs[] = {
        StackConfig::baseline(8), StackConfig::baseline(2),
        StackConfig::rbFull(),    StackConfig::withSh(8, 8),
        StackConfig::sms(),       StackConfig::sms(2, 8),
    };
    for (const StackConfig &stack : configs) {
        GpuConfig config = makeGpuConfig(stack);
        SimResult r = runWorkload(*workload, config);
        SCOPED_TRACE(stack.name());
        ASSERT_GT(r.cycles, 0u);
        expectConserved(r, config);
        // Every run does issue and intersection work.
        EXPECT_GT(r.accounting.leaf(CycleLeaf::Issue), 0u);
        EXPECT_GT(r.accounting.leaf(CycleLeaf::Intersect), 0u);
    }
}

TEST_F(CycleAccountingSim, StallLeavesTrackTheStackConfig)
{
    auto workload = makeWorkload();
    SimResult full =
        runWorkload(*workload, makeGpuConfig(StackConfig::rbFull()));
    SimResult rb2 =
        runWorkload(*workload, makeGpuConfig(StackConfig::baseline(2)));

    auto stack_stalls = [](const SimResult &r) {
        return r.accounting.leaf(CycleLeaf::StallStackSpill) +
               r.accounting.leaf(CycleLeaf::StallStackRefill) +
               r.accounting.leaf(CycleLeaf::StallStackBorrowChain) +
               r.accounting.leaf(CycleLeaf::StallStackForcedFlush);
    };
    // A full-depth register buffer never talks to the stack manager, so
    // no cycle can be attributed to a stack stall; cold caches still
    // produce memory-stall cycles.
    EXPECT_EQ(stack_stalls(full), 0u);
    EXPECT_GT(full.accounting.leaf(CycleLeaf::StallMemL2Miss) +
                  full.accounting.leaf(CycleLeaf::StallMemL1Miss) +
                  full.accounting.leaf(CycleLeaf::StallMemDramQueue),
              0u);
    // A 2-entry RB spills constantly; some of that manager traffic must
    // surface as attributed stall cycles.
    EXPECT_GT(stack_stalls(rb2), 0u);
}

TEST_F(CycleAccountingSim, SimResultJsonCarriesTheAccountingBlock)
{
    auto workload = makeWorkload();
    GpuConfig config = makeGpuConfig(StackConfig::sms(2, 8));
    SimResult r = runWorkload(*workload, config);

    JsonValue v = toJson(r);
    const JsonValue *acct = v.find("cycle_accounting");
    ASSERT_NE(acct, nullptr);
    EXPECT_EQ(acct->numberOr("version", 0),
              static_cast<double>(kCycleAccountingVersion));
    EXPECT_EQ(acct->numberOr("warp_active_cycles", 0),
              static_cast<double>(r.accounting.warp_active_cycles));
    EXPECT_EQ(acct->numberOr("slot_cycles", 0),
              static_cast<double>(r.accounting.slot_cycles));

    const JsonValue *leaves = acct->find("leaves");
    ASSERT_NE(leaves, nullptr);
    uint64_t active_from_json = 0;
    for (const auto &[name, count] : leaves->members()) {
        int idx = cycleLeafFromName(name);
        ASSERT_GE(idx, 0) << name;
        EXPECT_EQ(count.asU64(), r.accounting.leaves[idx]) << name;
        if (!cycleLeafIsIdle(static_cast<CycleLeaf>(idx)))
            active_from_json += count.asU64();
    }
    // Conservation survives the JSON round trip.
    EXPECT_EQ(active_from_json, r.accounting.warp_active_cycles);

    const JsonValue *per_sm = acct->find("per_sm");
    ASSERT_NE(per_sm, nullptr);
    ASSERT_TRUE(per_sm->isArray());
    EXPECT_EQ(per_sm->size(), r.sm_accounting.size());
}

/**
 * The accounting and the timeline tracer observe the same run through
 * two independent code paths; their totals must agree exactly:
 *
 *  - the intersect leaf equals the summed sim/"intersect" spans;
 *  - issue plus the memory-stall leaves equal the summed sim/"fetch"
 *    plus sim/"stack" spans (a fetch window is issue work plus its
 *    miss/queue stalls; every stack round is issue work);
 *  - the stack-stall and bank-conflict leaves together equal the
 *    summed stack/"mgr_stall" spans (the manager-busy window is what
 *    those leaves decompose).
 */
TEST_F(CycleAccountingSim, AccountingAgreesWithTimelineTrace)
{
    timelineShutdown();
    TimelineConfig tl;
    tl.categories = static_cast<uint32_t>(TimelineCategory::Sim) |
                    static_cast<uint32_t>(TimelineCategory::Stack);
    tl.ring_capacity = 1u << 21;
    timelineConfigure(tl);

    auto workload = makeWorkload();
    SimResult r =
        runWorkload(*workload, makeGpuConfig(StackConfig::sms(2, 8)));

    std::string path = testing::TempDir() + "sms_accounting_trace.json";
    std::string error;
    ASSERT_TRUE(timelineExportTo(path, error)) << error;
    TimelineStats stats = timelineStats();
    timelineShutdown();
    ASSERT_EQ(stats.events_dropped, 0u)
        << "ring too small for the cross-validation to be exact";

    JsonValue doc;
    {
        // The trace is one JSON document, not JSONL; parse directly.
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        std::ostringstream buffer;
        buffer << in.rdbuf();
        ASSERT_TRUE(JsonValue::parse(buffer.str(), doc, error)) << error;
    }
    std::remove(path.c_str());

    TraceSummary summary;
    ASSERT_TRUE(summarizeTrace(doc, summary, error)) << error;

    auto span_time = [&](const char *cat, const char *name) {
        for (const TraceNameSummary &n : summary.names)
            if (n.category == cat && n.name == name)
                return n.span_time;
        return uint64_t{0};
    };

    const CycleAccount &a = r.accounting;
    EXPECT_EQ(a.leaf(CycleLeaf::Intersect), span_time("sim", "intersect"));
    EXPECT_EQ(a.leaf(CycleLeaf::Issue) +
                  a.leaf(CycleLeaf::StallMemL1Miss) +
                  a.leaf(CycleLeaf::StallMemL2Miss) +
                  a.leaf(CycleLeaf::StallMemDramQueue),
              span_time("sim", "fetch") + span_time("sim", "stack"));
    EXPECT_EQ(a.leaf(CycleLeaf::StallStackSpill) +
                  a.leaf(CycleLeaf::StallStackRefill) +
                  a.leaf(CycleLeaf::StallStackBorrowChain) +
                  a.leaf(CycleLeaf::StallStackForcedFlush) +
                  a.leaf(CycleLeaf::StallShmemBankConflict),
              span_time("stack", "mgr_stall"));
    // The three identities above partition every warp-active cycle.
    EXPECT_EQ(a.warp_active_cycles,
              span_time("sim", "intersect") + span_time("sim", "fetch") +
                  span_time("sim", "stack") +
                  span_time("stack", "mgr_stall"));
}

TEST(CycleAccountingEnv, CheckToggleReadsEnvOnce)
{
    // The value is cached after first use; we can only assert it is
    // stable, not drive it from here.
    bool first = cycleAccountingChecksEnabled();
    EXPECT_EQ(cycleAccountingChecksEnabled(), first);
}

} // namespace
} // namespace sms
