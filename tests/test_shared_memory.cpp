/**
 * @file
 * Tests for the banked shared-memory model, including the exact bank
 * assignments of the paper's Fig. 9 and the conflict behaviour the
 * skewed access pattern attacks.
 */

#include <gtest/gtest.h>

#include <random>

#include "src/core/stack_config.hpp"
#include "src/memory/shared_memory.hpp"
#include "tests/reference_shared_memory.hpp"

namespace sms {
namespace {

/** Byte address of (thread, entry) in the SH_8 stack file layout. */
Addr
sh8Addr(uint32_t tid, uint32_t entry)
{
    return (static_cast<Addr>(tid) * 8 + entry) * 8;
}

TEST(SharedBank, BankOfAddress)
{
    EXPECT_EQ(sharedBankOf(0), 0u);
    EXPECT_EQ(sharedBankOf(4), 1u);
    EXPECT_EQ(sharedBankOf(124), 31u);
    EXPECT_EQ(sharedBankOf(128), 0u);
}

TEST(SharedBank, Fig9BankAssignments)
{
    // Fig. 9: with SH_8, an 8-entry stack spans 16 banks; even threads
    // cover banks 0-15, odd threads banks 16-31.
    // Thread 0, entry 0 -> banks 0,1.
    EXPECT_EQ(sharedBankOf(sh8Addr(0, 0)), 0u);
    EXPECT_EQ(sharedBankOf(sh8Addr(0, 0) + 4), 1u);
    // Thread 1, entry 0 -> banks 16,17.
    EXPECT_EQ(sharedBankOf(sh8Addr(1, 0)), 16u);
    EXPECT_EQ(sharedBankOf(sh8Addr(1, 0) + 4), 17u);
    // Thread 2, entry 1 -> banks 2,3.
    EXPECT_EQ(sharedBankOf(sh8Addr(2, 1)), 2u);
    EXPECT_EQ(sharedBankOf(sh8Addr(2, 1) + 4), 3u);
    // Thread 3, entry 1 -> banks 18,19.
    EXPECT_EQ(sharedBankOf(sh8Addr(3, 1)), 18u);
    EXPECT_EQ(sharedBankOf(sh8Addr(3, 1) + 4), 19u);
    // Thread 16 behaves like thread 0 (wraps at bank 32).
    EXPECT_EQ(sharedBankOf(sh8Addr(16, 0)), 0u);
    // Thread 17 behaves like thread 1.
    EXPECT_EQ(sharedBankOf(sh8Addr(17, 0)), 16u);
}

TEST(ConflictPasses, EmptyAndSingle)
{
    EXPECT_EQ(SharedMemory::conflictPasses({}), 0u);
    EXPECT_EQ(SharedMemory::conflictPasses({{0, 0, 8}}), 1u);
}

TEST(ConflictPasses, DistinctBanksNoConflict)
{
    // 16 lanes, each touching its own pair of banks (entry index equal
    // to tid/2 spreads across all banks — the skewed pattern).
    std::vector<SharedLaneRequest> lanes;
    for (uint32_t t = 0; t < 16; ++t)
        lanes.push_back({t, sh8Addr(t, skewBaseEntry(t, 8)), 8});
    EXPECT_EQ(SharedMemory::conflictPasses(lanes), 1u);
}

TEST(ConflictPasses, SameEntryIndexSeriializesEvenLanes)
{
    // All 32 lanes accessing entry 0 of their own stack: the 16 even
    // lanes collide on banks 0-1 and the 16 odd lanes on banks 16-17 —
    // a 16-way conflict (the paper's unskewed worst case).
    std::vector<SharedLaneRequest> lanes;
    for (uint32_t t = 0; t < 32; ++t)
        lanes.push_back({t, sh8Addr(t, 0), 8});
    EXPECT_EQ(SharedMemory::conflictPasses(lanes), 16u);
}

TEST(ConflictPasses, SkewStrictlyImproves)
{
    std::vector<SharedLaneRequest> base_lanes, skew_lanes;
    for (uint32_t t = 0; t < 32; ++t) {
        base_lanes.push_back({t, sh8Addr(t, 0), 8});
        skew_lanes.push_back({t, sh8Addr(t, skewBaseEntry(t, 8)), 8});
    }
    uint32_t base = SharedMemory::conflictPasses(base_lanes);
    uint32_t skew = SharedMemory::conflictPasses(skew_lanes);
    EXPECT_LT(skew, base);
    EXPECT_EQ(skew, 2u); // pairs of threads share a base entry
}

TEST(ConflictPasses, BroadcastSameWordIsFree)
{
    // Lanes reading the same word broadcast without conflict.
    std::vector<SharedLaneRequest> lanes;
    for (uint32_t t = 0; t < 32; ++t)
        lanes.push_back({t, 64, 4});
    EXPECT_EQ(SharedMemory::conflictPasses(lanes), 1u);
}

TEST(ConflictPasses, BroadcastSameEntrySpanningTwoBanks)
{
    // All lanes reading the same 8 B entry: it spans two banks (two
    // words), but both words broadcast, so one pass suffices.
    std::vector<SharedLaneRequest> lanes;
    for (uint32_t t = 0; t < 32; ++t)
        lanes.push_back({t, 64, 8});
    EXPECT_EQ(SharedMemory::conflictPasses(lanes), 1u);
}

TEST(ConflictPasses, StraddlingEntriesWrapAroundBanks)
{
    // Lane t reads the 8 B entry at t*8, i.e. words 2t and 2t+1. Lanes
    // 0-15 cover all 32 banks exactly once; lanes 16-31 revisit those
    // banks at different rows, so the warp needs exactly two passes.
    std::vector<SharedLaneRequest> lanes;
    for (uint32_t t = 0; t < 32; ++t)
        lanes.push_back({t, static_cast<Addr>(t) * 8, 8});
    EXPECT_EQ(SharedMemory::conflictPasses(lanes), 2u);
}

TEST(ConflictPasses, WideRequestSpansManyBanks)
{
    // One lane touching 64 B = 16 words = 16 banks: still one pass.
    EXPECT_EQ(SharedMemory::conflictPasses({{0, 0, 64}}), 1u);
    // Two lanes, same 64 B, different rows -> 2 passes.
    std::vector<SharedLaneRequest> lanes{{0, 0, 64}, {1, 128, 64}};
    EXPECT_EQ(SharedMemory::conflictPasses(lanes), 2u);
}

TEST(ConflictPasses, MoreLanesThanAWarpIsAnError)
{
    std::vector<SharedLaneRequest> lanes(kSharedMaxLanes + 1);
    EXPECT_DEATH(SharedMemory::conflictPasses(lanes), "at most 32");
}

TEST(ConflictPasses, MatchesPerBankVectorReference)
{
    // Differential check against the frozen per-bank-vector count on
    // seeded random warps: 0-32 lanes of 4, 8 or 64 B requests into the
    // SH_4 and SH_8 stack files (thread-major, as the stack model lays
    // them out), skewed or not, with borrowed owners, repeated
    // addresses (broadcast) and arbitrary unaligned addresses mixed in.
    std::mt19937 rng(0x5a4b);
    const uint32_t sizes[] = {4, 8, 64};
    const uint32_t sh_entries[] = {4, 8};
    size_t conflicted = 0, broadcasts = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        const uint32_t sh = sh_entries[rng() % 2];
        const bool skew = rng() % 2 == 0;
        const uint32_t bytes = sizes[rng() % 3];
        const Addr base = (rng() % 4) * kSharedMaxLanes * sh * 8;
        const uint32_t count = rng() % (kSharedMaxLanes + 1);
        std::vector<SharedLaneRequest> lanes;
        for (uint32_t lane = 0; lane < count; ++lane) {
            SharedLaneRequest req{lane, 0, bytes};
            uint32_t pick = rng() % 8;
            if (pick == 0 && !lanes.empty()) {
                req.addr = lanes[rng() % lanes.size()].addr;
                ++broadcasts;
            } else if (pick == 1) {
                req.addr = rng() % 4096;
            } else {
                uint32_t owner = pick == 2 ? rng() % kSharedMaxLanes : lane;
                uint32_t entry = rng() % sh;
                uint32_t slot =
                    skew ? (skewBaseEntry(owner, sh) + entry) % sh : entry;
                req.addr = base + (static_cast<Addr>(owner) * sh + slot) * 8;
            }
            lanes.push_back(req);
        }
        uint32_t expected = refConflictPasses(lanes);
        ASSERT_EQ(SharedMemory::conflictPasses(lanes), expected)
            << "trial " << trial << ": " << count << " lanes of " << bytes
            << " B, SH_" << sh << (skew ? "+SK" : "");
        if (expected > 1)
            ++conflicted;
    }
    // The generator must exercise conflicts and broadcasts, not only
    // the trivial one-pass case.
    EXPECT_GT(conflicted, 1000u);
    EXPECT_GT(broadcasts, 1000u);
}

TEST(SharedMemory, AccessLatencyAndStats)
{
    SharedMemory sm(20);
    std::vector<SharedLaneRequest> one{{0, 0, 8}};
    Cycle done = sm.access(100, one);
    EXPECT_EQ(done, 100u + 20u);
    EXPECT_EQ(sm.stats().accesses, 1u);
    EXPECT_EQ(sm.stats().lane_requests, 1u);
    EXPECT_EQ(sm.stats().conflict_cycles, 0u);
}

TEST(SharedMemory, ConflictAddsDelayCycles)
{
    SharedMemory sm(20);
    std::vector<SharedLaneRequest> lanes;
    for (uint32_t t = 0; t < 32; ++t)
        lanes.push_back({t, sh8Addr(t, 0), 8});
    Cycle done = sm.access(0, lanes);
    EXPECT_EQ(done, 16u - 1u + 20u);
    EXPECT_EQ(sm.stats().conflict_cycles, 15u);
}

TEST(SharedMemory, PipelineOccupancySerializesAccesses)
{
    SharedMemory sm(20);
    std::vector<SharedLaneRequest> one{{0, 0, 8}};
    sm.access(0, one);
    // Issued in the same cycle: the pipeline slot is taken for 1 pass.
    Cycle second = sm.access(0, one);
    EXPECT_EQ(second, 1u + 20u - 1u + 1u); // starts at cycle 1
}

TEST(SharedMemory, ConflictObservabilityCounters)
{
    SharedMemory sm(20);
    std::vector<SharedLaneRequest> one{{0, 0, 8}};
    sm.access(0, one); // 1 pass, conflict-free
    std::vector<SharedLaneRequest> lanes;
    for (uint32_t t = 0; t < 32; ++t)
        lanes.push_back({t, sh8Addr(t, 0), 8});
    sm.access(100, lanes); // 16-way conflict
    EXPECT_EQ(sm.stats().conflict_passes, 1u + 16u);
    EXPECT_EQ(sm.stats().conflicted_accesses, 1u);
    EXPECT_EQ(sm.stats().max_passes, 16u);
    EXPECT_DOUBLE_EQ(sm.stats().avgConflictDelay(), 15.0 / 2.0);
}

TEST(SharedMemory, EmptyAccessIsFree)
{
    SharedMemory sm(20);
    EXPECT_EQ(sm.access(50, {}), 50u);
    EXPECT_EQ(sm.stats().accesses, 0u);
}

} // namespace
} // namespace sms
