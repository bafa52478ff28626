/**
 * @file
 * Differential suites pinning the SoA rewrite to its frozen AoS
 * ancestors.
 *
 *  - WarpStackModel vs RefWarpStackModel (tests/reference_warp_stack.hpp,
 *    the pre-SoA model kept verbatim): identical operation streams must
 *    produce identical per-operation transaction lists, identical
 *    popped/peeked values, and byte-identical WarpStackStats — through
 *    both the StackTxnList and the pooled StackTxnArena entry points.
 *  - RbRing vs std::deque<uint64_t>: randomized push/pop churn at both
 *    ends, biased to keep the ring wrapped when it grows so grow()'s
 *    rebase of a wrapped ring is actually exercised.
 *  - StackTxnArena: pool/link mechanics in isolation.
 */

#include <cstring>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/warp_stack.hpp"
#include "src/util/rng.hpp"
#include "tests/reference_warp_stack.hpp"

namespace sms {
namespace {

constexpr Addr kSharedBase = 0x1000;
constexpr Addr kLocalBase = 0x100000000ull;

bool
sameTxn(const StackTxn &a, const StackTxn &b)
{
    return a.kind == b.kind && a.addr == b.addr && a.bytes == b.bytes &&
           a.origin == b.origin;
}

::testing::AssertionResult
sameTxnList(const StackTxnList &got, const StackTxnList &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << "txn count " << got.size() << " != " << want.size();
    for (size_t i = 0; i < got.size(); ++i) {
        if (!sameTxn(got[i], want[i]))
            return ::testing::AssertionFailure()
                   << "txn " << i << " differs (kind "
                   << static_cast<int>(got[i].kind) << " vs "
                   << static_cast<int>(want[i].kind) << ", addr 0x"
                   << std::hex << got[i].addr << " vs 0x" << want[i].addr
                   << ")";
    }
    return ::testing::AssertionSuccess();
}

/** WarpStackStats must match field for field (memcmp: all-integer POD). */
::testing::AssertionResult
sameStats(const WarpStackStats &got, const WarpStackStats &want)
{
    if (std::memcmp(&got, &want, sizeof(WarpStackStats)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "stats diverged (pushes " << got.pushes << "/" << want.pushes
           << ", pops " << got.pops << "/" << want.pops << ", sh_stores "
           << got.sh_stores << "/" << want.sh_stores << ", sh_loads "
           << got.sh_loads << "/" << want.sh_loads << ", global_stores "
           << got.global_stores << "/" << want.global_stores
           << ", borrows " << got.borrows << "/" << want.borrows
           << ", flushes " << got.flushes << "/" << want.flushes << ")";
}

struct DiffCase
{
    StackConfig config;
    uint64_t seed;
    const char *label;
};

std::vector<DiffCase>
diffCases()
{
    std::vector<DiffCase> cases;
    StackConfig rb8;
    rb8.rb_entries = 8;
    cases.push_back({rb8, 1, "rb8"});

    StackConfig rb2;
    rb2.rb_entries = 2;
    cases.push_back({rb2, 2, "rb2_deep_spill"});

    StackConfig sh;
    sh.rb_entries = 4;
    sh.sh_entries = 8;
    cases.push_back({sh, 3, "rb4_sh8"});

    StackConfig sk = sh;
    sk.skewed_bank_access = true;
    cases.push_back({sk, 4, "rb4_sh8_skew"});

    StackConfig ra = sk;
    ra.intra_warp_realloc = true;
    ra.max_borrowed = 4;
    ra.max_flushes = 3;
    cases.push_back({ra, 5, "rb4_sh8_skew_ra"});

    // Tiny segments + tiny flush budget: forced flushes and long borrow
    // chains become reachable within a few hundred operations.
    StackConfig tiny;
    tiny.rb_entries = 2;
    tiny.sh_entries = 2;
    tiny.intra_warp_realloc = true;
    tiny.max_borrowed = 8;
    tiny.max_flushes = 1;
    cases.push_back({tiny, 6, "tiny_forced_flush"});

    StackConfig unbounded;
    unbounded.rb_entries = 8;
    unbounded.rb_unbounded = true;
    cases.push_back({unbounded, 7, "rb_unbounded"});
    return cases;
}

class SoaDifferentialTest : public ::testing::TestWithParam<DiffCase>
{
};

/**
 * Random churn through both models in lockstep, comparing every
 * observable after every operation. Lanes 20..27 finish early so
 * borrowing has lenders; lanes 28..31 never start (masked off) so
 * finished-at-construction lanes are covered too.
 */
TEST_P(SoaDifferentialTest, RandomChurnMatchesFrozenAosModel)
{
    const DiffCase &tc = GetParam();
    WarpStackModel soa(tc.config, kSharedBase, kLocalBase);
    RefWarpStackModel aos(tc.config, kSharedBase, kLocalBase);

    for (uint32_t lane = 28; lane < kWarpSize; ++lane) {
        soa.finishLane(lane);
        aos.finishLane(lane);
    }

    Pcg32 rng(tc.seed);
    uint64_t value = 1;
    // Drive depth up first so lanes 20..27 can drain and finish early.
    for (uint32_t lane = 20; lane < 28; ++lane) {
        for (uint32_t i = 0; i < 4; ++i) {
            StackTxnList got, want;
            soa.push(lane, value, got);
            aos.push(lane, value, want);
            ASSERT_TRUE(sameTxnList(got, want));
            ++value;
        }
        while (!aos.laneEmpty(lane)) {
            StackTxnList got, want;
            uint64_t gv = 0, wv = 0;
            ASSERT_TRUE(soa.pop(lane, gv, got));
            ASSERT_TRUE(aos.pop(lane, wv, want));
            ASSERT_EQ(gv, wv);
            ASSERT_TRUE(sameTxnList(got, want));
        }
        soa.finishLane(lane);
        aos.finishLane(lane);
    }

    for (uint32_t step = 0; step < 6000; ++step) {
        uint32_t lane = rng.nextU32() % 20;
        bool do_push = (rng.nextU32() & 3) != 0; // push-biased: go deep
        StackTxnList got, want;
        if (do_push && !aos.laneFinished(lane)) {
            soa.push(lane, value, got);
            aos.push(lane, value, want);
            ++value;
        } else if (!aos.laneFinished(lane)) {
            uint64_t gv = 0, wv = 0;
            bool g_ok = soa.pop(lane, gv, got);
            bool w_ok = aos.pop(lane, wv, want);
            ASSERT_EQ(g_ok, w_ok) << tc.label << " step " << step;
            if (g_ok) {
                ASSERT_EQ(gv, wv) << tc.label << " step " << step;
            }
        }
        ASSERT_TRUE(sameTxnList(got, want))
            << tc.label << " step " << step;
        ASSERT_EQ(soa.logicalDepth(lane), aos.logicalDepth(lane));
        ASSERT_EQ(soa.shDepth(lane), aos.shDepth(lane));
        ASSERT_EQ(soa.globalDepth(lane), aos.globalDepth(lane));
        ASSERT_EQ(soa.borrowedCount(lane), aos.borrowedCount(lane));
        if (!aos.laneEmpty(lane) && !aos.laneFinished(lane)) {
            ASSERT_EQ(soa.peek(lane), aos.peek(lane));
        }
    }

    // Drain everything and compare the final statistics bytes.
    for (uint32_t lane = 0; lane < 20; ++lane) {
        while (!aos.laneEmpty(lane)) {
            StackTxnList got, want;
            uint64_t gv = 0, wv = 0;
            ASSERT_TRUE(soa.pop(lane, gv, got));
            ASSERT_TRUE(aos.pop(lane, wv, want));
            ASSERT_EQ(gv, wv);
            ASSERT_TRUE(sameTxnList(got, want));
        }
        soa.finishLane(lane);
        aos.finishLane(lane);
    }
    EXPECT_TRUE(sameStats(soa.stats(), aos.stats()));
}

/**
 * The arena entry points must emit exactly the transactions of the
 * StackTxnList entry points: the reference here is the production
 * model itself driven through its list API, so any sink-specific
 * divergence in the shared template shows up directly.
 */
TEST_P(SoaDifferentialTest, ArenaSinkMatchesListSink)
{
    const DiffCase &tc = GetParam();
    WarpStackModel via_list(tc.config, kSharedBase, kLocalBase);
    WarpStackModel via_arena(tc.config, kSharedBase, kLocalBase);
    StackTxnArena arena;

    Pcg32 rng(tc.seed ^ 0xa5a5a5a5ull);
    uint64_t value = 1;
    for (uint32_t step = 0; step < 4000; ++step) {
        uint32_t lane = rng.nextU32() % kWarpSize;
        bool do_push = (rng.nextU32() & 3) != 0;
        StackTxnList list_txns;
        arena.clear();
        if (do_push) {
            via_list.push(lane, value, list_txns);
            via_arena.push(lane, value, arena);
            ++value;
        } else {
            uint64_t lv = 0, av = 0;
            bool l_ok = via_list.pop(lane, lv, list_txns);
            bool a_ok = via_arena.pop(lane, av, arena);
            ASSERT_EQ(l_ok, a_ok) << tc.label << " step " << step;
            if (l_ok) {
                ASSERT_EQ(lv, av);
            }
        }
        ASSERT_EQ(arena.laneTxns(lane).size(), list_txns.size());
        ASSERT_TRUE(sameTxnList(arena.laneTxns(lane), list_txns))
            << tc.label << " step " << step;
        // No stray transactions on other lanes.
        ASSERT_EQ(arena.laneMask() & ~(1u << lane), 0u);
    }
    EXPECT_TRUE(sameStats(via_arena.stats(), via_list.stats()));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SoaDifferentialTest, ::testing::ValuesIn(diffCases()),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return info.param.label;
    });

// ---------------------------------------------------------------------
// RbRing vs std::deque
// ---------------------------------------------------------------------

/**
 * Randomized differential against std::deque. The operation mix keeps
 * pushing through the inline capacity so grow() runs several times, and
 * front-pops rotate start_ around the ring first so the copy-out in
 * grow() starts from a wrapped ring (the rebase bug class: grow() must
 * relinearize [start_, start_+count_) into [0, count_)).
 */
TEST(RbRingDifferential, RandomChurnMatchesDeque)
{
    for (uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
        RbRing ring;
        std::deque<uint64_t> oracle;
        Pcg32 rng(seed);
        uint64_t value = 1;
        for (uint32_t step = 0; step < 20000; ++step) {
            uint32_t op = rng.nextU32() % 10;
            if (op < 4) { // push_back
                ring.push_back(value);
                oracle.push_back(value);
                ++value;
            } else if (op < 6) { // push_front
                ring.push_front(value);
                oracle.push_front(value);
                ++value;
            } else if (op < 8) { // pop_front: rotates start_
                if (!oracle.empty()) {
                    ASSERT_EQ(ring.front(), oracle.front());
                    ring.pop_front();
                    oracle.pop_front();
                }
            } else { // pop_back
                if (!oracle.empty()) {
                    ASSERT_EQ(ring.back(), oracle.back());
                    ring.pop_back();
                    oracle.pop_back();
                }
            }
            ASSERT_EQ(ring.size(), oracle.size());
            ASSERT_EQ(ring.empty(), oracle.empty());
            if (!oracle.empty()) {
                ASSERT_EQ(ring.front(), oracle.front());
                ASSERT_EQ(ring.back(), oracle.back());
            }
        }
        // Full drain: every surviving element in order.
        while (!oracle.empty()) {
            ASSERT_EQ(ring.front(), oracle.front());
            ring.pop_front();
            oracle.pop_front();
        }
        ASSERT_TRUE(ring.empty());
    }
}

/** Deterministic worst case: grow() from a maximally wrapped ring. */
TEST(RbRingDifferential, GrowFromWrappedRingKeepsOrder)
{
    RbRing ring;
    std::deque<uint64_t> oracle;
    // Rotate start_ to the last inline slot: fill, then drain 7.
    for (uint64_t v = 0; v < 8; ++v)
        ring.push_back(v);
    for (int i = 0; i < 7; ++i)
        ring.pop_front();
    oracle.push_back(7);
    // Next 7 pushes wrap around the inline array; the 8th forces grow()
    // while start_ = 7 (every element physically before its logical
    // predecessor).
    for (uint64_t v = 100; v < 120; ++v) {
        ring.push_back(v);
        oracle.push_back(v);
    }
    ASSERT_EQ(ring.size(), oracle.size());
    while (!oracle.empty()) {
        ASSERT_EQ(ring.front(), oracle.front());
        ASSERT_EQ(ring.back(), oracle.back());
        ring.pop_front();
        oracle.pop_front();
    }
}

// ---------------------------------------------------------------------
// StackTxnArena mechanics
// ---------------------------------------------------------------------

TEST(StackTxnArena, AppendLinksPerLaneListsInOrder)
{
    StackTxnArena arena;
    StackTxn a{StackTxnKind::SharedStore, 0x10, 8, StackTxnOrigin::Spill};
    StackTxn b{StackTxnKind::GlobalStore, 0x20, 8,
               StackTxnOrigin::BorrowChain};
    StackTxn c{StackTxnKind::GlobalLoad, 0x30, 8, StackTxnOrigin::Refill};

    arena.append(3, a);
    arena.append(7, b);
    arena.append(3, c);

    EXPECT_EQ(arena.totalCount(), 3u);
    EXPECT_EQ(arena.laneTxns(7).size(), 1u);
    EXPECT_EQ(arena.laneMask(), (1u << 3) | (1u << 7));

    StackTxnList lane3 = arena.laneTxns(3);
    ASSERT_EQ(lane3.size(), 2u);
    EXPECT_TRUE(sameTxn(lane3[0], a));
    EXPECT_TRUE(sameTxn(lane3[1], c));

    // Walk the raw links too: interleaved appends must not cross lists.
    uint32_t cursor = arena.laneHead(7);
    ASSERT_NE(cursor, StackTxnArena::kNil);
    EXPECT_TRUE(sameTxn(arena.node(cursor).txn, b));
    EXPECT_EQ(arena.node(cursor).next, StackTxnArena::kNil);
}

TEST(StackTxnArena, ClearIsLogicalNotDestructive)
{
    StackTxnArena arena;
    StackTxn t{StackTxnKind::SharedLoad, 0x40, 8, StackTxnOrigin::Refill};
    for (uint32_t lane = 0; lane < kWarpSize; ++lane)
        for (int i = 0; i < 3; ++i)
            arena.append(lane, t);
    EXPECT_EQ(arena.totalCount(), 3u * kWarpSize);

    arena.clear();
    EXPECT_EQ(arena.laneMask(), 0u);
    for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
        EXPECT_EQ(arena.laneHead(lane), StackTxnArena::kNil);
        EXPECT_TRUE(arena.laneTxns(lane).empty());
    }

    // Reuse after clear: fresh lists, no leftovers from the old links.
    arena.append(5, t);
    EXPECT_EQ(arena.laneMask(), 1u << 5);
    ASSERT_EQ(arena.laneTxns(5).size(), 1u);
    EXPECT_TRUE(sameTxn(arena.laneTxns(5)[0], t));
}

TEST(StackTxnArena, LaneSinkAdapterAppendsToItsLane)
{
    StackTxnArena arena;
    LaneTxnSink sink{&arena, 9};
    StackTxn t{StackTxnKind::GlobalStore, 0x50, 8, StackTxnOrigin::Spill};
    sink.push_back(t);
    sink.push_back(t);
    EXPECT_EQ(arena.laneTxns(9).size(), 2u);
    EXPECT_EQ(arena.totalCount(), 2u);
}

} // namespace
} // namespace sms
