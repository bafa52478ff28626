/**
 * @file
 * Tests for the cache tag model (LRU, associativity, write policies),
 * the DRAM bandwidth queue, and the line-geometry helpers.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/bvh/wide_bvh.hpp"
#include "src/memory/cache.hpp"
#include "src/memory/dram.hpp"
#include "src/memory/request.hpp"
#include "src/util/rng.hpp"

namespace sms {
namespace {

constexpr Addr kLine = kLineBytes;

/**
 * Timestamp-based true-LRU reference model: the pre-optimization
 * formulation of Cache (O(ways) scans, uint64 recency clock). The
 * production recency-list implementation must match it access for
 * access — same hits, same evictions, same writebacks.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config) : config_(config)
    {
        uint64_t total_lines = config.size_bytes / config.line_bytes;
        if (config.ways == 0 || config.ways >= total_lines) {
            num_sets_ = 1;
            num_ways_ = static_cast<uint32_t>(total_lines);
        } else {
            num_ways_ = config.ways;
            num_sets_ = static_cast<uint32_t>(total_lines / config.ways);
        }
        lines_.resize(static_cast<size_t>(num_sets_) * num_ways_);
    }

    Cache::Result
    access(Addr line_addr, bool write)
    {
        Cache::Result result;
        Line *set =
            &lines_[static_cast<size_t>(
                        (line_addr / config_.line_bytes) % num_sets_) *
                    num_ways_];
        ++clock_;
        for (uint32_t w = 0; w < num_ways_; ++w) {
            if (set[w].valid && set[w].tag == line_addr) {
                set[w].lru = clock_;
                set[w].dirty = set[w].dirty || write;
                result.hit = true;
                return result;
            }
        }
        if (write && !config_.allocate_on_store)
            return result;
        Line *victim = &set[0];
        for (uint32_t w = 0; w < num_ways_; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (set[w].lru < victim->lru)
                victim = &set[w];
        }
        if (victim->valid && victim->dirty) {
            result.evicted_dirty = true;
            result.evicted_line = victim->tag;
        }
        victim->valid = true;
        victim->tag = line_addr;
        victim->dirty = write;
        victim->lru = clock_;
        return result;
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;
    };

    CacheConfig config_;
    uint32_t num_sets_ = 1;
    uint32_t num_ways_ = 1;
    std::vector<Line> lines_;
    uint64_t clock_ = 0;
};

/** Draws the next line address of a crossCheck() stream. */
using LineDraw = std::function<Addr(Pcg32 &)>;

/** Uniform over the first @p lines line addresses. */
LineDraw
uniformLines(Addr lines)
{
    return [lines](Pcg32 &rng) {
        return static_cast<Addr>(rng.nextU32() % lines) * kLineBytes;
    };
}

/**
 * A line of one of the regions the simulator addresses: BVH nodes,
 * triangles, and the per-job local spill frames, 64 KB apart from
 * 2^32 (kLocalSpillBase in gpu_sim.cpp). 1,712 lines in all, over three
 * times the largest L1.
 */
Addr
simulatorLine(Pcg32 &rng)
{
    switch (rng.nextU32() % 3) {
      case 0:
        return WideBvh::kNodeBase +
               static_cast<Addr>(rng.nextU32() % 700) * kLineBytes;
      case 1:
        return WideBvh::kTriBase +
               static_cast<Addr>(rng.nextU32() % 500) * kLineBytes;
      default:
        return (Addr{1} << 32) +
               static_cast<Addr>(rng.nextU32() % 64) * 0x10000 +
               static_cast<Addr>(rng.nextU32() % 8) * kLineBytes;
    }
}

/**
 * simulatorLine(), or a line at or past 2^39, where the line index no
 * longer fits 32 bits: 4,096 lines straddling that boundary, or any
 * 64-bit line address.
 */
Addr
wideLine(Pcg32 &rng)
{
    switch (rng.nextU32() % 4) {
      case 0:
      case 1:
        return simulatorLine(rng);
      case 2:
        return (Addr{1} << 39) - 1024 * kLineBytes +
               static_cast<Addr>(rng.nextU32() % 4096) * kLineBytes;
      default: {
        Addr hi = rng.nextU32();
        return lineAlign((hi << 32) | rng.nextU32());
      }
    }
}

/**
 * Drive Cache and the reference with one stream of @p accesses and
 * require the same outcome on each. One drawn line in eight is then
 * accessed 1-6 more times in a row, a quarter of them stores: repeated
 * hits and write hits on the MRU line, which skip the relink.
 */
void
crossCheck(const CacheConfig &config, uint32_t accesses,
           const LineDraw &draw, uint64_t seed)
{
    Cache cache(config);
    ReferenceCache ref(config);
    Pcg32 rng(seed);
    Addr addr = 0;
    uint32_t repeats = 0;
    for (uint32_t i = 0; i < accesses; ++i) {
        if (repeats > 0) {
            --repeats;
        } else {
            addr = draw(rng);
            if (rng.nextU32() % 8 == 0)
                repeats = 1 + rng.nextU32() % 6;
        }
        bool write = rng.nextU32() % 4 == 0;
        Cache::Result got =
            cache.access(addr, write, TrafficClass::Node);
        Cache::Result want = ref.access(addr, write);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "access " << i;
        if (want.evicted_dirty) {
            ASSERT_EQ(got.evicted_line, want.evicted_line)
                << "access " << i;
        }
    }
}

TEST(Cache, RecencyListMatchesTimestampLruFullyAssociative)
{
    // Table I L1D geometry: fully associative, the hashed-tag-index
    // fast path.
    crossCheck({64 * 1024, 0, kLineBytes, false}, 50000,
               uniformLines(1500), 1);
    crossCheck({64 * 1024, 0, kLineBytes, true}, 50000,
               uniformLines(1500), 2);
    // The L1Ds the sweeps build: 64 KB, and 60 / 56 KB after an SH_4 /
    // SH_8 carve-out; no-write-allocate, over the simulator's address
    // regions.
    uint64_t seed = 10;
    for (uint64_t kb : {64, 60, 56})
        crossCheck({kb * 1024, 0, kLineBytes, false}, 60000,
                   simulatorLine, seed++);
}

TEST(Cache, RecencyListMatchesTimestampLruSetAssociative)
{
    // Table I L2 geometry: 16-way, non-power-of-two set count.
    crossCheck({3 * 1024 * 1024 / 8, 16, kLineBytes, true}, 50000,
               uniformLines(9000), 3);
    // The same L2 on line indices past 32 bits: a set index that
    // truncated them would file lines in the wrong set.
    crossCheck({3 * 1024 * 1024 / 8, 16, kLineBytes, true}, 60000,
               wideLine, 5);
    // Tiny 2-way cache: maximal eviction churn.
    crossCheck({4 * kLineBytes, 2, kLineBytes, true}, 20000,
               uniformLines(13), 4);
}

TEST(LineMath, AlignAndCover)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(127), 0u);
    EXPECT_EQ(lineAlign(128), 128u);
    EXPECT_EQ(linesCovering(0, 0), 0u);
    EXPECT_EQ(linesCovering(0, 1), 1u);
    EXPECT_EQ(linesCovering(0, 128), 1u);
    EXPECT_EQ(linesCovering(0, 129), 2u);
    EXPECT_EQ(linesCovering(120, 16), 2u);
    EXPECT_EQ(linesCovering(100, 300), 4u);
}

TEST(Cache, HitAfterFill)
{
    Cache cache({1024, 0, kLineBytes});
    EXPECT_FALSE(cache.access(0, false, TrafficClass::Node).hit);
    EXPECT_TRUE(cache.access(0, false, TrafficClass::Node).hit);
    EXPECT_EQ(cache.stats().loads, 2u);
    EXPECT_EQ(cache.stats().load_misses, 1u);
}

TEST(Cache, FullyAssociativeGeometry)
{
    Cache cache({8 * kLine, 0, kLineBytes});
    EXPECT_EQ(cache.numSets(), 1u);
    EXPECT_EQ(cache.numWays(), 8u);
}

TEST(Cache, SetAssociativeGeometry)
{
    Cache cache({64 * kLine, 4, kLineBytes});
    EXPECT_EQ(cache.numWays(), 4u);
    EXPECT_EQ(cache.numSets(), 16u);
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // The Table I L2: 3MB/16-way/128B lines = 1536 sets.
    Cache cache({3 * 1024 * 1024, 16, kLineBytes});
    EXPECT_EQ(cache.numSets(), 1536u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache cache({2 * kLine, 0, kLineBytes});
    cache.access(0 * kLine, false, TrafficClass::Node);
    cache.access(1 * kLine, false, TrafficClass::Node);
    cache.access(0 * kLine, false, TrafficClass::Node); // refresh line 0
    cache.access(2 * kLine, false, TrafficClass::Node); // evicts line 1
    EXPECT_TRUE(cache.probe(0 * kLine));
    EXPECT_FALSE(cache.probe(1 * kLine));
    EXPECT_TRUE(cache.probe(2 * kLine));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache cache({kLine, 0, kLineBytes});
    cache.access(0, true, TrafficClass::Stack); // dirty fill
    Cache::Result r = cache.access(kLine, false, TrafficClass::Node);
    EXPECT_TRUE(r.evicted_dirty);
    EXPECT_EQ(r.evicted_line, 0u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionSilent)
{
    Cache cache({kLine, 0, kLineBytes});
    cache.access(0, false, TrafficClass::Node);
    Cache::Result r = cache.access(kLine, false, TrafficClass::Node);
    EXPECT_FALSE(r.evicted_dirty);
}

TEST(Cache, NoWriteAllocateWritesAround)
{
    CacheConfig config{4 * kLine, 0, kLineBytes, false};
    Cache cache(config);
    Cache::Result r = cache.access(0, true, TrafficClass::Stack);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(cache.probe(0)); // store miss did not allocate
    // A load allocates; a subsequent store hits and dirties it.
    cache.access(0, false, TrafficClass::Stack);
    EXPECT_TRUE(cache.access(0, true, TrafficClass::Stack).hit);
    Cache::Result evict = cache.access(kLine, false, TrafficClass::Node);
    (void)evict;
    EXPECT_EQ(cache.stats().store_misses, 1u);
}

TEST(Cache, SetsAreIndependent)
{
    // Two lines mapping to different sets never evict each other.
    Cache cache({4 * kLine, 2, kLineBytes}); // 2 sets x 2 ways
    cache.access(0 * kLine, false, TrafficClass::Node); // set 0
    cache.access(2 * kLine, false, TrafficClass::Node); // set 0
    cache.access(1 * kLine, false, TrafficClass::Node); // set 1
    cache.access(4 * kLine, false, TrafficClass::Node); // set 0, evicts
    EXPECT_TRUE(cache.probe(1 * kLine));
    EXPECT_FALSE(cache.probe(0 * kLine));
}

TEST(Cache, ClassMissAccounting)
{
    Cache cache({8 * kLine, 0, kLineBytes});
    cache.access(0, false, TrafficClass::Node);
    cache.access(kLine, false, TrafficClass::Stack);
    cache.access(2 * kLine, false, TrafficClass::Stack);
    EXPECT_EQ(cache.missesByClass(TrafficClass::Node), 1u);
    EXPECT_EQ(cache.missesByClass(TrafficClass::Stack), 2u);
    EXPECT_EQ(cache.missesByClass(TrafficClass::Primitive), 0u);
}

TEST(Cache, ResetDropsLinesKeepsStats)
{
    Cache cache({8 * kLine, 0, kLineBytes});
    cache.access(0, false, TrafficClass::Node);
    cache.reset();
    EXPECT_FALSE(cache.probe(0));
    EXPECT_EQ(cache.stats().loads, 1u);
}

TEST(Cache, MissRateComputation)
{
    Cache cache({8 * kLine, 0, kLineBytes});
    cache.access(0, false, TrafficClass::Node);
    cache.access(0, false, TrafficClass::Node);
    EXPECT_DOUBLE_EQ(cache.stats().missRate(), 0.5);
}

// ---------------------------------------------------------------------
// DRAM
// ---------------------------------------------------------------------

TEST(Dram, LatencyWithoutContention)
{
    Dram dram({200, 4});
    EXPECT_EQ(dram.access(1000, false, TrafficClass::Node), 1200u);
}

TEST(Dram, BandwidthSerializesBackToBack)
{
    Dram dram({200, 4});
    Cycle a = dram.access(0, false, TrafficClass::Node);
    Cycle b = dram.access(0, false, TrafficClass::Node);
    Cycle c = dram.access(0, false, TrafficClass::Node);
    EXPECT_EQ(a, 200u);
    EXPECT_EQ(b, 204u);
    EXPECT_EQ(c, 208u);
    EXPECT_EQ(dram.stats().queue_wait_cycles, 4u + 8u);
}

TEST(Dram, IdleGapsResetQueue)
{
    Dram dram({200, 4});
    dram.access(0, false, TrafficClass::Node);
    Cycle later = dram.access(1000, false, TrafficClass::Node);
    EXPECT_EQ(later, 1200u);
}

TEST(Dram, CountsByClassAndDirection)
{
    Dram dram({200, 4});
    dram.access(0, false, TrafficClass::Node);
    dram.access(0, true, TrafficClass::Stack);
    dram.access(0, true, TrafficClass::Stack);
    EXPECT_EQ(dram.stats().loads, 1u);
    EXPECT_EQ(dram.stats().stores, 2u);
    EXPECT_EQ(dram.stats().accesses(), 3u);
    EXPECT_EQ(dram.stats().by_class[(int)TrafficClass::Stack], 2u);
}

} // namespace
} // namespace sms
