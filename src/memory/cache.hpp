/**
 * @file
 * Set-associative write-back cache tag model with true-LRU replacement.
 *
 * Covers both caches of Table I: the L1D (fully associative — modeled
 * as a single set whose way count equals the line count) and the L2
 * (16-way). Only tags are modeled; data never matters for timing.
 *
 * True-LRU is maintained as an intrusive per-set recency list (head =
 * MRU, tail = LRU) instead of timestamps, so hits, fills and victim
 * selection are O(1) per set rather than an O(ways) scan — decisive
 * for the fully-associative L1D, where "ways" is the whole cache (512
 * lines at Table I's 64 KB / 128 B). The fully-associative path
 * additionally keeps a hashed tag->way index so lookups skip the way
 * scan entirely: a linear-probe table whose slots hold a tag and its
 * line index side by side, addressed by a one-multiply Fibonacci hash.
 * Set-associative caches index with a mask, or for a non-power-of-two
 * set count (the 192-set L2) with an exact multiply-based remainder.
 * Replacement decisions are bit-identical to the timestamp formulation:
 * invalid ways fill in ascending way order and the victim is always the
 * least-recently-touched valid way.
 *
 * access() and the lookup, relink and fill steps it chains are defined
 * in this header, so the memory system's per-line call compiles into
 * one inlined body.
 */

#ifndef SMS_MEMORY_CACHE_HPP
#define SMS_MEMORY_CACHE_HPP

#include <cstdint>
#include <vector>

#include "src/memory/request.hpp"
#include "src/util/check.hpp"

namespace sms {

/** Geometry and policy parameters of one cache. */
struct CacheConfig
{
    uint64_t size_bytes = 64 * 1024;
    /** 0 selects fully associative (ways = lines). */
    uint32_t ways = 0;
    uint32_t line_bytes = kLineBytes;
    /**
     * Allocate a line on a store miss. GPU L1Ds are write-through /
     * no-write-allocate (stores that miss write around the cache);
     * the L2 is write-back / write-allocate.
     */
    bool allocate_on_store = true;
};

/**
 * Tag-only cache with per-set true-LRU ordering.
 *
 * access() combines lookup and fill: on a miss the line is allocated
 * immediately (the caller adds next-level latency to the request's
 * completion time) and the evicted line, if dirty, is reported so the
 * caller can issue a writeback.
 */
class Cache
{
  public:
    /** Outcome of one line access. */
    struct Result
    {
        bool hit = false;
        bool evicted_dirty = false;
        Addr evicted_line = 0;
    };

    explicit Cache(const CacheConfig &config);

    /**
     * Access one line.
     *
     * @param line_addr line-aligned address
     * @param write     true for stores (marks the line dirty)
     * @param cls       traffic class for statistics
     */
    Result
    access(Addr line_addr, bool write, TrafficClass cls)
    {
        SMS_ASSERT((line_addr & (config_.line_bytes - 1)) == 0,
                   "unaligned cache access 0x%llx",
                   static_cast<unsigned long long>(line_addr));
        if (write)
            ++stats_.stores;
        else
            ++stats_.loads;

        uint32_t set_idx = setIndex(line_addr);
        SetState &set = sets_[set_idx];
        Result result;

        uint32_t slot = 0;
        uint32_t found = findLine(set_idx, line_addr, slot);
        if (found != kNoWay) {
            // A hit moves the line to the head of its recency list.
            if (found != set.mru) {
                unlink(set, found);
                pushFront(set, found);
            }
            if (write)
                setDirty(found, true);
            result.hit = true;
            return result;
        }

        if (write)
            ++stats_.store_misses;
        else
            ++stats_.load_misses;
        ++class_misses_[static_cast<int>(cls)];

        // No-write-allocate caches write around on store misses.
        if (write && !config_.allocate_on_store)
            return result;

        uint32_t victim;
        if (set.valid_ways < num_ways_) {
            // Invalid ways are consumed in ascending way order (matching
            // the "first invalid way" rule of the timestamp scan).
            victim = set_idx * num_ways_ + set.valid_ways;
            ++set.valid_ways;
        } else {
            victim = set.lru;
            SMS_ASSERT(victim != kNoWay, "full set with empty LRU list");
            if (isDirty(victim)) {
                result.evicted_dirty = true;
                result.evicted_line = tags_[victim];
                ++stats_.writebacks;
            }
            // A single-way set's LRU line is also its MRU line.
            if (victim != set.mru)
                unlink(set, victim);
            else
                set.mru = set.lru = kNoWay;
        }
        if (use_tag_index_) {
            // The lookup's probe ended on the free slot where the new
            // tag belongs; fill it before the victim's tag leaves, whose
            // backward shift may then move it (the table has room for
            // both: capacity >= 4x ways).
            slots_[slot] = {line_addr, victim};
            if (tags_[victim] != kEmptyTag)
                tagErase(tags_[victim]);
        }
        tags_[victim] = line_addr;
        setDirty(victim, write);
        pushFront(set, victim);
        return result;
    }

    /** True when the line is currently resident (no state change). */
    bool
    probe(Addr line_addr) const
    {
        uint32_t slot = 0;
        return findLine(setIndex(line_addr), line_addr, slot) != kNoWay;
    }

    /** Drop all lines (statistics are kept). */
    void reset();

    const LevelStats &stats() const { return stats_; }

    /** Per-traffic-class miss counts. */
    uint64_t
    missesByClass(TrafficClass cls) const
    {
        return class_misses_[static_cast<int>(cls)];
    }

    uint32_t numSets() const { return num_sets_; }
    uint32_t numWays() const { return num_ways_; }

  private:
    /** Sentinel way index terminating a set's recency list. */
    static constexpr uint32_t kNoWay = 0xffffffffu;
    /** Free-slot / never-filled tag: never a line-aligned address. */
    static constexpr Addr kEmptyTag = ~Addr{0};

    /** Recency bookkeeping of one set. */
    struct SetState
    {
        uint32_t mru = kNoWay;     ///< head of the recency list
        uint32_t lru = kNoWay;     ///< tail of the recency list
        uint32_t valid_ways = 0;   ///< ways filled so far (fill order)
    };

    /** One tag-index slot: a resident line's tag and its line index. */
    struct TagSlot
    {
        Addr tag = kEmptyTag;
        uint32_t line = 0;
    };

    uint32_t
    setIndex(Addr line_addr) const
    {
        uint64_t line_index = line_addr >> line_shift_;
        if (sets_pow2_)
            return static_cast<uint32_t>(line_index) & set_mask_;
        if (line_index <= 0xffffffffull) {
            // Exact remainder by multiplication (Lemire, Kaser and
            // Kurz, "Faster Remainder by Direct Computation", 2019):
            // for 32-bit n and d, n % d is the high word of
            // ((M * n) mod 2^64) * d with M = floor((2^64 - 1) / d) + 1.
            __extension__ using Wide = unsigned __int128;
            uint64_t low = set_magic_ * line_index;
            return static_cast<uint32_t>((static_cast<Wide>(low) *
                                          num_sets_) >> 64);
        }
        // Line indices past 32 bits (addresses >= 2^39 at 128 B lines)
        // lie outside every simulated region; keep them exact anyway.
        return static_cast<uint32_t>(line_index % num_sets_);
    }

    /** Home slot of @p line_addr: Fibonacci hashing, one multiply. */
    uint32_t
    homeSlot(Addr line_addr) const
    {
        return static_cast<uint32_t>(
            (line_addr * 0x9e3779b97f4a7c15ull) >> slot_shift_);
    }

    /**
     * Find the resident line of @p line_addr, or kNoWay. On the
     * fully-associative path @p slot receives the tag-index slot that
     * holds it, or the free slot ending its probe run.
     */
    uint32_t
    findLine(uint32_t set, Addr line_addr, uint32_t &slot) const
    {
        if (use_tag_index_) {
            uint32_t s = homeSlot(line_addr);
            while (slots_[s].tag != line_addr &&
                   slots_[s].tag != kEmptyTag)
                s = (s + 1) & slot_mask_;
            slot = s;
            return slots_[s].tag == kEmptyTag ? kNoWay : slots_[s].line;
        }
        // Ways fill in ascending order and are never invalidated outside
        // reset(), so every way below valid_ways holds a live tag: the
        // scan covers at most two host cache lines of the flat tag array.
        uint32_t base = set * num_ways_;
        uint32_t filled = sets_[set].valid_ways;
        for (uint32_t w = 0; w < filled; ++w) {
            if (tags_[base + w] == line_addr)
                return base + w;
        }
        return kNoWay;
    }

    // Recency links are packed (more_recent << 32) | less_recent.

    /** Unlink @p line_index, which is linked but not the MRU. */
    void
    unlink(SetState &set, uint32_t line_index)
    {
        uint64_t links = links_[line_index];
        uint32_t more = static_cast<uint32_t>(links >> 32);
        uint32_t less = static_cast<uint32_t>(links);
        links_[more] = (links_[more] & 0xffffffff00000000ull) | less;
        if (less != kNoWay)
            links_[less] = (links_[less] & 0xffffffffull) |
                           (static_cast<uint64_t>(more) << 32);
        else
            set.lru = more;
    }

    /** Link the unlinked @p line_index in as the MRU of its set. */
    void
    pushFront(SetState &set, uint32_t line_index)
    {
        links_[line_index] = (static_cast<uint64_t>(kNoWay) << 32) | set.mru;
        if (set.mru != kNoWay)
            links_[set.mru] = (links_[set.mru] & 0xffffffffull) |
                              (static_cast<uint64_t>(line_index) << 32);
        else
            set.lru = line_index;
        set.mru = line_index;
    }

    bool
    isDirty(uint32_t line_index) const
    {
        return (dirty_[line_index >> 6] >> (line_index & 63)) & 1;
    }
    void
    setDirty(uint32_t line_index, bool dirty)
    {
        uint64_t bit = uint64_t{1} << (line_index & 63);
        if (dirty)
            dirty_[line_index >> 6] |= bit;
        else
            dirty_[line_index >> 6] &= ~bit;
    }

    /** Remove @p line_addr from the tag index (backward shift). */
    void tagErase(Addr line_addr);

    CacheConfig config_;
    uint32_t num_sets_ = 1;
    uint32_t num_ways_ = 1;
    /** log2(line_bytes): line index = addr >> line_shift_. */
    uint32_t line_shift_ = 0;
    /** num_sets_ - 1 when num_sets_ is a power of two, else 0 (the
     *  fully-associative single set takes this path with mask 0). */
    uint32_t set_mask_ = 0;
    bool sets_pow2_ = true;
    /** floor((2^64 - 1) / num_sets_) + 1, for non-power-of-two sets. */
    uint64_t set_magic_ = 0;
    // Per-line state is struct-of-arrays, sized for host-cache
    // residency on the hot path: the 16-way L2's tag scan covers one
    // array cache line, a recency update touches three 8-byte link
    // pairs instead of three padded structs, and dirtiness is one bit.
    // Validity is implicit: ways fill in ascending order and are never
    // invalidated outside reset(), so way w of a set is live iff
    // w < valid_ways.
    /** Line tags, num_sets_ x num_ways_ row-major. */
    std::vector<Addr> tags_;
    /** Recency links, (more_recent << 32) | less_recent per line. */
    std::vector<uint64_t> links_;
    /** Dirty bits, one per line. */
    std::vector<uint64_t> dirty_;
    std::vector<SetState> sets_;
    // Open-addressed tag -> line index (fully-associative path): a
    // flat linear-probe table, tag and line index side by side so a
    // hit reads one host cache line. Capacity is fixed at construction
    // (>= 4x ways, power of two), so the load factor never exceeds 1/4
    // and probe runs stay short.
    std::vector<TagSlot> slots_;
    uint32_t slot_mask_ = 0;  ///< slots_.size() - 1
    uint32_t slot_shift_ = 0; ///< 64 - log2(slots_.size())
    bool use_tag_index_ = false;
    LevelStats stats_;
    uint64_t class_misses_[kTrafficClassCount] = {0, 0, 0};
};

} // namespace sms

#endif // SMS_MEMORY_CACHE_HPP
