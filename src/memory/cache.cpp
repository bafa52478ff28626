/**
 * @file
 * Cache tag-model implementation: construction, reset and tag-index
 * deletion. The per-access chain (lookup, relink, fill) is inline in
 * the header.
 *
 * Replacement state is an intrusive doubly-linked recency list per set
 * plus a fill counter; see the header for the equivalence argument
 * against the timestamp formulation of true LRU.
 *
 * Lookup is the simulator's single hottest operation (one per modeled
 * line access), so the fully-associative path uses a flat linear-probe
 * hash table (Fibonacci hashing, backward-shift deletion) instead of
 * std::unordered_map, and set indexing is shift/mask whenever the
 * geometry allows and an exact multiply-based remainder otherwise.
 * Neither changes any replacement decision: the hash table is a pure
 * tag->way accelerator and the recency lists remain the only
 * replacement state.
 */

#include "src/memory/cache.hpp"

namespace sms {

namespace {

/** Both recency links of a line set to kNoWay (0xffffffff each). */
constexpr uint64_t kNoLinks = ~uint64_t{0};

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

uint32_t
log2OfPowerOfTwo(uint64_t v)
{
    uint32_t shift = 0;
    while ((uint64_t{1} << shift) < v)
        ++shift;
    return shift;
}

uint32_t
nextPowerOfTwo(uint32_t v)
{
    uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

Cache::Cache(const CacheConfig &config) : config_(config)
{
    SMS_ASSERT(config.line_bytes > 0 && isPowerOfTwo(config.line_bytes),
               "line size must be a power of two");
    uint64_t total_lines = config.size_bytes / config.line_bytes;
    SMS_ASSERT(total_lines > 0, "cache smaller than one line");

    if (config.ways == 0 || config.ways >= total_lines) {
        // Fully associative: one set holding every line.
        num_sets_ = 1;
        num_ways_ = static_cast<uint32_t>(total_lines);
    } else {
        SMS_ASSERT(total_lines % config.ways == 0,
                   "lines (%llu) not divisible by ways (%u)",
                   static_cast<unsigned long long>(total_lines),
                   config.ways);
        num_ways_ = config.ways;
        // Modulo indexing supports non-power-of-two set counts (the
        // 384 KB / 16-way L2 of Table I has 192 sets).
        num_sets_ = static_cast<uint32_t>(total_lines / config.ways);
    }
    line_shift_ = log2OfPowerOfTwo(config.line_bytes);
    sets_pow2_ = isPowerOfTwo(num_sets_);
    set_mask_ = sets_pow2_ ? num_sets_ - 1 : 0;
    set_magic_ = sets_pow2_ ? 0 : ~uint64_t{0} / num_sets_ + 1;

    size_t total = static_cast<size_t>(num_sets_) * num_ways_;
    tags_.assign(total, kEmptyTag);
    links_.assign(total, kNoLinks);
    dirty_.assign((total + 63) / 64, 0);
    sets_.resize(num_sets_);
    use_tag_index_ = num_sets_ == 1;
    if (use_tag_index_) {
        // 4x ways keeps the load factor under 1/4: probe runs on the
        // hit path stay near one slot and the backward-shift walks on
        // eviction stay short. A fill briefly holds ways + 1 tags.
        uint32_t capacity = nextPowerOfTwo(num_ways_ * 4);
        slots_.assign(capacity, TagSlot{});
        slot_mask_ = capacity - 1;
        slot_shift_ = 64 - log2OfPowerOfTwo(capacity);
    }
}

void
Cache::tagErase(Addr line_addr)
{
    uint32_t slot = homeSlot(line_addr);
    while (slots_[slot].tag != line_addr) {
        SMS_ASSERT(slots_[slot].tag != kEmptyTag,
                   "tag index lost resident line 0x%llx",
                   static_cast<unsigned long long>(line_addr));
        slot = (slot + 1) & slot_mask_;
    }
    // Backward-shift deletion: walk the probe run after the freed slot
    // and pull back any entry whose home position precedes the hole, so
    // later lookups never hit a spurious empty slot mid-run.
    uint32_t hole = slot;
    slots_[hole].tag = kEmptyTag;
    uint32_t cur = (slot + 1) & slot_mask_;
    while (slots_[cur].tag != kEmptyTag) {
        uint32_t home = homeSlot(slots_[cur].tag);
        // Move cur into the hole iff the hole lies within cur's probe
        // path, i.e. the cyclic distance home->cur covers home->hole.
        if (((cur - home) & slot_mask_) >= ((cur - hole) & slot_mask_)) {
            slots_[hole] = slots_[cur];
            slots_[cur].tag = kEmptyTag;
            hole = cur;
        }
        cur = (cur + 1) & slot_mask_;
    }
}

void
Cache::reset()
{
    for (SetState &set : sets_)
        set = SetState();
    tags_.assign(tags_.size(), kEmptyTag);
    links_.assign(links_.size(), kNoLinks);
    dirty_.assign(dirty_.size(), 0);
    slots_.assign(slots_.size(), TagSlot{});
}

} // namespace sms
