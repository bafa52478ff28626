/**
 * @file
 * Shared-memory bank-conflict model implementation.
 */

#include "src/memory/shared_memory.hpp"

#include <algorithm>
#include <array>

#include "src/stats/timeline.hpp"
#include "src/util/check.hpp"

namespace sms {

uint32_t
SharedMemory::conflictPasses(const std::vector<SharedLaneRequest> &lanes)
{
    if (lanes.empty())
        return 0;
    SMS_ASSERT(lanes.size() <= kSharedMaxLanes,
               "a warp access carries at most %u lane requests, got %zu",
               kSharedMaxLanes, lanes.size());

    // The passes are the most distinct words any one bank serves. An
    // 8 B stack entry spans two adjacent 4 B words (two banks). Lanes
    // accessing the *same* word broadcast and cost nothing extra;
    // different words in the same bank serialize.
    //
    // Each request covers the contiguous word range [addr / 4,
    // addr / 4 + bytes / 4), so the distinct words are the union of at
    // most one range per lane: insertion-sort the ranges into fixed
    // scratch as they are read (lanes usually arrive in address order,
    // so each insert is one compare), merge overlaps, and count each
    // merged range's words per bank. No heap allocation, and exact for
    // requests of any width.
    struct WordRange
    {
        Addr begin;
        Addr end;
    };
    std::array<WordRange, kSharedMaxLanes> ranges; // [0, n) is live
    size_t n = 0;
    for (const SharedLaneRequest &req : lanes) {
        SMS_ASSERT(req.bytes % kBankWordBytes == 0,
                   "shared request must be word-aligned in size");
        if (req.bytes == 0)
            continue;
        Addr first = req.addr / kBankWordBytes;
        size_t k = n++;
        for (; k > 0 && ranges[k - 1].begin > first; --k)
            ranges[k] = ranges[k - 1];
        ranges[k] = {first, first + req.bytes / kBankWordBytes};
    }

    uint32_t full_rows = 0;
    uint32_t most_extra = 0;
    std::array<uint32_t, kSharedBanks> extra{};
    for (size_t i = 0; i < n;) {
        Addr begin = ranges[i].begin;
        Addr end = ranges[i].end;
        for (++i; i < n && ranges[i].begin <= end; ++i)
            end = std::max(end, ranges[i].end);
        // A merged range of len words gives every bank len / 32 words,
        // plus one more to the len % 32 banks from its first word on.
        Addr len = end - begin;
        full_rows += static_cast<uint32_t>(len / kSharedBanks);
        for (Addr w = begin; w < begin + len % kSharedBanks; ++w)
            most_extra = std::max(most_extra, ++extra[w % kSharedBanks]);
    }
    return std::max(full_rows + most_extra, 1u);
}

Cycle
SharedMemory::access(Cycle now, const std::vector<SharedLaneRequest> &lanes,
                     SharedAccessInfo *info)
{
    if (info)
        *info = SharedAccessInfo{};
    if (lanes.empty())
        return now;

    uint32_t passes = conflictPasses(lanes);
    ++stats_.accesses;
    stats_.lane_requests += lanes.size();
    stats_.conflict_cycles += passes - 1;
    stats_.conflict_passes += passes;
    if (passes > 1)
        ++stats_.conflicted_accesses;
    if (passes > stats_.max_passes)
        stats_.max_passes = passes;

    Cycle start = now > next_free_ ? now : next_free_;
    if (info) {
        info->pipeline_wait = start - now;
        info->passes = passes;
    }
    // The access occupies the shared-memory pipeline for one cycle per
    // pass; data returns after the base latency on top of the last pass.
    next_free_ = start + passes;
    if (passes > 1 && timelineOn(TimelineCategory::Shmem))
        timelineSpan(TimelineCategory::Shmem, "bank_conflict", start,
                     passes - 1, passes, "passes");
    return start + passes - 1 + base_latency_;
}

} // namespace sms
