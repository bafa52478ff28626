/**
 * @file
 * Banked shared-memory timing model.
 *
 * Shared memory is split into kBanks banks of kBankWordBytes words
 * (32 x 4 B, as on NVIDIA SMs). A warp-level access completes in one
 * pass when every lane touches a different bank; lanes touching
 * different words of the same bank serialize, adding one cycle per
 * extra word — the delay the paper's skewed bank access (Fig. 14)
 * attacks.
 */

#ifndef SMS_MEMORY_SHARED_MEMORY_HPP
#define SMS_MEMORY_SHARED_MEMORY_HPP

#include <cstdint>
#include <vector>

#include "src/memory/request.hpp"

namespace sms {

/** Number of shared-memory banks per SM. */
constexpr uint32_t kSharedBanks = 32;
/** Bank word width in bytes. */
constexpr uint32_t kBankWordBytes = 4;
/** Most lane requests in one warp-level access (one per warp lane). */
constexpr uint32_t kSharedMaxLanes = 32;

/** Bank index of a shared-memory byte address. */
constexpr uint32_t
sharedBankOf(Addr addr)
{
    return static_cast<uint32_t>((addr / kBankWordBytes) % kSharedBanks);
}

/** Shared-memory access statistics. */
struct SharedMemStats
{
    uint64_t accesses = 0;        ///< warp-level accesses
    uint64_t lane_requests = 0;   ///< per-lane requests
    uint64_t conflict_cycles = 0; ///< extra cycles from bank conflicts
    uint64_t conflict_passes = 0; ///< total serialization passes issued
    uint64_t conflicted_accesses = 0; ///< accesses needing > 1 pass
    uint32_t max_passes = 0;      ///< worst single-access serialization

    double
    avgConflictDelay() const
    {
        return accesses ? static_cast<double>(conflict_cycles) / accesses
                        : 0.0;
    }
};

/** One lane's contribution to a warp-level shared-memory access. */
struct SharedLaneRequest
{
    uint32_t lane;
    Addr addr;   ///< byte address of the 8 B stack entry
    uint32_t bytes = 8;
};

/**
 * Exact timing split of one warp-level shared access, for cycle
 * accounting: completion - issue == pipeline_wait + (passes - 1) +
 * base latency (zero for an empty access).
 */
struct SharedAccessInfo
{
    Cycle pipeline_wait = 0; ///< cycles the pipeline was still busy
    uint32_t passes = 0;     ///< serialization passes (1 = conflict-free)
};

/**
 * Shared-memory timing model for one SM.
 */
class SharedMemory
{
  public:
    /** @param base_latency pipeline latency of a conflict-free access */
    explicit SharedMemory(Cycle base_latency = 20)
        : base_latency_(base_latency)
    {}

    /**
     * Compute the serialization cost of one warp-level access (at most
     * kSharedMaxLanes requests). Allocation-free: it runs on every
     * stack-manager round.
     *
     * @return number of passes required (>= 1 for a non-empty access);
     *         passes - 1 is the conflict delay
     */
    static uint32_t
    conflictPasses(const std::vector<SharedLaneRequest> &lanes);

    /**
     * Issue a warp-level access at @p now.
     *
     * @param info when non-null, receives the exact timing split
     * @return completion cycle of the whole access
     */
    Cycle access(Cycle now, const std::vector<SharedLaneRequest> &lanes,
                 SharedAccessInfo *info = nullptr);

    const SharedMemStats &stats() const { return stats_; }

  private:
    Cycle base_latency_;
    Cycle next_free_ = 0;
    SharedMemStats stats_;
};

} // namespace sms

#endif // SMS_MEMORY_SHARED_MEMORY_HPP
