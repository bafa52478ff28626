/**
 * @file
 * Hash-based ray-path predictor: a direction/origin-quantized hash
 * table mapping rays to the leaf that resolved a similar previous ray.
 *
 * On a table hit the warp jumps straight to the predicted leaf before
 * normal traversal starts. A correct prediction tightens ray.tMax (or
 * abandons an any-hit job) immediately; an incorrect one wastes the one
 * leaf visit and falls back to full traversal. Either way the final hit
 * is bit-identical to stack traversal: the early leaf visit only ever
 * tightens tMax to a real hit, the pruned subtrees could not have
 * contributed (see stackless.hpp for the tie argument), and the leaf is
 * revisited in its normal traversal position so the "last accepted
 * primitive wins" order is unchanged.
 *
 * To keep tapes and the result cache sound, training is defined as a
 * pure function of (jobs, bvh, arch config): a precompute pass walks
 * the jobs in job_id order, records each job's predictions from the
 * table state left by the jobs before it, then trains the table with
 * the job's expected hits (the functional results carried by WarpJob).
 * The functional pass and every timing run rebuild the identical
 * schedule, so no tape format change is needed; probe reads ride the
 * recorded fetch lines and table updates replay as fire-and-forget
 * stores.
 */

#ifndef SMS_SIM_RAY_PREDICTOR_HPP
#define SMS_SIM_RAY_PREDICTOR_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "src/bvh/wide_bvh.hpp"
#include "src/memory/request.hpp"
#include "src/sim/gpu_config.hpp"
#include "src/sim/warp_job.hpp"

namespace sms {

/** Simulated base address of the predictor hash table. */
constexpr Addr kPredictorBase = 0x60000000ull;
/** Bytes per table entry (tag + leaf reference + replacement state). */
constexpr uint32_t kPredictorEntryBytes = 16;

/**
 * Quantized FNV-1a hash of a ray's origin and direction. Keeps the
 * sign, exponent and the configured number of high mantissa bits of
 * each coordinate, so nearby coherent rays collide on purpose.
 */
uint64_t rayPredictorHash(const Ray &ray, const TraversalArchConfig &arch);

/** One job's predictor plan. */
struct PredictorJobPlan
{
    /** Per lane: predicted leaf ChildRef bits (0 = no prediction). */
    std::array<uint32_t, kWarpSize> predicted{};
    /** Per lane: probed table-entry address (0 for inactive lanes). */
    std::array<Addr, kWarpSize> entry{};
    /** Lanes whose completion writes their table entry back. */
    uint32_t write_mask = 0;
};

/**
 * The full run's predictor behaviour, indexed by job_id. Pure function
 * of (jobs, bvh, arch), so the functional pass and replay agree byte
 * for byte.
 */
struct PredictorSchedule
{
    std::vector<PredictorJobPlan> jobs;

    bool empty() const { return jobs.empty(); }
};

PredictorSchedule buildPredictorSchedule(const WarpJobList &jobs,
                                         const WideBvh &bvh,
                                         const TraversalArchConfig &arch);

} // namespace sms

#endif // SMS_SIM_RAY_PREDICTOR_HPP
