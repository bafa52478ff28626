/**
 * @file
 * Top-level GPU timing simulation: distributes warp jobs over SMs,
 * models the 4-deep RT-unit warp buffer per SM, and advances in-flight
 * warps through a deterministic global event loop so the shared L2 and
 * DRAM observe accesses in simulated-time order.
 */

#ifndef SMS_SIM_GPU_SIM_HPP
#define SMS_SIM_GPU_SIM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "src/bvh/wide_bvh.hpp"
#include "src/core/stack_txn.hpp"
#include "src/memory/memory_system.hpp"
#include "src/memory/shared_memory.hpp"
#include "src/sim/gpu_config.hpp"
#include "src/sim/traversal_sim.hpp"
#include "src/sim/warp_job.hpp"
#include "src/stats/cycle_accounting.hpp"
#include "src/stats/histogram.hpp"

namespace sms {

/** One record of the per-access depth trace (Fig. 10). */
struct DepthTraceRecord
{
    uint32_t warp_id;
    uint32_t access_index; ///< per-warp running access count
    uint32_t lane;
    uint32_t depth;
};

/** Optional simulation instrumentation knobs. */
struct SimOptions
{
    /** Record a (warp, access, lane, depth) trace for these warp ids. */
    std::vector<uint32_t> depth_trace_warps;

    /**
     * The jobs' traversal tape: buildTraversalTape() of this job stream
     * under the config's traversal variant. simulateJobs() requires it;
     * runWorkload() builds it first when it is null. Must stay alive
     * for the call.
     */
    const TraversalTape *tape = nullptr;

    /**
     * Timeline track name for this run ("scene config"); one trace
     * process per simulateJobs() call. Empty picks a generic name.
     * Only consulted when the timeline tracer is enabled.
     */
    std::string timeline_label;
};

/** Aggregated outcome of one simulated frame. */
struct SimResult
{
    Cycle cycles = 0;
    uint64_t instructions = 0;
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }

    JobCounters ops;
    WarpStackStats stack;
    SharedMemStats shared_mem;
    LevelStats l1;
    LevelStats l2;
    DramStats dram;
    /** L1 misses split by traffic class (Node/Primitive/Stack). */
    uint64_t l1_class_misses[kTrafficClassCount] = {};
    /** L2 misses split by traffic class. */
    uint64_t l2_class_misses[kTrafficClassCount] = {};
    uint64_t offchip_accesses = 0; ///< Fig. 15b metric

    /** Fraction of simulated cycles the DRAM service queue was busy. */
    double
    dramOccupancy() const
    {
        return cycles ? static_cast<double>(dram.busy_cycles) / cycles
                      : 0.0;
    }

    /**
     * Run-level cycle accounting: per-leaf totals over all warp jobs,
     * conserved at zero epsilon (activeSum() == warp_active_cycles) and
     * closed against the slot budget (totalSum() == slot_cycles once
     * idle.done is filled). One tree per SM in sm_accounting, each
     * conserved the same way.
     */
    CycleAccount accounting;
    std::vector<CycleAccount> sm_accounting;

    Histogram depth_hist{63}; ///< logical stack depth at each push/pop
    std::vector<DepthTraceRecord> depth_trace;

    uint32_t jobs = 0;
    uint32_t warps = 0;
    uint64_t rays = 0;
    uint32_t mismatches = 0; ///< lanes disagreeing with the oracle
};

/**
 * Simulate a frame's warp jobs on the configured GPU by replaying
 * their traversal tape (SimOptions::tape, which must be set) through
 * the timing model. No scene is read: the tape holds every outcome of
 * the functional pass.
 *
 * Deterministic: identical inputs produce identical results.
 */
SimResult simulateJobs(const WideBvh &bvh, const WarpJobList &jobs,
                       const GpuConfig &config, const SimOptions &options);

/**
 * Process-wide count of simulateJobs() invocations (thread-safe). The
 * result cache's "fully warm sweep performs zero simulations" guarantee
 * is gated on this counter (the bench throughput block reports it as
 * simulate_calls).
 */
uint64_t simulateJobsCallCount();

/** Reset the invocation counter (tests). */
void resetSimulateJobsCallCount();

} // namespace sms

#endif // SMS_SIM_GPU_SIM_HPP
