/**
 * @file
 * Cycle-approximate execution of one warp job inside the RT unit.
 *
 * Each step() mirrors one iteration of the RT-unit pipeline (§II-B):
 * for every active lane the top stack entry is *read* to obtain the
 * fetch address, node/leaf data is fetched through the global-memory
 * path (with per-warp coalescing into cache lines), the intersection
 * operation runs, then the stack manager pops the visited entry and
 * pushes all intersected children (nearest on top) — the pop's reloads
 * and the pushes' spills execute in warp-collected rounds against
 * shared and global memory.
 *
 * The job's functional outcome — which lines each step fetches, what
 * each lane visits and pushes, and the oracle verdict — comes from its
 * JobTape, written once by buildTraversalTape() (traversal_tape.hpp).
 * TraversalSim does no geometry work: it replays the tape through the
 * stack model, shared memory and the memory system, under any stack
 * configuration.
 */

#ifndef SMS_SIM_TRAVERSAL_SIM_HPP
#define SMS_SIM_TRAVERSAL_SIM_HPP

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/bvh/stackless.hpp"
#include "src/bvh/wide_bvh.hpp"
#include "src/core/warp_stack.hpp"
#include "src/memory/memory_system.hpp"
#include "src/memory/shared_memory.hpp"
#include "src/sim/gpu_config.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/sim/warp_job.hpp"
#include "src/stats/cycle_accounting.hpp"

namespace sms {

/** Operation counters accumulated by one warp job's traversal. */
struct JobCounters
{
    uint64_t steps = 0;
    uint64_t node_visits = 0;
    uint64_t leaf_visits = 0;
    uint64_t box_tests = 0;
    uint64_t prim_tests = 0;
    uint64_t instructions = 0;
    /** Accumulated per-phase step durations (diagnostics). */
    uint64_t fetch_cycles = 0;
    uint64_t op_cycles = 0;
    uint64_t stack_cycles = 0;

    void
    merge(const JobCounters &o)
    {
        steps += o.steps;
        node_visits += o.node_visits;
        leaf_visits += o.leaf_visits;
        box_tests += o.box_tests;
        prim_tests += o.prim_tests;
        instructions += o.instructions;
        fetch_cycles += o.fetch_cycles;
        op_cycles += o.op_cycles;
        stack_cycles += o.stack_cycles;
    }
};

/**
 * In-flight execution state of one warp job on one RT-unit slot.
 */
class TraversalSim
{
  public:
    /**
     * @param tape   the job's functional traversal (buildTraversalTape
     *               under the config's traversal variant); must outlive
     *               the job
     * @param links  parent/slot links; required when the traversal
     *               architecture is Stackless
     */
    TraversalSim(const WideBvh &bvh, const GpuConfig &config,
                 const WarpJob &job, const JobTape &tape, uint32_t sm,
                 Addr shared_base, Addr local_base, MemorySystem &mem,
                 SharedMemory &shared_mem, DepthObserver *observer,
                 Histogram *depth_hist = nullptr,
                 const StacklessLinks *links = nullptr);

    /**
     * Rearm this instance for a new warp job (BVH, GPU config and
     * memory system are fixed for the sweep cell). Equivalent to
     * destroying and reconstructing, but reuses every internal
     * allocation — RT-unit slots recycle their TraversalSim across the
     * thousands of jobs of a run instead of reallocating one per job.
     */
    void reinit(const WarpJob &job, const JobTape &tape, uint32_t sm,
                Addr shared_base, Addr local_base, SharedMemory &shared_mem,
                DepthObserver *observer, Histogram *depth_hist = nullptr);

    /** True when every lane finished its traversal. */
    bool done() const { return running_mask_ == 0; }

    /**
     * Phase 1 of one warp-synchronous pipeline iteration: issue the
     * node/leaf fetches at @p now and account the intersection-op
     * latency. @return the cycle the operation results are available
     * (when stepStack() must run).
     */
    Cycle stepFetch(Cycle now);

    /**
     * Phase 2: apply the traversal update and hand the resulting
     * spill/reload transactions to the stack manager. The warp retires
     * the iteration as soon as the manager accepts the work (popped
     * values always come from the on-chip RB stack); the manager's
     * load chain completes in the background and gates the *next*
     * iteration's stack phase. @return the iteration's retire cycle.
     *
     * The two phases are scheduled as separate events so every memory
     * model is touched in non-decreasing simulated-time order.
     */
    Cycle stepStack(Cycle now);

    const JobCounters &counters() const { return counters_; }
    const WarpStackStats &stackStats() const { return stack_.stats(); }

    /**
     * Per-warp cycle attribution. Every cycle between two step events is
     * charged to exactly one leaf as the steps run, so by completion
     * account().activeSum() equals the warp's active cycles (completion
     * minus admission) with zero epsilon — the caller sets
     * warp_active_cycles and checks the invariant.
     */
    const CycleAccount &account() const { return account_; }

    /** Lanes whose final hit disagreed with the oracle (from the tape). */
    uint32_t mismatches() const { return cursor_.tape()->mismatches; }

    const WarpJob &job() const { return job_; }

  private:
    /** Shared tail of construction and reinit(): seed the lanes. */
    void seedJob(DepthObserver *observer);

    /**
     * Apply one lane's recorded action after its pop. Stack
     * transactions collect into txn_arena_.
     * @return true when the lane terminated early (any-hit found)
     */
    bool laneStep(uint32_t lane_id, uint64_t top_value);

    /** How a stackless lane step left the lane. */
    enum class LaneOutcome : uint8_t { Continue, Done, Abandoned };

    /**
     * One stackless lane step: a recorded visit with one push descends
     * to that child; any other visit backtracks through the parent link
     * (or ends the lane at the root).
     */
    LaneOutcome laneStepStackless(uint32_t lane_id);

    void finishLane(uint32_t lane_id, bool abandoned);

    /** Run the manager rounds over txn_arena_'s per-lane lists. */
    Cycle runStackRounds(Cycle start);

    /**
     * Charge the manager-stall window [from, to) to the chain segments
     * recorded by the previous iteration's runStackRounds(). The window
     * is always a sub-range of that chain (the chain alone pushed
     * manager_free_ past @p from), so the walk covers it exactly.
     */
    void attributeManagerStall(Cycle from, Cycle to);

    // Per-step scratch buffers. The step functions run once per
    // traversal iteration of every warp job in a sweep (hundreds of
    // millions of calls); reusing these keeps the hot loops free of
    // heap allocation. The per-lane transaction lists live in one
    // pooled arena whose clear() is O(1) per lane.
    StackTxnArena txn_arena_;
    std::vector<SharedLaneRequest> shared_loads_;
    std::vector<SharedLaneRequest> shared_stores_;

    const WideBvh &bvh_;
    /** Parent/slot links; non-null exactly when the arch is Stackless. */
    const StacklessLinks *links_;
    const GpuConfig &config_;
    WarpJob job_;
    uint32_t sm_;
    MemorySystem &mem_;
    SharedMemory *shared_mem_; ///< per-admission (reinit rebinds)
    WarpStackModel stack_;
    TapeCursor cursor_;

    /**
     * One attribution segment of the manager's in-flight spill/reload
     * chain: cycles in [previous end, end) belong to @p leaf. Rebuilt by
     * every runStackRounds() call; consumed by attributeManagerStall()
     * when the *next* iteration's stack phase finds the manager busy.
     */
    struct ChainSeg
    {
        Cycle end;
        CycleLeaf leaf;
    };
    std::vector<ChainSeg> chain_segs_;
    Cycle chain_start_ = 0;
    CycleAccount account_;

    // The running lanes, one bit each; the set bits drive the per-lane
    // loops (count-trailing-zeros walk).
    uint32_t running_mask_ = 0; ///< bit i: lane i still traversing

    // Stackless lane machine (arch == Stackless only): the child
    // reference being visited and the parent it was reached through,
    // kept from the tape's actions plus the parent links. Bit i of
    // sl_revisit_ marks lane i as revisiting a node it backtracked to,
    // for the stall.arch.backtrack accounting leaf.
    std::array<uint32_t, kWarpSize> sl_cur_{};
    std::array<uint32_t, kWarpSize> sl_parent_{};
    uint32_t sl_revisit_ = 0;
    JobCounters counters_;
    /**
     * The warp's stack manager is busy until this cycle completing the
     * previous iteration's spill/reload chain (Fig. 11 has one manager
     * per RT unit warp; §VI-A issues its requests sequentially). The
     * warp itself proceeds — pops are served from the on-chip RB stack
     * — but the next stack phase must wait for the manager.
     */
    Cycle manager_free_ = 0;
};

} // namespace sms

#endif // SMS_SIM_TRAVERSAL_SIM_HPP
