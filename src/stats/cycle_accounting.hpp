/**
 * @file
 * Top-down cycle accounting: every simulated warp cycle is attributed
 * to exactly one leaf category of a small fixed hierarchy, and the
 * attribution is *exactly conserved* — per warp job the leaf counts sum
 * to the job's active cycles (completion minus admission), with no
 * epsilon and no "other" bucket.
 *
 * The hierarchy mirrors the stall taxonomy of the paper's §VI
 * evaluation: useful work (issue/intersect), stack-manager chain stalls
 * split by what the chain was doing (spill, refill, borrow-chain
 * flush, forced flush), global-memory stalls on the geometry-fetch
 * path split by where the critical line was served (L1-miss extra,
 * L2-miss service, DRAM queueing), shared-memory bank-conflict
 * serialization, and slot idle time.
 *
 * Leaf semantics (all in simulated cycles):
 *  - "issue": baseline pipeline occupancy a warp pays even when every
 *    access hits — L1 port arbitration + L1 hit latency of the
 *    critical fetch line, plus the per-iteration stack-round issue
 *    cost. Cycle time that is not a stall.
 *  - "intersect": box/triangle intersection operation latency.
 *  - "stall.stack.*": cycles the stack phase waited for the warp's
 *    asynchronous stack manager to drain the previous iteration's
 *    spill/reload chain, attributed to the chain segment actually
 *    overlapping the wait (latency hidden under fetch/intersect is
 *    *not* charged — exactly the overlap is). Global/shared memory
 *    time inside the chain folds into these stack leaves, not into
 *    the stall.mem leaves, so the stack cost of a configuration is
 *    one subtree.
 *  - "stall.mem.*": extra cycles of the critical geometry-fetch line
 *    beyond the L1-hit baseline (fetch phase only).
 *  - "stall.shmem.bank_conflict": extra serialization passes of SH
 *    stack accesses on the chain's critical path.
 *  - "stall.arch.backtrack": stackless architecture only — the
 *    intersection-op latency of steps where at least one lane is
 *    revisiting an interior node via its parent link instead of
 *    popping a stack entry (the stackless traversal's redundant-work
 *    overhead, kept separate from "intersect" useful work).
 *  - "idle.done": RT-unit slot cycles with no job in flight (derived
 *    at run scope: slots * frame cycles - sum of active cycles).
 *
 * The conservation invariant is enforced at three levels: per job
 * (always-on assert in the event loop), per run and per SM (leaves sum
 * to warp_active_cycles, idle.done closes the slot budget), and in the
 * record gates (`bench_compare --check-accounting`,
 * `stall_report --check-conservation`) at zero epsilon.
 */

#ifndef SMS_STATS_CYCLE_ACCOUNTING_HPP
#define SMS_STATS_CYCLE_ACCOUNTING_HPP

#include <cstdint>
#include <string>

namespace sms {

class JsonValue;

/** Leaf categories; every simulated warp cycle lands in exactly one. */
enum class CycleLeaf : uint8_t
{
    Issue = 0,             ///< baseline issue/hit-latency occupancy
    Intersect,             ///< intersection-op latency
    StallStackSpill,       ///< manager chain: RB spill traffic
    StallStackRefill,      ///< manager chain: eager refill traffic
    StallStackBorrowChain, ///< manager chain: budgeted bottom flush
    StallStackForcedFlush, ///< manager chain: over-budget flush
    StallMemL1Miss,        ///< fetch critical line: L1-miss extra
    StallMemL2Miss,        ///< fetch critical line: DRAM service
    StallMemDramQueue,     ///< fetch critical line: DRAM queue wait
    StallShmemBankConflict, ///< SH-stack serialization passes
    StallArchBacktrack,    ///< stackless: parent-link revisit op windows
    IdleDone,              ///< RT-unit slot idle (no job in flight)
};

/** Number of leaves. */
constexpr int kCycleLeafCount = 12;

/** Dotted hierarchical name ("stall.stack.spill", ...). */
const char *cycleLeafName(CycleLeaf leaf);

/** Inverse of cycleLeafName(); -1 for unknown names. */
int cycleLeafFromName(const std::string &name);

/** True for leaves outside warp-active time (currently idle.done). */
constexpr bool
cycleLeafIsIdle(CycleLeaf leaf)
{
    return leaf == CycleLeaf::IdleDone;
}

/**
 * Are the redundant exact-decomposition self-checks enabled? Defaults
 * to on in debug builds (!NDEBUG) and off otherwise; the
 * SMS_ACCOUNTING_CHECK environment variable overrides either way
 * ("0" disables, anything else enables). The hard per-job conservation
 * invariant is asserted unconditionally regardless of this knob.
 */
bool cycleAccountingChecksEnabled();

/**
 * One cycle-accounting tree: a flat array of leaf totals plus the
 * activity denominators. Used per warp job (TraversalSim), per SM and
 * per run (SimResult).
 */
struct CycleAccount
{
    uint64_t leaves[kCycleLeafCount] = {};
    /** Sum of (completion - admission) over the covered warp jobs. */
    uint64_t warp_active_cycles = 0;
    /** RT-unit slot-cycle budget (slots * frame cycles); 0 per job. */
    uint64_t slot_cycles = 0;

    void
    add(CycleLeaf leaf, uint64_t cycles)
    {
        leaves[static_cast<int>(leaf)] += cycles;
    }

    uint64_t
    leaf(CycleLeaf l) const
    {
        return leaves[static_cast<int>(l)];
    }

    /** Sum of the non-idle leaves (must equal warp_active_cycles). */
    uint64_t activeSum() const;

    /** Sum of every leaf (must equal slot_cycles when idle is filled). */
    uint64_t totalSum() const;

    /** Zero-epsilon conservation: activeSum() == warp_active_cycles. */
    bool conserved() const { return activeSum() == warp_active_cycles; }

    void merge(const CycleAccount &o);
};

/**
 * JSON view (the `cycle_accounting` block of sms-bench-1 records, see
 * docs/FORMATS.md): version, denominators, a `leaves` object keyed by
 * dotted leaf name, and optionally a `per_sm` array of the same shape.
 */
JsonValue toJson(const CycleAccount &account);

/** Schema version of the cycle_accounting JSON block. */
constexpr int kCycleAccountingVersion = 1;

} // namespace sms

#endif // SMS_STATS_CYCLE_ACCOUNTING_HPP
