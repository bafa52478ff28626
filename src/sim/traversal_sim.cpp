/**
 * @file
 * Warp-job timing: replays a job's traversal tape through the RT-unit
 * pipeline model.
 */

#include "src/sim/traversal_sim.hpp"

#include <algorithm>
#include <vector>

#include "src/stats/timeline.hpp"
#include "src/util/check.hpp"

namespace sms {

TraversalSim::TraversalSim(const WideBvh &bvh, const GpuConfig &config,
                           const WarpJob &job, const JobTape &tape,
                           uint32_t sm, Addr shared_base, Addr local_base,
                           MemorySystem &mem, SharedMemory &shared_mem,
                           DepthObserver *observer, Histogram *depth_hist,
                           const StacklessLinks *links)
    : bvh_(bvh), links_(links), config_(config),
      job_(job), sm_(sm), mem_(mem), shared_mem_(&shared_mem),
      stack_(config.stack, shared_base, local_base), cursor_(&tape)
{
    SMS_ASSERT((links_ != nullptr) ==
                   (config.traversal_arch.kind == TraversalArchKind::Stackless),
               "stackless links must accompany exactly the stackless arch");
    stack_.setDepthHistogram(depth_hist);
    seedJob(observer);
}

void
TraversalSim::reinit(const WarpJob &job, const JobTape &tape, uint32_t sm,
                     Addr shared_base, Addr local_base,
                     SharedMemory &shared_mem, DepthObserver *observer,
                     Histogram *depth_hist)
{
    job_ = job;
    sm_ = sm;
    shared_mem_ = &shared_mem;
    stack_.reset(shared_base, local_base);
    stack_.setDepthHistogram(depth_hist);
    cursor_ = TapeCursor(&tape);
    chain_segs_.clear();
    chain_start_ = 0;
    account_ = CycleAccount{};
    counters_ = JobCounters{};
    manager_free_ = 0;
    seedJob(observer);
}

void
TraversalSim::seedJob(DepthObserver *observer)
{
    stack_.setDepthObserver(observer);
    running_mask_ = 0;
    sl_revisit_ = 0;
    for (uint32_t i = 0; i < kWarpSize; ++i) {
        if (!job_.active[i] || bvh_.empty()) {
            // Masked-off lanes count as finished immediately; with
            // reallocation their SH segments are borrowable from the
            // start.
            stack_.finishLane(i);
            continue;
        }
        running_mask_ |= 1u << i;
        if (links_) {
            // Stackless lanes keep no stack at all: the machine state
            // is the current child reference plus the parent chain
            // position it was reached through.
            sl_cur_[i] = bvh_.rootRef().bits();
            sl_parent_[i] = StacklessLinks::kNoParent;
            continue;
        }
        // Seed the traversal stack with the root reference (§II-B: the
        // next fetch address is always read from the stack top).
        StackTxnList seed;
        stack_.push(i, bvh_.rootRef().stackValue(), seed);
        SMS_ASSERT(seed.empty(), "root push cannot spill");
    }
    // Per-lane instruction charge for the shading work surrounding this
    // trace call (constant across stack configurations).
    uint32_t shade = job_.any_hit ? config_.shadow_instructions
                                  : config_.shading_instructions;
    counters_.instructions +=
        static_cast<uint64_t>(shade) * job_.activeLanes();
}

void
TraversalSim::finishLane(uint32_t lane_id, bool abandoned)
{
    if (abandoned)
        stack_.abandonLane(lane_id);
    else
        stack_.finishLane(lane_id);
    SMS_ASSERT(running_mask_ & (1u << lane_id), "lane not running");
    running_mask_ &= ~(1u << lane_id);
}

Cycle
TraversalSim::stepFetch(Cycle now)
{
    SMS_ASSERT(!done(), "step on completed job");
    ++counters_.steps;

    // The warp waits for the slowest line; accounting charges the fetch
    // window to the *critical* line's latency split (first line reaching
    // the maximum, matching std::max's keep-first tie behaviour). Every
    // other line's latency is hidden under it and charged nowhere. Each
    // line issues as soon as the tape yields it.
    Cycle fetch_done = now;
    MemAccessBreakdown crit{};
    const uint64_t line_count = cursor_.fetchCount();
    uint64_t line_index = 0;
    for (uint64_t i = 0; i < line_count; ++i) {
        uint64_t packed = cursor_.fetchLine(line_index);
        MemAccessBreakdown bd;
        Cycle c = mem_.accessLine(sm_, fetchLineAddr(packed), false,
                                  fetchLineClass(packed), now, &bd);
        if (c > fetch_done) {
            fetch_done = c;
            crit = bd;
        }
    }
    bool has_internal = false;
    bool has_leaf = false;
    uint32_t max_leaf_prims = 0;
    cursor_.fetchOp(has_internal, has_leaf, max_leaf_prims);
    if (fetch_done > now) {
        if (cycleAccountingChecksEnabled())
            SMS_ASSERT(crit.total() == fetch_done - now,
                       "critical-line breakdown does not cover the fetch "
                       "window: %llu of %llu cycles",
                       static_cast<unsigned long long>(crit.total()),
                       static_cast<unsigned long long>(fetch_done - now));
        account_.add(CycleLeaf::Issue, crit.port_wait + crit.hit_base);
        account_.add(CycleLeaf::StallMemL1Miss, crit.l1_miss_extra);
        account_.add(CycleLeaf::StallMemDramQueue, crit.dram_queue);
        account_.add(CycleLeaf::StallMemL2Miss, crit.l2_miss_serve);
    }

    // ------------------------------------------------------------------
    // OP: intersection latency — the slowest lane's operation gates the
    // warp (SIMT lockstep). Leaf latency grows with the primitive
    // count, so the warp maximum reduces to the recorded per-kind
    // extremes (identical to the per-lane maximum).
    // ------------------------------------------------------------------
    Cycle op_latency = 0;
    if (has_internal) {
        op_latency = config_.timing.box_op;
        // Quantized layouts dequantize the child planes before the
        // ray-box phase; the charge rides the internal-visit latency so
        // it lands in the intersect leaf (the tape records
        // has_internal, not the latency).
        if (config_.node_layout.isQuantized())
            op_latency += config_.timing.node_decode_op;
    }
    if (has_leaf)
        op_latency = std::max(
            op_latency, config_.timing.leaf_op_base +
                            config_.timing.leaf_op_per_prim *
                                static_cast<Cycle>(max_leaf_prims));
    Cycle op_done = fetch_done + op_latency;
    bool backtracking = false;
    if (links_) {
        // A stackless step where any lane is revisiting an interior
        // node through its parent link repeats box tests the stack
        // machine would not have run; surface that op window as the
        // architecture's backtracking overhead.
        backtracking = (sl_revisit_ & running_mask_) != 0;
    }
    account_.add(backtracking ? CycleLeaf::StallArchBacktrack
                              : CycleLeaf::Intersect,
                 op_latency);
    counters_.fetch_cycles += fetch_done - now;
    counters_.op_cycles += op_latency;
    if (timelineOn(TimelineCategory::Sim)) {
        if (fetch_done > now)
            timelineSpan(TimelineCategory::Sim, "fetch", now,
                         fetch_done - now, line_count, "lines");
        if (op_latency > 0)
            timelineSpan(TimelineCategory::Sim, "intersect", fetch_done,
                         op_latency);
    }
    return op_done;
}

bool
TraversalSim::laneStep(uint32_t lane_id, uint64_t top_value)
{
    TapeCursor::LaneAction action = cursor_.laneAction();
    // Cheap always-on cross-check: the value-exact stack must pop the
    // same kind of reference the functional pass visited, whatever the
    // stack configuration. A mismatch means the tape belongs to a
    // different workload (or the stack model lost value-exactness).
    SMS_ASSERT(action.is_leaf ==
                   ChildRef::fromStackValue(top_value).isLeaf(),
               "traversal tape desync on lane %u at step %llu", lane_id,
               static_cast<unsigned long long>(counters_.steps));

    if (!action.is_leaf) {
        ++counters_.node_visits;
        counters_.box_tests += action.tests;
        counters_.instructions += action.tests;
        for (uint32_t p = 0; p < action.pushes; ++p) {
            stack_.push(lane_id, cursor_.pushValue(), txn_arena_);
            ++counters_.instructions;
        }
        return false;
    }

    ++counters_.leaf_visits;
    counters_.prim_tests += action.tests;
    counters_.instructions += action.tests;
    return action.abandoned;
}

TraversalSim::LaneOutcome
TraversalSim::laneStepStackless(uint32_t lane_id)
{
    TapeCursor::LaneAction action = cursor_.laneAction();
    ChildRef current = ChildRef::fromBits(sl_cur_[lane_id]);
    SMS_ASSERT(action.is_leaf == current.isLeaf(),
               "traversal tape desync on lane %u at step %llu", lane_id,
               static_cast<unsigned long long>(counters_.steps));

    if (!action.is_leaf) {
        ++counters_.node_visits;
        counters_.box_tests += action.tests;
        counters_.instructions += action.tests;
        if (action.pushes == 1) {
            // Descend to the recorded child.
            ++counters_.instructions;
            sl_parent_[lane_id] = current.nodeIndex();
            sl_cur_[lane_id] =
                ChildRef::fromStackValue(cursor_.pushValue()).bits();
            sl_revisit_ &= ~(1u << lane_id);
            return LaneOutcome::Continue;
        }
        SMS_ASSERT(action.pushes == 0,
                   "stackless tape action with %u pushes", action.pushes);
    } else {
        ++counters_.leaf_visits;
        counters_.prim_tests += action.tests;
        counters_.instructions += action.tests;
        if (action.abandoned)
            return LaneOutcome::Abandoned;
    }
    uint32_t p = sl_parent_[lane_id];
    if (p == StacklessLinks::kNoParent)
        return LaneOutcome::Done;
    // The parent is a node index read from the tape, which replay
    // trusts once its checksum and fingerprint match.
    SMS_ASSERT(p < links_->parent.size(),
               "stackless tape backtracks to node %u, but the BVH has "
               "%zu parent links",
               p, links_->parent.size());
    // Backtrack to the parent, which the next step revisits.
    sl_cur_[lane_id] = ChildRef::makeInternal(p).bits();
    sl_parent_[lane_id] = links_->parent[p];
    sl_revisit_ |= 1u << lane_id;
    return LaneOutcome::Continue;
}

Cycle
TraversalSim::stepStack(Cycle now)
{
    // ------------------------------------------------------------------
    // STACK UPDATE: apply the traversal step per lane; the stack
    // manager's transactions execute afterwards in warp rounds. The
    // manager must have drained the previous iteration's chain first.
    // ------------------------------------------------------------------
    Cycle start = now > manager_free_ ? now : manager_free_;
    if (start > now)
        attributeManagerStall(now, start);
    if (timelineAnyOn()) {
        if (start > now)
            timelineSpan(TimelineCategory::Stack, "mgr_stall", now,
                         start - now);
        // Stack-transition instants below stamp at the phase start.
        timelineContext().now = start;
    }
    txn_arena_.clear();
    if (links_) {
        // Stackless update: no pops, no pushes, no stack manager — the
        // lane state machine advances in place. The per-lane
        // bookkeeping instruction mirrors the stack machine's pop.
        for (uint32_t mask = running_mask_; mask != 0; mask &= mask - 1) {
            uint32_t i = static_cast<uint32_t>(__builtin_ctz(mask));
            ++counters_.instructions;
            LaneOutcome out = laneStepStackless(i);
            if (out == LaneOutcome::Abandoned)
                finishLane(i, true);
            else if (out == LaneOutcome::Done)
                finishLane(i, false);
        }
    } else {
        for (uint32_t mask = running_mask_; mask != 0; mask &= mask - 1) {
            uint32_t i = static_cast<uint32_t>(__builtin_ctz(mask));

            // Pop the entry being visited (reloads spilled values), then
            // push the intersected children so the nearest ends on top.
            uint64_t top_value;
            bool popped = stack_.pop(i, top_value, txn_arena_);
            SMS_ASSERT(popped, "running lane with empty stack");
            ++counters_.instructions;

            if (laneStep(i, top_value)) {
                finishLane(i, true);
                continue;
            }
            if (stack_.laneEmpty(i))
                finishLane(i, false);
        }
    }

    if (running_mask_ == 0) {
        SMS_ASSERT(cursor_.atEnd() &&
                       counters_.steps == cursor_.tape()->steps,
                   "traversal tape not fully consumed: %llu of %u "
                   "steps, %s",
                   static_cast<unsigned long long>(counters_.steps),
                   cursor_.tape()->steps,
                   cursor_.atEnd() ? "at end" : "bytes left");
    }

    // The manager's chain runs in the background; the warp retires the
    // iteration once the manager has accepted the work.
    Cycle chain_done = runStackRounds(start);
    manager_free_ = chain_done;
    counters_.stack_cycles += start - now; // manager-stall visible to warp
    Cycle retire = start + config_.timing.stack_round;
    // The warp's own stack-update round is issue work, not a stall.
    account_.add(CycleLeaf::Issue, config_.timing.stack_round);
    if (timelineOn(TimelineCategory::Sim))
        timelineSpan(TimelineCategory::Sim, "stack", start,
                     config_.timing.stack_round);
    // Manager chain draining past the warp's retirement.
    if (chain_done > retire && timelineOn(TimelineCategory::Stack))
        timelineSpan(TimelineCategory::Stack, "mgr_chain", retire,
                     chain_done - retire);
    return retire;
}

/** Accounting leaf a chain round folds into, by its dominant origin. */
static CycleLeaf
stackLeafOf(StackTxnOrigin origin)
{
    switch (origin) {
      case StackTxnOrigin::Refill:
        return CycleLeaf::StallStackRefill;
      case StackTxnOrigin::Spill:
        return CycleLeaf::StallStackSpill;
      case StackTxnOrigin::BorrowChain:
        return CycleLeaf::StallStackBorrowChain;
      case StackTxnOrigin::ForcedFlush:
        return CycleLeaf::StallStackForcedFlush;
    }
    return CycleLeaf::StallStackSpill;
}

void
TraversalSim::attributeManagerStall(Cycle from, Cycle to)
{
    Cycle attributed = 0;
    Cycle seg_begin = chain_start_;
    for (const ChainSeg &seg : chain_segs_) {
        Cycle b = seg_begin > from ? seg_begin : from;
        Cycle e = seg.end < to ? seg.end : to;
        if (e > b) {
            account_.add(seg.leaf, e - b);
            attributed += e - b;
        }
        seg_begin = seg.end;
    }
    if (cycleAccountingChecksEnabled())
        SMS_ASSERT(attributed == to - from,
                   "manager-stall window [%llu, %llu) not covered by the "
                   "chain segments (%llu cycles attributed)",
                   static_cast<unsigned long long>(from),
                   static_cast<unsigned long long>(to),
                   static_cast<unsigned long long>(attributed));
}

Cycle
TraversalSim::runStackRounds(Cycle start)
{
    chain_segs_.clear();
    chain_start_ = start;
    if (txn_arena_.totalCount() == 0)
        return start;
    // Round r takes each lane's r-th transaction: walk the lanes'
    // lists in lock-step through one cursor per lane (the arena's
    // inline links preserve per-lane order; lanes advance in ascending
    // id within a round, as the flat per-lane lists did). A lane whose
    // list ran out leaves the pending mask, so a round visits only the
    // lanes that still hold transactions, and rounds end with it.
    uint32_t cursor[kWarpSize];
    uint32_t pending = txn_arena_.laneMask();
    for (uint32_t mask = pending; mask != 0; mask &= mask - 1) {
        uint32_t lane = static_cast<uint32_t>(__builtin_ctz(mask));
        cursor[lane] = txn_arena_.laneHead(lane);
    }

    Cycle t = start;
    Cycle last_store_done = start;
    std::vector<SharedLaneRequest> &shared_loads = shared_loads_;
    std::vector<SharedLaneRequest> &shared_stores = shared_stores_;
    while (pending != 0) {
        shared_loads.clear();
        shared_stores.clear();
        Cycle round_begin = t;
        Cycle load_done = t;
        // StackTxnOrigin's declaration order is the round-folding
        // priority (ForcedFlush > BorrowChain > Spill > Refill).
        int origin = -1;
        for (uint32_t mask = pending; mask != 0; mask &= mask - 1) {
            uint32_t lane = static_cast<uint32_t>(__builtin_ctz(mask));
            const StackTxnArena::Node &node = txn_arena_.node(cursor[lane]);
            cursor[lane] = node.next;
            if (node.next == StackTxnArena::kNil)
                pending &= ~(1u << lane);
            const StackTxn &txn = node.txn;
            if (static_cast<int>(txn.origin) > origin)
                origin = static_cast<int>(txn.origin);
            switch (txn.kind) {
              case StackTxnKind::SharedLoad:
                shared_loads.push_back({lane, txn.addr, txn.bytes});
                break;
              case StackTxnKind::SharedStore:
                shared_stores.push_back({lane, txn.addr, txn.bytes});
                break;
              case StackTxnKind::GlobalLoad:
                load_done = std::max(
                    load_done, mem_.accessRange(sm_, txn.addr, txn.bytes,
                                                false,
                                                TrafficClass::Stack, t));
                break;
              case StackTxnKind::GlobalStore:
                // Stores are fire-and-forget: they consume bandwidth
                // but do not gate the next transaction (§VI-A only
                // requires *loads* to return before the next request).
                last_store_done = std::max(
                    last_store_done,
                    mem_.accessRange(sm_, txn.addr, txn.bytes, true,
                                     TrafficClass::Stack, t));
                break;
            }
        }
        bool shared_critical = false;
        SharedAccessInfo sh_info;
        if (!shared_loads.empty()) {
            Cycle shared_done =
                shared_mem_->access(t, shared_loads, &sh_info);
            if (shared_done > load_done)
                shared_critical = true;
            load_done = std::max(load_done, shared_done);
        }
        if (!shared_stores.empty()) {
            last_store_done = std::max(
                last_store_done, shared_mem_->access(t, shared_stores));
        }
        // Paper §VI-A: a thread's next transaction issues only after the
        // previous *load* returned; stores stream.
        t = load_done + config_.timing.stack_round;

        // Record this round's attribution segments. The whole round
        // folds into its dominant origin's stall.stack.* leaf, except
        // that when a conflicted shared load gates the round, its
        // serialization passes surface as stall.shmem.bank_conflict.
        CycleLeaf leaf = stackLeafOf(static_cast<StackTxnOrigin>(origin));
        if (shared_critical && sh_info.passes > 1) {
            Cycle conflict_begin = round_begin + sh_info.pipeline_wait;
            Cycle conflict_end = conflict_begin + (sh_info.passes - 1);
            if (conflict_begin > round_begin)
                chain_segs_.push_back({conflict_begin, leaf});
            chain_segs_.push_back(
                {conflict_end, CycleLeaf::StallShmemBankConflict});
            chain_segs_.push_back({t, leaf});
        } else {
            chain_segs_.push_back({t, leaf});
        }
    }
    // Stores drain through write buffers; the step retires when the
    // last load returns. Store bandwidth was still charged above.
    (void)last_store_done;
    return t;
}

} // namespace sms
