/**
 * @file
 * Memory transactions emitted by the stack manager.
 *
 * A push or pop on the hierarchical stack produces an ordered per-lane
 * list of transactions (spills, reloads, flush bursts). The timing
 * simulator groups same-position transactions across the warp's lanes
 * into warp-level shared/global accesses, mirroring how the RT unit's
 * memory scheduler collects requests (§IV-A), and honours the paper's
 * rule that a thread's transactions issue sequentially (§VI-A).
 */

#ifndef SMS_CORE_STACK_TXN_HPP
#define SMS_CORE_STACK_TXN_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/stack_config.hpp"
#include "src/memory/request.hpp"
#include "src/util/check.hpp"

namespace sms {

/** Kind of stack-manager memory transaction. */
enum class StackTxnKind : uint8_t
{
    SharedLoad,  ///< SH stack -> RB stack (or SH -> global staging)
    SharedStore, ///< RB stack -> SH stack (or global -> SH staging)
    GlobalLoad,  ///< off-chip local memory -> on-chip
    GlobalStore, ///< on-chip -> off-chip local memory
};

/**
 * Why the stack manager issued a transaction. Cycle accounting folds
 * each chain round into one stall.stack.* leaf by the highest-priority
 * origin present in the round (ForcedFlush > BorrowChain > Spill >
 * Refill), so a flush burst is charged to the flush even when spill
 * stores ride in the same round.
 */
enum class StackTxnOrigin : uint8_t
{
    Refill,      ///< eager pop refill (SH->RB, global->SH staging)
    Spill,       ///< RB overflow spill (incl. single-entry SH moves)
    BorrowChain, ///< budgeted bottom-segment flush (§VI-B)
    ForcedFlush, ///< flush past the paper's consecutive-flush budget
};

/** One stack-manager transaction for one lane. */
struct StackTxn
{
    StackTxnKind kind;
    Addr addr;
    uint32_t bytes = 8;
    StackTxnOrigin origin = StackTxnOrigin::Spill;
};

/** Ordered transaction list of one lane for one stack operation. */
using StackTxnList = std::vector<StackTxn>;

/**
 * Pooled per-warp transaction lists: one flat node pool with inline
 * next-links, a (head, tail) pair per lane and a mask of the lanes
 * whose list is non-empty.
 *
 * The timing simulator collects every lane's transactions for one
 * pipeline step, then walks them round by round. With one
 * std::vector<StackTxn> per lane that is 32 clear()s and up to 32
 * grow-reallocations per step on the sweep's hottest path; the arena
 * replaces all of it with one bump-allocated pool (clear() resets only
 * the lanes the mask names) while keeping each lane's list ordered
 * through the inline links. Same idiom as tree-sitter's stack.c pool:
 * nodes are reused by index, never freed individually, and links are
 * indices so the pool can reallocate without fixups.
 */
class StackTxnArena
{
  public:
    /** Link terminator / "no node" sentinel. */
    static constexpr uint32_t kNil = 0xffffffffu;

    struct Node
    {
        StackTxn txn;
        uint32_t next = kNil; ///< next node of the same lane's list
    };

    StackTxnArena()
    {
        head_.fill(kNil);
        tail_.fill(kNil);
    }

    /**
     * Drop every lane's list. O(lanes that held transactions); node
     * storage is retained.
     */
    void
    clear()
    {
        pool_.clear();
        for (uint32_t mask = lanes_; mask != 0; mask &= mask - 1) {
            uint32_t lane = static_cast<uint32_t>(__builtin_ctz(mask));
            head_[lane] = kNil;
            tail_[lane] = kNil;
        }
        lanes_ = 0;
    }

    /** Append @p txn to @p lane's list. */
    void
    append(uint32_t lane, const StackTxn &txn)
    {
        SMS_DEBUG_ASSERT(lane < kWarpSize, "lane %u out of range", lane);
        uint32_t node = static_cast<uint32_t>(pool_.size());
        pool_.push_back({txn, kNil});
        if (tail_[lane] == kNil) {
            head_[lane] = node;
            lanes_ |= 1u << lane;
        } else {
            pool_[tail_[lane]].next = node;
        }
        tail_[lane] = node;
    }

    /** Lanes whose list is non-empty, bit i for lane i. */
    uint32_t laneMask() const { return lanes_; }
    uint32_t laneHead(uint32_t lane) const { return head_[lane]; }
    const Node &node(uint32_t index) const { return pool_[index]; }

    /** Total transactions across all lanes. */
    uint32_t totalCount() const { return static_cast<uint32_t>(pool_.size()); }

    /** Materialize one lane's list (tests / differential checks). */
    StackTxnList
    laneTxns(uint32_t lane) const
    {
        StackTxnList out;
        for (uint32_t n = head_[lane]; n != kNil; n = pool_[n].next)
            out.push_back(pool_[n].txn);
        return out;
    }

  private:
    std::vector<Node> pool_;
    std::array<uint32_t, kWarpSize> head_;
    std::array<uint32_t, kWarpSize> tail_;
    uint32_t lanes_ = 0;
};

/**
 * push_back-compatible adapter appending one lane's transactions into a
 * StackTxnArena; lets the stack model emit into either a plain
 * StackTxnList or the arena through one code path.
 */
struct LaneTxnSink
{
    StackTxnArena *arena;
    uint32_t lane;

    void push_back(const StackTxn &txn) { arena->append(lane, txn); }
};

/**
 * Buckets of the borrow-chain length histogram: a lane's SH chain holds
 * its dedicated segment plus up to 32 borrowed ones (one per warp lane).
 */
constexpr uint32_t kBorrowChainBuckets = 34;

/** Counters over all stack-manager activity of one warp. */
struct WarpStackStats
{
    uint64_t pushes = 0;
    uint64_t pops = 0;
    uint64_t rb_spills = 0;       ///< RB overflow spills (to SH or global)
    uint64_t rb_spills_to_sh = 0; ///< ... of which landed in the SH stack
    uint64_t rb_spills_to_global = 0; ///< ... of which went off-chip
    uint64_t rb_refills = 0;      ///< reloads into the RB bottom
    uint64_t rb_refills_from_sh = 0; ///< ... served by the SH stack
    uint64_t rb_refills_from_global = 0; ///< ... served off-chip
    uint64_t sh_stores = 0;       ///< shared-memory stores
    uint64_t sh_loads = 0;        ///< shared-memory loads
    uint64_t global_stores = 0;   ///< off-chip spill stores
    uint64_t global_loads = 0;    ///< off-chip spill reloads
    uint64_t borrows = 0;         ///< SH stacks borrowed (RA)
    uint64_t flushes = 0;         ///< bottom-stack flushes (RA)
    uint64_t forced_flushes = 0;  ///< flushes past the paper's budget
    uint64_t flushed_entries = 0; ///< entries moved by flushes
    uint64_t single_moves = 0;    ///< SH-bottom -> global single moves
    uint32_t max_logical_depth = 0;
    /**
     * Chain length (dedicated + borrowed segments) reached after each
     * successful borrow; bucket i counts chains of i segments, the last
     * bucket saturates.
     */
    uint64_t borrow_chain_hist[kBorrowChainBuckets] = {};

    void
    merge(const WarpStackStats &o)
    {
        pushes += o.pushes;
        pops += o.pops;
        rb_spills += o.rb_spills;
        rb_spills_to_sh += o.rb_spills_to_sh;
        rb_spills_to_global += o.rb_spills_to_global;
        rb_refills += o.rb_refills;
        rb_refills_from_sh += o.rb_refills_from_sh;
        rb_refills_from_global += o.rb_refills_from_global;
        sh_stores += o.sh_stores;
        sh_loads += o.sh_loads;
        global_stores += o.global_stores;
        global_loads += o.global_loads;
        borrows += o.borrows;
        flushes += o.flushes;
        forced_flushes += o.forced_flushes;
        flushed_entries += o.flushed_entries;
        single_moves += o.single_moves;
        if (o.max_logical_depth > max_logical_depth)
            max_logical_depth = o.max_logical_depth;
        for (uint32_t i = 0; i < kBorrowChainBuckets; ++i)
            borrow_chain_hist[i] += o.borrow_chain_hist[i];
    }
};

} // namespace sms

#endif // SMS_CORE_STACK_TXN_HPP
