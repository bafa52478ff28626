/**
 * @file
 * Glue for the global-memory path: per-SM L1D caches in front of a
 * shared L2 and a bandwidth-limited DRAM (Table I hierarchy).
 */

#ifndef SMS_MEMORY_MEMORY_SYSTEM_HPP
#define SMS_MEMORY_MEMORY_SYSTEM_HPP

#include <vector>

#include "src/memory/cache.hpp"
#include "src/memory/dram.hpp"
#include "src/memory/request.hpp"
#include "src/util/check.hpp"

namespace sms {

/** Parameters of the full global-memory hierarchy. */
struct MemoryHierarchyConfig
{
    CacheConfig l1{64 * 1024, 0, kLineBytes}; ///< fully associative
    Cycle l1_latency = 20;
    /**
     * Line lookups the SM's L1 can start per cycle (the RT unit's
     * fetcher is wide: a warp's node fetch issues many sectors).
     */
    uint32_t l1_ports = 4;

    CacheConfig l2{3 * 1024 * 1024, 16, kLineBytes};
    Cycle l2_latency = 160; ///< total latency of an L1-miss/L2-hit
    /** Line services the shared L2 can start per cycle. */
    uint32_t l2_ports = 4;

    DramConfig dram;
};

/**
 * Exact decomposition of one accessLine() completion time, for cycle
 * accounting: the fields sum to (data-ready cycle - issue cycle) with
 * zero epsilon on every service path.
 *
 *  - L1 hit:            port_wait + hit_base (= l1_latency)
 *  - L1 miss / L2 hit:  port_wait + hit_base + l1_miss_extra
 *                       (= l2_latency - l1_latency)
 *  - L2 miss:           port_wait (L1 + L2 port grants) + l1_miss_extra
 *                       + dram_queue + l2_miss_serve (= access_latency);
 *                       this path carries no hit_base — the model's
 *                       completion time doesn't include one.
 *
 * Writeback / eviction traffic consumes bandwidth but never delays the
 * request itself, so it does not appear here (its cost surfaces as
 * later requests' port/queue waits).
 */
struct MemAccessBreakdown
{
    Cycle port_wait = 0;     ///< L1 (and L2) port arbitration waits
    Cycle hit_base = 0;      ///< baseline L1 hit latency
    Cycle l1_miss_extra = 0; ///< beyond-L1 latency of a miss
    Cycle dram_queue = 0;    ///< DRAM service-slot queueing
    Cycle l2_miss_serve = 0; ///< DRAM access latency

    Cycle
    total() const
    {
        return port_wait + hit_base + l1_miss_extra + dram_queue +
               l2_miss_serve;
    }
};

/**
 * The global-memory path for all SMs.
 *
 * accessLine()/accessRange() return the completion cycle of a request
 * issued at a given cycle, updating cache state in issue order — the
 * caller (the simulator's event loop) is responsible for calling in
 * non-decreasing time order. accessLine() is defined below the class,
 * in this header, so the replay loops that call it once per modeled
 * line inline it together with the cache chain it drives.
 */
class MemorySystem
{
  public:
    MemorySystem(const MemoryHierarchyConfig &config, uint32_t num_sms);

    /**
     * Access one line from SM @p sm. @return data-ready cycle.
     * @param breakdown when non-null, receives the exact latency split
     *        of this access (see MemAccessBreakdown).
     */
    Cycle accessLine(uint32_t sm, Addr line_addr, bool write,
                     TrafficClass cls, Cycle now,
                     MemAccessBreakdown *breakdown = nullptr);

    /**
     * Access an arbitrary byte range (split into line requests issued
     * back-to-back on the SM's L1 port). @return last completion cycle.
     */
    Cycle accessRange(uint32_t sm, Addr addr, uint64_t bytes, bool write,
                      TrafficClass cls, Cycle now);

    const Cache &l1(uint32_t sm) const { return sms_[sm].l1; }
    const Cache &l2() const { return l2_; }
    const Dram &dram() const { return dram_; }

    /** Total off-chip (DRAM) accesses, the paper's Fig. 15b metric. */
    uint64_t offchipAccesses() const { return dram_.stats().accesses(); }

  private:
    /** One SM's L1D and the state of its lookup ports. */
    struct SmPath
    {
        Cache l1;
        Cycle port_free = 0;
        uint32_t slot_credit = 0;
    };

    /** Grant an L2 port slot at or after @p at. */
    Cycle
    l2PortGrant(Cycle at)
    {
        Cycle start = at > l2_port_free_ ? at : l2_port_free_;
        l2_port_free_ = start + 1;
        if (l2_slot_credit_ + 1 < config_.l2_ports) {
            ++l2_slot_credit_;
            l2_port_free_ = start;
        } else {
            l2_slot_credit_ = 0;
        }
        return start;
    }

    /**
     * Store a line into the L2 without delaying any request: an L1
     * write-through, or (@p dram_on_miss) an L1 writeback, whose L2 miss
     * also writes the line off-chip.
     */
    void l2Writeback(Cycle at, Addr line_addr, TrafficClass cls,
                     bool dram_on_miss);

    /** The L1-miss path of accessLine(), from the L2 on. */
    Cycle accessBeyondL1(Addr line_addr, bool write, TrafficClass cls,
                         Cycle now, Cycle start,
                         MemAccessBreakdown *breakdown);

    MemoryHierarchyConfig config_;
    std::vector<SmPath> sms_;
    Cache l2_;
    Cycle l2_port_free_ = 0;
    uint32_t l2_slot_credit_ = 0;
    Dram dram_;
};

inline Cycle
MemorySystem::accessLine(uint32_t sm, Addr line_addr, bool write,
                         TrafficClass cls, Cycle now,
                         MemAccessBreakdown *breakdown)
{
    SMS_ASSERT(sm < sms_.size(), "SM index %u out of range", sm);
    SMS_ASSERT(line_addr % kLineBytes == 0, "unaligned line address");
    if (breakdown)
        *breakdown = MemAccessBreakdown{};
    SmPath &path = sms_[sm];

    // L1 port arbitration: a multi-ported pipeline modeled as a
    // running slot counter (start cycle never runs ahead of the
    // backlog the port can absorb).
    Cycle start = now > path.port_free ? now : path.port_free;
    path.port_free = start + 1;
    // Multi-port: allow l1_ports lookups per cycle by crediting back.
    if (path.slot_credit + 1 < config_.l1_ports) {
        ++path.slot_credit;
        path.port_free = start;
    } else {
        path.slot_credit = 0;
    }

    Cache::Result l1r = path.l1.access(line_addr, write, cls);
    if (!l1r.hit) {
        // L1 writeback of the evicted dirty line: consumes L2 (and
        // possibly DRAM) bandwidth but does not delay the demand
        // request.
        if (l1r.evicted_dirty)
            l2Writeback(start, l1r.evicted_line, cls, true);
        return accessBeyondL1(line_addr, write, cls, now, start,
                              breakdown);
    }
    if (write) {
        // Write-through: the store also updates the L2 (bandwidth
        // only; stores never gate progress).
        l2Writeback(start, line_addr, cls, false);
    }
    if (breakdown) {
        breakdown->port_wait = start - now;
        breakdown->hit_base = config_.l1_latency;
    }
    return start + config_.l1_latency;
}

inline Cycle
MemorySystem::accessRange(uint32_t sm, Addr addr, uint64_t bytes,
                          bool write, TrafficClass cls, Cycle now)
{
    uint32_t lines = linesCovering(addr, bytes);
    Cycle done = now;
    Addr line = lineAlign(addr);
    for (uint32_t i = 0; i < lines; ++i) {
        Cycle c = accessLine(sm, line + i * (Addr)kLineBytes, write, cls,
                             now);
        if (c > done)
            done = c;
    }
    return done;
}

} // namespace sms

#endif // SMS_MEMORY_MEMORY_SYSTEM_HPP
