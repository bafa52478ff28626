/**
 * @file
 * Global-memory hierarchy implementation: construction and the L1-miss
 * path. The per-line entry point is inline in the header.
 */

#include "src/memory/memory_system.hpp"

#include "src/stats/timeline.hpp"

namespace sms {

MemorySystem::MemorySystem(const MemoryHierarchyConfig &config,
                           uint32_t num_sms)
    : config_(config), l2_(config.l2), dram_(config.dram)
{
    SMS_ASSERT(num_sms > 0, "need at least one SM");
    SMS_ASSERT(config.l1_ports > 0 && config.l2_ports > 0,
               "port widths must be positive");
    sms_.assign(num_sms, SmPath{Cache(config.l1)});
}

void
MemorySystem::l2Writeback(Cycle at, Addr line_addr, TrafficClass cls,
                          bool dram_on_miss)
{
    Cycle start = l2PortGrant(at);
    Cache::Result r = l2_.access(line_addr, true, cls);
    if (dram_on_miss && !r.hit)
        dram_.access(start, true, cls);
    if (r.evicted_dirty)
        dram_.access(start, true, cls);
}

Cycle
MemorySystem::accessBeyondL1(Addr line_addr, bool write, TrafficClass cls,
                             Cycle now, Cycle start,
                             MemAccessBreakdown *breakdown)
{
    // Demand request goes to the L2.
    Cycle l2_start = l2PortGrant(start);
    Cache::Result l2r = l2_.access(line_addr, write, cls);
    if (l2r.evicted_dirty)
        dram_.access(l2_start, true, cls);
    if (l2r.hit) {
        if (timelineOn(TimelineCategory::Cache))
            timelineSpan(TimelineCategory::Cache, "l1_miss", start,
                         config_.l2_latency,
                         static_cast<uint64_t>(cls), "class");
        if (breakdown) {
            breakdown->port_wait = start - now;
            breakdown->hit_base = config_.l1_latency;
            breakdown->l1_miss_extra =
                config_.l2_latency - config_.l1_latency;
        }
        return start + config_.l2_latency;
    }

    // L2 miss: fetch the line from DRAM. A store that misses still
    // fetches (write-allocate).
    Cycle dram_queue = 0;
    Cycle data_ready = dram_.access(l2_start, false, cls, &dram_queue);
    Cycle done = data_ready + (config_.l2_latency - config_.l1_latency);
    if (timelineOn(TimelineCategory::Cache))
        timelineSpan(TimelineCategory::Cache, "l2_miss", start,
                     done - start, static_cast<uint64_t>(cls), "class");
    if (breakdown) {
        breakdown->port_wait = (start - now) + (l2_start - start);
        breakdown->l1_miss_extra =
            config_.l2_latency - config_.l1_latency;
        breakdown->dram_queue = dram_queue;
        breakdown->l2_miss_serve = done - now - breakdown->total();
    }
    return done;
}

} // namespace sms
