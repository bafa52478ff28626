/**
 * @file
 * Common memory-model types: simulated addresses, cycles, traffic
 * classes and line geometry.
 */

#ifndef SMS_MEMORY_REQUEST_HPP
#define SMS_MEMORY_REQUEST_HPP

#include <cstdint>

namespace sms {

/** Simulated byte address. */
using Addr = uint64_t;

/** Simulated clock cycle. */
using Cycle = uint64_t;

/** Cache line size used throughout the hierarchy. */
constexpr uint32_t kLineBytes = 128;

/** Align an address down to its cache line. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(kLineBytes - 1);
}

/** Number of lines touched by [addr, addr + bytes). */
constexpr uint32_t
linesCovering(Addr addr, uint64_t bytes)
{
    if (bytes == 0)
        return 0;
    Addr first = lineAlign(addr);
    Addr last = lineAlign(addr + bytes - 1);
    return static_cast<uint32_t>((last - first) / kLineBytes) + 1;
}

/**
 * Why a request exists — lets the statistics separate scene-geometry
 * traffic from traversal-stack spill traffic, the paper's key split.
 */
enum class TrafficClass : uint8_t
{
    Node,      ///< BVH node fetch
    Primitive, ///< leaf primitive fetch
    Stack,     ///< traversal-stack spill/reload
};

/** Number of TrafficClass values. */
constexpr int kTrafficClassCount = 3;

/** Aggregate counters for one level of the hierarchy. */
struct LevelStats
{
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t load_misses = 0;
    uint64_t store_misses = 0;
    uint64_t writebacks = 0;

    uint64_t accesses() const { return loads + stores; }
    uint64_t misses() const { return load_misses + store_misses; }

    double
    missRate() const
    {
        uint64_t a = accesses();
        return a ? static_cast<double>(misses()) / a : 0.0;
    }
};

} // namespace sms

#endif // SMS_MEMORY_REQUEST_HPP
