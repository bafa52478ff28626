/**
 * @file
 * GPU configuration helpers.
 */

#include "src/sim/gpu_config.hpp"

#include "src/util/check.hpp"

namespace sms {

const char *
TraversalArchConfig::name() const
{
    switch (kind) {
    case TraversalArchKind::Stack:
        return "stack";
    case TraversalArchKind::Stackless:
        return "sl";
    }
    fatal("unknown traversal architecture %d", static_cast<int>(kind));
}

uint64_t
TraversalVariant::digest() const
{
    if (isDefault())
        return 0;
    // Word-mixed hash in the style of workloadFingerprint; seeded with
    // a tag so a variant digest never collides with the 0 sentinel.
    uint64_t h = 0x736d732d76617231ull; // "sms-var1"
    auto mix = [&h](uint32_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
        h ^= h >> 29;
    };
    mix(static_cast<uint32_t>(layout.kind));
    mix(layout.isQuantized() ? layout.bits_per_plane : 0u);
    mix(static_cast<uint32_t>(order.kind));
    mix(static_cast<uint32_t>(arch.kind));
    return h != 0 ? h : 1;
}

std::string
TraversalVariant::tag() const
{
    if (isDefault())
        return "";
    std::string t;
    if (layout.isQuantized())
        t = layout.name();
    if (order.active()) {
        if (!t.empty())
            t += "+";
        t += order.name();
    }
    if (arch.active()) {
        if (!t.empty())
            t += "+";
        t += arch.name();
    }
    return t;
}

GpuConfig
GpuConfig::tableI()
{
    GpuConfig config;
    config.num_sms = 8;
    config.max_warps_per_rt = 4;
    config.unified_bytes = 64 * 1024;
    // Fully associative, write-through / no-write-allocate (stores
    // that miss write around to the L2).
    config.mem.l1 = {64 * 1024, 0, kLineBytes, false};
    config.mem.l1_latency = 20;
    config.mem.l2 = {384 * 1024, 16, kLineBytes};
    config.mem.l2_latency = 160;
    config.shared_latency = 20;
    config.stack = StackConfig::baseline(8);
    return config;
}

uint64_t
GpuConfig::effectiveL1Bytes() const
{
    if (l1_override_bytes != 0)
        return l1_override_bytes;
    uint64_t carve = sharedStackBytes();
    if (carve >= unified_bytes) {
        // A user-facing configuration error, not a simulator bug.
        fatal("SH stacks (%llu B) do not fit in the %llu B unified "
              "array",
              static_cast<unsigned long long>(carve),
              static_cast<unsigned long long>(unified_bytes));
    }
    return unified_bytes - carve;
}

MemoryHierarchyConfig
GpuConfig::resolvedMemConfig() const
{
    MemoryHierarchyConfig resolved = mem;
    resolved.l1.size_bytes = effectiveL1Bytes();
    return resolved;
}

} // namespace sms
