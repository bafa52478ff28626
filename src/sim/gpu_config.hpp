/**
 * @file
 * Whole-GPU configuration: the Table I baseline parameters plus the
 * stack configuration under test and the RT-unit operation timings.
 */

#ifndef SMS_SIM_GPU_CONFIG_HPP
#define SMS_SIM_GPU_CONFIG_HPP

#include <cstdint>
#include <string>

#include "src/bvh/node_layout.hpp"
#include "src/core/stack_config.hpp"
#include "src/memory/memory_system.hpp"
#include "src/sim/ray_reorder.hpp"

namespace sms {

/** Fixed-function operation latencies inside the RT unit. */
struct RtUnitTiming
{
    /** Ray-box phase latency of one internal-node visit (6-wide test). */
    Cycle box_op = 10;
    /** Base latency of a leaf visit. */
    Cycle leaf_op_base = 10;
    /** Additional latency per primitive tested in a leaf. */
    Cycle leaf_op_per_prim = 5;
    /** Stack-manager bookkeeping latency per transaction round. */
    Cycle stack_round = 2;
    /**
     * Per-internal-visit decode latency of a quantized node layout
     * (dequantizing six child boxes before the ray-box phase). Only
     * charged when the node layout is quantized.
     */
    Cycle node_decode_op = 4;
    /**
     * SIMT-core shading latency between a warp's trace instructions
     * (hit shading + next-bounce setup). Runs outside the RT unit.
     */
    Cycle shading_latency = 200;
};

/** How a warp walks the BVH between its fetch and update phases. */
enum class TraversalArchKind : uint8_t
{
    /** Per-lane short stack with the warp stack manager (the paper). */
    Stack,
    /**
     * No per-lane stack: interior nodes carry parent/slot links in
     * their metadata word and the lane backtracks through them,
     * re-testing child boxes to find the next unvisited subtree.
     */
    Stackless,
};

/**
 * Traversal-architecture axis: which machine executes the traversal
 * loop. Like node layout and ray order this changes WHICH steps happen
 * (stackless revisits interior nodes), so it participates in the
 * variant digest.
 */
struct TraversalArchConfig
{
    TraversalArchKind kind = TraversalArchKind::Stack;

    static TraversalArchConfig
    stack()
    {
        return {};
    }

    static TraversalArchConfig
    stackless()
    {
        TraversalArchConfig c;
        c.kind = TraversalArchKind::Stackless;
        return c;
    }

    /** True when the architecture differs from the paper's stack one. */
    bool active() const { return kind != TraversalArchKind::Stack; }

    /** Short display name: "stack" or "sl". */
    const char *name() const;

    bool
    operator==(const TraversalArchConfig &o) const
    {
        return kind == o.kind;
    }

    bool operator!=(const TraversalArchConfig &o) const { return !(*this == o); }
};

/**
 * The functional-traversal side of a configuration: node layout, ray
 * scheduling and traversal architecture. Unlike the stack/memory axes,
 * these change WHICH traversal steps happen (inflated boxes visit
 * supersets; reordering repacks the job stream; the stackless machine
 * reshapes the step stream), so traversal tapes and workload
 * fingerprints are keyed per variant via digest().
 */
struct TraversalVariant
{
    NodeLayoutConfig layout;
    RayOrderConfig order;
    TraversalArchConfig arch;

    /** Exact layout, generation order, stack machine — the baseline. */
    bool
    isDefault() const
    {
        return !layout.isQuantized() && !order.active() && !arch.active();
    }

    /**
     * Key folded into tape/workload fingerprints. Exactly 0 for the
     * default variant so every pre-existing fingerprint, tape file and
     * golden record is unchanged.
     */
    uint64_t digest() const;

    /** Display tag: "" for default, else e.g. "q8", "sl", "q8+mort+sl". */
    std::string tag() const;
};

/**
 * GPU configuration under test.
 *
 * unified_bytes is the L1D/shared-memory array (64 KB in Table I);
 * enabling an SH stack carves its footprint out of the L1D
 * (§IV-B: SH_8 => 8 KB shared + 56 KB L1D). l1_override_bytes forces
 * an explicit L1D size instead (used by the Fig. 6b sweep).
 */
struct GpuConfig
{
    uint32_t num_sms = 8;
    uint32_t max_warps_per_rt = 4;

    uint64_t unified_bytes = 64 * 1024;
    /** When non-zero, bypasses the carve-out and sets the L1D size. */
    uint64_t l1_override_bytes = 0;

    MemoryHierarchyConfig mem;
    Cycle shared_latency = 20;

    StackConfig stack;
    RtUnitTiming timing;

    /** Node encoding the RT unit fetches (exact BVH6 by default). */
    NodeLayoutConfig node_layout;
    /** Ray scheduling between path segments (generation order default). */
    RayOrderConfig ray_order;
    /** Traversal architecture (per-lane short stack by default). */
    TraversalArchConfig traversal_arch;

    /** Per-lane instructions charged for shading per closest-hit job. */
    uint32_t shading_instructions = 32;
    /** Per-lane instructions charged per shadow (any-hit) job. */
    uint32_t shadow_instructions = 8;

    /** The paper's Table I baseline (mobile SoC GPU). */
    static GpuConfig tableI();

    /** Effective L1D bytes after the shared-memory carve-out. */
    uint64_t effectiveL1Bytes() const;

    /** Shared-memory bytes reserved for SH stacks per SM. */
    uint64_t
    sharedStackBytes() const
    {
        return stack.sharedBytesPerSm(max_warps_per_rt);
    }

    /** Finalized memory-hierarchy config (L1 size resolved). */
    MemoryHierarchyConfig resolvedMemConfig() const;

    /** The functional-traversal variant selected by this config. */
    TraversalVariant
    variant() const
    {
        return TraversalVariant{node_layout, ray_order, traversal_arch};
    }
};

} // namespace sms

#endif // SMS_SIM_GPU_CONFIG_HPP
