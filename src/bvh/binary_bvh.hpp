/**
 * @file
 * Binary BVH built with a binned surface-area heuristic.
 *
 * The binary tree is an intermediate: it is collapsed into the wide
 * (BVH6) structure that the simulated RT unit traverses. It is also a
 * convenient shape for structural invariant tests.
 */

#ifndef SMS_BVH_BINARY_BVH_HPP
#define SMS_BVH_BINARY_BVH_HPP

#include <cstdint>
#include <vector>

#include "src/geometry/aabb.hpp"
#include "src/scene/scene.hpp"

namespace sms {

/** Build parameters for the binary SAH builder. */
struct BvhBuildParams
{
    /** Number of SAH bins per axis. */
    int sah_bins = 16;
    /** Maximum primitives per leaf (small leaves match driver BVHs). */
    int max_leaf_prims = 2;
    /** Relative cost of a primitive test vs. a node test. */
    float prim_cost = 1.0f;
    float node_cost = 1.0f;
    /**
     * Branching factor of the collapsed wide BVH (2..kWideBvhWidth).
     * Vulkan driver acceleration structures are narrower than the
     * RTX-style BVH6; the default matches the paper's stack-depth
     * profile (avg 4-5, max ~30) at our scene scale.
     */
    int wide_width = 6;
};

/**
 * Node of the binary BVH. Internal nodes reference children by index;
 * leaves reference a contiguous range of the primitive-index array.
 */
struct BinaryNode
{
    Aabb bounds;
    uint32_t left = 0;       ///< left child index (internal only)
    uint32_t right = 0;      ///< right child index (internal only)
    uint32_t prim_offset = 0; ///< first index into primIndices (leaf only)
    uint16_t prim_count = 0; ///< 0 for internal nodes
    bool isLeaf() const { return prim_count > 0; }
};

/** Binary BVH over a scene's unified primitive ids. */
class BinaryBvh
{
  public:
    /**
     * Build over all primitives of @p scene. The largest scenes build
     * their top subtrees concurrently (up to defaultThreadCount()
     * threads); the output does not depend on the thread count.
     * nodes() holds exactly the nodes of the tree.
     */
    static BinaryBvh build(const Scene &scene,
                           const BvhBuildParams &params = {});

    const std::vector<BinaryNode> &nodes() const { return nodes_; }
    const std::vector<uint32_t> &primIndices() const { return prim_indices_; }
    uint32_t rootIndex() const { return 0; }
    bool empty() const { return nodes_.empty(); }

    /** Maximum leaf depth (root = 0). */
    uint32_t depth() const;

    /** SAH cost of the tree under the given params. */
    double sahCost(const BvhBuildParams &params = {}) const;

  private:
    std::vector<BinaryNode> nodes_;
    std::vector<uint32_t> prim_indices_;
};

} // namespace sms

#endif // SMS_BVH_BINARY_BVH_HPP
