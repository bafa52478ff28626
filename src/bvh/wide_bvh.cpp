/**
 * @file
 * Binary-to-wide BVH collapse and layout statistics.
 */

#include "src/bvh/wide_bvh.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace sms {

WideBvh
WideBvh::build(const Scene &scene, const BvhBuildParams &params)
{
    BinaryBvh binary = BinaryBvh::build(scene, params);
    return fromBinary(scene, binary, params.wide_width);
}

WideBvh
WideBvh::fromBinary(const Scene &scene, const BinaryBvh &binary,
                    int wide_width)
{
    (void)scene;
    WideBvh wide;
    SMS_ASSERT(wide_width >= 2 && wide_width <= kWideBvhWidth,
               "wide width %d out of range", wide_width);
    wide.wide_width_ = wide_width;
    if (binary.empty())
        return wide;
    wide.prim_indices_ = binary.primIndices();
    // Every wide node collapses at least one internal binary node, so
    // the binary tree's (n - 1) / 2 internal nodes bound the count.
    // Reserving that once spares the growing array its copies; the
    // pages of slots never written stay untouched.
    wide.nodes_.reserve(binary.nodes().size() / 2);
    wide.root_ref_ = wide.collapse(binary, binary.rootIndex());
    return wide;
}

WideBvh
WideBvh::fromParts(int wide_width, std::vector<WideNode> nodes,
                   std::vector<uint32_t> prim_indices, ChildRef root_ref)
{
    SMS_ASSERT(wide_width >= 2 && wide_width <= kWideBvhWidth,
               "wide width %d out of range", wide_width);
    WideBvh wide;
    wide.wide_width_ = wide_width;
    wide.nodes_ = std::move(nodes);
    wide.prim_indices_ = std::move(prim_indices);
    wide.root_ref_ = root_ref;
    return wide;
}

ChildRef
WideBvh::collapse(const BinaryBvh &binary, uint32_t binary_index)
{
    const auto &bnodes = binary.nodes();
    const BinaryNode &bnode = bnodes[binary_index];
    if (bnode.isLeaf()) {
        SMS_ASSERT(bnode.prim_count <= 63,
                   "leaf with %u prims exceeds ChildRef count field",
                   bnode.prim_count);
        return ChildRef::makeLeaf(bnode.prim_offset, bnode.prim_count);
    }

    // Gather up to kWideBvhWidth children by repeatedly expanding the
    // internal candidate with the largest surface area — the standard
    // greedy collapse used by wide-BVH builders.
    std::array<uint32_t, kWideBvhWidth> members{bnode.left, bnode.right};
    uint8_t count = 2;
    while (count < wide_width_) {
        int grow = -1;
        float best_area = -1.0f;
        for (uint8_t i = 0; i < count; ++i) {
            const BinaryNode &m = bnodes[members[i]];
            if (m.isLeaf())
                continue;
            float area = m.bounds.surfaceArea();
            if (area > best_area) {
                best_area = area;
                grow = static_cast<int>(i);
            }
        }
        if (grow < 0)
            break; // all members are leaves
        uint32_t victim = members[static_cast<size_t>(grow)];
        members[static_cast<size_t>(grow)] = bnodes[victim].left;
        members[count++] = bnodes[victim].right;
    }

    uint32_t node_index = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
    // Note: children are collapsed *after* reserving this node's slot, so
    // the nodes_ vector may reallocate; index via nodes_[node_index].
    std::array<ChildRef, kWideBvhWidth> refs;
    std::array<Aabb, kWideBvhWidth> bounds;
    for (uint8_t i = 0; i < count; ++i) {
        bounds[i] = bnodes[members[i]].bounds;
        refs[i] = collapse(binary, members[i]);
    }
    WideNode &node = nodes_[node_index];
    node.child_count = count;
    node.child_bounds = bounds;
    node.children = refs;
    return ChildRef::makeInternal(node_index);
}

uint64_t
WideBvh::primitiveAddress(const Scene &scene, uint32_t prim_id) const
{
    if (prim_id < scene.triangleCount())
        return kTriBase + prim_id * kTriBytes;
    return kSphereBase + (prim_id - scene.triangleCount()) * kSphereBytes;
}

uint64_t
WideBvh::primitiveFetchBytes(const Scene &scene, uint32_t prim_id) const
{
    return prim_id < scene.triangleCount() ? kTriBytes : kSphereBytes;
}

uint32_t
WideBvh::depthFrom(ChildRef ref) const
{
    if (!ref.isInternal())
        return 0;
    std::vector<std::pair<uint32_t, uint32_t>> stack{{ref.nodeIndex(), 1}};
    uint32_t max_depth = 0;
    while (!stack.empty()) {
        auto [idx, d] = stack.back();
        stack.pop_back();
        max_depth = std::max(max_depth, d);
        const WideNode &node = nodes_[idx];
        for (uint8_t i = 0; i < node.child_count; ++i)
            if (node.children[i].isInternal())
                stack.push_back({node.children[i].nodeIndex(), d + 1});
    }
    return max_depth;
}

WideBvhStats
WideBvh::computeStats(const Scene &scene) const
{
    WideBvhStats stats;
    stats.node_count = static_cast<uint32_t>(nodes_.size());
    uint64_t child_total = 0;
    uint64_t leaf_prim_total = 0;
    for (const WideNode &node : nodes_) {
        child_total += node.child_count;
        for (uint8_t i = 0; i < node.child_count; ++i) {
            if (node.children[i].isLeaf()) {
                ++stats.leaf_count;
                leaf_prim_total += node.children[i].primCount();
            }
        }
    }
    stats.max_depth = depthFrom(root_ref_);
    stats.avg_children =
        nodes_.empty() ? 0.0
                       : static_cast<double>(child_total) / nodes_.size();
    stats.avg_leaf_prims =
        stats.leaf_count == 0
            ? 0.0
            : static_cast<double>(leaf_prim_total) / stats.leaf_count;
    stats.footprint_bytes = nodes_.size() * kNodeBytes +
                            prim_indices_.size() * 4 +
                            scene.primitiveDataBytes();
    return stats;
}

} // namespace sms
