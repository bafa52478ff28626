/**
 * @file
 * Binned-SAH binary BVH builder.
 *
 * Standard top-down construction: at each node, primitives are binned by
 * centroid along each axis, the cheapest SAH split is chosen, and the
 * node becomes a leaf when small enough or when no split beats the leaf
 * cost.
 *
 * The build is parallel, and its output is byte for byte the serial
 * one. Nodes are numbered depth first, left subtree first, and leaves
 * take their primitive ranges in order, so a leaf's prim_offset is the
 * first index of its range and the refs' final order is the
 * primitive-index array. Near the root, a range of at least
 * kFragmentMinPrims primitives builds its two subtrees concurrently,
 * each into its own fragment: a region of the node array large enough
 * for any tree over its range. Once both are done, the right fragment
 * moves down to follow the left one and its child indices shift by the
 * distance moved, which leaves exactly the nodes a serial build writes.
 * Nothing is allocated per node.
 *
 * The worst-case node array (2n - 1 nodes) is left uninitialised, so
 * only the pages of nodes the build writes are ever touched; the tree
 * keeps about 0.63 n of them, copied out into an exactly sized
 * nodes() once the build is done.
 */

#include "src/bvh/binary_bvh.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace sms {

namespace {

/** Per-primitive build record. */
struct PrimRef
{
    Aabb bounds;
    Vec3 centroid;
    uint32_t id;
};

/** One SAH bin: bounds and primitive count. */
struct Bin
{
    Aabb bounds;
    uint32_t count = 0;
};

/**
 * Ranges of at least this many primitives, at depths below
 * kFragmentDepth, build their two subtrees as concurrent fragments: at
 * most four fragments, under the top two levels of the largest scenes.
 */
constexpr uint32_t kFragmentMinPrims = 32 * 1024;
constexpr uint32_t kFragmentDepth = 2;

/** Most nodes a tree over @p prims primitives can have. */
uint32_t
maxNodes(uint32_t prims)
{
    return 2 * prims - 1;
}

// Nodes live in raw storage from operator new, which creates them
// implicitly; they are only ever assigned whole, and never destroyed.
static_assert(std::is_aggregate_v<BinaryNode> &&
                  std::is_trivially_copyable_v<BinaryNode> &&
                  std::is_trivially_destructible_v<BinaryNode>,
              "BinaryNode must be an implicit-lifetime type");

struct OperatorDelete
{
    void operator()(BinaryNode *p) const { ::operator delete(p); }
};

/** Uninitialised room for @p count nodes. */
std::unique_ptr<BinaryNode, OperatorDelete>
allocateNodes(uint32_t count)
{
    return std::unique_ptr<BinaryNode, OperatorDelete>(
        static_cast<BinaryNode *>(
            ::operator new(sizeof(BinaryNode) * static_cast<size_t>(count))));
}

/**
 * Recursive builder over a mutable PrimRef span. It writes nodes into a
 * node array large enough for any tree over its range, from a given
 * index on, and owns the binning scratch it reuses at every node.
 */
class BinaryBuilder
{
  public:
    BinaryBuilder(BinaryNode *nodes, std::vector<PrimRef> &refs,
                  const BvhBuildParams &params, uint32_t first_node)
        : nodes_(nodes), refs_(refs), params_(params), nbins_(params.sah_bins),
          next_node_(first_node), bins_(3 * static_cast<size_t>(nbins_)),
          right_area_(static_cast<size_t>(nbins_)),
          right_count_(static_cast<size_t>(nbins_))
    {}

    /** Index after the last node this builder wrote. */
    uint32_t nextNode() const { return next_node_; }

    /**
     * Build the subtree over refs [begin, end) at the next free node and
     * return that node's index. Its fragments may use up to @p workers
     * threads.
     */
    uint32_t
    buildRange(uint32_t begin, uint32_t end, uint32_t depth, unsigned workers)
    {
        SMS_ASSERT(end > begin, "empty build range");
        uint32_t node_idx = next_node_++;
        BinaryNode node;
        Aabb centroid_bounds;
        for (uint32_t i = begin; i < end; ++i) {
            node.bounds.extend(refs_[i].bounds);
            centroid_bounds.extend(refs_[i].centroid);
        }

        uint32_t count = end - begin;
        if (count <= static_cast<uint32_t>(params_.max_leaf_prims))
            return makeLeaf(node_idx, node, begin, end);

        Split split = findSplit(begin, end, centroid_bounds);
        uint32_t mid;
        if (split.axis < 0) {
            // All centroids coincide: split in half by index.
            mid = begin + count / 2;
        } else {
            // Compare SAH split cost against the leaf cost.
            float leaf_cost = params_.prim_cost * count;
            float split_cost =
                2.0f * params_.node_cost +
                params_.prim_cost * split.cost /
                    std::max(node.bounds.surfaceArea(), 1.0e-12f);
            if (split_cost >= leaf_cost && count <= 8) {
                // SAH may terminate early only for small ranges; GPU
                // driver BVHs keep leaves tiny, and large leaves would
                // flatten the tree depth the paper's stacks exercise.
                return makeLeaf(node_idx, node, begin, end);
            }

            auto *split_point = std::partition(
                refs_.data() + begin, refs_.data() + end,
                [&](const PrimRef &r) {
                    return binIndex(r.centroid[split.axis], split.lo,
                                    split.scale) <= split.bin;
                });
            mid = static_cast<uint32_t>(split_point - refs_.data());
            if (mid == begin || mid == end)
                mid = begin + count / 2; // binning failed; fall back
        }

        if (count >= kFragmentMinPrims && depth < kFragmentDepth) {
            buildFragments(node, begin, mid, end, depth, workers);
        } else {
            node.left = buildRange(begin, mid, depth + 1, workers);
            node.right = buildRange(mid, end, depth + 1, workers);
        }
        nodes_[node_idx] = node;
        return node_idx;
    }

  private:
    /** Best SAH split of a range; axis -1 when every axis is degenerate. */
    struct Split
    {
        int axis = -1;
        int bin = -1;
        float cost = std::numeric_limits<float>::max();
        float lo = 0.0f;    ///< centroid minimum along axis
        float scale = 0.0f; ///< bins per unit along axis
    };

    int
    binIndex(float centroid, float lo, float scale) const
    {
        int b = static_cast<int>((centroid - lo) * scale);
        return std::clamp(b, 0, nbins_ - 1);
    }

    /** Bin all three axes in one pass, then score each axis's splits. */
    Split
    findSplit(uint32_t begin, uint32_t end, const Aabb &centroid_bounds)
    {
        float lo[3];
        float scale[3];
        bool usable[3];
        for (int axis = 0; axis < 3; ++axis) {
            lo[axis] = centroid_bounds.lo[axis];
            float extent = centroid_bounds.hi[axis] - lo[axis];
            // A degenerate axis (all centroids coincide) is not scored;
            // a zero scale bins it harmlessly into bin 0.
            usable[axis] = extent >= 1.0e-8f;
            scale[axis] = usable[axis] ? nbins_ / extent : 0.0f;
        }

        std::fill(bins_.begin(), bins_.end(), Bin());
        for (uint32_t i = begin; i < end; ++i) {
            const PrimRef &ref = refs_[i];
            for (int axis = 0; axis < 3; ++axis) {
                Bin &bin = bins_[axis * nbins_ +
                                 binIndex(ref.centroid[axis], lo[axis],
                                          scale[axis])];
                bin.bounds.extend(ref.bounds);
                bin.count += 1;
            }
        }

        Split best;
        for (int axis = 0; axis < 3; ++axis) {
            if (!usable[axis])
                continue;
            const Bin *bins = &bins_[axis * nbins_];
            // Sweep: suffix areas first, then prefix while scoring.
            Aabb acc;
            uint32_t cnt = 0;
            for (int b = nbins_ - 1; b > 0; --b) {
                acc.extend(bins[b].bounds);
                cnt += bins[b].count;
                right_area_[b] = acc.surfaceArea();
                right_count_[b] = cnt;
            }
            acc = Aabb();
            cnt = 0;
            for (int b = 0; b < nbins_ - 1; ++b) {
                acc.extend(bins[b].bounds);
                cnt += bins[b].count;
                if (cnt == 0 || right_count_[b + 1] == 0)
                    continue;
                float cost = acc.surfaceArea() * cnt +
                             right_area_[b + 1] * right_count_[b + 1];
                if (cost < best.cost) {
                    best.cost = cost;
                    best.axis = axis;
                    best.bin = b;
                    best.lo = lo[axis];
                    best.scale = scale[axis];
                }
            }
        }
        return best;
    }

    /**
     * Build the subtrees over [begin, mid) and [mid, end) as two
     * fragments, each with its own builder and its share of the
     * workers, then splice them in depth-first order after @p node.
     */
    void
    buildFragments(BinaryNode &node, uint32_t begin, uint32_t mid,
                   uint32_t end, uint32_t depth, unsigned workers)
    {
        const uint32_t ranges[3] = {begin, mid, end};
        const uint32_t bases[2] = {next_node_,
                                   next_node_ + maxNodes(mid - begin)};
        const unsigned shares[2] = {(workers + 1) / 2,
                                    std::max(workers / 2, 1u)};
        uint32_t node_ends[2] = {};
        parallelFor(
            2,
            [&](size_t side) {
                BinaryBuilder fragment(nodes_, refs_, params_, bases[side]);
                fragment.buildRange(ranges[side], ranges[side + 1],
                                    depth + 1, shares[side]);
                node_ends[side] = fragment.nextNode();
            },
            std::min(workers, 2u));

        // The right fragment moves down to follow the left one; its
        // internal child indices move with it.
        const uint32_t shift = bases[1] - node_ends[0];
        for (uint32_t i = bases[1]; i < node_ends[1]; ++i) {
            BinaryNode moved = nodes_[i];
            if (!moved.isLeaf()) {
                moved.left -= shift;
                moved.right -= shift;
            }
            nodes_[i - shift] = moved;
        }
        node.left = bases[0];
        node.right = node_ends[0];
        next_node_ = node_ends[1] - shift;
    }

    uint32_t
    makeLeaf(uint32_t node_idx, BinaryNode &node, uint32_t begin,
             uint32_t end)
    {
        node.prim_offset = begin;
        node.prim_count = static_cast<uint16_t>(end - begin);
        nodes_[node_idx] = node;
        return node_idx;
    }

    BinaryNode *nodes_;
    std::vector<PrimRef> &refs_;
    const BvhBuildParams &params_;
    const int nbins_;
    uint32_t next_node_;
    std::vector<Bin> bins_; ///< nbins_ per axis, axis-major
    std::vector<float> right_area_;
    std::vector<uint32_t> right_count_;
};

} // namespace

BinaryBvh
BinaryBvh::build(const Scene &scene, const BvhBuildParams &params)
{
    BinaryBvh bvh;
    uint32_t n = scene.primitiveCount();
    if (n == 0)
        return bvh;

    std::vector<PrimRef> refs(n);
    for (uint32_t i = 0; i < n; ++i) {
        refs[i].bounds = scene.primitiveBounds(i);
        refs[i].centroid = scene.primitiveCentroid(i);
        refs[i].id = i;
    }

    auto nodes = allocateNodes(maxNodes(n));
    BinaryBuilder builder(nodes.get(), refs, params, 0);
    builder.buildRange(0, n, 0, defaultThreadCount());
    bvh.nodes_.assign(nodes.get(), nodes.get() + builder.nextNode());
    bvh.prim_indices_.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        bvh.prim_indices_[i] = refs[i].id;
    return bvh;
}

uint32_t
BinaryBvh::depth() const
{
    if (nodes_.empty())
        return 0;
    // Iterative DFS to avoid recursion limits on deep trees.
    std::vector<std::pair<uint32_t, uint32_t>> stack{{0, 0}};
    uint32_t max_depth = 0;
    while (!stack.empty()) {
        auto [idx, d] = stack.back();
        stack.pop_back();
        max_depth = std::max(max_depth, d);
        const BinaryNode &node = nodes_[idx];
        if (!node.isLeaf()) {
            stack.push_back({node.left, d + 1});
            stack.push_back({node.right, d + 1});
        }
    }
    return max_depth;
}

double
BinaryBvh::sahCost(const BvhBuildParams &params) const
{
    if (nodes_.empty())
        return 0.0;
    double root_area = nodes_[0].bounds.surfaceArea();
    if (root_area <= 0.0)
        return 0.0;
    double cost = 0.0;
    for (const BinaryNode &node : nodes_) {
        double rel = node.bounds.surfaceArea() / root_area;
        cost += rel * (node.isLeaf() ? params.prim_cost * node.prim_count
                                     : params.node_cost);
    }
    return cost;
}

} // namespace sms
