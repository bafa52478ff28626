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
 *
 * The hot loops work four floats at a time and skip empty bins, yet
 * produce the bits of the scalar sweep over every bin: DESIGN.md §3,
 * "The exactness contract of the build's hot loops", says what may
 * change order and what may not.
 */

#include "src/bvh/binary_bvh.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

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

/**
 * Four floats in one vector register (a GCC/Clang vector extension, so
 * one code path on every target). The builder reads each PrimRef as
 * three overlapping unaligned rows of four floats: the bounds' minimum,
 * the bounds' maximum and the centroid. The fourth lane of a row holds
 * the next field and is never used.
 */
typedef float Float4 __attribute__((vector_size(16)));
typedef int32_t Int4 __attribute__((vector_size(16)));

constexpr size_t kLoRow = offsetof(PrimRef, bounds);
constexpr size_t kHiRow = offsetof(PrimRef, bounds) + offsetof(Aabb, hi);
constexpr size_t kCentroidRow = offsetof(PrimRef, centroid);
static_assert(sizeof(PrimRef) == 40 && kHiRow == 12 && kCentroidRow == 24,
              "every PrimRef row must lie inside the record");

Float4
loadRow(const PrimRef &ref, size_t row)
{
    Float4 v;
    std::memcpy(&v, reinterpret_cast<const char *>(&ref) + row, sizeof v);
    return v;
}

/** Lane-wise sms::min and sms::max: a tie keeps the second operand. */
Float4
min4(Float4 a, Float4 b)
{
    return a < b ? a : b;
}

Float4
max4(Float4 a, Float4 b)
{
    return a > b ? a : b;
}

constexpr float kMax = std::numeric_limits<float>::max();
constexpr float kLowest = std::numeric_limits<float>::lowest();
/** The rows of an empty Aabb. */
constexpr Float4 kEmptyLo = {kMax, kMax, kMax, kMax};
constexpr Float4 kEmptyHi = {kLowest, kLowest, kLowest, kLowest};

Aabb
toAabb(Float4 lo, Float4 hi)
{
    return Aabb({lo[0], lo[1], lo[2]}, {hi[0], hi[1], hi[2]});
}

/**
 * Aabb::surfaceArea() of the box in lanes 0-2, with the same operations
 * in the same order: 0 for an empty box, else
 * 2 * ((ex * ey + ey * ez) + ez * ex).
 */
float
surfaceArea(Float4 lo, Float4 hi)
{
    if (lo[0] > hi[0] || lo[1] > hi[1] || lo[2] > hi[2])
        return 0.0f;
    const Float4 e = hi - lo;
    const Float4 p = e * __builtin_shufflevector(e, e, 1, 2, 0, 3);
    return 2.0f * (p[0] + p[1] + p[2]);
}

/**
 * One SAH bin: the union of its primitives' bounds, in lanes 0-2, and
 * their count, on one cache line.
 */
struct alignas(64) Bin
{
    Float4 lo = kEmptyLo;
    Float4 hi = kEmptyHi;
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
    {
        // Each axis keeps its occupied bins as the bits of one int lane,
        // set from a float 2^bin that an int holds exactly up to 2^30.
        SMS_ASSERT(nbins_ >= 1 && nbins_ <= 31, "sah_bins must be 1..31");
    }

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
        // The node's bounds fold its primitives in order, as
        // Aabb::extend would: a tie between +0 and -0 keeps the later.
        Float4 lo = kEmptyLo, hi = kEmptyHi;
        Float4 centroid_lo = kEmptyLo, centroid_hi = kEmptyHi;
        for (uint32_t i = begin; i < end; ++i) {
            const PrimRef &ref = refs_[i];
            lo = min4(lo, loadRow(ref, kLoRow));
            hi = max4(hi, loadRow(ref, kHiRow));
            Float4 c = loadRow(ref, kCentroidRow);
            centroid_lo = min4(centroid_lo, c);
            centroid_hi = max4(centroid_hi, c);
        }
        BinaryNode node;
        node.bounds = toAabb(lo, hi);

        uint32_t count = end - begin;
        if (count <= static_cast<uint32_t>(params_.max_leaf_prims))
            return makeLeaf(node_idx, node, begin, end);

        Split split =
            findSplit(begin, end, toAabb(centroid_lo, centroid_hi));
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

            mid = partition(begin, end, split);
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

    /**
     * Bin all three axes in one pass, then score each axis's splits and
     * empty the bins that were used.
     */
    Split
    findSplit(uint32_t begin, uint32_t end, const Aabb &centroid_bounds)
    {
        float lo[3] = {};
        float scale[3] = {};
        bool usable[3] = {};
        for (int axis = 0; axis < 3; ++axis) {
            lo[axis] = centroid_bounds.lo[axis];
            float extent = centroid_bounds.hi[axis] - lo[axis];
            // A degenerate axis (all centroids coincide) is not scored;
            // a zero scale bins it harmlessly into bin 0.
            usable[axis] = extent >= 1.0e-8f;
            scale[axis] = usable[axis] ? nbins_ / extent : 0.0f;
        }

        // A ref's bin on each axis is (centroid - lo) * scale, truncated
        // and clamped to [0, nbins - 1], all three axes at once.
        const int nbins = nbins_;
        const Float4 lo4 = {lo[0], lo[1], lo[2], 0.0f};
        const Float4 scale4 = {scale[0], scale[1], scale[2], 0.0f};
        const Int4 zero = {0, 0, 0, 0};
        const Int4 last_bin = {nbins - 1, nbins - 1, nbins - 1, 0};
        const Int4 first_bin = {0, nbins, 2 * nbins, 0};
        Bin *const bins = bins_.data();
        // Bins are addressed by byte offset, computed with the indices.
        char *const bin_bytes = reinterpret_cast<char *>(bins);
        auto add = [&](int offset, Float4 ref_lo, Float4 ref_hi) {
            Bin *bin = reinterpret_cast<Bin *>(
                bin_bytes + static_cast<uint32_t>(offset));
            bin->lo = min4(bin->lo, ref_lo);
            bin->hi = max4(bin->hi, ref_hi);
            bin->count += 1;
        };
        Int4 occupied = zero;
        for (uint32_t i = begin; i < end; ++i) {
            const PrimRef &ref = refs_[i];
            Float4 c = loadRow(ref, kCentroidRow);
            // Lane 3 holds the id's bits, a denormal as a float; repeat
            // lane 2 there so that no lane computes on a denormal.
            c = __builtin_shufflevector(c, c, 0, 1, 2, 2);
            Int4 b = __builtin_convertvector((c - lo4) * scale4, Int4);
            b = b < zero ? zero : b;
            b = b > last_bin ? last_bin : b;
            // 1 << b: the float 2^b, built in its exponent, as an int.
            occupied |= __builtin_convertvector(
                __builtin_bit_cast(Float4, (b + 127) << 23), Int4);
            const Int4 k = (b + first_bin) * static_cast<int>(sizeof(Bin));
            const Float4 ref_lo = loadRow(ref, kLoRow);
            const Float4 ref_hi = loadRow(ref, kHiRow);
            add(k[0], ref_lo, ref_hi);
            add(k[1], ref_lo, ref_hi);
            add(k[2], ref_lo, ref_hi);
        }

        Split best;
        for (int axis = 0; axis < 3; ++axis) {
            Bin *axis_bins = bins + axis * nbins;
            int used[32];
            int n = 0;
            for (uint32_t m = static_cast<uint32_t>(occupied[axis]); m != 0;
                 m &= m - 1)
                used[n++] = __builtin_ctz(m);
            if (usable[axis])
                scoreAxis(axis, axis_bins, used, n, lo[axis], scale[axis],
                          best);
            for (int j = 0; j < n; ++j)
                axis_bins[used[j]] = Bin();
        }
        return best;
    }

    /**
     * Score one axis's splits: suffix areas first, then prefix while
     * scoring. Only the splits after its @p n occupied bins @p used
     * (ascending) are scored. A split after an empty bin has the
     * partition and the cost of the split after the occupied bin before
     * it, since an empty bin leaves a union of bins as it is, and the
     * strict < keeps the earlier of two equal costs.
     */
    void
    scoreAxis(int axis, const Bin *bins, const int *used, int n, float lo,
              float scale, Split &best)
    {
        Float4 acc_lo = kEmptyLo, acc_hi = kEmptyHi;
        uint32_t cnt = 0;
        for (int j = n - 1; j > 0; --j) {
            acc_lo = min4(acc_lo, bins[used[j]].lo);
            acc_hi = max4(acc_hi, bins[used[j]].hi);
            cnt += bins[used[j]].count;
            right_area_[j] = surfaceArea(acc_lo, acc_hi);
            right_count_[j] = cnt;
        }
        acc_lo = kEmptyLo;
        acc_hi = kEmptyHi;
        cnt = 0;
        for (int j = 0; j < n - 1; ++j) {
            acc_lo = min4(acc_lo, bins[used[j]].lo);
            acc_hi = max4(acc_hi, bins[used[j]].hi);
            cnt += bins[used[j]].count;
            float cost = surfaceArea(acc_lo, acc_hi) * cnt +
                         right_area_[j + 1] * right_count_[j + 1];
            if (cost < best.cost) {
                best.cost = cost;
                best.axis = axis;
                best.bin = used[j];
                best.lo = lo;
                best.scale = scale;
            }
        }
    }

    /**
     * Move the refs of [begin, end) whose centroid bins at most
     * split.bin on split.axis to the front, and return where the others
     * start. The refs are permuted exactly as libstdc++'s std::partition
     * (bidirectional) would, without its branches: that swaps the i-th
     * ref from the front that goes right with the i-th ref from the back
     * that goes left, which are the i-th out-of-place refs on either side
     * of the split point. One pass marks each ref's side in a bit mask,
     * the second swaps those pairs.
     */
    uint32_t
    partition(uint32_t begin, uint32_t end, const Split &split)
    {
        const uint32_t count = end - begin;
        const uint32_t words = (count + 63) / 64;
        if (goes_left_.size() < words)
            goes_left_.resize(words);
        uint64_t *goes_left = goes_left_.data();
        PrimRef *refs = refs_.data() + begin;
        // A ref's bin is its truncated offset clamped to [0, nbins - 1];
        // split.bin < nbins - 1, so the unclamped offset decides alike.
        const size_t at =
            kCentroidRow + sizeof(float) * static_cast<size_t>(split.axis);
        uint32_t left = 0;
        for (uint32_t w = 0; w < words; ++w) {
            const uint32_t first = 64 * w;
            const uint32_t last = std::min(first + 64, count);
            // Each ref's bit enters at the top; after the last, the
            // word's bit j is ref first + j.
            uint64_t bits = 0;
            for (uint32_t i = first; i < last; ++i) {
                float c;
                std::memcpy(&c, reinterpret_cast<const char *>(&refs[i]) + at,
                            sizeof c);
                bool goes = static_cast<int>((c - split.lo) * split.scale) <=
                            split.bin;
                bits = bits >> 1 | uint64_t{goes} << 63;
            }
            bits >>= 64 - (last - first);
            goes_left[w] = bits;
            left += static_cast<uint32_t>(__builtin_popcountll(bits));
        }

        // Out of place: a 0 bit before the split point (word w of the
        // front) and a 1 bit after it (word w of the back). Both sides
        // hold as many, so the front running out ends the swaps.
        auto front = [&](uint32_t w) {
            const uint32_t before = left - 64 * w;
            return ~goes_left[w] &
                   (before >= 64 ? ~uint64_t{0} : (uint64_t{1} << before) - 1);
        };
        auto back = [&](uint32_t w) {
            const uint32_t skip = left > 64 * w ? left - 64 * w : 0;
            return skip >= 64 ? 0 : goes_left[w] & (~uint64_t{0} << skip);
        };
        uint32_t fw = 0, bw = words - 1;
        uint64_t fbits = left > 0 ? front(0) : 0;
        uint64_t bbits = back(bw);
        while (true) {
            while (fbits == 0) {
                if (64 * ++fw >= left)
                    return begin + left;
                fbits = front(fw);
            }
            while (bbits == 0)
                bbits = back(--bw);
            const int low = __builtin_ctzll(fbits);
            const int top = 63 - __builtin_clzll(bbits);
            std::swap(refs[64 * fw + static_cast<uint32_t>(low)],
                      refs[64 * bw + static_cast<uint32_t>(top)]);
            fbits &= fbits - 1;
            bbits ^= uint64_t{1} << top;
        }
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
    std::vector<Bin> bins_;         ///< nbins_ per axis, axis-major
    std::vector<float> right_area_; ///< per occupied bin, while scoring
    std::vector<uint32_t> right_count_;
    std::vector<uint64_t> goes_left_; ///< one bit per ref, while partitioning
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
