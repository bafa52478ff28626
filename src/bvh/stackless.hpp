/**
 * @file
 * Stackless wide-BVH traversal: parent/slot links plus the per-node
 * resume logic shared by the functional reference traverser and the
 * timing simulator.
 *
 * Instead of pushing far children, a stackless lane remembers only the
 * child reference it is visiting. When a subtree is exhausted it
 * follows the parent link stored in the node's 8-byte metadata word
 * (see WideBvh::kNodeBytes) back to the parent, re-tests the child
 * boxes, and continues with the first not-yet-visited child in the
 * nearest-first order intersectNodeChildren() would have produced.
 * Backtracking therefore re-fetches and re-tests interior nodes — the
 * architecture's overhead — but needs zero per-lane stack state and
 * generates zero stack traffic by construction.
 *
 * Agreement with the stack traversal (DESIGN.md invariant 2) rests on
 * two properties of the slab test in Aabb::intersect():
 *  - a child's entry distance t0 = max(tMin, per-axis near planes) does
 *    not depend on ray.tMax, so re-testing after tMax tightened yields
 *    the same t0 and the same (t0, slot) visit order; and
 *  - a child culled by a tightened tMax has t0 > tMax, and in exact
 *    arithmetic every primitive under it has t >= t0 > tMax, which the
 *    primitive test rejects.
 *
 * The second property does not hold in floats. A primitive on a leaf
 * box's entry face can intersect an ulp below the box's rounded t0.
 * The stack machine tests every sibling it pushed and accepts
 * t == tMax (the last accepted primitive wins), so on such an exact-t
 * tie it keeps a primitive this traversal culled on backtrack. That
 * happens on a few SPNZA lanes (docs/ARCHITECTURES.md §2); elsewhere
 * the hits, primitive id included, match.
 */

#ifndef SMS_BVH_STACKLESS_HPP
#define SMS_BVH_STACKLESS_HPP

#include <cstdint>
#include <vector>

#include "src/bvh/traverse.hpp"
#include "src/bvh/wide_bvh.hpp"

namespace sms {

/**
 * Parent/slot links for every interior node, the stackless analogue of
 * escape ropes. Pure function of the BVH topology; rebuilt on demand
 * (O(nodes)) rather than serialized with the snapshot.
 */
struct StacklessLinks
{
    /** parent[] value of the root node. */
    static constexpr uint32_t kNoParent = 0xffffffffu;

    /** Per interior node: parent node index (kNoParent for the root). */
    std::vector<uint32_t> parent;
    /** Per interior node: its child slot within the parent. */
    std::vector<uint8_t> slot;

    static StacklessLinks build(const WideBvh &bvh);

    bool empty() const { return parent.empty(); }
};

/** Per-slot box-test result of one interior node. */
struct SlotHits
{
    /**
     * Entry distance per child slot, computed for every slot (hit or
     * not) so a resume slot that has since been culled still orders
     * correctly.
     */
    std::array<float, kWideBvhWidth> t;
    /** Bit i set when child slot i overlaps [tMin, tMax]. */
    uint8_t hit_mask = 0;
    /** Ray-box tests performed (== child_count). */
    int tests = 0;
};

/**
 * Test all child slots of @p node. Bit-equivalent to calling
 * Aabb::intersect() per child (same float operations in the same
 * order), but additionally reports the entry distance of missed slots.
 */
SlotHits intersectNodeSlots(const WideNode &node, const Ray &ray);

/**
 * The next child slot to visit in nearest-first order.
 *
 * @param resume_slot slot the lane just returned from, or -1 on the
 *        first visit of the node
 * @return the hit slot with the smallest (t, slot) strictly after
 *         (t[resume_slot], resume_slot), or -1 to backtrack
 */
int nextStacklessSlot(const SlotHits &hits, int resume_slot);

/**
 * Reference closest-hit traversal through parent links; matches
 * traverseClosest() including the winning primitive id, except on the
 * exact-t ties described above.
 */
HitRecord traverseClosestStackless(const Scene &scene, const WideBvh &bvh,
                                   const StacklessLinks &links,
                                   const Ray &ray,
                                   TraversalCounters *counters = nullptr);

/** Reference any-hit traversal through parent links. */
bool traverseAnyHitStackless(const Scene &scene, const WideBvh &bvh,
                             const StacklessLinks &links, const Ray &ray,
                             TraversalCounters *counters = nullptr);

} // namespace sms

#endif // SMS_BVH_STACKLESS_HPP
