/**
 * @file
 * Structural and behavioural tests of the BVH substrate: binary SAH
 * builder invariants, wide collapse, ChildRef encoding, and traversal
 * correctness against the brute-force oracle.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/bvh/binary_bvh.hpp"
#include "src/bvh/traverse.hpp"
#include "src/bvh/wide_bvh.hpp"
#include "src/scene/registry.hpp"
#include "src/util/rng.hpp"

namespace sms {
namespace {

Scene
randomTriangleSoup(uint32_t count, uint64_t seed)
{
    Scene scene;
    uint16_t mat = scene.addMaterial({});
    Pcg32 rng(seed);
    for (uint32_t i = 0; i < count; ++i) {
        Vec3 c{rng.nextRange(-10, 10), rng.nextRange(-10, 10),
               rng.nextRange(-10, 10)};
        auto jitter = [&]() {
            return Vec3{rng.nextRange(-0.5f, 0.5f),
                        rng.nextRange(-0.5f, 0.5f),
                        rng.nextRange(-0.5f, 0.5f)};
        };
        scene.addTriangle(
            Triangle(c + jitter(), c + jitter(), c + jitter()), mat);
    }
    // A few spheres exercise the unified primitive id space.
    for (uint32_t i = 0; i < count / 10 + 1; ++i) {
        scene.addSphere(Sphere({rng.nextRange(-10, 10),
                                rng.nextRange(-10, 10),
                                rng.nextRange(-10, 10)},
                               rng.nextRange(0.2f, 1.0f)),
                        mat);
    }
    return scene;
}

Ray
randomRay(Pcg32 &rng)
{
    Vec3 dir;
    do {
        dir = Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                   rng.nextRange(-1, 1)};
    } while (lengthSquared(dir) < 1e-4f);
    return Ray({rng.nextRange(-15, 15), rng.nextRange(-15, 15),
                rng.nextRange(-15, 15)},
               normalize(dir), 1e-4f);
}

// ---------------------------------------------------------------------
// ChildRef encoding
// ---------------------------------------------------------------------

TEST(ChildRef, DefaultInvalid)
{
    ChildRef ref;
    EXPECT_FALSE(ref.valid());
    EXPECT_FALSE(ref.isInternal());
    EXPECT_FALSE(ref.isLeaf());
}

TEST(ChildRef, InternalRoundTrip)
{
    ChildRef ref = ChildRef::makeInternal(123456);
    EXPECT_TRUE(ref.valid());
    EXPECT_TRUE(ref.isInternal());
    EXPECT_FALSE(ref.isLeaf());
    EXPECT_EQ(ref.nodeIndex(), 123456u);
    EXPECT_EQ(ChildRef::fromStackValue(ref.stackValue()), ref);
}

TEST(ChildRef, LeafRoundTrip)
{
    ChildRef ref = ChildRef::makeLeaf(99999, 37);
    EXPECT_TRUE(ref.isLeaf());
    EXPECT_EQ(ref.primOffset(), 99999u);
    EXPECT_EQ(ref.primCount(), 37u);
    EXPECT_EQ(ChildRef::fromStackValue(ref.stackValue()), ref);
}

// ---------------------------------------------------------------------
// Binary builder invariants
// ---------------------------------------------------------------------

class BinaryBvhTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BinaryBvhTest, EveryPrimitiveReferencedExactlyOnce)
{
    Scene scene = randomTriangleSoup(GetParam(), GetParam() * 31 + 7);
    BinaryBvh bvh = BinaryBvh::build(scene);
    ASSERT_FALSE(bvh.empty());

    std::multiset<uint32_t> referenced(bvh.primIndices().begin(),
                                       bvh.primIndices().end());
    EXPECT_EQ(referenced.size(), scene.primitiveCount());
    for (uint32_t p = 0; p < scene.primitiveCount(); ++p)
        EXPECT_EQ(referenced.count(p), 1u) << "primitive " << p;
}

TEST_P(BinaryBvhTest, ChildBoundsNestInParents)
{
    Scene scene = randomTriangleSoup(GetParam(), GetParam() * 17 + 3);
    BinaryBvh bvh = BinaryBvh::build(scene);
    const auto &nodes = bvh.nodes();
    for (const BinaryNode &node : nodes) {
        if (node.isLeaf()) {
            for (uint16_t i = 0; i < node.prim_count; ++i) {
                uint32_t prim =
                    bvh.primIndices()[node.prim_offset + i];
                EXPECT_TRUE(
                    node.bounds.contains(scene.primitiveBounds(prim)));
            }
        } else {
            EXPECT_TRUE(node.bounds.contains(nodes[node.left].bounds));
            EXPECT_TRUE(node.bounds.contains(nodes[node.right].bounds));
        }
    }
}

TEST_P(BinaryBvhTest, LeafSizesRespectLimit)
{
    BvhBuildParams params;
    Scene scene = randomTriangleSoup(GetParam(), GetParam() + 1);
    BinaryBvh bvh = BinaryBvh::build(scene, params);
    for (const BinaryNode &node : bvh.nodes()) {
        if (node.isLeaf()) {
            // SAH early termination may keep up to 8 primitives.
            EXPECT_LE(node.prim_count, 8);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BinaryBvhTest,
                         ::testing::Values(1u, 2u, 7u, 33u, 200u, 1500u));

TEST(BinaryBvh, EmptySceneGivesEmptyBvh)
{
    Scene scene;
    BinaryBvh bvh = BinaryBvh::build(scene);
    EXPECT_TRUE(bvh.empty());
}

TEST(BinaryBvh, CoincidentCentroidsStillSplit)
{
    // All triangles identical: centroid binning degenerates and the
    // builder must fall back to median splits without infinite
    // recursion.
    Scene scene;
    uint16_t mat = scene.addMaterial({});
    for (int i = 0; i < 64; ++i)
        scene.addTriangle(Triangle({0, 0, 0}, {1, 0, 0}, {0, 1, 0}), mat);
    BinaryBvh bvh = BinaryBvh::build(scene);
    EXPECT_EQ(bvh.primIndices().size(), 64u);
}

TEST(BinaryBvh, SahCostPositiveAndDepthSane)
{
    Scene scene = randomTriangleSoup(500, 99);
    BinaryBvh bvh = BinaryBvh::build(scene);
    EXPECT_GT(bvh.sahCost(), 0.0);
    EXPECT_GE(bvh.depth(), 5u);
    EXPECT_LE(bvh.depth(), 64u);
}

// ---------------------------------------------------------------------
// Wide collapse invariants
// ---------------------------------------------------------------------

class WideWidthTest : public ::testing::TestWithParam<int>
{
};

TEST_P(WideWidthTest, CollapseRespectsWidthAndKeepsPrims)
{
    BvhBuildParams params;
    params.wide_width = GetParam();
    Scene scene = randomTriangleSoup(600, 1234);
    WideBvh wide = WideBvh::build(scene, params);
    ASSERT_FALSE(wide.empty());

    std::multiset<uint32_t> referenced;
    uint64_t leaf_prims = 0;
    for (const WideNode &node : wide.nodes()) {
        EXPECT_GE(node.child_count, 2);
        EXPECT_LE(node.child_count, GetParam());
        for (uint8_t i = 0; i < node.child_count; ++i) {
            ASSERT_TRUE(node.children[i].valid());
            if (node.children[i].isLeaf()) {
                leaf_prims += node.children[i].primCount();
                for (uint32_t p = 0; p < node.children[i].primCount();
                     ++p) {
                    referenced.insert(
                        wide.primIndices()[node.children[i].primOffset() +
                                           p]);
                }
            }
        }
    }
    EXPECT_EQ(leaf_prims, scene.primitiveCount());
    for (uint32_t p = 0; p < scene.primitiveCount(); ++p)
        EXPECT_EQ(referenced.count(p), 1u);
}

TEST_P(WideWidthTest, TraversalMatchesBruteForce)
{
    BvhBuildParams params;
    params.wide_width = GetParam();
    Scene scene = randomTriangleSoup(400, 555);
    WideBvh wide = WideBvh::build(scene, params);

    Pcg32 rng(42);
    for (int i = 0; i < 200; ++i) {
        Ray ray = randomRay(rng);
        HitRecord ours = traverseClosest(scene, wide, ray);
        HitRecord oracle = scene.intersectBruteForce(ray);
        ASSERT_EQ(ours.valid(), oracle.valid()) << "ray " << i;
        if (ours.valid()) {
            EXPECT_NEAR(ours.t, oracle.t, 1e-3f);
            EXPECT_EQ(ours.primitive, oracle.primitive);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, WideWidthTest,
                         ::testing::Values(2, 3, 4, 6));

TEST(WideBvh, ChildBoundsNestAndDepthConsistent)
{
    Scene scene = makeScene(SceneId::BUNNY, ScaleProfile::Tiny);
    WideBvh wide = WideBvh::build(scene);
    const auto &nodes = wide.nodes();
    for (const WideNode &node : nodes) {
        for (uint8_t i = 0; i < node.child_count; ++i) {
            if (node.children[i].isInternal()) {
                const WideNode &child =
                    nodes[node.children[i].nodeIndex()];
                for (uint8_t j = 0; j < child.child_count; ++j) {
                    EXPECT_TRUE(node.child_bounds[i].contains(
                        child.child_bounds[j]));
                }
            }
        }
    }
    WideBvhStats stats = wide.computeStats(scene);
    EXPECT_EQ(stats.max_depth, wide.depthFrom(wide.rootRef()));
    EXPECT_GT(stats.avg_children, 2.0);
    EXPECT_LE(stats.avg_children, 6.0);
    EXPECT_GT(stats.footprint_bytes,
              scene.primitiveDataBytes());
}

TEST(WideBvh, AddressMapIsDisjointAndStrided)
{
    Scene scene = randomTriangleSoup(50, 8);
    WideBvh wide = WideBvh::build(scene);
    EXPECT_EQ(wide.nodeAddress(1) - wide.nodeAddress(0),
              WideBvh::kNodeBytes);
    // Triangle and sphere regions never overlap the node region.
    EXPECT_GE(wide.primitiveAddress(scene, 0), WideBvh::kTriBase);
    uint32_t sphere_id = scene.triangleCount();
    EXPECT_GE(wide.primitiveAddress(scene, sphere_id),
              WideBvh::kSphereBase);
    EXPECT_EQ(wide.primitiveFetchBytes(scene, 0), WideBvh::kTriBytes);
    EXPECT_EQ(wide.primitiveFetchBytes(scene, sphere_id),
              WideBvh::kSphereBytes);
}

// ---------------------------------------------------------------------
// Traversal semantics
// ---------------------------------------------------------------------

TEST(Traverse, ChildrenSortedNearestFirst)
{
    Scene scene = randomTriangleSoup(300, 77);
    WideBvh wide = WideBvh::build(scene);
    Pcg32 rng(3);
    for (int i = 0; i < 50; ++i) {
        Ray ray = randomRay(rng);
        for (const WideNode &node : wide.nodes()) {
            ChildHits hits = intersectNodeChildren(node, ray);
            for (int c = 1; c < hits.count; ++c)
                EXPECT_LE(hits.t[c - 1], hits.t[c]);
            EXPECT_EQ(hits.tests, node.child_count);
        }
        if (i >= 2)
            break; // a few rays over every node is plenty
    }
}

TEST(Traverse, AnyHitConsistentWithClosest)
{
    Scene scene = randomTriangleSoup(300, 31);
    WideBvh wide = WideBvh::build(scene);
    Pcg32 rng(13);
    for (int i = 0; i < 300; ++i) {
        Ray ray = randomRay(rng);
        bool any = traverseAnyHit(scene, wide, ray);
        bool closest = traverseClosest(scene, wide, ray).valid();
        EXPECT_EQ(any, closest);
    }
}

TEST(Traverse, CountersAreConsistent)
{
    Scene scene = randomTriangleSoup(300, 19);
    WideBvh wide = WideBvh::build(scene);
    Pcg32 rng(1);
    TraversalCounters ctr;
    Ray ray = randomRay(rng);
    traverseClosest(scene, wide, ray, &ctr);
    // Every visit tests at least two children; pushes can't exceed
    // box hits; pops never exceed pushes.
    EXPECT_GE(ctr.box_tests, 2 * ctr.nodes_visited);
    EXPECT_LE(ctr.stack_pops, ctr.stack_pushes);
    if (ctr.leaf_visits > 0) {
        EXPECT_GT(ctr.prim_tests, 0u);
    }
}

TEST(Traverse, RespectsTmaxSegment)
{
    Scene scene;
    uint16_t mat = scene.addMaterial({});
    scene.addTriangle(Triangle({-1, -1, 5}, {1, -1, 5}, {0, 1, 5}), mat);
    WideBvh wide = WideBvh::build(scene);
    Ray short_ray({0, 0, 0}, {0, 0, 1}, 1e-4f, 3.0f);
    EXPECT_FALSE(traverseClosest(scene, wide, short_ray).valid());
    Ray long_ray({0, 0, 0}, {0, 0, 1}, 1e-4f, 8.0f);
    EXPECT_TRUE(traverseClosest(scene, wide, long_ray).valid());
}

TEST(Traverse, EmptyBvhMisses)
{
    Scene scene;
    WideBvh wide = WideBvh::build(scene);
    Ray ray({0, 0, 0}, {0, 0, 1});
    EXPECT_FALSE(traverseClosest(scene, wide, ray).valid());
    EXPECT_FALSE(traverseAnyHit(scene, wide, ray));
}

TEST(Traverse, SceneSuiteSpotCheckAgainstBruteForce)
{
    // End-to-end traversal correctness on real (Tiny) generated scenes.
    for (SceneId id : {SceneId::SHIP, SceneId::WKND, SceneId::BATH}) {
        Scene scene = makeScene(id, ScaleProfile::Tiny);
        WideBvh wide = WideBvh::build(scene);
        Pcg32 rng(static_cast<uint64_t>(id) + 100);
        Aabb bounds = scene.bounds();
        Vec3 c = bounds.centroid();
        float r = length(bounds.extent());
        for (int i = 0; i < 60; ++i) {
            Vec3 origin = c + Vec3{rng.nextRange(-r, r),
                                   rng.nextRange(-r, r),
                                   rng.nextRange(-r, r)};
            Vec3 target = c + Vec3{rng.nextRange(-r / 4, r / 4),
                                   rng.nextRange(-r / 4, r / 4),
                                   rng.nextRange(-r / 4, r / 4)};
            if (lengthSquared(target - origin) < 1e-6f)
                continue;
            Ray ray(origin, normalize(target - origin), 1e-3f);
            HitRecord ours = traverseClosest(scene, wide, ray);
            HitRecord oracle = scene.intersectBruteForce(ray);
            ASSERT_EQ(ours.valid(), oracle.valid())
                << sceneName(id) << " ray " << i;
            if (ours.valid()) {
                EXPECT_NEAR(ours.t, oracle.t, 1e-2f);
            }
        }
    }
}

} // namespace
} // namespace sms
