/**
 * @file
 * Competing-traversal-architecture tests: stackless parent-link
 * structure, bit-identical differential traversal against the stack
 * reference (closest and any-hit, randomized scenes), end-to-end
 * simulation against the functional oracle (zero stack traffic, the
 * stall.arch.backtrack accounting leaf, zero-epsilon conservation),
 * one tape replayed under two stack configurations, and
 * variant/result-cache digest distinctness. test_variant_pins pins
 * both machines' tapes and results byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/bvh/stackless.hpp"
#include "src/bvh/traverse.hpp"
#include "src/bvh/wide_bvh.hpp"
#include "src/scene/registry.hpp"
#include "src/serve/result_cache.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/trace/render.hpp"
#include "src/util/rng.hpp"

namespace sms {
namespace {

Scene
randomSoup(uint32_t count, uint64_t seed)
{
    Scene scene;
    uint16_t mat = scene.addMaterial({});
    Pcg32 rng(seed);
    for (uint32_t i = 0; i < count; ++i) {
        Vec3 c{rng.nextRange(-50, 50), rng.nextRange(-50, 50),
               rng.nextRange(-50, 50)};
        auto jitter = [&]() {
            return Vec3{rng.nextRange(-2.0f, 2.0f),
                        rng.nextRange(-2.0f, 2.0f),
                        rng.nextRange(-2.0f, 2.0f)};
        };
        scene.addTriangle(
            Triangle(c + jitter(), c + jitter(), c + jitter()), mat);
    }
    for (uint32_t i = 0; i < count / 8 + 1; ++i)
        scene.addSphere(Sphere({rng.nextRange(-50, 50),
                                rng.nextRange(-50, 50),
                                rng.nextRange(-50, 50)},
                               rng.nextRange(0.3f, 3.0f)),
                        mat);
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
    return Ray({rng.nextRange(-60, 60), rng.nextRange(-60, 60),
                rng.nextRange(-60, 60)},
               normalize(dir), 1e-4f);
}

// ---------------------------------------------------------------------
// Architecture configuration arithmetic
// ---------------------------------------------------------------------

TEST(TraversalArchConfig, NamesAndEquality)
{
    EXPECT_FALSE(TraversalArchConfig::stack().active());
    EXPECT_TRUE(TraversalArchConfig::stackless().active());
    EXPECT_STREQ(TraversalArchConfig::stack().name(), "stack");
    EXPECT_STREQ(TraversalArchConfig::stackless().name(), "sl");

    EXPECT_EQ(TraversalArchConfig::stackless(),
              TraversalArchConfig::stackless());
    EXPECT_NE(TraversalArchConfig::stack(),
              TraversalArchConfig::stackless());
}

TEST(TraversalArchConfig, VariantDigestsAreDistinct)
{
    GpuConfig base = makeGpuConfig(StackConfig::sms());
    GpuConfig sl = base;
    sl.traversal_arch = TraversalArchConfig::stackless();

    EXPECT_EQ(base.variant().digest(), 0u);
    EXPECT_NE(sl.variant().digest(), 0u);

    // The architecture also keys the result cache.
    EXPECT_NE(gpuConfigDigest(sl), gpuConfigDigest(base));

    // And the display tag names it.
    EXPECT_EQ(sl.variant().tag(), "sl");
}

// ---------------------------------------------------------------------
// Parent links
// ---------------------------------------------------------------------

TEST(StacklessLinks, ParentSlotInverseOfChildEdges)
{
    Scene scene = randomSoup(400, 17);
    WideBvh bvh = WideBvh::build(scene);
    StacklessLinks links = StacklessLinks::build(bvh);
    ASSERT_EQ(links.parent.size(), bvh.nodes().size());
    ASSERT_EQ(links.slot.size(), bvh.nodes().size());

    // Every interior child edge has a matching parent/slot entry.
    for (size_t n = 0; n < bvh.nodes().size(); ++n) {
        const WideNode &node = bvh.nodes()[n];
        for (uint8_t c = 0; c < node.child_count; ++c) {
            if (!node.children[c].isInternal())
                continue;
            uint32_t child = node.children[c].nodeIndex();
            EXPECT_EQ(links.parent[child], static_cast<uint32_t>(n));
            EXPECT_EQ(links.slot[child], c);
        }
    }
    // Exactly one root.
    size_t roots = 0;
    for (uint32_t p : links.parent)
        if (p == StacklessLinks::kNoParent)
            ++roots;
    EXPECT_EQ(roots, 1u);
    if (bvh.rootRef().isInternal()) {
        EXPECT_EQ(links.parent[bvh.rootRef().nodeIndex()],
                  StacklessLinks::kNoParent);
    }
}

// ---------------------------------------------------------------------
// Differential traversal (functional reference)
// ---------------------------------------------------------------------

TEST(StacklessTraversal, ClosestHitBitIdenticalToStack)
{
    for (uint64_t seed : {3u, 19u, 71u}) {
        Scene scene = randomSoup(500, seed);
        WideBvh bvh = WideBvh::build(scene);
        StacklessLinks links = StacklessLinks::build(bvh);
        Pcg32 rng(seed * 7919 + 1);
        for (int r = 0; r < 400; ++r) {
            Ray ray = randomRay(rng);
            TraversalCounters sc{}, lc{};
            HitRecord a = traverseClosest(scene, bvh, ray, &sc);
            HitRecord b =
                traverseClosestStackless(scene, bvh, links, ray, &lc);
            ASSERT_EQ(b.valid(), a.valid())
                << "seed " << seed << " ray " << r;
            if (a.valid()) {
                // Bit-identical, including the winning primitive: on
                // these soups no primitive lies on the entry face of a
                // leaf the stackless re-test culls, which is the one
                // way a culled leaf could still win an exact-t tie.
                EXPECT_EQ(b.t, a.t) << "seed " << seed << " ray " << r;
                EXPECT_EQ(b.primitive, a.primitive)
                    << "seed " << seed << " ray " << r;
                EXPECT_EQ(b.kind, a.kind);
            }
            // The stack machine visits every leaf it pushed even after
            // tMax tightened past it; the stackless re-test culls such
            // leaves on backtrack, so it does at most the stack
            // machine's leaf work — with zero stack operations.
            EXPECT_LE(lc.leaf_visits, sc.leaf_visits);
            EXPECT_LE(lc.prim_tests, sc.prim_tests);
            EXPECT_EQ(lc.stack_pushes, 0u);
            EXPECT_EQ(lc.stack_pops, 0u);
        }
    }
}

TEST(StacklessTraversal, AnyHitMatchesStack)
{
    Scene scene = randomSoup(500, 23);
    WideBvh bvh = WideBvh::build(scene);
    StacklessLinks links = StacklessLinks::build(bvh);
    Pcg32 rng(555);
    size_t hits = 0;
    for (int r = 0; r < 400; ++r) {
        Ray ray = randomRay(rng);
        bool a = traverseAnyHit(scene, bvh, ray);
        bool b = traverseAnyHitStackless(scene, bvh, links, ray);
        EXPECT_EQ(b, a) << "ray " << r;
        hits += a;
    }
    // The soup is dense enough that both outcomes occur.
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, 400u);
}

// ---------------------------------------------------------------------
// End-to-end simulation
// ---------------------------------------------------------------------

class TraversalArchWorkload : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload_ = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    }
    static void TearDownTestSuite() { workload_.reset(); }

    static std::shared_ptr<Workload> workload_;
};

std::shared_ptr<Workload> TraversalArchWorkload::workload_;

TEST_F(TraversalArchWorkload, StacklessMatchesOracleWithZeroStackTraffic)
{
    SimResult base =
        runWorkload(*workload_, makeGpuConfig(StackConfig::baseline(8)));

    GpuConfig config = makeGpuConfig(StackConfig::baseline(8));
    config.traversal_arch = TraversalArchConfig::stackless();
    SimResult r = runWorkload(*workload_, config);

    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_EQ(r.rays, base.rays);
    // Stack traffic is zero by construction, not merely reduced.
    EXPECT_EQ(r.stack.pushes, 0u);
    EXPECT_EQ(r.stack.pops, 0u);
    EXPECT_EQ(r.stack.global_stores, 0u);
    EXPECT_EQ(r.stack.global_loads, 0u);
    EXPECT_EQ(r.dram.by_class[static_cast<int>(TrafficClass::Stack)], 0u);
    EXPECT_EQ(r.l1_class_misses[static_cast<int>(TrafficClass::Stack)],
              0u);
    // Backtracking re-visits cost extra node work, surfaced in the
    // dedicated accounting leaf; conservation still closes exactly.
    EXPECT_GT(r.ops.node_visits, base.ops.node_visits);
    EXPECT_GT(r.accounting.leaf(CycleLeaf::StallArchBacktrack), 0u);
    EXPECT_TRUE(r.accounting.conserved());
}

TEST_F(TraversalArchWorkload, ArchTapeReplaysUnderAnyStackConfig)
{
    // One stackless tape drives the timing model under two stack
    // configurations (the repo-wide tape contract); the traversal work
    // counters are configuration-independent.
    GpuConfig rb = makeGpuConfig(StackConfig::baseline(8));
    rb.traversal_arch = TraversalArchConfig::stackless();
    TraversalTape tape = buildWorkloadTape(*workload_, rb.variant());
    SimOptions options;
    options.tape = &tape;
    SimResult a = runWorkload(*workload_, rb, options);

    GpuConfig sms = makeGpuConfig(StackConfig::sms());
    sms.traversal_arch = TraversalArchConfig::stackless();
    SimResult b = runWorkload(*workload_, sms, options);

    EXPECT_EQ(b.ops.node_visits, a.ops.node_visits);
    EXPECT_EQ(b.ops.leaf_visits, a.ops.leaf_visits);
    EXPECT_EQ(b.ops.prim_tests, a.ops.prim_tests);
    EXPECT_EQ(b.ops.box_tests, a.ops.box_tests);
    EXPECT_EQ(b.stack.pushes, 0u);
    EXPECT_TRUE(b.accounting.conserved());
}

} // namespace
} // namespace sms
