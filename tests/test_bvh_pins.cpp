/**
 * @file
 * Pins the bytes the BVH builder produces. The tree is the paper's
 * experimental input: its depth profile drives every RB/SH spill, so a
 * faster builder must reproduce it exactly.
 *
 * For all 16 scenes at Tiny and at Small, a 64-bit hash of the built
 * WideBvh must equal the committed constant. The hash covers the root
 * reference, every node's child-bound float bits, child references and
 * child count, and the primitive-index array. Scenes of at least 32 K
 * primitives are large enough that the binary builder splits their top
 * levels into concurrently built fragments; the test counts the
 * parallelFor regions to see that the split ran. The envelope
 * bodies of the Tiny BUNNY .wkld snapshot and .tape (magic through the
 * last body byte) are hashed too, so the cache writers are pinned byte
 * for byte; the trailing checksum is checked against xxh64() of that
 * body.
 *
 * Six seeded synthetic scenes, built through Scene::addTriangle, drive
 * the builder's edge paths, and a hash of every binary node (bound bits,
 * children, primitive range) and of the primitive-index array pins each
 * of them:
 * - every centroid coincident, so every node halves by index;
 * - every triangle in one plane, so one axis has zero extent;
 * - a cluster narrower than the usable extent on every axis, so every
 *   primitive lands in bin 0, plus one far outlier, so the root has two
 *   occupied bins per axis and one split to score;
 * - duplicate triangles in shuffled order;
 * - triangle minima of +0 and -0, so a node's minimum takes the sign of
 *   the last zero in primitive order (min keeps the later of two equal
 *   values);
 * - coordinates near +-1e30, whose surface areas overflow to infinity.
 *
 * Every constant here was produced by the builder at commit 43ea3fa,
 * before its binning and SAH sweep were rewritten.
 *
 * ctest runs this binary twice, once as is and once with SMS_THREADS=1,
 * against the same constants: the output may not depend on the number
 * of threads that built it.
 *
 * The binary builder writes into worst-case storage (2n - 1 nodes); the
 * tree it returns must hold exactly the nodes it keeps, so that the
 * worst-case array never outlives the build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "src/bvh/binary_bvh.hpp"
#include "src/trace/cache_io.hpp"
#include "src/trace/render.hpp"
#include "src/trace/workload_cache.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace sms {
namespace {

uint64_t
hashU32(uint64_t h, uint32_t v)
{
    return fnv1a(&v, sizeof v, h);
}

uint64_t
hashFloat(uint64_t h, float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return hashU32(h, bits);
}

uint64_t
wideBvhHash(const WideBvh &bvh)
{
    uint64_t h = hashU32(0xcbf29ce484222325ull, bvh.rootRef().bits());
    h = hashU32(h, static_cast<uint32_t>(bvh.nodes().size()));
    for (const WideNode &node : bvh.nodes()) {
        for (int c = 0; c < kWideBvhWidth; ++c) {
            for (int axis = 0; axis < 3; ++axis) {
                h = hashFloat(h, node.child_bounds[c].lo[axis]);
                h = hashFloat(h, node.child_bounds[c].hi[axis]);
            }
            h = hashU32(h, node.children[c].bits());
        }
        h = hashU32(h, node.child_count);
    }
    h = hashU32(h, static_cast<uint32_t>(bvh.primIndices().size()));
    for (uint32_t idx : bvh.primIndices())
        h = hashU32(h, idx);
    return h;
}

uint64_t
binaryBvhHash(const BinaryBvh &bvh)
{
    uint64_t h = hashU32(0xcbf29ce484222325ull,
                         static_cast<uint32_t>(bvh.nodes().size()));
    for (const BinaryNode &node : bvh.nodes()) {
        for (int axis = 0; axis < 3; ++axis) {
            h = hashFloat(h, node.bounds.lo[axis]);
            h = hashFloat(h, node.bounds.hi[axis]);
        }
        h = hashU32(h, node.left);
        h = hashU32(h, node.right);
        h = hashU32(h, node.prim_offset);
        h = hashU32(h, node.prim_count);
    }
    h = hashU32(h, static_cast<uint32_t>(bvh.primIndices().size()));
    for (uint32_t idx : bvh.primIndices())
        h = hashU32(h, idx);
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

/**
 * FNV-1a of a cache file's envelope body, magic to last body byte,
 * after checking that the trailing 8 bytes are its XXH64 checksum.
 */
uint64_t
bodyHash(const std::string &path)
{
    std::string data;
    EXPECT_TRUE(readFile(path, data)) << path;
    if (data.size() < 16)
        return 0;
    const size_t body = data.size() - 8;
    uint64_t sum;
    std::memcpy(&sum, data.data() + body, sizeof sum);
    EXPECT_EQ(hex(sum), hex(xxh64(data.data(), body))) << path;
    return fnv1a(data.data(), body);
}

std::atomic<uint64_t> g_regions{0};

void
countRegion(unsigned, size_t)
{
    g_regions.fetch_add(1, std::memory_order_relaxed);
}

struct BvhPin
{
    SceneId scene;
    ScaleProfile profile;
    uint32_t primitives;
    uint32_t fragment_splits; ///< parallelFor regions of the build
    uint64_t hash;
};

// clang-format off
const BvhPin kBvhPins[] = {
    {SceneId::WKND, ScaleProfile::Tiny, 382, 0, 0x0a510424d26e8e6d},
    {SceneId::SPRNG, ScaleProfile::Tiny, 28658, 0, 0x5162b44106c44f51},
    {SceneId::FOX, ScaleProfile::Tiny, 602, 0, 0x9b9b5c1ed6d64cd4},
    {SceneId::LANDS, ScaleProfile::Tiny, 50952, 1, 0xb3de51903194e74c},
    {SceneId::CRNVL, ScaleProfile::Tiny, 17886, 0, 0x8358270b608d3cf8},
    {SceneId::SPNZA, ScaleProfile::Tiny, 10706, 0, 0x745bd1ac0a456025},
    {SceneId::BATH, ScaleProfile::Tiny, 510, 0, 0x47eaa6c67c845d5f},
    {SceneId::ROBOT, ScaleProfile::Tiny, 2602, 0, 0x9f193c5669ce5e59},
    {SceneId::CAR, ScaleProfile::Tiny, 1810, 0, 0x93589e21ff615d9c},
    {SceneId::PARTY, ScaleProfile::Tiny, 36530, 1, 0xf554492129abd812},
    {SceneId::FRST, ScaleProfile::Tiny, 29354, 0, 0x7904bd7acb5b43d0},
    {SceneId::BUNNY, ScaleProfile::Tiny, 590, 0, 0x560dc7c278352c46},
    {SceneId::SHIP, ScaleProfile::Tiny, 818, 0, 0x3bdcc16c793f8c97},
    {SceneId::REF, ScaleProfile::Tiny, 351, 0, 0xee4565ee777c2cd0},
    {SceneId::CHSNT, ScaleProfile::Tiny, 23528, 0, 0xa37aa17a7f2e3d99},
    {SceneId::PARK, ScaleProfile::Tiny, 44574, 1, 0x3e764180c21e2047},
    {SceneId::WKND, ScaleProfile::Small, 4386, 0, 0xb1bf65b8a3634702},
    {SceneId::SPRNG, ScaleProfile::Small, 308680, 3, 0xea2ee159eefa796e},
    {SceneId::FOX, ScaleProfile::Small, 123050, 2, 0x9b3178d9798e6bf8},
    {SceneId::LANDS, ScaleProfile::Small, 416800, 3, 0x703d266c25b7d6cf},
    {SceneId::CRNVL, ScaleProfile::Small, 184802, 2, 0x3102a6f9c65e0a72},
    {SceneId::SPNZA, ScaleProfile::Small, 115278, 2, 0x51f5095a42a9a31d},
    {SceneId::BATH, ScaleProfile::Small, 3174, 0, 0x824531a0e84ab436},
    {SceneId::ROBOT, ScaleProfile::Small, 172202, 2, 0x719292dd6ebcb7ef},
    {SceneId::CAR, ScaleProfile::Small, 121922, 2, 0x938641c6885d0553},
    {SceneId::PARTY, ScaleProfile::Small, 374586, 3, 0x34a72f8b4fbbe802},
    {SceneId::FRST, ScaleProfile::Small, 410272, 3, 0xdd46e575de59401d},
    {SceneId::BUNNY, ScaleProfile::Small, 41150, 1, 0x3e8f7a31ebaf2229},
    {SceneId::SHIP, ScaleProfile::Small, 2392, 0, 0x8d7b1ea9d0d117c1},
    {SceneId::REF, ScaleProfile::Small, 3436, 0, 0x6777f7dc262ed233},
    {SceneId::CHSNT, ScaleProfile::Small, 260592, 2, 0x74f4bb4136f1d697},
    {SceneId::PARK, ScaleProfile::Small, 610914, 3, 0xab249691ae645330},
};
constexpr uint64_t kTinyBunnySnapshotBodyHash = 0xb191dc72e9b5efae;
constexpr uint64_t kTinyBunnyTapeBodyHash = 0x5c26c1aed7c6deaa;
// clang-format on

TEST(BvhPins, WideBvhBytesMatchCommittedHashes)
{
    setParallelForHooks(countRegion, nullptr);
    for (const BvhPin &pin : kBvhPins) {
        Scene scene = makeScene(pin.scene, pin.profile);
        g_regions = 0;
        WideBvh bvh = WideBvh::build(scene);
        EXPECT_EQ(scene.primitiveCount(), pin.primitives)
            << sceneName(pin.scene);
        // One region per range split into two fragments; the largest
        // Small scenes must take that path, or the pins test the serial
        // one.
        EXPECT_EQ(g_regions.load(), pin.fragment_splits)
            << sceneName(pin.scene);
        EXPECT_EQ(hex(wideBvhHash(bvh)), hex(pin.hash))
            << sceneName(pin.scene);
    }
    setParallelForHooks(nullptr, nullptr);
}

/** Integer-valued float in [-bound, bound]. */
float
integer(Pcg32 &rng, uint32_t bound)
{
    int draw = static_cast<int>(rng.nextBounded(2 * bound + 1));
    return static_cast<float>(draw - static_cast<int>(bound));
}

Vec3
uniformPoint(Pcg32 &rng, float lo, float hi)
{
    float x = rng.nextRange(lo, hi);
    float y = rng.nextRange(lo, hi);
    float z = rng.nextRange(lo, hi);
    return {x, y, z};
}

/**
 * Integer vertices a, b and -(a + b): every sum is exact, so every
 * centroid is exactly the origin and every node halves by index.
 */
Scene
coincidentCentroids()
{
    Scene scene;
    uint16_t m = scene.addMaterial(Material{});
    Pcg32 rng(0xc0c0);
    for (int i = 0; i < 3000; ++i) {
        Vec3 a{integer(rng, 64), integer(rng, 64), integer(rng, 64)};
        Vec3 b{integer(rng, 64), integer(rng, 64), integer(rng, 64)};
        scene.addTriangle(Triangle(a, b, -(a + b)), m);
    }
    return scene;
}

/** Triangles in the plane z = 0.5: the z axis has zero extent. */
Scene
zeroExtentAxis()
{
    Scene scene;
    uint16_t m = scene.addMaterial(Material{});
    Pcg32 rng(0x2e50);
    for (int i = 0; i < 4000; ++i) {
        float x = rng.nextRange(-10.0f, 10.0f);
        float y = rng.nextRange(-10.0f, 10.0f);
        float dx = rng.nextRange(0.01f, 0.3f);
        float dy = rng.nextRange(0.01f, 0.3f);
        scene.addTriangle(Triangle({x, y, 0.5f}, {x + dx, y, 0.5f},
                                   {x, y + dy, 0.5f}),
                          m);
    }
    return scene;
}

/**
 * 2000 triangles whose centroids span less than the builder's smallest
 * usable extent (1e-8) on every axis, so each axis bins every primitive
 * into bin 0, and one triangle far away: the root sees two occupied
 * bins per axis, every node below it halves by index.
 */
Scene
oneBin()
{
    Scene scene;
    uint16_t m = scene.addMaterial(Material{});
    Pcg32 rng(0x0b1e);
    for (int i = 0; i < 2000; ++i) {
        Vec3 p{1.0e-10f * static_cast<float>(rng.nextBounded(40)),
               1.0e-10f * static_cast<float>(rng.nextBounded(40)),
               1.0e-10f * static_cast<float>(rng.nextBounded(40))};
        Vec3 d = uniformPoint(rng, 0.0f, 1.0e-10f);
        scene.addTriangle(Triangle(p, p + Vec3{d.x, 0, 0},
                                   p + Vec3{0, d.y, d.z}),
                          m);
    }
    scene.addTriangle(Triangle({1, 1, 1}, {1.5f, 1, 1}, {1, 1.5f, 1}), m);
    return scene;
}

/** 500 random triangles, each present 1-8 times, in shuffled order. */
Scene
duplicateTriangles()
{
    Scene scene;
    uint16_t m = scene.addMaterial(Material{});
    Pcg32 rng(0xd0b1);
    std::vector<Triangle> tris;
    for (int i = 0; i < 500; ++i) {
        Vec3 p = uniformPoint(rng, -5.0f, 5.0f);
        Vec3 q = p + uniformPoint(rng, -0.5f, 0.5f);
        Triangle t(p, q, p + uniformPoint(rng, -0.5f, 0.5f));
        uint32_t copies = 1 + rng.nextBounded(8);
        for (uint32_t c = 0; c < copies; ++c)
            tris.push_back(t);
    }
    for (size_t i = tris.size() - 1; i > 0; --i)
        std::swap(tris[i], tris[rng.nextBounded(static_cast<uint32_t>(i + 1))]);
    for (const Triangle &t : tris)
        scene.addTriangle(t, m);
    return scene;
}

/**
 * 40,000 triangles (enough for a fragment split at the root) with x >= 0
 * and y <= 0, whose x minimum is +0, -0 or positive and whose y maximum
 * is +0, -0 or negative, a third each. A node's stored minimum or
 * maximum is then a zero whose sign is that of the last zero in the
 * node's primitive order.
 */
Scene
signedZeroBounds()
{
    Scene scene;
    uint16_t m = scene.addMaterial(Material{});
    Pcg32 rng(0x5e20);
    auto edge = [&](float positive) {
        uint32_t kind = rng.nextBounded(3);
        return kind == 0 ? 0.0f : kind == 1 ? -0.0f : positive;
    };
    for (int i = 0; i < 40000; ++i) {
        float x0 = edge(rng.nextRange(0.0f, 8.0f));
        float y1 = -edge(rng.nextRange(0.0f, 8.0f));
        float x1 = x0 + rng.nextRange(0.01f, 2.0f);
        float y0 = y1 - rng.nextRange(0.01f, 2.0f);
        float z = rng.nextRange(-8.0f, 8.0f);
        scene.addTriangle(Triangle({x0, y0, z}, {x1, y1, z},
                                   {x1, y0, z + rng.nextRange(0.01f, 2.0f)}),
                          m);
    }
    return scene;
}

/**
 * A quarter of the triangles near (+1e30, 0, 0), a quarter near
 * (-1e30, 0, 0) and half near the origin, in shuffled order. Every node
 * that holds a far triangle has an infinite surface area.
 */
Scene
hugeCoordinates()
{
    Scene scene;
    uint16_t m = scene.addMaterial(Material{});
    Pcg32 rng(0x1e30);
    for (int i = 0; i < 3000; ++i) {
        uint32_t kind = rng.nextBounded(4);
        float cx = kind == 0 ? 1.0e30f : kind == 1 ? -1.0e30f : 0.0f;
        float s = kind < 2 ? 1.0e27f : 5.0f;
        Vec3 p{cx + rng.nextRange(-s, s), rng.nextRange(-s, s),
               rng.nextRange(-s, s)};
        float d = s * 0.05f;
        Vec3 q = p + uniformPoint(rng, -d, d);
        scene.addTriangle(Triangle(p, q, p + uniformPoint(rng, -d, d)), m);
    }
    return scene;
}

struct SyntheticPin
{
    const char *name;
    Scene (*make)();
    uint32_t primitives;
    uint64_t hash; ///< binaryBvhHash()
};

// clang-format off
const SyntheticPin kSyntheticPins[] = {
    {"coincidentCentroids", coincidentCentroids, 3000, 0xf2290547c50fe644},
    {"zeroExtentAxis", zeroExtentAxis, 4000, 0x6c0f65ddca82e61d},
    {"oneBin", oneBin, 2001, 0xd9986a90b99178a8},
    {"duplicateTriangles", duplicateTriangles, 2257, 0xe39acc033e2856d5},
    {"signedZeroBounds", signedZeroBounds, 40000, 0x79c9e97528070c9a},
    {"hugeCoordinates", hugeCoordinates, 3000, 0x5e09eb922fa1d9cd},
};
// clang-format on

TEST(BvhPins, SyntheticEdgeScenesMatchCommittedHashes)
{
    for (const SyntheticPin &pin : kSyntheticPins) {
        Scene scene = pin.make();
        BinaryBvh bvh = BinaryBvh::build(scene);
        EXPECT_EQ(scene.primitiveCount(), pin.primitives) << pin.name;
        EXPECT_EQ(hex(binaryBvhHash(bvh)), hex(pin.hash)) << pin.name;
    }
}

TEST(BvhPins, BinaryNodeStorageIsExact)
{
    Scene scene = makeScene(SceneId::FOX, ScaleProfile::Small);
    BinaryBvh bvh = BinaryBvh::build(scene);
    EXPECT_EQ(bvh.nodes().capacity(), bvh.nodes().size());
    EXPECT_LT(bvh.nodes().size(), 2 * scene.primitiveCount() - 1);
}

TEST(BvhPins, TinyBunnyCacheFilesMatchCommittedHashes)
{
    const std::string dir = "/tmp/sms_bvh_pins_" +
                            std::to_string(static_cast<long>(::getpid()));
    auto w = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    ASSERT_TRUE(saveWorkloadSnapshot(dir, *w, w->profile, w->params));
    ASSERT_TRUE(saveTraversalTape(
        dir, *w, buildWorkloadTape(*w, TraversalVariant{})));
    std::string snapshot =
        workloadSnapshotPath(dir, w->id, w->profile, w->params);
    std::string tape = traversalTapePath(dir, w->id, w->profile, w->params);
    EXPECT_EQ(hex(bodyHash(snapshot)), hex(kTinyBunnySnapshotBodyHash));
    EXPECT_EQ(hex(bodyHash(tape)), hex(kTinyBunnyTapeBodyHash));
    std::remove(snapshot.c_str());
    std::remove(tape.c_str());
    ::rmdir(dir.c_str());
}

} // namespace
} // namespace sms
