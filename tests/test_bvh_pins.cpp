/**
 * @file
 * Pins the bytes the BVH builder produces. The tree is the paper's
 * experimental input: its depth profile drives every RB/SH spill, so a
 * faster builder must reproduce it exactly.
 *
 * For Tiny WKND, BUNNY and SHIP and for Small FOX (123 K primitives)
 * and CHSNT (261 K), a 64-bit hash of the built WideBvh must equal the
 * committed constant. The hash covers the root reference, every node's
 * child-bound float bits, child references and child count, and the
 * primitive-index array. Both Small scenes are large enough that the
 * binary builder splits their top levels into concurrently built
 * fragments; the test counts the parallelFor regions to see that the
 * split ran. The envelope bodies of the Tiny BUNNY .wkld snapshot and
 * .tape (magic through the last body byte) are hashed too, so the cache
 * writers are pinned byte for byte; the trailing checksum is checked
 * against xxh64() of that body.
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
    {SceneId::BUNNY, ScaleProfile::Tiny, 590, 0, 0x560dc7c278352c46},
    {SceneId::SHIP, ScaleProfile::Tiny, 818, 0, 0x3bdcc16c793f8c97},
    {SceneId::FOX, ScaleProfile::Small, 123050, 2, 0x9b3178d9798e6bf8},
    {SceneId::CHSNT, ScaleProfile::Small, 260592, 2, 0x74f4bb4136f1d697},
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
        // One region per range split into two fragments; the Small
        // scenes must take that path, or the pins test the serial one.
        EXPECT_EQ(g_regions.load(), pin.fragment_splits)
            << sceneName(pin.scene);
        EXPECT_EQ(hex(wideBvhHash(bvh)), hex(pin.hash))
            << sceneName(pin.scene);
    }
    setParallelForHooks(nullptr, nullptr);
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
