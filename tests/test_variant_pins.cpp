/**
 * @file
 * Pins every traversal variant: for Tiny WKND, BUNNY and SHIP under
 * six variants (default, q8, mort, q8+mort, sl, q8+sl) and four stack
 * configurations, a 64-bit hash of each
 * (scene, variant) traversal tape and of every cell's SimResult JSON
 * must equal the committed constants.
 *
 * The sweep runs with a workload cache, so each (scene, variant)
 * tape is written to disk and read back here for hashing. The hashes
 * cover the per-job tape bytes, step counts and oracle mismatches, and
 * the full toJson(SimResult) dump, so any change to the quantized,
 * reordered or stackless machines, or to the timing model they drive,
 * shows up as a changed constant.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/stats/report.hpp"
#include "src/trace/render.hpp"
#include "src/trace/workload_cache.hpp"

namespace sms {
namespace {

/** RAII environment-variable override (null value unsets). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_old_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_old_;
    std::string old_;
};

/** FNV-1a over @p n bytes, continuing from @p h. */
uint64_t
fnv(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t
fnvU64(uint64_t h, uint64_t v)
{
    return fnv(h, &v, sizeof v);
}

uint64_t
tapeHash(const TraversalTape &tape)
{
    uint64_t h = fnvU64(kFnvOffset, tape.jobs.size());
    for (const JobTape &job : tape.jobs) {
        h = fnvU64(h, job.steps);
        h = fnvU64(h, job.mismatches);
        h = fnvU64(h, job.bytes.size());
        h = fnv(h, job.bytes.data(), job.bytes.size());
    }
    return h;
}

uint64_t
resultHash(const SimResult &r)
{
    std::string json = toJson(r).dump();
    return fnv(kFnvOffset, json.data(), json.size());
}

struct NamedVariant
{
    const char *name;
    TraversalVariant variant;
};

std::vector<NamedVariant>
pinnedVariants()
{
    const NodeLayoutConfig q8 = NodeLayoutConfig::quantized(8);
    const RayOrderConfig mort = RayOrderConfig::octantMorton();
    const TraversalArchConfig sl = TraversalArchConfig::stackless();
    const NodeLayoutConfig exact = NodeLayoutConfig::exact();
    const RayOrderConfig none = RayOrderConfig::none();
    const TraversalArchConfig stack = TraversalArchConfig::stack();
    return {
        {"default", {exact, none, stack}}, {"q8", {q8, none, stack}},
        {"mort", {exact, mort, stack}},    {"q8+mort", {q8, mort, stack}},
        {"sl", {exact, none, sl}},         {"q8+sl", {q8, none, sl}},
    };
}

const StackConfig kStacks[] = {
    StackConfig::baseline(8), StackConfig::baseline(2),
    StackConfig::withSh(8, 8), StackConfig::sms(4, 4)};
constexpr size_t kStackCount = sizeof kStacks / sizeof kStacks[0];

/** Committed hashes of one (scene, variant) group. */
struct Pin
{
    const char *scene;
    const char *variant;
    uint64_t tape;
    uint64_t results[kStackCount]; ///< in kStacks order
};

// clang-format off
const Pin kPins[] = {
    {"WKND", "default", 0x632e33a05acbc6f6, {0x0f080e68a025eaa7, 0x0f56b0d7d7836a75, 0x0f080e68a025eaa7, 0x400a3cc8cad23c68}},
    {"WKND", "q8", 0x3a4b06854f11539d, {0x7158e197cccba2fb, 0x1115d21d08bf36f5, 0xd3b6fb2eee1ee51a, 0x7b2a5898a72e31e9}},
    {"WKND", "mort", 0x912e4680980eab17, {0x03b6bb6d90f90b7b, 0x4f1a166c2d5c61dd, 0x03b6bb6d90f90b7b, 0x4960363558e5e2f4}},
    {"WKND", "q8+mort", 0x1d0c161672131eb5, {0x9f2eacc75fdf04ea, 0xbe4df40eb940f133, 0x2e9e045a4ade7333, 0x4f1249f0aa88b1df}},
    {"WKND", "sl", 0xff0c234b6550fc8e, {0x15b3e994b80a12aa, 0x15b3e994b80a12aa, 0x15b3e994b80a12aa, 0x15b3e994b80a12aa}},
    {"WKND", "q8+sl", 0x2b3c736a121cd4cd, {0x8f9bf61e5498f9fe, 0x8f9bf61e5498f9fe, 0x8f9bf61e5498f9fe, 0x8f9bf61e5498f9fe}},
    {"BUNNY", "default", 0x6c4bbfc418dd3fa6, {0x853282298f29dff2, 0x6dfc29b94429ccd0, 0x01d4f9f7363b3f4f, 0x3e2bb38d0ff6b849}},
    {"BUNNY", "q8", 0x89ca6e1a093589df, {0x11ca177828c16ab8, 0xf7e7ca58a6f4a02b, 0xede8c249cf18a3fb, 0xf05833b8ae5ac454}},
    {"BUNNY", "mort", 0x32c3987945228b24, {0xa031a7110d3736d8, 0x1dc866400e440756, 0x4838cd378fd8f819, 0x33f53f14e107c404}},
    {"BUNNY", "q8+mort", 0x1135f4ef4ffd6196, {0x7d10724276ff80bc, 0x87f4a7c073787c83, 0x30a2f3b9f4867e40, 0xc2cc436d1feb38b5}},
    {"BUNNY", "sl", 0x5373e82470663b62, {0x1cd833f97459989e, 0x1cd833f97459989e, 0x1cd833f97459989e, 0x1cd833f97459989e}},
    {"BUNNY", "q8+sl", 0x050da5dbedf2bf0f, {0xe1652b9f365f58c2, 0xe1652b9f365f58c2, 0xe1652b9f365f58c2, 0xe1652b9f365f58c2}},
    {"SHIP", "default", 0x427ad73d2ba16d3a, {0x7b87b2dd0cd0c25f, 0x9935439ed6520c37, 0xfed3241ae021da94, 0x73a1298adf7894de}},
    {"SHIP", "q8", 0x9ecbd45b502f8c51, {0xd86bc926463b06a4, 0x4f011338c06c977a, 0x73c922e7488f5913, 0x6aea87e03e0f07f4}},
    {"SHIP", "mort", 0xc69c4e1b7ad7cda7, {0x0a3138ab0f8b0c8b, 0xce5c4d194f3f3a82, 0xbc31c17005ab82e9, 0x75498a4e4e86720c}},
    {"SHIP", "q8+mort", 0x9a10d08379c76b7f, {0x84e7fc056e48fd01, 0x66ad4279d909dc3f, 0xadd4418b21e5054e, 0xb523bfc29d1a6f02}},
    {"SHIP", "sl", 0x76af2a104c22d7b0, {0xd0844aec04109577, 0xd0844aec04109577, 0xd0844aec04109577, 0xd0844aec04109577}},
    {"SHIP", "q8+sl", 0x8015f0232e0361c3, {0xf31eef79a74a4eba, 0xf31eef79a74a4eba, 0xf31eef79a74a4eba, 0xf31eef79a74a4eba}},
};
// clang-format on

const Pin *
findPin(const std::string &scene, const std::string &variant)
{
    for (const Pin &pin : kPins)
        if (scene == pin.scene && variant == pin.variant)
            return &pin;
    return nullptr;
}

TEST(VariantPins, TapesAndResultsMatchCommittedHashes)
{
    std::vector<std::shared_ptr<Workload>> workloads;
    for (SceneId id : {SceneId::WKND, SceneId::BUNNY, SceneId::SHIP})
        workloads.push_back(prepareWorkload(id, ScaleProfile::Tiny));

    const std::vector<NamedVariant> variants = pinnedVariants();
    std::vector<benchutil::SweepColumn> columns;
    for (const NamedVariant &v : variants)
        for (const StackConfig &stack : kStacks) {
            benchutil::SweepColumn col;
            col.stack = stack;
            col.layout = v.variant.layout;
            col.order = v.variant.order;
            col.arch = v.variant.arch;
            columns.push_back(col);
        }

    // The workload cache makes the sweep persist every group's tape,
    // which is read back below.
    const std::string dir = "/tmp/sms_variant_pins_" +
                            std::to_string(static_cast<long>(::getpid()));
    const std::string rm = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(rm.c_str());
    ScopedEnv cache("SMS_WORKLOAD_CACHE", dir.c_str());
    ScopedEnv results("SMS_RESULT_CACHE", nullptr);
    ScopedEnv shards("SMS_SWEEP_SHARDS", nullptr);
    benchutil::SweepResult sweep = benchutil::runSweep(workloads, columns, 4);

    for (size_t s = 0; s < workloads.size(); ++s) {
        const std::string scene = sweep.sceneLabel(s);
        for (size_t v = 0; v < variants.size(); ++v) {
            TraversalTape tape;
            ASSERT_TRUE(loadTraversalTape(dir, *workloads[s],
                                          variants[v].variant, tape))
                << scene << " " << variants[v].name << ": no tape";
            Pin got{nullptr, nullptr, tapeHash(tape), {}};
            for (size_t k = 0; k < kStackCount; ++k)
                got.results[k] =
                    resultHash(sweep.results[s][v * kStackCount + k]);

            char line[256];
            std::snprintf(line, sizeof line,
                          "    {\"%s\", \"%s\", 0x%016" PRIx64
                          ", {0x%016" PRIx64 ", 0x%016" PRIx64
                          ", 0x%016" PRIx64 ", 0x%016" PRIx64 "}},",
                          scene.c_str(), variants[v].name, got.tape,
                          got.results[0], got.results[1], got.results[2],
                          got.results[3]);
            const Pin *pin = findPin(scene, variants[v].name);
            if (!pin) {
                ADD_FAILURE() << "no pin for\n" << line;
                continue;
            }
            EXPECT_EQ(got.tape, pin->tape) << "tape moved:\n" << line;
            for (size_t k = 0; k < kStackCount; ++k)
                EXPECT_EQ(got.results[k], pin->results[k])
                    << kStacks[k].name() << " result moved:\n"
                    << line;
        }
    }
    rc = std::system(rm.c_str());
}

} // namespace
} // namespace sms
