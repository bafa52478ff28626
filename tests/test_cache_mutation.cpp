/**
 * @file
 * Mutation tests for the three cache-envelope readers: the Tiny BUNNY
 * .wkld snapshot, its .tape and one .res result entry (rendered at
 * 8x8, 1 spp, so each file is small enough to mutate thousands of
 * times).
 *
 * Each pristine file is mutated three ways:
 *  - truncated at every field boundary, found by walking the format
 *    (the .res at every byte, which includes them);
 *  - one bit flipped: every bit of the header and of every count or
 *    size field the walk finds, and one bit at a fixed stride through
 *    the body (the .res at every byte) and the checksum;
 *  - both of the above again, resealed: the checksum is recomputed, so
 *    the mutant passes the envelope check and the parser must judge it.
 *
 * Every mutant as written, every resealed truncation and every resealed
 * header flip must be a counted failure. A resealed body flip may load,
 * since the envelope cannot tell a flipped float from a real one, but it
 * must not crash. No load, of any mutant, may make a single allocation
 * larger than 64 times the pristine file (a global operator new records
 * the largest request). One mutant of each kind then goes through the
 * production path, which must count the failure and rebuild the file.
 *
 * A resealed snapshot may also name what it does not hold: a node, a
 * primitive range or index, a job or a warp past the end of its array.
 * Replay follows those references unchecked, so a set of such mutants,
 * each built at a reference field the walk locates, must be counted
 * failures too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <new>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/serve/result_cache.hpp"
#include "src/trace/cache_io.hpp"
#include "src/trace/render.hpp"
#include "src/trace/workload_cache.hpp"

namespace {
/** Largest single operator new request since the last reset. */
std::atomic<size_t> g_largest{0};
} // namespace

void *
operator new(std::size_t size)
{
    size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_largest.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed))
        ;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, as in test_replay_allocations.cpp: inlined, the free()
// draws GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace sms {
namespace {

/** RAII environment-variable override. */
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

/** Fresh per-test directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const char *tag)
        : path_(std::string("/tmp/sms_cache_mutation_") + tag + "_" +
                std::to_string(static_cast<long>(::getpid())))
    {
        std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
    ~TempDir()
    {
        std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** @p file with its trailing checksum recomputed over its body. */
std::string
resealed(std::string file)
{
    uint64_t sum = xxh64(file.data(), file.size() - 8);
    std::memcpy(&file[file.size() - 8], &sum, sizeof sum);
    return file;
}

/** Where a walk found the fields of a pristine file. */
struct Fields
{
    std::vector<size_t> ends{0}; ///< offset after each field
    /** First byte and width of each count or size field. */
    std::vector<std::pair<size_t, size_t>> sizes;
};

/**
 * Walks a pristine file field by field, as its writer appended them,
 * and records the offset where each field ends.
 */
class FieldWalker
{
  public:
    explicit FieldWalker(const std::string &file) : file_(file) {}

    void
    skip(size_t n)
    {
        off_ += n;
        fields_.ends.push_back(off_);
    }

    /** A u32 or u64 count or size field; returns its value. */
    uint64_t
    size(size_t width)
    {
        fields_.sizes.push_back({off_, width});
        return width == 4 ? u32() : u64();
    }

    uint8_t
    u8()
    {
        uint8_t v = static_cast<uint8_t>(file_.at(off_));
        skip(1);
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        std::memcpy(&v, file_.data() + off_, sizeof v);
        skip(4);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        std::memcpy(&v, file_.data() + off_, sizeof v);
        skip(8);
        return v;
    }

    void
    vec3()
    {
        skip(4);
        skip(4);
        skip(4);
    }

    size_t offset() const { return off_; }
    const Fields &fields() const { return fields_; }

  private:
    const std::string &file_;
    size_t off_ = 0;
    Fields fields_;
};

/** Where snapshotFields() found the references a snapshot holds. */
struct SnapshotRefs
{
    size_t root = 0;                 ///< the root reference
    uint64_t nodes = 0;              ///< node count
    std::vector<size_t> node_starts; ///< each node's first byte
    std::vector<size_t> leaf_refs;   ///< every leaf child reference
    /** Every internal child reference: where, in which node, to which. */
    struct Internal
    {
        size_t at;
        uint32_t parent;
        uint32_t target;
    };
    std::vector<Internal> internal_refs;
    size_t first_index = 0;          ///< primitive index 0
    uint64_t indices = 0;            ///< primitive-index count
    std::vector<size_t> job_starts;  ///< each job's job_id field
};

/** Offset of child reference @p c in the node record at @p node. */
size_t
childRefAt(size_t node, int c)
{
    return node + static_cast<size_t>(c) * (6 * 4 + 4) + 6 * 4;
}

/** Offset of the child count in the node record at @p node. */
size_t
childCountAt(size_t node)
{
    return node + kWideBvhWidth * (6 * 4 + 4);
}

/**
 * The fields of a .wkld v2 snapshot, through its last body byte; with
 * @p refs, also where its references are.
 */
Fields
snapshotFields(const std::string &file, SnapshotRefs *refs = nullptr)
{
    SnapshotRefs found;
    FieldWalker w(file);
    w.skip(8); // magic
    w.u32();   // version
    w.u64();   // build-schema hash
    w.u8();    // scene id
    w.u8();    // profile
    for (int i = 0; i < 4; ++i)
        w.u32(); // width, height, spp, max bounces
    w.u8();      // shadow rays
    w.u64();     // seed
    found.root = w.offset();
    w.u32(); // root reference
    uint64_t nodes = w.size(8);
    found.nodes = nodes;
    for (uint64_t n = 0; n < nodes; ++n) {
        found.node_starts.push_back(w.offset());
        std::vector<size_t> leaves;
        std::vector<SnapshotRefs::Internal> internals;
        for (int c = 0; c < kWideBvhWidth; ++c) {
            w.vec3();
            w.vec3();
            size_t at = w.offset();
            ChildRef ref = ChildRef::fromBits(w.u32());
            if (ref.isLeaf())
                leaves.push_back(at);
            if (ref.isInternal())
                internals.push_back({at, static_cast<uint32_t>(n),
                                     ref.nodeIndex()});
        }
        uint8_t children = w.u8();
        size_t live_end = childRefAt(found.node_starts.back(), children);
        for (size_t at : leaves)
            if (at < live_end)
                found.leaf_refs.push_back(at);
        for (const SnapshotRefs::Internal &ref : internals)
            if (ref.at < live_end)
                found.internal_refs.push_back(ref);
    }
    uint64_t indices = w.size(8);
    found.first_index = w.offset();
    found.indices = indices;
    for (uint64_t i = 0; i < indices; ++i)
        w.u32();
    uint64_t width = w.size(4);
    uint64_t pixels = width * w.size(4);
    for (uint64_t p = 0; p < pixels; ++p)
        w.vec3();
    w.u64(); // rays
    uint64_t jobs = w.size(8);
    for (uint64_t j = 0; j < jobs; ++j) {
        found.job_starts.push_back(w.offset());
        for (int i = 0; i < 4; ++i)
            w.u32(); // job id, warp id, segment, parent
        w.u8();      // any hit
        for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
            if (!w.u8())
                continue;
            w.vec3(); // origin, direction, inverse direction
            w.vec3();
            w.vec3();
            w.u32(); // tMin, tMax, expected t, expected primitive
            w.u32();
            w.u32();
            w.u32();
            w.u8(); // expected hit
        }
    }
    EXPECT_EQ(w.offset(), file.size() - 8) << "walker out of step";
    if (refs)
        *refs = found;
    return w.fields();
}

/** @p file with the u32 at @p at replaced by @p value. */
std::string
withU32(std::string file, size_t at, uint32_t value)
{
    std::memcpy(&file[at], &value, sizeof value);
    return file;
}

/** The fields of a .tape, through its last body byte. */
Fields
tapeFields(const std::string &file)
{
    FieldWalker w(file);
    w.skip(8); // magic
    w.u32();   // version
    w.u64();   // fingerprint
    uint64_t jobs = w.size(8);
    for (uint64_t j = 0; j < jobs; ++j) {
        w.u32(); // steps
        w.u32(); // mismatches
        w.skip(w.size(8));
    }
    EXPECT_EQ(w.offset(), file.size() - 8) << "walker out of step";
    return w.fields();
}

/** Every offset through the last body byte, as field ends. */
Fields
everyByte(const std::string &file)
{
    Fields fields;
    fields.ends.resize(file.size() - 7);
    for (size_t i = 0; i < fields.ends.size(); ++i)
        fields.ends[i] = i;
    return fields;
}

/**
 * One reader under test: where its file lives, how to load it (true on
 * a hit) and its failure counter.
 */
struct Reader
{
    std::string path;
    std::function<bool()> load;
    std::function<uint64_t()> failures;
};

struct Tally
{
    size_t failed = 0; ///< mutants that were counted failures
    size_t loaded = 0; ///< resealed body flips that loaded
};

/**
 * Write @p mutant in place of the reader's file and load it: it must be
 * a counted failure, or with @p must_fail false a hit, and no single
 * allocation of the load may exceed @p max_alloc bytes.
 */
void
expectRejected(const Reader &reader, const std::string &mutant,
               bool must_fail, size_t max_alloc, const std::string &what,
               Tally &tally)
{
    ASSERT_TRUE(writeFileAtomic(reader.path, mutant)) << what;
    const uint64_t failures = reader.failures();
    g_largest.store(0, std::memory_order_relaxed);
    const bool hit = reader.load();
    EXPECT_LE(g_largest.load(std::memory_order_relaxed), max_alloc)
        << what;
    if (hit) {
        EXPECT_FALSE(must_fail) << what << " loaded";
        EXPECT_EQ(reader.failures(), failures) << what;
        ++tally.loaded;
        return;
    }
    EXPECT_EQ(reader.failures(), failures + 1) << what;
    ++tally.failed;
}

/**
 * Run every mutant of @p pristine through @p reader: truncations at
 * the field ends of @p fields, every bit of the first @p header bytes
 * and of the size fields flipped, one bit every @p stride bytes after
 * the header, and the low bit of each checksum byte.
 */
void
mutateAll(const Reader &reader, const std::string &pristine,
          const Fields &fields, size_t header, size_t stride)
{
    ASSERT_TRUE(writeFileAtomic(reader.path, pristine));
    ASSERT_TRUE(reader.load()) << "pristine " << reader.path;
    const size_t body_end = pristine.size() - 8;
    const size_t max_alloc = 64 * pristine.size();
    Tally tally;
    size_t mutants = 0;
    for (size_t cut : fields.ends) {
        std::string truncated = pristine.substr(0, cut);
        expectRejected(reader, truncated, true, max_alloc,
                       "truncated at " + std::to_string(cut), tally);
        ++mutants;
        // A resealed cut at the body's end is the pristine file.
        if (cut >= 8 && cut < body_end) {
            expectRejected(reader, resealed(truncated + std::string(8, 0)),
                           true, max_alloc,
                           "resealed, truncated at " + std::to_string(cut),
                           tally);
            ++mutants;
        }
    }
    auto flip = [&](size_t at, int bit) {
        std::string flipped = pristine;
        flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
        const std::string where =
            "bit " + std::to_string(bit) + " of byte " + std::to_string(at);
        expectRejected(reader, flipped, true, max_alloc, "flipped " + where,
                       tally);
        ++mutants;
        if (at < body_end) {
            expectRejected(reader, resealed(flipped), at < header,
                           max_alloc, "resealed, flipped " + where, tally);
            ++mutants;
        }
    };
    for (size_t at = 0; at < header; ++at)
        for (int bit = 0; bit < 8; ++bit)
            flip(at, bit);
    for (auto [first, width] : fields.sizes)
        for (size_t at = first; at < first + width; ++at)
            for (int bit = 0; bit < 8; ++bit)
                flip(at, bit);
    for (size_t at = header; at < pristine.size(); at += stride)
        flip(at, static_cast<int>(at % 8));
    for (size_t at = body_end; at < pristine.size(); ++at)
        flip(at, 0);
    EXPECT_EQ(tally.failed + tally.loaded, mutants);
    EXPECT_GT(tally.failed, fields.ends.size());
}

/** The small Tiny BUNNY workload the three files come from. */
RenderParams
smallParams()
{
    RenderParams params;
    params.width = 8;
    params.height = 8;
    params.spp = 1;
    params.max_bounces = 1;
    return params;
}

std::shared_ptr<Workload>
smallBunny()
{
    ScopedEnv env("SMS_WORKLOAD_CACHE", nullptr);
    RenderParams params = smallParams();
    return prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny, &params);
}

TEST(CacheMutation, SnapshotMutantsAreCountedFailures)
{
    TempDir dir("wkld");
    auto w = smallBunny();
    ASSERT_TRUE(saveWorkloadSnapshot(dir.path(), *w, w->profile, w->params));
    Reader reader;
    reader.path =
        workloadSnapshotPath(dir.path(), w->id, w->profile, w->params);
    reader.load = [&] {
        return loadWorkloadSnapshot(dir.path(), w->id, w->profile,
                                    w->params) != nullptr;
    };
    reader.failures = [] { return workloadCacheStats().failures; };
    std::string pristine;
    ASSERT_TRUE(readFile(reader.path, pristine));
    // Magic, version, schema hash, scene, profile and render params.
    mutateAll(reader, pristine, snapshotFields(pristine),
              8 + 4 + 8 + 1 + 1 + 4 * 4 + 1 + 8, 61);

    // The production path counts the failure, rebuilds the workload and
    // rewrites the snapshot byte for byte.
    ScopedEnv env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    RenderParams params = smallParams();
    for (const std::string &mutant :
         {pristine.substr(0, pristine.size() / 2),
          resealed(pristine.substr(0, 40) + std::string(8, 0))}) {
        ASSERT_TRUE(writeFileAtomic(reader.path, mutant));
        resetWorkloadCacheStats();
        auto rebuilt =
            prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny, &params);
        ASSERT_NE(rebuilt, nullptr);
        EXPECT_EQ(workloadCacheStats().failures, 1u);
        EXPECT_EQ(workloadCacheStats().stores, 1u);
        std::string rewritten;
        ASSERT_TRUE(readFile(reader.path, rewritten));
        EXPECT_TRUE(rewritten == pristine);
    }
}

TEST(CacheMutation, SnapshotReferenceMutantsAreCountedFailures)
{
    // Resealed snapshots whose BVH or job references name something the
    // file does not hold, or a BVH node out of preorder (a cycle or a
    // node with two parents): each passes the checksum, and replay would
    // follow the reference unchecked or without end, so the parser must
    // reject it.
    TempDir dir("wkld_refs");
    auto w = smallBunny();
    ASSERT_TRUE(saveWorkloadSnapshot(dir.path(), *w, w->profile, w->params));
    Reader reader;
    reader.path =
        workloadSnapshotPath(dir.path(), w->id, w->profile, w->params);
    reader.load = [&] {
        return loadWorkloadSnapshot(dir.path(), w->id, w->profile,
                                    w->params) != nullptr;
    };
    reader.failures = [] { return workloadCacheStats().failures; };
    std::string pristine;
    ASSERT_TRUE(readFile(reader.path, pristine));
    SnapshotRefs refs;
    snapshotFields(pristine, &refs);
    ASSERT_GT(refs.nodes, 1u);
    ASSERT_FALSE(refs.leaf_refs.empty());
    ASSERT_GT(refs.job_starts.size(), 1u);
    ASSERT_TRUE(reader.load());

    const uint32_t nodes = static_cast<uint32_t>(refs.nodes);
    const uint32_t indices = static_cast<uint32_t>(refs.indices);
    const uint32_t jobs = static_cast<uint32_t>(refs.job_starts.size());
    const size_t node0 = refs.node_starts[0];
    std::string seven_children = pristine;
    seven_children[childCountAt(node0)] = 7;
    // For the preorder mutants: an internal reference in a node below
    // the root (grandchild) and the reference naming that node
    // (parent_ref); and a reference (second) that could name the first
    // internal reference's target without pointing backward.
    using Internal = SnapshotRefs::Internal;
    const auto &internal = refs.internal_refs;
    auto grandchild =
        std::find_if(internal.begin(), internal.end(),
                     [](const Internal &r) { return r.parent > 0; });
    ASSERT_NE(grandchild, internal.end());
    auto parent_ref = std::find_if(
        internal.begin(), internal.end(),
        [&](const Internal &r) { return r.target == grandchild->parent; });
    ASSERT_NE(parent_ref, internal.end());
    const Internal &first = internal.front();
    auto second = std::find_if(internal.begin(), internal.end(),
                               [&](const Internal &r) {
                                   return r.target != first.target &&
                                          r.parent < first.target;
                               });
    ASSERT_NE(second, internal.end());
    const std::pair<const char *, std::string> mutants[] = {
        {"root names internal node 0x3fffffff",
         withU32(pristine, refs.root,
                 ChildRef::makeInternal(0x3fffffff).bits())},
        {"root names the node past the last",
         withU32(pristine, refs.root, ChildRef::makeInternal(nodes).bits())},
        {"root of kind 3", withU32(pristine, refs.root, 3u << 30)},
        {"child names the node past the last",
         withU32(pristine, childRefAt(node0, 0),
                 ChildRef::makeInternal(nodes).bits())},
        {"child of kind 0 below the child count",
         withU32(pristine, childRefAt(node0, 0), 0)},
        {"internal root other than node 0",
         withU32(pristine, refs.root, ChildRef::makeInternal(1).bits())},
        {"child names its own node",
         withU32(pristine, first.at,
                 ChildRef::makeInternal(first.parent).bits())},
        {"child names its node's parent",
         withU32(pristine, grandchild->at,
                 ChildRef::makeInternal(parent_ref->parent).bits())},
        {"child names a node another reference names",
         withU32(pristine, second->at,
                 ChildRef::makeInternal(first.target).bits())},
        {"child count 7", seven_children},
        {"leaf range past the primitive indices",
         withU32(pristine, refs.leaf_refs[0],
                 ChildRef::makeLeaf(indices, 1).bits())},
        {"primitive index equal to the count",
         withU32(pristine, refs.first_index, indices)},
        {"job id not its position", withU32(pristine, refs.job_starts[1], 0)},
        {"parent at the job's own position",
         withU32(pristine, refs.job_starts[0] + 12, 0)},
        {"parent after the job",
         withU32(pristine, refs.job_starts[1] + 12, jobs - 1)},
        {"warp id equal to the job count",
         withU32(pristine, refs.job_starts[0] + 4, jobs)},
    };
    Tally tally;
    for (const auto &[what, mutant] : mutants)
        expectRejected(reader, resealed(mutant), true, 64 * pristine.size(),
                       std::string("resealed, ") + what, tally);
    EXPECT_EQ(tally.failed, std::size(mutants));

    // The production path counts the failure, rebuilds the workload,
    // rewrites the snapshot byte for byte, and the rebuilt workload
    // records its tape.
    ScopedEnv env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    RenderParams params = smallParams();
    ASSERT_TRUE(writeFileAtomic(reader.path, resealed(mutants[0].second)));
    resetWorkloadCacheStats();
    auto rebuilt = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny, &params);
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(workloadCacheStats().failures, 1u);
    EXPECT_EQ(workloadCacheStats().stores, 1u);
    std::string rewritten;
    ASSERT_TRUE(readFile(reader.path, rewritten));
    EXPECT_TRUE(rewritten == pristine);
    EXPECT_EQ(buildWorkloadTape(*rebuilt, TraversalVariant{}).jobs.size(),
              jobs);
}

TEST(CacheMutation, TapeMutantsAreCountedFailures)
{
    TempDir dir("tape");
    auto w = smallBunny();
    ASSERT_TRUE(saveTraversalTape(
        dir.path(), *w, buildWorkloadTape(*w, TraversalVariant{})));
    Reader reader;
    reader.path = traversalTapePath(dir.path(), w->id, w->profile, w->params);
    reader.load = [&] {
        TraversalTape tape;
        return loadTraversalTape(dir.path(), *w, tape);
    };
    reader.failures = [] { return traversalTapeStats().failures; };
    std::string pristine;
    ASSERT_TRUE(readFile(reader.path, pristine));
    // Magic, version, workload fingerprint and job count.
    mutateAll(reader, pristine, tapeFields(pristine), 8 + 4 + 8 + 8, 61);

    // A sweep over the workload counts the failure, rebuilds the tape
    // and stores it back byte for byte.
    ScopedEnv env("SMS_WORKLOAD_CACHE", dir.path().c_str());
    ScopedEnv no_results("SMS_RESULT_CACHE", nullptr);
    std::string flipped = pristine;
    flipped[pristine.size() / 2] ^= 0x10;
    for (const std::string &mutant :
         {flipped, resealed(pristine.substr(0, 30) + std::string(8, 0))}) {
        ASSERT_TRUE(writeFileAtomic(reader.path, mutant));
        resetTraversalTapeStats();
        benchutil::runSweep({w}, std::vector<StackConfig>{
                                     StackConfig::baseline(8)});
        EXPECT_EQ(traversalTapeStats().failures, 1u);
        EXPECT_EQ(traversalTapeStats().disk_stores, 1u);
        std::string rewritten;
        ASSERT_TRUE(readFile(reader.path, rewritten));
        EXPECT_TRUE(rewritten == pristine);
    }
}

TEST(CacheMutation, ResultMutantsAreCountedFailures)
{
    TempDir dir("res");
    auto w = smallBunny();
    const GpuConfig config = makeGpuConfig(StackConfig::baseline(8));
    const SimResult result = runWorkload(*w, config);
    const uint64_t fingerprint =
        workloadFingerprint(w->render.jobs, w->bvh);
    const uint64_t digest = gpuConfigDigest(config);
    ASSERT_TRUE(storeCachedResult(dir.path(), w->id, w->profile,
                                  fingerprint, digest, result, 0.25));
    Reader reader;
    reader.path =
        resultCachePath(dir.path(), w->id, w->profile, fingerprint, digest);
    reader.load = [&] {
        SimResult loaded;
        double wall = 0;
        return loadCachedResult(dir.path(), w->id, w->profile,
                                fingerprint, digest, loaded, wall);
    };
    reader.failures = [] { return resultCacheStats().failures; };
    std::string pristine;
    ASSERT_TRUE(readFile(reader.path, pristine));
    // Magic, version, schema hash, scene, profile, workload fingerprint
    // and config digest; the recorded wall time after them is data.
    mutateAll(reader, pristine, everyByte(pristine),
              8 + 4 + 8 + 1 + 1 + 8 + 8, 1);

    // A sweep with the result cache counts the failure, simulates the
    // cell again and stores an entry that loads.
    ScopedEnv env("SMS_RESULT_CACHE", dir.path().c_str());
    ScopedEnv no_tapes("SMS_WORKLOAD_CACHE", nullptr);
    for (const std::string &mutant :
         {pristine.substr(0, pristine.size() - 3),
          resealed(pristine.substr(0, 100) + std::string(8, 0))}) {
        ASSERT_TRUE(writeFileAtomic(reader.path, mutant));
        resetResultCacheStats();
        benchutil::SweepResult sweep = benchutil::runSweep(
            {w}, std::vector<StackConfig>{StackConfig::baseline(8)});
        EXPECT_EQ(resultCacheStats().failures, 1u);
        EXPECT_EQ(resultCacheStats().stores, 1u);
        EXPECT_EQ(toJson(sweep.results[0][0]).dump(),
                  toJson(result).dump());
        EXPECT_TRUE(reader.load());
    }
}

} // namespace
} // namespace sms
