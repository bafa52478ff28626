/**
 * @file
 * Workload snapshot cache implementation.
 *
 * Format: "SMSWKLD1" magic, little-endian fixed-width fields appended
 * by the shared CacheWriter (cache_io.hpp), then an XXH64 checksum of
 * everything before it. Floats are serialized as their IEEE-754 bit
 * patterns, so a reload is bit-exact — the timing simulation over a
 * snapshot is counter-identical to one over a freshly prepared
 * workload. The scene is not stored, only its hash: Workload::scene()
 * regenerates it for the few readers that need it and checks it
 * against the hash.
 */

#include "src/trace/workload_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/sim/ray_reorder.hpp"
#include "src/stats/metrics.hpp"
#include "src/trace/cache_io.hpp"
#include "src/util/check.hpp"

namespace sms {

namespace {

constexpr char kMagic[8] = {'S', 'M', 'S', 'W', 'K', 'L', 'D', '1'};
constexpr char kTapeMagic[8] = {'S', 'M', 'S', 'T', 'A', 'P', 'E', '1'};

std::atomic<uint64_t> g_hits{0};
std::atomic<uint64_t> g_misses{0};
std::atomic<uint64_t> g_stores{0};
std::atomic<uint64_t> g_failures{0};
std::atomic<uint64_t> g_scene_rebuilds{0};

// Pull-collector: publish the existing cache counters into metrics
// snapshots without touching the lookup/store hot paths.
const bool g_metrics_collector_registered = [] {
    metricsAddCollector(
        [](const std::function<void(const char *, uint64_t)> &sink) {
            sink("workload_cache.hits",
                 g_hits.load(std::memory_order_relaxed));
            sink("workload_cache.misses",
                 g_misses.load(std::memory_order_relaxed));
            sink("workload_cache.stores",
                 g_stores.load(std::memory_order_relaxed));
            sink("workload_cache.failures",
                 g_failures.load(std::memory_order_relaxed));
            sink("workload_cache.scene_rebuilds",
                 g_scene_rebuilds.load(std::memory_order_relaxed));
        });
    return true;
}();

/**
 * Hash of everything that determines snapshot content besides the key:
 * format version and the structural constants baked into generation.
 */
uint64_t
buildSchemaHash()
{
    uint32_t words[] = {
        kWorkloadSnapshotVersion,
        kWarpSize,
        static_cast<uint32_t>(kWideBvhWidth),
        static_cast<uint32_t>(WideBvh::kNodeBytes),
        static_cast<uint32_t>(WideBvh::kTriBytes),
        static_cast<uint32_t>(WideBvh::kSphereBytes),
    };
    return fnv1a(words, sizeof words);
}

/** Bytes writeParams() writes. */
constexpr size_t kParamsBytes = 4 * 4 + 1 + 8;

void
writeParams(CacheWriter &w, const RenderParams &p)
{
    w.u32(p.width);
    w.u32(p.height);
    w.u32(p.spp);
    w.u32(p.max_bounces);
    w.u8(p.shadow_rays ? 1 : 0);
    w.u64(p.seed);
}

bool
readAndCheckParams(CacheReader &r, const RenderParams &expect)
{
    RenderParams p;
    p.width = r.u32();
    p.height = r.u32();
    p.spp = r.u32();
    p.max_bounces = r.u32();
    // The byte writeParams() wrote, not any nonzero one: every header
    // byte of a valid snapshot has exactly one accepted value.
    uint8_t shadow_rays = r.u8();
    p.seed = r.u64();
    return r.ok() && p.width == expect.width &&
           p.height == expect.height && p.spp == expect.spp &&
           p.max_bounces == expect.max_bounces &&
           shadow_rays == (expect.shadow_rays ? 1 : 0) &&
           p.seed == expect.seed;
}

/** Bytes writeRay() writes. */
constexpr size_t kRayBytes = 3 * 12 + 2 * 4;

void
writeRay(CacheWriter &w, const Ray &ray)
{
    w.vec3(ray.origin);
    w.vec3(ray.dir);
    w.vec3(ray.invDir);
    w.f32(ray.tMin);
    w.f32(ray.tMax);
}

Ray
readRay(CacheReader &r)
{
    // Bypass the caching constructor: invDir is restored bit-exactly
    // rather than recomputed.
    Ray ray;
    ray.origin = r.vec3();
    ray.dir = r.vec3();
    ray.invDir = r.vec3();
    ray.tMin = r.f32();
    ray.tMax = r.f32();
    return ray;
}

/** Bytes of one node: six child boxes and references, the count. */
constexpr size_t kNodeRecordBytes = kWideBvhWidth * (2 * 12 + 4) + 1;

/** Bytes writeBvh() writes for @p bvh. */
size_t
bvhBytes(const WideBvh &bvh)
{
    return 4 + 8 + bvh.nodes().size() * kNodeRecordBytes + 8 +
           bvh.primIndices().size() * 4;
}

void
writeBvh(CacheWriter &w, const WideBvh &bvh)
{
    w.u32(bvh.rootRef().bits());
    w.u64(bvh.nodes().size());
    for (const WideNode &node : bvh.nodes()) {
        for (int c = 0; c < kWideBvhWidth; ++c) {
            w.vec3(node.child_bounds[c].lo);
            w.vec3(node.child_bounds[c].hi);
            w.u32(node.children[c].bits());
        }
        w.u8(node.child_count);
    }
    w.u64(bvh.primIndices().size());
    for (uint32_t idx : bvh.primIndices())
        w.u32(idx);
}

bool
readBvh(CacheReader &r, WideBvh &bvh)
{
    ChildRef root = ChildRef::fromBits(r.u32());
    uint64_t node_count = r.count(kNodeRecordBytes);
    if (!r.ok())
        return false;
    // Traversal follows every reference without a bounds check, so a
    // reference is checked as it is read. The builder lays nodes out in
    // preorder, one parent each: an internal root is node 0, and an
    // internal child names a node after its parent's, which no other
    // reference names, so every path ends and no node is reached
    // twice. A leaf range must lie in the primitive-index array, whose
    // size is known only after the nodes (prim_end tracks the furthest
    // range end until then). Any other kind is corrupt. Internal and
    // leaf references mix unpredictably, so the check is branch-free:
    // its verdict accumulates in bad_ref, and every child reference
    // marks a slot of `named`, the node it names or slot 0 (the root's,
    // which no child may name) when it names none. A node named twice
    // leaves fewer marked slots than internal child references.
    uint64_t prim_end = 0;
    bool bad_ref = false;
    std::vector<uint8_t> named(std::max<uint64_t>(node_count, 1), 0);
    uint64_t child_nodes = 0;
    // The node an internal @p ref names, in [first, end), or 0.
    auto check_ref = [&](ChildRef ref, bool live, uint64_t first,
                         uint64_t end) -> uint64_t {
        bool internal = live & ref.isInternal();
        bool leaf = live & ref.isLeaf();
        uint64_t index = ref.nodeIndex();
        bool fresh = internal & (index >= first) & (index < end);
        bad_ref |= (live & !internal & !leaf) | (internal & !fresh);
        uint64_t range_end = uint64_t{ref.primOffset()} + ref.primCount();
        prim_end = std::max(prim_end, leaf ? range_end : 0);
        return index * fresh;
    };
    // An invalid (kind 0) root is an empty BVH.
    check_ref(root, root.valid(), 0, std::min<uint64_t>(node_count, 1));
    std::vector<WideNode> nodes;
    nodes.reserve(node_count);
    for (uint64_t i = 0; r.ok() && i < node_count; ++i) {
        WideNode node;
        for (int c = 0; c < kWideBvhWidth; ++c) {
            node.child_bounds[c].lo = r.vec3();
            node.child_bounds[c].hi = r.vec3();
            node.children[c] = ChildRef::fromBits(r.u32());
        }
        node.child_count = r.u8();
        bad_ref |= node.child_count > kWideBvhWidth;
        for (int c = 0; c < kWideBvhWidth; ++c) {
            uint64_t child = check_ref(node.children[c], c < node.child_count,
                                       i + 1, node_count);
            named[child] = 1;
            child_nodes += child != 0;
        }
        nodes.push_back(node);
    }
    bad_ref |= static_cast<uint64_t>(std::count(named.begin() + 1,
                                                named.end(), 1)) != child_nodes;
    uint64_t index_count = r.count(4);
    if (!r.ok() || bad_ref || prim_end > index_count)
        return false;
    // The indices name the scene's primitives, which number exactly
    // index_count (Workload::scene() checks it and the scene hash).
    std::vector<uint32_t> indices;
    indices.reserve(index_count);
    uint64_t prim_bound = 0; // one past the largest index
    for (uint64_t i = 0; r.ok() && i < index_count; ++i) {
        indices.push_back(r.u32());
        prim_bound = std::max(prim_bound, uint64_t{indices.back()} + 1);
    }
    if (!r.ok() || prim_bound > index_count)
        return false;
    bvh = WideBvh::fromParts(kWideBvhWidth, std::move(nodes),
                             std::move(indices), root);
    return true;
}

/** Bytes of a job with no active lane: its header, one flag per lane. */
constexpr size_t kJobHeaderBytes = 4 * 4 + 1 + kWarpSize;
/** Bytes an active lane adds: its ray and oracle hit. */
constexpr size_t kActiveLaneBytes = kRayBytes + 4 + 4 + 1;

/** Bytes writeJobs() writes for @p jobs. */
size_t
jobsBytes(const WarpJobList &jobs)
{
    size_t bytes = 8 + jobs.size() * kJobHeaderBytes;
    for (const WarpJob &job : jobs)
        for (uint32_t i = 0; i < kWarpSize; ++i)
            bytes += job.active[i] ? kActiveLaneBytes : 0;
    return bytes;
}

void
writeJobs(CacheWriter &w, const WarpJobList &jobs)
{
    w.u64(jobs.size());
    for (const WarpJob &job : jobs) {
        w.u32(job.job_id);
        w.u32(job.warp_id);
        w.u32(job.segment);
        w.i32(job.parent);
        w.u8(job.any_hit ? 1 : 0);
        for (uint32_t i = 0; i < kWarpSize; ++i) {
            w.u8(job.active[i] ? 1 : 0);
            if (!job.active[i])
                continue;
            writeRay(w, job.rays[i]);
            w.f32(job.expected_t[i]);
            w.u32(job.expected_prim[i]);
            w.u8(job.expected_hit[i] ? 1 : 0);
        }
    }
}

bool
readJobs(CacheReader &r, WarpJobList &jobs)
{
    uint64_t count = r.count(kJobHeaderBytes);
    if (!r.ok())
        return false;
    jobs.reserve(count);
    for (uint64_t j = 0; r.ok() && j < count; ++j) {
        WarpJob job;
        job.job_id = r.u32();
        job.warp_id = r.u32();
        job.segment = r.u32();
        job.parent = r.i32();
        // Replay indexes by job id and parent, and sizes a bitmap by
        // warp id: ids are positions, parents precede their children,
        // and warp ids are dense (every warp has a job).
        if (job.job_id != j || job.warp_id >= count ||
            (job.parent >= 0 && static_cast<uint64_t>(job.parent) >= j))
            return false;
        job.any_hit = r.u8() != 0;
        for (uint32_t i = 0; i < kWarpSize; ++i) {
            job.active[i] = r.u8() != 0;
            if (!job.active[i])
                continue;
            job.rays[i] = readRay(r);
            job.expected_t[i] = r.f32();
            job.expected_prim[i] = r.u32();
            job.expected_hit[i] = r.u8() != 0;
        }
        jobs.push_back(std::move(job));
    }
    return r.ok();
}

/** Bytes writeRender() writes for @p render. */
size_t
renderBytes(const RenderOutput &render)
{
    return 4 + 4 + size_t{render.film.width()} * render.film.height() * 12 +
           8 + jobsBytes(render.jobs);
}

void
writeRender(CacheWriter &w, const RenderOutput &render)
{
    w.u32(render.film.width());
    w.u32(render.film.height());
    for (uint32_t y = 0; y < render.film.height(); ++y)
        for (uint32_t x = 0; x < render.film.width(); ++x)
            w.vec3(render.film.at(x, y));
    w.u64(render.rays);
    writeJobs(w, render.jobs);
}

bool
readRender(CacheReader &r, std::unique_ptr<RenderOutput> &out)
{
    uint32_t width = r.u32();
    uint32_t height = r.u32();
    // The film is allocated before its pixels are read, so its size is
    // bounded by the bytes left: 12 per pixel.
    if (!r.ok() || width == 0 || height == 0 ||
        static_cast<uint64_t>(width) * height > r.remaining() / 12)
        return false;
    out = std::make_unique<RenderOutput>(width, height);
    for (uint32_t y = 0; y < height; ++y)
        for (uint32_t x = 0; x < width; ++x)
            out->film.add(x, y, r.vec3()); // fresh film: add == assign
    out->rays = r.u64();
    return readJobs(r, out->jobs) && r.ok();
}

/** Hash identifying the render params + build schema in the filename. */
uint64_t
keyHash(const RenderParams &params)
{
    CacheWriter w;
    writeParams(w, params);
    return fnv1a(w.buffer().data(), w.buffer().size(),
                 buildSchemaHash());
}

} // namespace

WorkloadCacheStats
workloadCacheStats()
{
    WorkloadCacheStats s;
    s.hits = g_hits.load();
    s.misses = g_misses.load();
    s.stores = g_stores.load();
    s.failures = g_failures.load();
    s.scene_rebuilds = g_scene_rebuilds.load();
    return s;
}

void
resetWorkloadCacheStats()
{
    g_hits = 0;
    g_misses = 0;
    g_stores = 0;
    g_failures = 0;
    g_scene_rebuilds = 0;
}

void
noteSceneRebuild()
{
    g_scene_rebuilds.fetch_add(1, std::memory_order_relaxed);
}

std::string
workloadCacheDir()
{
    const char *dir = std::getenv("SMS_WORKLOAD_CACHE");
    return dir && *dir ? dir : "";
}

std::string
workloadSnapshotPath(const std::string &dir, SceneId id,
                     ScaleProfile profile, const RenderParams &params)
{
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(keyHash(params)));
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += std::string(sceneName(id)) + "-" + profileTag(profile) + "-" +
            hash + ".wkld";
    return path;
}

std::shared_ptr<Workload>
loadWorkloadSnapshot(const std::string &dir, SceneId id,
                     ScaleProfile profile, const RenderParams &params)
{
    std::string path = workloadSnapshotPath(dir, id, profile, params);
    MappedFile file;
    if (!file.open(path)) {
        ++g_misses;
        return nullptr;
    }
    auto invalid = [&](const char *why) -> std::shared_ptr<Workload> {
        warn("workload snapshot %s: %s; rebuilding", path.c_str(), why);
        ++g_failures;
        ++g_misses;
        return nullptr;
    };

    CacheReader r(kMagic, file.bytes());
    if (!r.ok())
        return invalid("bad magic or checksum");
    if (r.u32() != kWorkloadSnapshotVersion)
        return invalid("version mismatch");
    if (r.u64() != buildSchemaHash())
        return invalid("build schema mismatch");
    if (r.u8() != static_cast<uint8_t>(id) ||
        r.u8() != static_cast<uint8_t>(profile))
        return invalid("key mismatch");
    if (!readAndCheckParams(r, params))
        return invalid("render params mismatch");
    // Only a regeneration can check the scene hash (Workload::scene()).
    uint64_t scene_hash = r.u64();

    WideBvh bvh;
    if (!readBvh(r, bvh))
        return invalid("corrupt bvh section");
    std::unique_ptr<RenderOutput> render;
    if (!readRender(r, render))
        return invalid("corrupt render section");
    if (!r.atEnd())
        return invalid("trailing bytes");

    ++g_hits;
    return std::make_shared<Workload>(id, profile, std::move(bvh), params,
                                      std::move(*render), scene_hash);
}

bool
saveWorkloadSnapshot(const std::string &dir, const Workload &workload,
                     ScaleProfile profile, const RenderParams &params)
{
    if (!ensureDir(dir)) {
        warn("SMS_WORKLOAD_CACHE=%s is not a creatable directory; "
             "snapshot not written",
             dir.c_str());
        return false;
    }
    CacheWriter w(kMagic, 4 + 8 + 1 + 1 + kParamsBytes + 8 +
                              bvhBytes(workload.bvh) +
                              renderBytes(workload.render));
    w.u32(kWorkloadSnapshotVersion);
    w.u64(buildSchemaHash());
    w.u8(static_cast<uint8_t>(workload.id));
    w.u8(static_cast<uint8_t>(profile));
    writeParams(w, params);
    w.u64(workload.scene_hash);
    writeBvh(w, workload.bvh);
    writeRender(w, workload.render);

    std::string data = std::move(w).seal();
    std::string path = workloadSnapshotPath(dir, workload.id, profile,
                                            params);
    if (!writeFileAtomic(path, data)) {
        warn("workload snapshot %s not written: %s", path.c_str(),
             std::strerror(errno));
        return false;
    }
    ++g_stores;
    return true;
}

std::string
traversalTapePath(const std::string &dir, SceneId id,
                  ScaleProfile profile, const RenderParams &params)
{
    return traversalTapePath(dir, id, profile, params,
                             TraversalVariant{});
}

std::string
traversalTapePath(const std::string &dir, SceneId id,
                  ScaleProfile profile, const RenderParams &params,
                  const TraversalVariant &variant)
{
    std::string path = workloadSnapshotPath(dir, id, profile, params);
    // <scene>-<profile>-<hash>.wkld -> [-v<digest16>].tape. Default
    // variants keep the historical suffix-only name, so existing tape
    // files stay valid.
    path.resize(path.size() - 5);
    uint64_t digest = variant.digest();
    if (digest != 0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "-v%016llx",
                      static_cast<unsigned long long>(digest));
        path += buf;
    }
    path += ".tape";
    return path;
}

namespace {

/**
 * The fingerprint a tape recorded under @p variant must carry: the
 * fingerprint of the job stream AS SIMULATED (reordered when the
 * variant reorders) xor the variant digest. Reduces to the plain
 * workload fingerprint for the default variant.
 */
uint64_t
expectedTapeIdentity(const Workload &workload,
                     const TraversalVariant &variant, size_t &job_count)
{
    uint64_t base;
    if (variant.order.active()) {
        WarpJobList reordered = reorderJobs(workload.render.jobs,
                                            workload.bvh, variant.order);
        job_count = reordered.size();
        base = workloadFingerprint(reordered, workload.bvh);
    } else {
        job_count = workload.render.jobs.size();
        base = workloadFingerprint(workload.render.jobs, workload.bvh);
    }
    return base ^ variant.digest();
}

} // namespace

bool
loadTraversalTape(const std::string &dir, const Workload &workload,
                  TraversalTape &out)
{
    return loadTraversalTape(dir, workload, TraversalVariant{}, out);
}

bool
loadTraversalTape(const std::string &dir, const Workload &workload,
                  const TraversalVariant &variant, TraversalTape &out)
{
    std::string path = traversalTapePath(dir, workload.id,
                                         workload.profile,
                                         workload.params, variant);
    MappedFile file;
    if (!file.open(path))
        return false; // quiet miss: never recorded here
    auto invalid = [&](const char *why) {
        warn("traversal tape %s: %s; rebuilding", path.c_str(), why);
        noteTapeFailure();
        return false;
    };

    CacheReader r(kTapeMagic, file.bytes());
    if (!r.ok())
        return invalid("bad magic or checksum");
    if (r.u32() != kTraversalTapeVersion)
        return invalid("version mismatch");
    uint64_t fingerprint = r.u64();
    size_t expected_jobs = 0;
    if (fingerprint != expectedTapeIdentity(workload, variant,
                                            expected_jobs))
        return invalid("workload fingerprint mismatch");
    uint64_t job_count = r.u64();
    // Reordering repacks rays 32-to-a-warp, so the expected count is
    // the reordered stream's, not the generation-order one's.
    if (!r.ok() || job_count != expected_jobs)
        return invalid("job count mismatch");

    TraversalTape tape;
    tape.fingerprint = fingerprint;
    tape.jobs.resize(job_count);
    for (uint64_t j = 0; r.ok() && j < job_count; ++j) {
        JobTape &job = tape.jobs[j];
        job.steps = r.u32();
        job.mismatches = r.u32();
        uint64_t n = 0;
        const auto *bytes = reinterpret_cast<const uint8_t *>(r.bytes(n));
        job.bytes.assign(bytes, bytes + n); // empty when r failed
    }
    if (!r.atEnd())
        return invalid("trailing bytes");

    out = std::move(tape);
    noteTapeDiskLoad();
    return true;
}

bool
saveTraversalTape(const std::string &dir, const Workload &workload,
                  const TraversalTape &tape)
{
    return saveTraversalTape(dir, workload, TraversalVariant{}, tape);
}

bool
saveTraversalTape(const std::string &dir, const Workload &workload,
                  const TraversalVariant &variant,
                  const TraversalTape &tape)
{
    if (!ensureDir(dir)) {
        warn("SMS_WORKLOAD_CACHE=%s is not a creatable directory; "
             "traversal tape not written",
             dir.c_str());
        return false;
    }
    size_t body = 4 + 8 + 8;
    for (const JobTape &job : tape.jobs)
        body += 4 + 4 + 8 + job.bytes.size();
    CacheWriter w(kTapeMagic, body);
    w.u32(kTraversalTapeVersion);
    w.u64(tape.fingerprint);
    w.u64(tape.jobs.size());
    for (const JobTape &job : tape.jobs) {
        w.u32(job.steps);
        w.u32(job.mismatches);
        w.bytes(job.bytes.data(), job.bytes.size());
    }

    std::string data = std::move(w).seal();
    std::string path = traversalTapePath(dir, workload.id,
                                         workload.profile,
                                         workload.params, variant);
    if (!writeFileAtomic(path, data)) {
        warn("traversal tape %s not written: %s", path.c_str(),
             std::strerror(errno));
        return false;
    }
    noteTapeDiskStore();
    return true;
}

} // namespace sms
