/**
 * @file
 * Result-cache implementation: binary SimResult (de)serialization and
 * the keyed entry files (see result_cache.hpp for the contract).
 */

#include "src/serve/result_cache.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/stats/metrics.hpp"
#include "src/trace/cache_io.hpp"
#include "src/util/check.hpp"

namespace sms {

namespace {

constexpr char kMagic[8] = {'S', 'M', 'S', 'R', 'S', 'L', 'T', '1'};

std::atomic<uint64_t> g_hits{0};
std::atomic<uint64_t> g_misses{0};
std::atomic<uint64_t> g_stores{0};
std::atomic<uint64_t> g_failures{0};

// Pull-collector: publish the existing cache counters into metrics
// snapshots without touching the lookup/store hot paths.
const bool g_metrics_collector_registered = [] {
    metricsAddCollector(
        [](const std::function<void(const char *, uint64_t)> &sink) {
            sink("result_cache.hits",
                 g_hits.load(std::memory_order_relaxed));
            sink("result_cache.misses",
                 g_misses.load(std::memory_order_relaxed));
            sink("result_cache.stores",
                 g_stores.load(std::memory_order_relaxed));
            sink("result_cache.failures",
                 g_failures.load(std::memory_order_relaxed));
        });
    return true;
}();

/**
 * Hash of the structural constants that shape the serialized counters;
 * folded into gpuConfigDigest() so entries from builds with different
 * counter shapes never validate.
 */
uint64_t
resultSchemaHash()
{
    uint32_t words[] = {
        kResultCacheVersion,
        kWarpSize,
        static_cast<uint32_t>(kTrafficClassCount),
        static_cast<uint32_t>(kCycleLeafCount),
        kBorrowChainBuckets,
    };
    return fnv1a(words, sizeof words);
}

/** Bytes of one serialized CycleAccount. */
constexpr size_t kCycleAccountBytes = (kCycleLeafCount + 2) * 8;
/** Bytes of one serialized DepthTraceRecord. */
constexpr size_t kDepthTraceBytes = 4 * 4;

void
writeCycleAccount(CacheWriter &w, const CycleAccount &a)
{
    for (int i = 0; i < kCycleLeafCount; ++i)
        w.u64(a.leaves[i]);
    w.u64(a.warp_active_cycles);
    w.u64(a.slot_cycles);
}

void
readCycleAccount(CacheReader &r, CycleAccount &a)
{
    for (int i = 0; i < kCycleLeafCount; ++i)
        a.leaves[i] = r.u64();
    a.warp_active_cycles = r.u64();
    a.slot_cycles = r.u64();
}

void
writeSimResult(CacheWriter &w, const SimResult &res)
{
    w.u64(res.cycles);
    w.u64(res.instructions);

    w.u64(res.ops.steps);
    w.u64(res.ops.node_visits);
    w.u64(res.ops.leaf_visits);
    w.u64(res.ops.box_tests);
    w.u64(res.ops.prim_tests);
    w.u64(res.ops.instructions);
    w.u64(res.ops.fetch_cycles);
    w.u64(res.ops.op_cycles);
    w.u64(res.ops.stack_cycles);

    const WarpStackStats &s = res.stack;
    w.u64(s.pushes);
    w.u64(s.pops);
    w.u64(s.rb_spills);
    w.u64(s.rb_spills_to_sh);
    w.u64(s.rb_spills_to_global);
    w.u64(s.rb_refills);
    w.u64(s.rb_refills_from_sh);
    w.u64(s.rb_refills_from_global);
    w.u64(s.sh_stores);
    w.u64(s.sh_loads);
    w.u64(s.global_stores);
    w.u64(s.global_loads);
    w.u64(s.borrows);
    w.u64(s.flushes);
    w.u64(s.forced_flushes);
    w.u64(s.flushed_entries);
    w.u64(s.single_moves);
    w.u32(s.max_logical_depth);
    for (uint32_t i = 0; i < kBorrowChainBuckets; ++i)
        w.u64(s.borrow_chain_hist[i]);

    w.u64(res.shared_mem.accesses);
    w.u64(res.shared_mem.lane_requests);
    w.u64(res.shared_mem.conflict_cycles);
    w.u64(res.shared_mem.conflict_passes);
    w.u64(res.shared_mem.conflicted_accesses);
    w.u32(res.shared_mem.max_passes);

    for (const LevelStats *lvl : {&res.l1, &res.l2}) {
        w.u64(lvl->loads);
        w.u64(lvl->stores);
        w.u64(lvl->load_misses);
        w.u64(lvl->store_misses);
        w.u64(lvl->writebacks);
    }

    w.u64(res.dram.loads);
    w.u64(res.dram.stores);
    for (int i = 0; i < kTrafficClassCount; ++i)
        w.u64(res.dram.by_class[i]);
    w.u64(res.dram.queue_wait_cycles);
    w.u64(res.dram.busy_cycles);
    w.u64(res.dram.max_queue_wait);

    for (int i = 0; i < kTrafficClassCount; ++i)
        w.u64(res.l1_class_misses[i]);
    for (int i = 0; i < kTrafficClassCount; ++i)
        w.u64(res.l2_class_misses[i]);
    w.u64(res.offchip_accesses);

    writeCycleAccount(w, res.accounting);
    w.u64(res.sm_accounting.size());
    for (const CycleAccount &a : res.sm_accounting)
        writeCycleAccount(w, a);

    w.u64(res.depth_hist.bucketCount());
    for (size_t i = 0; i < res.depth_hist.bucketCount(); ++i)
        w.u64(res.depth_hist.bucket(static_cast<uint32_t>(i)));

    w.u64(res.depth_trace.size());
    for (const DepthTraceRecord &t : res.depth_trace) {
        w.u32(t.warp_id);
        w.u32(t.access_index);
        w.u32(t.lane);
        w.u32(t.depth);
    }

    w.u32(res.jobs);
    w.u32(res.warps);
    w.u64(res.rays);
    w.u32(res.mismatches);
}

bool
readSimResult(CacheReader &r, SimResult &res)
{
    res.cycles = r.u64();
    res.instructions = r.u64();

    res.ops.steps = r.u64();
    res.ops.node_visits = r.u64();
    res.ops.leaf_visits = r.u64();
    res.ops.box_tests = r.u64();
    res.ops.prim_tests = r.u64();
    res.ops.instructions = r.u64();
    res.ops.fetch_cycles = r.u64();
    res.ops.op_cycles = r.u64();
    res.ops.stack_cycles = r.u64();

    WarpStackStats &s = res.stack;
    s.pushes = r.u64();
    s.pops = r.u64();
    s.rb_spills = r.u64();
    s.rb_spills_to_sh = r.u64();
    s.rb_spills_to_global = r.u64();
    s.rb_refills = r.u64();
    s.rb_refills_from_sh = r.u64();
    s.rb_refills_from_global = r.u64();
    s.sh_stores = r.u64();
    s.sh_loads = r.u64();
    s.global_stores = r.u64();
    s.global_loads = r.u64();
    s.borrows = r.u64();
    s.flushes = r.u64();
    s.forced_flushes = r.u64();
    s.flushed_entries = r.u64();
    s.single_moves = r.u64();
    s.max_logical_depth = r.u32();
    for (uint32_t i = 0; i < kBorrowChainBuckets; ++i)
        s.borrow_chain_hist[i] = r.u64();

    res.shared_mem.accesses = r.u64();
    res.shared_mem.lane_requests = r.u64();
    res.shared_mem.conflict_cycles = r.u64();
    res.shared_mem.conflict_passes = r.u64();
    res.shared_mem.conflicted_accesses = r.u64();
    res.shared_mem.max_passes = r.u32();

    for (LevelStats *lvl : {&res.l1, &res.l2}) {
        lvl->loads = r.u64();
        lvl->stores = r.u64();
        lvl->load_misses = r.u64();
        lvl->store_misses = r.u64();
        lvl->writebacks = r.u64();
    }

    res.dram.loads = r.u64();
    res.dram.stores = r.u64();
    for (int i = 0; i < kTrafficClassCount; ++i)
        res.dram.by_class[i] = r.u64();
    res.dram.queue_wait_cycles = r.u64();
    res.dram.busy_cycles = r.u64();
    res.dram.max_queue_wait = r.u64();

    for (int i = 0; i < kTrafficClassCount; ++i)
        res.l1_class_misses[i] = r.u64();
    for (int i = 0; i < kTrafficClassCount; ++i)
        res.l2_class_misses[i] = r.u64();
    res.offchip_accesses = r.u64();

    readCycleAccount(r, res.accounting);
    uint64_t sm_count = r.count(kCycleAccountBytes);
    if (!r.ok() || sm_count > 4096)
        return false;
    res.sm_accounting.resize(sm_count);
    for (CycleAccount &a : res.sm_accounting)
        readCycleAccount(r, a);

    uint64_t buckets = r.count(8);
    if (!r.ok() || buckets < 1 || buckets > (1u << 20))
        return false;
    std::vector<uint64_t> counts(buckets);
    for (uint64_t i = 0; i < buckets; ++i)
        counts[i] = r.u64();
    if (!r.ok())
        return false;
    res.depth_hist = Histogram::fromBuckets(counts, buckets);

    uint64_t traces = r.count(kDepthTraceBytes);
    if (!r.ok())
        return false;
    res.depth_trace.resize(traces);
    for (DepthTraceRecord &t : res.depth_trace) {
        t.warp_id = r.u32();
        t.access_index = r.u32();
        t.lane = r.u32();
        t.depth = r.u32();
    }

    res.jobs = r.u32();
    res.warps = r.u32();
    res.rays = r.u64();
    res.mismatches = r.u32();
    return r.ok();
}

} // namespace

ResultCacheStats
resultCacheStats()
{
    ResultCacheStats s;
    s.hits = g_hits.load();
    s.misses = g_misses.load();
    s.stores = g_stores.load();
    s.failures = g_failures.load();
    return s;
}

void
resetResultCacheStats()
{
    g_hits = 0;
    g_misses = 0;
    g_stores = 0;
    g_failures = 0;
}

std::string
resultCacheDir()
{
    const char *dir = std::getenv("SMS_RESULT_CACHE");
    return dir && *dir ? dir : "";
}

uint64_t
gpuConfigDigest(const GpuConfig &config)
{
    CacheWriter w;
    w.u32(config.num_sms);
    w.u32(config.max_warps_per_rt);
    w.u64(config.unified_bytes);
    w.u64(config.l1_override_bytes);

    for (const CacheConfig *c : {&config.mem.l1, &config.mem.l2}) {
        w.u64(c->size_bytes);
        w.u32(c->ways);
        w.u32(c->line_bytes);
        w.u8(c->allocate_on_store ? 1 : 0);
    }
    w.u64(config.mem.l1_latency);
    w.u32(config.mem.l1_ports);
    w.u64(config.mem.l2_latency);
    w.u32(config.mem.l2_ports);
    w.u64(config.mem.dram.access_latency);
    w.u64(config.mem.dram.service_interval);
    w.u64(config.shared_latency);

    w.u32(config.stack.rb_entries);
    w.u8(config.stack.rb_unbounded ? 1 : 0);
    w.u32(config.stack.sh_entries);
    w.u8(config.stack.skewed_bank_access ? 1 : 0);
    w.u8(config.stack.intra_warp_realloc ? 1 : 0);
    w.u32(config.stack.max_borrowed);
    w.u32(config.stack.max_flushes);

    w.u64(config.timing.box_op);
    w.u64(config.timing.leaf_op_base);
    w.u64(config.timing.leaf_op_per_prim);
    w.u64(config.timing.stack_round);
    w.u64(config.timing.node_decode_op);
    w.u64(config.timing.shading_latency);
    w.u32(config.shading_instructions);
    w.u32(config.shadow_instructions);

    // Traversal-variant axes: node layout and ray scheduling change the
    // functional traversal, so two configs differing only here must map
    // to distinct cells.
    w.u8(static_cast<uint8_t>(config.node_layout.kind));
    w.u32(config.node_layout.isQuantized()
              ? config.node_layout.bits_per_plane
              : 0);
    w.u8(static_cast<uint8_t>(config.ray_order.kind));
    w.u8(static_cast<uint8_t>(config.traversal_arch.kind));

    return fnv1a(w.buffer().data(), w.buffer().size(),
                 resultSchemaHash());
}

std::string
resultCachePath(const std::string &dir, SceneId id, ScaleProfile profile,
                uint64_t fingerprint, uint64_t digest)
{
    char key[34];
    std::snprintf(key, sizeof key, "%016llx-%016llx",
                  static_cast<unsigned long long>(fingerprint),
                  static_cast<unsigned long long>(digest));
    std::string path = dir;
    if (!path.empty() && path.back() != '/')
        path += '/';
    path += std::string(sceneName(id)) + "-" + profileTag(profile) + "-" +
            key + ".res";
    return path;
}

bool
loadCachedResult(const std::string &dir, SceneId id, ScaleProfile profile,
                 uint64_t fingerprint, uint64_t digest, SimResult &result,
                 double &sim_wall_seconds)
{
    std::string path =
        resultCachePath(dir, id, profile, fingerprint, digest);
    MappedFile file;
    if (!file.open(path)) {
        ++g_misses;
        return false; // quiet miss: never simulated here
    }
    auto invalid = [&](const char *why) {
        warn("result-cache entry %s: %s; re-simulating", path.c_str(),
             why);
        ++g_failures;
        ++g_misses;
        return false;
    };

    CacheReader r(kMagic, file.bytes());
    if (!r.ok())
        return invalid("bad magic or checksum");
    if (r.u32() != kResultCacheVersion)
        return invalid("version mismatch");
    if (r.u64() != resultSchemaHash())
        return invalid("result schema mismatch");
    if (r.u8() != static_cast<uint8_t>(id) ||
        r.u8() != static_cast<uint8_t>(profile))
        return invalid("key mismatch");
    if (r.u64() != fingerprint)
        return invalid("workload fingerprint mismatch");
    if (r.u64() != digest)
        return invalid("config digest mismatch");
    double wall = r.f64();

    SimResult loaded;
    if (!readSimResult(r, loaded))
        return invalid("corrupt result section");
    if (!r.atEnd())
        return invalid("trailing bytes");

    result = std::move(loaded);
    sim_wall_seconds = wall;
    ++g_hits;
    return true;
}

bool
storeCachedResult(const std::string &dir, SceneId id, ScaleProfile profile,
                  uint64_t fingerprint, uint64_t digest,
                  const SimResult &result, double sim_wall_seconds)
{
    if (!ensureDir(dir)) {
        warn("SMS_RESULT_CACHE=%s is not a creatable directory; "
             "entry not written",
             dir.c_str());
        return false;
    }
    // The header and fixed-size counters take under 2 KiB; the rest
    // grows with the result.
    CacheWriter w(kMagic,
                  2048 + result.sm_accounting.size() * kCycleAccountBytes +
                      result.depth_hist.bucketCount() * 8 +
                      result.depth_trace.size() * kDepthTraceBytes);
    w.u32(kResultCacheVersion);
    w.u64(resultSchemaHash());
    w.u8(static_cast<uint8_t>(id));
    w.u8(static_cast<uint8_t>(profile));
    w.u64(fingerprint);
    w.u64(digest);
    w.f64(sim_wall_seconds);
    writeSimResult(w, result);

    std::string data = std::move(w).seal();
    std::string path =
        resultCachePath(dir, id, profile, fingerprint, digest);
    if (!writeFileAtomic(path, data)) {
        warn("result-cache entry %s not written: %s", path.c_str(),
             std::strerror(errno));
        return false;
    }
    ++g_stores;
    return true;
}

} // namespace sms
