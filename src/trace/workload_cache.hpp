/**
 * @file
 * On-disk snapshot cache for prepared workloads.
 *
 * Preparing a Workload — procedural scene generation, BVH6 build, and
 * the functional oracle render that emits the warp-job stream — is
 * configuration-independent and fully deterministic, yet every one of
 * the 11 bench binaries redoes it from scratch for every scene. The
 * snapshot cache serializes the BVH, the reference image and the
 * warp-job stream to a versioned binary file keyed by (scene,
 * geometry profile, render params, build schema), so subsequent runs —
 * in the same binary or any other — deserialize in milliseconds
 * instead of re-tracing. The scene is not stored: a warm sweep replays
 * tapes and never reads it, and Workload::scene() regenerates it for
 * the readers that do (tape builds, scene statistics).
 *
 * Enabled by pointing SMS_WORKLOAD_CACHE at a directory (created on
 * first store). Any validation failure — wrong magic, version, schema
 * hash, params, truncation, checksum — is a counted miss: the workload
 * is rebuilt and the snapshot rewritten. Files are written to a
 * temporary name and rename()d into place so concurrent processes never
 * observe a partial snapshot.
 *
 * The schema hash covers the serialization format plus the structural
 * constants baked into job generation; bump kWorkloadSnapshotVersion
 * whenever the Workload contents or the generators change meaning
 * without changing shape.
 */

#ifndef SMS_TRACE_WORKLOAD_CACHE_HPP
#define SMS_TRACE_WORKLOAD_CACHE_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "src/sim/traversal_tape.hpp"
#include "src/trace/render.hpp"

namespace sms {

/**
 * Serialization format version. Bump on ANY change to the snapshot
 * layout or to the deterministic content of prepared workloads (scene
 * generators, BVH builder, path tracer, warp-job emission).
 */
constexpr uint32_t kWorkloadSnapshotVersion = 2;

/** Counters over all snapshot-cache activity of this process. */
struct WorkloadCacheStats
{
    uint64_t hits = 0;     ///< workloads served from a snapshot
    uint64_t misses = 0;   ///< lookups that had to rebuild
    uint64_t stores = 0;   ///< snapshots written
    uint64_t failures = 0; ///< invalid/unreadable snapshots discarded
    /** Scenes regenerated for workloads loaded without one. */
    uint64_t scene_rebuilds = 0;
};

/** Snapshot of this process's cache counters (thread-safe). */
WorkloadCacheStats workloadCacheStats();

/** Reset the cache counters (tests). */
void resetWorkloadCacheStats();

/** Count one Workload::scene() regeneration (thread-safe). */
void noteSceneRebuild();

/**
 * Snapshot-cache directory from SMS_WORKLOAD_CACHE, or "" when the
 * cache is disabled.
 */
std::string workloadCacheDir();

/** Snapshot file path for a cache key (diagnostics/tests). */
std::string workloadSnapshotPath(const std::string &dir, SceneId id,
                                 ScaleProfile profile,
                                 const RenderParams &params);

/**
 * Load a snapshot for the key, or nullptr on miss. Records a hit or a
 * miss (plus a failure when a snapshot existed but did not validate).
 */
std::shared_ptr<Workload> loadWorkloadSnapshot(const std::string &dir,
                                               SceneId id,
                                               ScaleProfile profile,
                                               const RenderParams &params);

/**
 * Serialize @p workload under the key. @return false (with a warning)
 * on I/O failure — the run proceeds uncached.
 */
bool saveWorkloadSnapshot(const std::string &dir,
                          const Workload &workload, ScaleProfile profile,
                          const RenderParams &params);

/**
 * Traversal-tape file path for a cache key (diagnostics/tests). Tapes
 * live alongside the .wkld snapshots under the same key because the
 * tape is a pure function of the prepared workload. The default
 * (exact-layout, unordered) traversal variant keeps the historical
 * `<key>.tape` name; non-default variants append `-v<digest16>` since
 * their tapes record a different functional traversal.
 */
std::string traversalTapePath(const std::string &dir, SceneId id,
                              ScaleProfile profile,
                              const RenderParams &params);
std::string traversalTapePath(const std::string &dir, SceneId id,
                              ScaleProfile profile,
                              const RenderParams &params,
                              const TraversalVariant &variant);

/**
 * Load a persisted traversal tape for @p workload into @p out.
 *
 * A missing file is a quiet miss; an invalid file (bad magic, version,
 * checksum, truncation) or one whose fingerprint does not match the
 * workload's job stream counts a tape failure and is treated as a miss
 * so the caller rebuilds (and rewrites) the tape. The variant-aware
 * overload validates against the variant's job stream (reordered when
 * it reorders) xor the variant digest; the plain overload assumes the
 * default variant.
 */
bool loadTraversalTape(const std::string &dir, const Workload &workload,
                       TraversalTape &out);
bool loadTraversalTape(const std::string &dir, const Workload &workload,
                       const TraversalVariant &variant,
                       TraversalTape &out);

/**
 * Persist @p tape for @p workload alongside its .wkld snapshot.
 * @return false (with a warning) on I/O failure.
 */
bool saveTraversalTape(const std::string &dir, const Workload &workload,
                       const TraversalTape &tape);
bool saveTraversalTape(const std::string &dir, const Workload &workload,
                       const TraversalVariant &variant,
                       const TraversalTape &tape);

} // namespace sms

#endif // SMS_TRACE_WORKLOAD_CACHE_HPP
