/**
 * @file
 * High-level driver: prepare a scene workload once (scene, BVH, warp
 * jobs, reference image), then run it under many GPU configurations —
 * the shape of every experiment in the paper's evaluation.
 */

#ifndef SMS_TRACE_RENDER_HPP
#define SMS_TRACE_RENDER_HPP

#include <memory>
#include <mutex>
#include <string>

#include "src/bvh/wide_bvh.hpp"
#include "src/scene/registry.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/trace/path_tracer.hpp"

namespace sms {

/**
 * XXH64 of everything a scene holds: its name, camera, light,
 * materials, primitives and their material ids, each part's bytes
 * hashed with the previous part's hash as the seed.
 */
uint64_t sceneHash(const Scene &scene);

/**
 * A fully prepared, configuration-independent workload.
 *
 * Only the functional pass (buildWorkloadTape) and scene diagnostics
 * read the scene; replaying a tape needs the BVH and the job stream
 * alone. So a workload holds no scene: scene() hands out a shared
 * lease on one, regenerated when no lease is alive, and the scene is
 * freed when the last lease drops. A freshly prepared workload and one
 * loaded from a snapshot are the same kind of object.
 */
struct Workload
{
    SceneId id;
    ScaleProfile profile;
    WideBvh bvh;
    RenderParams params;
    RenderOutput render;
    /** sceneHash() of the scene the workload was prepared from. */
    uint64_t scene_hash;

    /**
     * A freshly prepared workload. @p scene_ must be the scene the BVH
     * was built over; the workload records its hash and drops it.
     */
    Workload(SceneId id_, ScaleProfile profile_, Scene scene_,
             WideBvh bvh_, RenderParams params_, RenderOutput render_);

    /** A workload loaded from a snapshot, which records the hash. */
    Workload(SceneId id_, ScaleProfile profile_, WideBvh bvh_,
             RenderParams params_, RenderOutput render_,
             uint64_t scene_hash_);

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /**
     * A lease on the scene: the one another lease keeps alive, or
     * makeScene(id, profile) reserved to the BVH's primitive count.
     * Thread-safe; callers that ask at once share one regeneration,
     * which must match scene_hash and is counted in
     * WorkloadCacheStats::scene_rebuilds. Hold the lease for as long
     * as the scene is read: once none is alive, the next call
     * regenerates the scene.
     */
    std::shared_ptr<const Scene> scene() const;

  private:
    mutable std::mutex scene_mutex_;
    mutable std::weak_ptr<const Scene> leased_scene_;
};

/**
 * Build the scene, its BVH6, and the warp-job stream.
 *
 * @param id      scene to build
 * @param profile geometry scale
 * @param params  render parameters; defaults to RenderParams::forScene
 */
std::shared_ptr<Workload>
prepareWorkload(SceneId id, ScaleProfile profile = ScaleProfile::Small,
                const RenderParams *params = nullptr);

/** GPU config with the given stack setup (Table I otherwise). */
GpuConfig makeGpuConfig(const StackConfig &stack,
                        uint64_t l1_override_bytes = 0);

/**
 * Display name of a configuration: the stack name, plus the traversal
 * variant tag when non-default ("RB_8", "SMS+q8+mort", ...). Default
 * variants reduce to the bare stack name, keeping existing record keys
 * byte-identical.
 */
std::string configDisplayName(const GpuConfig &config);

/**
 * The functional pass over a prepared workload: buildTraversalTape() of
 * its job stream as simulated under @p variant (reordered when the
 * variant reorders).
 */
TraversalTape buildWorkloadTape(const Workload &workload,
                                const TraversalVariant &variant);

/**
 * Simulate a prepared workload under one configuration. options.tape,
 * when set, must be buildWorkloadTape(workload, config.variant());
 * when null, the tape is built here first, from the scene.
 */
SimResult runWorkload(const Workload &workload, const GpuConfig &config,
                      const SimOptions &options = {});

} // namespace sms

#endif // SMS_TRACE_RENDER_HPP
