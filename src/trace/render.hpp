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
#include <optional>
#include <string>

#include "src/bvh/wide_bvh.hpp"
#include "src/scene/registry.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/trace/path_tracer.hpp"

namespace sms {

/**
 * A fully prepared, configuration-independent workload.
 *
 * Only the functional pass (buildWorkloadTape) and scene diagnostics
 * read the scene; replaying a tape needs the BVH and the job stream
 * alone. So a workload loaded from a snapshot carries no scene, and
 * scene() regenerates it on first use.
 */
struct Workload
{
    SceneId id;
    ScaleProfile profile;
    WideBvh bvh;
    RenderParams params;
    RenderOutput render;

    /** A freshly prepared workload, which keeps its scene. */
    Workload(SceneId id_, ScaleProfile profile_, Scene scene_,
             WideBvh bvh_, RenderParams params_, RenderOutput render_);

    /** A workload without its scene (loaded from a snapshot). */
    Workload(SceneId id_, ScaleProfile profile_, WideBvh bvh_,
             RenderParams params_, RenderOutput render_);

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /**
     * The scene: the one the workload was prepared from, or, for a
     * scene-less workload, makeScene(id, profile) built by the first
     * call. Thread-safe; a workload regenerates its scene at most once,
     * checks it against the BVH's primitive count, and counts it in
     * WorkloadCacheStats::scene_rebuilds.
     */
    const Scene &scene() const;

  private:
    mutable std::once_flag scene_once_;
    mutable std::optional<Scene> stored_scene_;
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
