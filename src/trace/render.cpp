/**
 * @file
 * High-level render driver implementation.
 */

#include "src/trace/render.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "src/sim/ray_reorder.hpp"
#include "src/stats/timeline.hpp"
#include "src/trace/workload_cache.hpp"
#include "src/util/check.hpp"

namespace sms {

#ifdef __GLIBC__
namespace {

/**
 * Set-up frees many 1-32 MB buffers (growing triangle vectors, PrimRef
 * and node arrays, snapshot bodies). After the first large free, glibc
 * raises its mmap threshold (up to 32 MiB), so later buffers of that
 * size come from arenas it never trims: in a cold 16-scene Small run,
 * 138 of the 157 buffers of 1 MiB or more did, and peak RSS held the
 * freed ones. A fixed 1 MiB threshold maps every such buffer and
 * unmaps it on free (with the BVH builder's untouched node arrays,
 * peak RSS fell from about 440 to 279 MB).
 *
 * Fixing it also stops glibc from raising its trim threshold to twice
 * the mmap threshold, as it otherwise does. Left at 128 KiB, a heap
 * that frees more than that at its top hands the pages back, and its
 * next allocations fault them in again: 14 K more minor page faults
 * in the same run, half of them in the sweep. So the trim threshold
 * keeps glibc's own ratio, 2 MiB.
 *
 * Both are set at program start, so every program that links the
 * render driver prepares its workloads under the same policy, however
 * it composes the set-up layers.
 */
int
fixMallocThresholds()
{
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    return mallopt(M_TRIM_THRESHOLD, 2 << 20);
}

[[maybe_unused]] const int kFixedMallocThresholds = fixMallocThresholds();

} // namespace
#endif

Workload::Workload(SceneId id_, ScaleProfile profile_, Scene scene_,
                   WideBvh bvh_, RenderParams params_,
                   RenderOutput render_)
    : id(id_), profile(profile_), bvh(std::move(bvh_)), params(params_),
      render(std::move(render_)), stored_scene_(std::move(scene_))
{}

Workload::Workload(SceneId id_, ScaleProfile profile_, WideBvh bvh_,
                   RenderParams params_, RenderOutput render_)
    : id(id_), profile(profile_), bvh(std::move(bvh_)), params(params_),
      render(std::move(render_))
{}

const Scene &
Workload::scene() const
{
    std::call_once(scene_once_, [this] {
        if (stored_scene_)
            return;
        stored_scene_.emplace(makeScene(id, profile));
        // Scene generation is deterministic, so the regenerated scene
        // is the one the BVH was built over, unless the generators
        // changed without a snapshot version bump.
        SMS_ASSERT(stored_scene_->primitiveCount() ==
                       bvh.primIndices().size(),
                   "scene %s regenerated with %u primitives, but its "
                   "BVH indexes %zu",
                   sceneName(id), stored_scene_->primitiveCount(),
                   bvh.primIndices().size());
        noteSceneRebuild();
    });
    return *stored_scene_;
}

std::shared_ptr<Workload>
prepareWorkload(SceneId id, ScaleProfile profile,
                const RenderParams *params)
{
    RenderParams rp = params ? *params : RenderParams::forScene(id);

    // Preparation is deterministic and configuration-independent, so a
    // validated snapshot (SMS_WORKLOAD_CACHE) substitutes bit-exactly.
    std::string cache_dir = workloadCacheDir();
    if (!cache_dir.empty()) {
        if (auto cached =
                loadWorkloadSnapshot(cache_dir, id, profile, rp))
            return cached;
    }

    Scene scene = makeScene(id, profile);
    WideBvh bvh = WideBvh::build(scene);
    RenderOutput render = renderAndBuildJobs(scene, bvh, rp);
    auto workload = std::make_shared<Workload>(
        id, profile, std::move(scene), std::move(bvh), rp,
        std::move(render));
    if (!cache_dir.empty())
        saveWorkloadSnapshot(cache_dir, *workload, profile, rp);
    return workload;
}

GpuConfig
makeGpuConfig(const StackConfig &stack, uint64_t l1_override_bytes)
{
    GpuConfig config = GpuConfig::tableI();
    config.stack = stack;
    config.l1_override_bytes = l1_override_bytes;
    return config;
}

std::string
configDisplayName(const GpuConfig &config)
{
    std::string name = config.stack.name();
    std::string tag = config.variant().tag();
    if (!tag.empty())
        name += "+" + tag;
    return name;
}

namespace {

/**
 * The job stream as simulated under @p order: the workload's own, or
 * reordered into @p storage. Reordering is a deterministic pure
 * function of the prepared workload, so tapes and cached results key
 * on it via the variant digest.
 */
const WarpJobList &
simulatedJobs(const Workload &workload, const RayOrderConfig &order,
              WarpJobList &storage)
{
    if (!order.active())
        return workload.render.jobs;
    storage = reorderJobs(workload.render.jobs, workload.bvh, order);
    return storage;
}

} // namespace

TraversalTape
buildWorkloadTape(const Workload &workload, const TraversalVariant &variant)
{
    WarpJobList storage;
    return buildTraversalTape(workload.scene(), workload.bvh,
                              simulatedJobs(workload, variant.order,
                                            storage),
                              variant);
}

SimResult
runWorkload(const Workload &workload, const GpuConfig &config,
            const SimOptions &options)
{
    WarpJobList storage;
    const WarpJobList &jobs =
        simulatedJobs(workload, config.ray_order, storage);
    SimOptions opts = options;
    // Only a run without a tape reads the scene, to build the tape;
    // sweeps build each (scene, variant) tape once and share it.
    TraversalTape built;
    if (!opts.tape) {
        built = buildTraversalTape(workload.scene(), workload.bvh, jobs,
                                   config.variant());
        opts.tape = &built;
    }
    if (timelineAnyOn() && opts.timeline_label.empty()) {
        // Default trace-process label: "scene config (cycles)".
        opts.timeline_label = std::string(sceneName(workload.id)) + " " +
                              configDisplayName(config) + " (cycles)";
    }
    SimResult result = simulateJobs(workload.bvh, jobs, config, opts);
    SMS_ASSERT(result.mismatches == 0,
               "timing simulation diverged from the functional oracle "
               "(%u lanes) on scene %s under %s",
               result.mismatches, sceneName(workload.id),
               configDisplayName(config).c_str());
    return result;
}

} // namespace sms
