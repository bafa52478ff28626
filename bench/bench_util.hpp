/**
 * @file
 * Shared plumbing for the per-figure benchmark harnesses: workload
 * preparation over the whole scene suite, configuration sweeps,
 * normalized-IPC aggregation matching how the paper reports results
 * (per-scene normalized IPC, then the mean across scenes), and the
 * machine-readable JSON record every harness appends when SMS_JSON or
 * --json is set.
 */

#ifndef SMS_BENCH_BENCH_UTIL_HPP
#define SMS_BENCH_BENCH_UTIL_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include "src/scene/registry.hpp"
#include "src/serve/result_cache.hpp"
#include "src/serve/sweep_shard.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/stats/histogram.hpp"
#include "src/stats/metrics.hpp"
#include "src/stats/report.hpp"
#include "src/stats/table.hpp"
#include "src/stats/timeline.hpp"
#include "src/trace/render.hpp"
#include "src/trace/workload_cache.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace sms {
namespace benchutil {

/**
 * Wall-clock of the most recent prepareAllScenes() call, picked up by
 * JsonReporter::finish() for the throughput record. One value per
 * process is enough: every harness prepares once, then sweeps.
 */
inline double g_last_prepare_seconds = 0.0;

/** Display name of a geometry scale profile. */
inline const char *
profileName(ScaleProfile profile)
{
    switch (profile) {
    case ScaleProfile::Tiny: return "Tiny";
    case ScaleProfile::Small: return "Small";
    case ScaleProfile::Large: return "Large";
    }
    return "?";
}

/**
 * SMS_FULL=1 selects the Large geometry profile; 0/unset the Small one.
 * Anything else is a misconfiguration: warn and fall back to Small
 * rather than silently running the wrong profile.
 */
inline ScaleProfile
profileFromEnv()
{
    const char *full = std::getenv("SMS_FULL");
    if (!full || !*full || std::strcmp(full, "0") == 0)
        return ScaleProfile::Small;
    if (std::strcmp(full, "1") == 0)
        return ScaleProfile::Large;
    warn("SMS_FULL='%s' is not a recognized value (expected 0 or 1); "
         "using the Small profile",
         full);
    return ScaleProfile::Small;
}

/**
 * Scene subset under test: all 16 Table II scenes, or the
 * comma-separated names in SMS_SCENES (e.g. SMS_SCENES=WKND,BUNNY for
 * a CI smoke run). Unknown names are fatal.
 */
inline std::vector<SceneId>
scenesFromEnv()
{
    const auto &all = allScenes();
    const char *filter = std::getenv("SMS_SCENES");
    if (!filter || !*filter)
        return {all.begin(), all.end()};
    std::vector<SceneId> ids;
    std::string spec(filter);
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string name = spec.substr(pos, comma - pos);
        if (!name.empty())
            ids.push_back(sceneFromName(name));
        pos = comma + 1;
    }
    if (ids.empty())
        fatal("SMS_SCENES='%s' names no scenes", filter);
    return ids;
}

/**
 * Prepare the scene workloads in parallel (Table II order). With live
 * telemetry on (the JsonReporter starts it), the prepare.scenes_total
 * and prepare.scenes_done counters report preparation progress before
 * the sweep has cells.
 */
inline std::vector<std::shared_ptr<Workload>>
prepareAllScenes(ScaleProfile profile = profileFromEnv())
{
    timelineInitFromEnv();
    auto start = std::chrono::steady_clock::now();
    const auto ids = scenesFromEnv();
    std::vector<std::shared_ptr<Workload>> workloads(ids.size());
    if (metricsOn())
        metricCounter("prepare.scenes_total").add(ids.size());
    const bool tl = timelineOn(TimelineCategory::Sweep);
    uint32_t tl_pid = 0;
    uint64_t tl_start = 0;
    if (tl) {
        tl_pid = timelineNewProcess("prepare (wall-clock us)");
        tl_start = timelineWallMicros();
    }
    parallelFor(ids.size(), [&](size_t i) {
        uint64_t t0 = tl ? timelineWallMicros() : 0;
        workloads[i] = prepareWorkload(ids[i], profile);
        if (metricsOn()) {
            static MetricCounter &m_done =
                metricCounter("prepare.scenes_done");
            m_done.add();
        }
        if (tl) {
            uint32_t tid = static_cast<uint32_t>(i) + 1;
            timelineNameThread(tl_pid, tid, sceneName(ids[i]));
            timelineSpanAt(TimelineCategory::Sweep, "prepare_scene",
                           tl_pid, tid, t0, timelineWallMicros() - t0);
        }
    });
    if (tl)
        timelineSpanAt(TimelineCategory::Sweep, "prepare", tl_pid, 0,
                       tl_start, timelineWallMicros() - tl_start,
                       ids.size(), "scenes");
    g_last_prepare_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return workloads;
}

/** How a sweep cell's SimResult came to be. */
enum class CellOrigin : uint8_t
{
    NotOwned = 0, ///< another shard's cell; result left default
    Simulated,    ///< simulated by this run
    CacheHit,     ///< deserialized from the result cache
};

/**
 * One column of a sweep grid: a stack configuration plus the
 * traversal-variant axes (node layout, ray scheduling, traversal
 * architecture) and an optional L1 size override. The plain
 * stack-config sweeps the paper figures run are the special case of
 * all-default variant columns.
 */
struct SweepColumn
{
    StackConfig stack;
    uint64_t l1_override = 0;   ///< 0 = the config's own L1 size
    NodeLayoutConfig layout{};  ///< exact by default
    RayOrderConfig order{};     ///< no reordering by default
    TraversalArchConfig arch{}; ///< stack machine by default

    /** Full GpuConfig of this column (Table I otherwise). */
    GpuConfig
    gpuConfig() const
    {
        GpuConfig config = makeGpuConfig(stack, l1_override);
        config.node_layout = layout;
        config.ray_order = order;
        config.traversal_arch = arch;
        return config;
    }

    /** The column's traversal variant (tape/fingerprint identity). */
    TraversalVariant
    variant() const
    {
        return TraversalVariant{layout, order, arch};
    }

    /** "RB_8", "SMS+q8+mort", ... (bare stack name at defaults). */
    std::string
    displayName() const
    {
        return configDisplayName(gpuConfig());
    }
};

/** Result grid of a (scene x config) sweep. */
struct SweepResult
{
    /** The grid's columns: stack, L1 override and variant axes. */
    std::vector<SweepColumn> columns;
    std::vector<std::string> scene_names; ///< parallel to results rows
    /** results[scene][column] */
    std::vector<std::vector<SimResult>> results;
    /** Wall-clock seconds spent simulating each cell (same shape). */
    std::vector<std::vector<double>> cell_wall_seconds;
    /** Provenance of each cell (same shape). */
    std::vector<std::vector<CellOrigin>> cell_origin;
    /** Shard identity the sweep ran under (inactive = whole grid). */
    SweepShardSpec shard;
    /** Wall-clock seconds of the whole sweep (includes scheduling). */
    double wall_seconds = 0.0;

    /** Scene label for diagnostics (index when names are absent). */
    std::string
    sceneLabel(size_t s) const
    {
        return s < scene_names.size() ? scene_names[s]
                                      : "scene#" + std::to_string(s);
    }

    /**
     * Display label of column @p c: the stack name plus the variant
     * tag ("SMS+q8+mort"); reduces to the bare stack name for
     * default-variant columns, keeping existing record keys stable.
     */
    std::string
    configLabel(size_t c) const
    {
        return columns[c].displayName();
    }
};

/**
 * Run every workload under every column of the sweep grid.
 *
 * Cells replay one traversal tape per (scene, traversal variant)
 * group: columns sharing a node layout, ray ordering and architecture
 * share the functional traversal. With a workload cache
 * (SMS_WORKLOAD_CACHE) every group's tape is first loaded from disk
 * where a valid one exists. A group without one gets one
 * single-threaded build task (buildWorkloadTape, stored back to the
 * cache when there is one). All tasks run from one ready queue with no
 * phase barrier: build tasks go first, in grid order; a group's cells
 * wait only for its build; and among ready cells the largest tape (the
 * costliest scene) goes first. The result grid depends on neither the
 * cache nor the schedule.
 *
 * Two orthogonal reducers run before any cell simulates. When a shard
 * identity is active (sweepShardSpec()), only the owned cells of the
 * flattened grid are touched; the rest stay CellOrigin::NotOwned with
 * default results. When SMS_RESULT_CACHE is set, every owned cell is
 * first probed in the result cache — hits are deserialized instead of
 * simulated (the simulator is deterministic, so the cached counters
 * are the ones simulation would produce), and simulated cells are
 * stored back. The ready queue then covers only the owned cache-miss
 * cells; a fully warm sweep performs zero simulateJobs() calls.
 *
 * @param threads worker threads for the grid (0 = hardware default);
 *                results are per-cell deterministic for any value
 */
inline SweepResult
runSweep(const std::vector<std::shared_ptr<Workload>> &workloads,
         const std::vector<SweepColumn> &columns, unsigned threads = 0)
{
    timelineInitFromEnv();
    const SweepShardSpec shard = sweepShardSpec();
    metricsInitFromEnv(shard.index, shard.count);
    auto start = std::chrono::steady_clock::now();
    const bool tl = timelineOn(TimelineCategory::Sweep);
    uint32_t tl_pid = 0;
    uint64_t tl_start = 0;
    if (tl) {
        tl_pid = timelineNewProcess("sweep (wall-clock us)");
        tl_start = timelineWallMicros();
    }
    SweepResult sweep;
    sweep.shard = shard;
    sweep.columns = columns;
    for (const auto &w : workloads)
        sweep.scene_names.push_back(sceneName(w->id));
    sweep.results.assign(workloads.size(),
                         std::vector<SimResult>(columns.size()));
    sweep.cell_wall_seconds.assign(
        workloads.size(), std::vector<double>(columns.size(), 0.0));
    sweep.cell_origin.assign(workloads.size(),
                             std::vector<CellOrigin>(
                                 columns.size(), CellOrigin::NotOwned));

    const size_t num_configs = columns.size();
    auto owned = [&](size_t s, size_t c) {
        return sweep.shard.owns(
            static_cast<uint64_t>(s) * num_configs + c);
    };

    // Live telemetry: publish how many cells this process owns before
    // any of them runs, so progress bars over the series have a
    // denominator from the very first sample.
    if (metricsOn()) {
        uint64_t owned_cells = 0;
        for (size_t s = 0; s < workloads.size(); ++s)
            for (size_t c = 0; c < num_configs; ++c)
                if (owned(s, c))
                    ++owned_cells;
        metricCounter("sweep.cells_owned").add(owned_cells);
    }
    // Per-cell completion instrumentation, shared by the cache-hit and
    // simulated paths. The wall histogram only sees simulated cells
    // (hits complete in microseconds and would drown the signal).
    auto noteCellDone = [](CellOrigin origin, double wall_seconds) {
        if (!metricsOn())
            return;
        static MetricCounter &m_hits =
            metricCounter("sweep.cells_cache_hits");
        static MetricCounter &m_simulated =
            metricCounter("sweep.cells_simulated");
        static MetricCounter &m_done = metricCounter("sweep.cells_done");
        static MetricHistogram &m_wall = metricHistogram(
            "sweep.cell_wall_ms",
            {1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000});
        if (origin == CellOrigin::CacheHit) {
            m_hits.add();
        } else {
            m_simulated.add();
            m_wall.observe(wall_seconds * 1e3);
        }
        m_done.add();
    };

    // Result-cache keys: one workload fingerprint per scene, one
    // config digest per column (both sides of each cell's identity).
    // The digest covers the layout/order axes, so variant columns map
    // to distinct cache cells even though the scene fingerprint is
    // shared.
    const std::string result_dir = resultCacheDir();
    std::vector<uint64_t> fingerprints;
    std::vector<uint64_t> digests;
    if (!result_dir.empty()) {
        fingerprints.resize(workloads.size());
        for (size_t s = 0; s < workloads.size(); ++s)
            fingerprints[s] = workloadFingerprint(
                workloads[s]->render.jobs, workloads[s]->bvh);
        digests.resize(columns.size());
        for (size_t c = 0; c < columns.size(); ++c)
            digests[c] = gpuConfigDigest(columns[c].gpuConfig());
    }

    auto runCell = [&](size_t s, size_t c, const SimOptions &options) {
        GpuConfig config = columns[c].gpuConfig();
        uint64_t t0 = tl ? timelineWallMicros() : 0;
        auto cell_start = std::chrono::steady_clock::now();
        sweep.results[s][c] =
            runWorkload(*workloads[s], config, options);
        sweep.cell_wall_seconds[s][c] =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - cell_start)
                .count();
        sweep.cell_origin[s][c] = CellOrigin::Simulated;
        if (!result_dir.empty())
            storeCachedResult(result_dir, workloads[s]->id,
                              workloads[s]->profile, fingerprints[s],
                              digests[c], sweep.results[s][c],
                              sweep.cell_wall_seconds[s][c]);
        noteCellDone(CellOrigin::Simulated,
                     sweep.cell_wall_seconds[s][c]);
        if (tl) {
            // One wall-clock row per sweep cell; the cell's simulated
            // cycles ride along so the two clock domains can be tied
            // together when reading the trace.
            uint32_t tid =
                static_cast<uint32_t>(s * columns.size() + c) + 1;
            timelineNameThread(tl_pid, tid,
                               sweep.sceneLabel(s) + " " +
                                   sweep.configLabel(c));
            timelineSpanAt(TimelineCategory::Sweep, "cell", tl_pid, tid,
                           t0, timelineWallMicros() - t0,
                           sweep.results[s][c].cycles, "sim_cycles");
        }
    };

    // Probe the result cache for every owned cell before simulating
    // anything: a hit deserializes the finished counters (identical to
    // what simulation would produce — the simulator is deterministic)
    // and carries the recording run's simulation wall seconds.
    if (!result_dir.empty()) {
        parallelFor(
            workloads.size() * num_configs,
            [&](size_t i) {
                size_t s = i / num_configs;
                size_t c = i % num_configs;
                if (!owned(s, c))
                    return;
                if (loadCachedResult(result_dir, workloads[s]->id,
                                     workloads[s]->profile,
                                     fingerprints[s], digests[c],
                                     sweep.results[s][c],
                                     sweep.cell_wall_seconds[s][c])) {
                    sweep.cell_origin[s][c] = CellOrigin::CacheHit;
                    noteCellDone(CellOrigin::CacheHit, 0.0);
                }
            },
            threads);
    }

    // The cells still to simulate, in grid order: owned and not served
    // by the cache. Tape sharing is per (scene, traversal variant):
    // columns with a different node layout, ray ordering or
    // architecture have a different functional traversal.
    struct TapeGroup
    {
        size_t scene;
        TraversalVariant variant;
    };
    struct Cell
    {
        size_t group;
        size_t column;
    };
    std::vector<TapeGroup> groups;
    std::vector<Cell> cells;
    for (size_t s = 0; s < workloads.size(); ++s) {
        size_t first_group = groups.size();
        for (size_t c = 0; c < num_configs; ++c) {
            if (!owned(s, c) ||
                sweep.cell_origin[s][c] == CellOrigin::CacheHit)
                continue;
            TraversalVariant variant = columns[c].variant();
            size_t g = first_group;
            while (g < groups.size() &&
                   groups[g].variant.digest() != variant.digest())
                ++g;
            if (g == groups.size())
                groups.push_back({s, variant});
            cells.push_back({g, c});
        }
    }

    const std::string cache_dir = workloadCacheDir();
    std::vector<TraversalTape> tapes(groups.size());
    std::vector<uint64_t> tape_bytes(groups.size(), 0);
    // Tape work gets one wall-clock row per group, after the cell rows,
    // named by scene and variant; spans carry the tape's jobs and bytes.
    auto tapeSpan = [&](size_t g, const char *name, uint64_t t0) {
        if (!tl)
            return;
        uint32_t tid =
            static_cast<uint32_t>(workloads.size() * num_configs + g) + 1;
        std::string tag = groups[g].variant.tag();
        timelineNameThread(tl_pid, tid,
                           sweep.sceneLabel(groups[g].scene) +
                               (tag.empty() ? "" : " " + tag) + " tape");
        timelineSpanAt(TimelineCategory::Sweep, name, tl_pid, tid, t0,
                       timelineWallMicros() - t0, tapes[g].jobs.size(),
                       "jobs", tape_bytes[g], "bytes");
    };
    // char, not bool: the loads below write it from parallel workers.
    std::vector<char> loaded(groups.size(), 0);
    // Every disk tape loads before any cell runs, so its group's cells
    // are all ready from the start.
    if (!cache_dir.empty())
        parallelFor(
            groups.size(),
            [&](size_t g) {
                uint64_t t0 = tl ? timelineWallMicros() : 0;
                loaded[g] = loadTraversalTape(
                    cache_dir, *workloads[groups[g].scene],
                    groups[g].variant, tapes[g]);
                if (loaded[g])
                    tape_bytes[g] = tapes[g].totalBytes();
                tapeSpan(g, "tape_load", t0);
            },
            threads);
    // A workload holds no scene, so a scene's tape builds share one
    // lease on it: the first build to start takes it, the last to end
    // drops it, and the scene is generated once per sweep and freed
    // before the sweep ends.
    struct SceneLease
    {
        std::mutex mutex;
        std::shared_ptr<const Scene> scene;
        size_t builds_left = 0;
    };
    std::vector<SceneLease> leases(workloads.size());
    auto buildTape = [&](size_t g) {
        const Workload &workload = *workloads[groups[g].scene];
        SceneLease &lease = leases[groups[g].scene];
        uint64_t t0 = tl ? timelineWallMicros() : 0;
        {
            std::lock_guard<std::mutex> lock(lease.mutex);
            if (!lease.scene)
                lease.scene = workload.scene();
        }
        tapes[g] = buildWorkloadTape(workload, groups[g].variant);
        {
            std::lock_guard<std::mutex> lock(lease.mutex);
            if (--lease.builds_left == 0)
                lease.scene.reset();
        }
        tape_bytes[g] = tapes[g].totalBytes();
        tapeSpan(g, "tape_build", t0);
        if (cache_dir.empty())
            return;
        t0 = tl ? timelineWallMicros() : 0;
        saveTraversalTape(cache_dir, workload, groups[g].variant,
                          tapes[g]);
        tapeSpan(g, "tape_store", t0);
    };

    // One ready queue, no phase barrier: a build task for each group
    // without a tape, ahead of every cell in grid order, then the
    // cells, each waiting only for its group's build. Ready cells go
    // largest tape first, which ranks replay cost per scene.
    std::vector<size_t> builds; // group of each build task
    std::vector<size_t> after;
    std::vector<size_t> build_of(groups.size(), kNoTask);
    for (size_t g = 0; g < groups.size(); ++g) {
        if (loaded[g])
            continue;
        build_of[g] = builds.size();
        builds.push_back(g);
        after.push_back(kNoTask);
        ++leases[groups[g].scene].builds_left;
    }
    for (const Cell &cell : cells)
        after.push_back(build_of[cell.group]);
    parallelForAfter(
        after.size(), after,
        [&](size_t t) {
            return t < builds.size()
                       ? std::numeric_limits<uint64_t>::max()
                       : tape_bytes[cells[t - builds.size()].group];
        },
        [&](size_t t) {
            if (t < builds.size()) {
                buildTape(builds[t]);
                return;
            }
            const Cell &cell = cells[t - builds.size()];
            SimOptions options;
            options.tape = &tapes[cell.group];
            runCell(groups[cell.group].scene, cell.column, options);
        },
        threads);
    sweep.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (tl)
        timelineSpanAt(TimelineCategory::Sweep, "sweep", tl_pid, 0,
                       tl_start, timelineWallMicros() - tl_start,
                       workloads.size() * columns.size(), "cells");
    return sweep;
}

/**
 * Stack-config sweep: every column uses the default traversal variant
 * (exact node layout, no reordering), matching the paper figures.
 */
inline SweepResult
runSweep(const std::vector<std::shared_ptr<Workload>> &workloads,
         const std::vector<StackConfig> &configs,
         const std::vector<uint64_t> &l1_overrides = {},
         unsigned threads = 0)
{
    std::vector<SweepColumn> columns(configs.size());
    for (size_t c = 0; c < configs.size(); ++c) {
        columns[c].stack = configs[c];
        if (c < l1_overrides.size())
            columns[c].l1_override = l1_overrides[c];
    }
    return runSweep(workloads, columns, threads);
}

/**
 * Normalized IPC of configuration @p c for scene @p s against baseline
 * column @p base.
 *
 * A degenerate cell (zero measured or baseline IPC) is reported as NaN
 * with a warning naming the offending scene/config instead of feeding a
 * non-positive ratio into the downstream geomean (which would abort the
 * whole sweep).
 */
inline double
normIpc(const SweepResult &sweep, size_t s, size_t c, size_t base = 0)
{
    double b = sweep.results[s][base].ipc();
    double v = sweep.results[s][c].ipc();
    if (!(b > 0.0) || !(v > 0.0)) {
        warn("normIpc: degenerate IPC for scene %s (config '%s' ipc=%g, "
             "baseline '%s' ipc=%g); cell reported as NaN",
             sweep.sceneLabel(s).c_str(), sweep.configLabel(c).c_str(),
             v, sweep.configLabel(base).c_str(), b);
        return std::numeric_limits<double>::quiet_NaN();
    }
    return v / b;
}

/**
 * Mean normalized IPC across scenes (geometric, as is standard).
 * Degenerate cells are excluded from the mean (already warned about by
 * normIpc); the sweep keeps running.
 */
inline double
meanNormIpc(const SweepResult &sweep, size_t c, size_t base = 0)
{
    std::vector<double> values;
    values.reserve(sweep.results.size());
    for (size_t s = 0; s < sweep.results.size(); ++s) {
        double v = normIpc(sweep, s, c, base);
        if (std::isfinite(v) && v > 0.0)
            values.push_back(v);
    }
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return geomean(values);
}

/**
 * Normalized off-chip access count of one cell.
 *
 * Both counts zero means "no change" (1.0). A zero baseline with
 * non-zero measured traffic is a regression the old symmetric clamp
 * used to hide as 1.0; it is now reported in the true direction (the
 * measured count against an implied baseline of one access) with a
 * warning flagging the cell. Ratios are floored at 1e-6 so a config
 * that eliminates off-chip traffic entirely cannot zero the geomean.
 */
inline double
normOffchip(const SweepResult &sweep, size_t s, size_t c, size_t base = 0)
{
    double b =
        static_cast<double>(sweep.results[s][base].offchip_accesses);
    double v = static_cast<double>(sweep.results[s][c].offchip_accesses);
    double ratio;
    if (b > 0.0) {
        ratio = v / b;
    } else if (v > 0.0) {
        warn("normOffchip: scene %s config '%s' has %g off-chip accesses "
             "but the baseline '%s' has none; reporting the regression "
             "against an implied baseline of 1",
             sweep.sceneLabel(s).c_str(), sweep.configLabel(c).c_str(),
             v, sweep.configLabel(base).c_str());
        ratio = v;
    } else {
        ratio = 1.0;
    }
    return ratio > 1.0e-6 ? ratio : 1.0e-6;
}

/** Mean normalized off-chip access count across scenes. */
inline double
meanNormOffchip(const SweepResult &sweep, size_t c, size_t base = 0)
{
    std::vector<double> values;
    values.reserve(sweep.results.size());
    for (size_t s = 0; s < sweep.results.size(); ++s)
        values.push_back(normOffchip(sweep, s, c, base));
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return geomean(values);
}

/** "paper vs measured" footer helper. */
inline void
printPaperNote(const std::string &note)
{
    std::printf("\npaper reference: %s\n", note.c_str());
}

/**
 * Machine-readable record emitter for one bench run.
 *
 * Activated by --json[=PATH] on the command line or the SMS_JSON
 * environment variable. A bare --json or a PATH naming a directory
 * resolves to BENCH_<figure>.json (in the directory / the cwd); any
 * other PATH is used verbatim. One schema "sms-bench-1" record is
 * *appended* per run (JSONL), so consecutive runs build a perf
 * trajectory that tools/bench_compare can diff.
 *
 * Sharded execution rides on the same flags: --shards=i/N makes this
 * process shard worker i (equivalent to SMS_SWEEP_SHARDS, see
 * sweep_shard.hpp), and --shard-workers=N turns it into a coordinator
 * that forks N workers of itself, merges their records, and appends
 * the merged record to the --json path (required) without returning.
 */
class JsonReporter
{
  public:
    /** Consumes --json / --shards / --shard-workers from argc/argv. */
    JsonReporter(const std::string &figure, int &argc, char **argv)
        : figure_(figure), start_(std::chrono::steady_clock::now())
    {
        timelineInitFromEnv();
        std::string spec = consumeFlag(argc, argv);
        std::string shards = consumeValueFlag(argc, argv, "--shards=");
        std::string workers =
            consumeValueFlag(argc, argv, "--shard-workers=");
        if (!shards.empty()) {
            SweepShardSpec shard;
            std::string error;
            if (!parseSweepShardSpec(shards, shard, error))
                fatal("--shards=%s: %s", shards.c_str(), error.c_str());
            setSweepShardSpec(shard);
        }
        if (spec.empty()) {
            const char *env = std::getenv("SMS_JSON");
            if (env && *env)
                spec = env;
        }
        if (!workers.empty()) {
            if (!shards.empty())
                fatal("--shard-workers cannot be combined with "
                      "--shards");
            char *end = nullptr;
            unsigned long n = std::strtoul(workers.c_str(), &end, 10);
            if (!end || *end || n < 1 || n > 4096)
                fatal("--shard-workers=%s: want a worker count in "
                      "1..4096",
                      workers.c_str());
            if (spec.empty())
                fatal("--shard-workers requires --json (the merged "
                      "record needs a path)");
            // Forks the workers, merges, appends, exits.
            runShardCoordinator(static_cast<uint32_t>(n),
                                resolvePath(spec), argc, argv);
        }
        // Telemetry starts only here, after the coordinator branch: a
        // coordinator process must not run a sampler of its own — it
        // only watches its workers' series.
        shard_ = sweepShardSpec();
        metricsInitFromEnv(shard_.index, shard_.count);
        if (shard_.active() && spec.empty())
            warn("shard %u/%u is active without --json/SMS_JSON; the "
                 "partial results have nowhere to go and cannot be "
                 "merged",
                 shard_.index, shard_.count);
        if (spec.empty())
            return;
        path_ = resolvePath(spec);
        record_ = makeRunManifest(figure_,
                                  profileName(profileFromEnv()));
    }

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

    /** The record under construction (manifest pre-filled). */
    JsonValue &record() { return record_; }

    /**
     * Add a sweep's cells under @p key ("results", "results_l1", ...)
     * plus, for the default key, the per-config summary means.
     *
     * Under an active shard identity only the owned cells are emitted,
     * and the cross-cell derived values (norm_ipc, norm_offchip,
     * baseline, summary) are left null/absent — the other shards'
     * baseline cells are not available here. A "shard" block records
     * the identity, the ordered scene list, and each key's baseline
     * column so mergeShardRecords() can recompute them.
     */
    void
    addSweep(const SweepResult &sweep, size_t base = 0,
             const std::string &key = "results")
    {
        if (!enabled())
            return;
        const bool sharded = sweep.shard.active();
        JsonValue cells = JsonValue::array();
        for (size_t s = 0; s < sweep.results.size(); ++s) {
            for (size_t c = 0; c < sweep.columns.size(); ++c) {
                CellOrigin origin =
                    s < sweep.cell_origin.size() &&
                            c < sweep.cell_origin[s].size()
                        ? sweep.cell_origin[s][c]
                        : CellOrigin::Simulated;
                if (origin == CellOrigin::NotOwned)
                    continue;
                JsonValue cell = JsonValue::object();
                cell["scene"] = sweep.sceneLabel(s);
                cell["config"] = sweep.configLabel(c);
                cell["config_index"] = c;
                cell["l1_override"] = sweep.columns[c].l1_override;
                // Variant axes are emitted only when non-default so
                // default-variant records stay byte-identical to the
                // pre-variant golden files.
                if (!sweep.columns[c].variant().isDefault()) {
                    cell["node_layout"] =
                        sweep.columns[c].layout.name();
                    cell["ray_order"] = sweep.columns[c].order.name();
                    cell["architecture"] =
                        sweep.columns[c].arch.name();
                }
                const SimResult &r = sweep.results[s][c];
                cell["ipc"] = r.ipc();
                if (sharded) {
                    // The merge recomputes these against the full grid.
                    cell["norm_ipc"] = JsonValue();
                    cell["norm_offchip"] = JsonValue();
                } else {
                    cell["norm_ipc"] = normIpc(sweep, s, c, base);
                    cell["norm_offchip"] =
                        normOffchip(sweep, s, c, base);
                }
                cell["stack_config"] = toJson(sweep.columns[c].stack);
                cell["counters"] = toJson(r);
                // Promote the headline traffic metric for the gate.
                cell["offchip_accesses"] = r.offchip_accesses;
                // Simulator throughput of this cell (never compared by
                // the regression gate — machine-dependent). A
                // result-cache hit reports the recording run's
                // simulation wall seconds.
                double wall = s < sweep.cell_wall_seconds.size() &&
                                      c < sweep.cell_wall_seconds[s].size()
                                  ? sweep.cell_wall_seconds[s][c]
                                  : 0.0;
                cell["wall_seconds"] = wall;
                cell["sim_cycles_per_sec"] =
                    wall > 0.0 ? static_cast<double>(r.cycles) / wall
                               : 0.0;
                cell["origin"] = origin == CellOrigin::CacheHit
                                     ? "result_cache"
                                     : "simulated";
                // When a timeline trace was recorded, name the trace
                // process holding this cell's cycle-domain tracks.
                if (timelineAnyOn())
                    cell["timeline_process"] =
                        sweep.sceneLabel(s) + " " +
                        sweep.configLabel(c) + " (cycles)";
                cells.push(std::move(cell));
                sim_cycles_total_ += r.cycles;
                ++cells_total_;
            }
        }
        sweep_wall_seconds_ += sweep.wall_seconds;
        record_[key] = std::move(cells);
        sweep_added_ = true;

        if (sharded) {
            if (!record_.find("shard")) {
                JsonValue shard = JsonValue::object();
                shard["index"] = sweep.shard.index;
                shard["count"] = sweep.shard.count;
                JsonValue scenes = JsonValue::array();
                for (size_t s = 0; s < sweep.results.size(); ++s)
                    scenes.push(sweep.sceneLabel(s));
                shard["scenes"] = std::move(scenes);
                shard["bases"] = JsonValue::object();
                record_["shard"] = std::move(shard);
            }
            record_["shard"]["bases"][key] = base;
            return;
        }

        if (key == "results") {
            record_["baseline"] = sweep.configLabel(base);
            JsonValue summary = JsonValue::array();
            for (size_t c = 0; c < sweep.columns.size(); ++c) {
                JsonValue row = JsonValue::object();
                row["config"] = sweep.configLabel(c);
                row["config_index"] = c;
                row["l1_override"] = sweep.columns[c].l1_override;
                if (!sweep.columns[c].variant().isDefault()) {
                    row["node_layout"] = sweep.columns[c].layout.name();
                    row["ray_order"] = sweep.columns[c].order.name();
                    row["architecture"] = sweep.columns[c].arch.name();
                }
                row["mean_norm_ipc"] = meanNormIpc(sweep, c, base);
                row["mean_norm_offchip"] =
                    meanNormOffchip(sweep, c, base);
                summary.push(std::move(row));
            }
            record_["summary"] = std::move(summary);
        }
    }

    /** Add a single (scene, config) run as a one-cell results array. */
    void
    addResult(const std::string &scene, const StackConfig &config,
              const SimResult &result)
    {
        if (!enabled())
            return;
        JsonValue cell = JsonValue::object();
        cell["scene"] = scene;
        cell["config"] = config.name();
        cell["config_index"] = 0;
        cell["l1_override"] = 0;
        cell["ipc"] = result.ipc();
        cell["offchip_accesses"] = result.offchip_accesses;
        cell["stack_config"] = toJson(config);
        cell["counters"] = toJson(result);
        record_["results"].push(std::move(cell));
        sim_cycles_total_ += result.cycles;
        ++cells_total_;
    }

    /**
     * Mark the metrics series done, then stamp the wall time and
     * append the record to the file.
     */
    void
    finish()
    {
        if (finished_)
            return;
        finished_ = true;
        // Final telemetry flush first (the series' first done: true
        // line, also for a run that writes no record), so the
        // throughput block below counts that sample and watchers see
        // the finished state as soon as possible.
        metricsFinish();
        if (!enabled())
            return;
        auto elapsed = std::chrono::steady_clock::now() - start_;
        record_["wall_seconds"] =
            std::chrono::duration<double>(elapsed).count();

        // Simulator throughput of this run, so BENCH_*.json tracks how
        // fast the sweeps themselves execute across PRs. Wall-clock
        // figures are machine-dependent and deliberately ignored by
        // compareBenchRecords.
        JsonValue throughput = JsonValue::object();
        throughput["prepare_wall_seconds"] = g_last_prepare_seconds;
        throughput["sweep_wall_seconds"] = sweep_wall_seconds_;
        throughput["cells"] = cells_total_;
        throughput["sim_cycles_total"] = sim_cycles_total_;
        throughput["sim_cycles_per_sec"] =
            sweep_wall_seconds_ > 0.0
                ? static_cast<double>(sim_cycles_total_) /
                      sweep_wall_seconds_
                : 0.0;
        // Proof obligation of the warm path: a fully result-cached
        // sweep must report simulate_calls == 0.
        throughput["simulate_calls"] = simulateJobsCallCount();
        // Peak resident set of the process so far, in 10^6 bytes as
        // perfbench reports it (Linux gives ru_maxrss in KiB).
        struct rusage usage{};
        ::getrusage(RUSAGE_SELF, &usage);
        throughput["peak_rss_mb"] =
            static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
        WorkloadCacheStats cache = workloadCacheStats();
        JsonValue cache_json = JsonValue::object();
        cache_json["enabled"] = !workloadCacheDir().empty();
        cache_json["hits"] = cache.hits;
        cache_json["misses"] = cache.misses;
        cache_json["stores"] = cache.stores;
        cache_json["failures"] = cache.failures;
        cache_json["scene_rebuilds"] = cache.scene_rebuilds;
        throughput["workload_cache"] = std::move(cache_json);
        ResultCacheStats rcache = resultCacheStats();
        JsonValue rcache_json = JsonValue::object();
        rcache_json["enabled"] = !resultCacheDir().empty();
        rcache_json["hits"] = rcache.hits;
        rcache_json["misses"] = rcache.misses;
        rcache_json["stores"] = rcache.stores;
        rcache_json["failures"] = rcache.failures;
        throughput["result_cache"] = std::move(rcache_json);
        TraversalTapeStats tape = traversalTapeStats();
        JsonValue tape_json = JsonValue::object();
        // Tapes persist exactly when a workload cache is configured.
        tape_json["mode"] = workloadCacheDir().empty() ? "mem" : "disk";
        tape_json["jobs_recorded"] = tape.jobs_recorded;
        tape_json["jobs_replayed"] = tape.jobs_replayed;
        tape_json["bytes"] = tape.bytes;
        tape_json["disk_loads"] = tape.disk_loads;
        tape_json["disk_stores"] = tape.disk_stores;
        tape_json["failures"] = tape.failures;
        throughput["traversal_tape"] = std::move(tape_json);
        TimelineStats tls = timelineStats();
        JsonValue tl_json = JsonValue::object();
        tl_json["enabled"] = tls.enabled;
        tl_json["path"] = tls.path;
        tl_json["categories"] = timelineCategoryList(tls.categories);
        tl_json["events_recorded"] = tls.events_recorded;
        tl_json["events_dropped"] = tls.events_dropped;
        throughput["timeline"] = std::move(tl_json);
        // Live-telemetry summary, present only when telemetry ran so
        // telemetry-off records stay byte-identical to the goldens.
        MetricsStats ms = metricsStats();
        if (ms.enabled) {
            JsonValue m_json = JsonValue::object();
            m_json["enabled"] = true;
            m_json["path"] = ms.path;
            m_json["interval_ms"] = ms.interval_ms;
            m_json["samples"] = ms.samples;
            // Fixed empty values: sms-bench-1 never drops a key
            // (docs/FORMATS.md).
            m_json["heartbeat_dir"] = "";
            m_json["heartbeat_writes"] = 0;
            throughput["metrics"] = std::move(m_json);
        }
        record_["throughput"] = std::move(throughput);

        if (shard_.active() && !sweep_added_)
            warn("shard %u/%u ran a bench with no sweep; the record "
                 "has no shard block and mergeShardRecords() will "
                 "reject it",
                 shard_.index, shard_.count);

        std::string error;
        if (!appendJsonLine(path_, record_, error))
            warn("JSON record not written: %s", error.c_str());
        else
            std::printf("\njson record appended to %s\n", path_.c_str());

        // Flush the timeline now rather than from the atexit hook so
        // the path is announced next to the record it belongs to.
        if (tls.enabled && !tls.path.empty()) {
            std::string tl_error;
            if (!timelineExport(tl_error))
                warn("timeline trace not written: %s", tl_error.c_str());
            else
                std::printf("timeline trace written to %s\n",
                            tls.path.c_str());
        }
    }

  private:
    std::string
    consumeFlag(int &argc, char **argv)
    {
        std::string spec;
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--json") == 0) {
                spec = ".";
            } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
                spec = argv[i] + 7;
            } else {
                argv[out++] = argv[i];
            }
        }
        argc = out;
        return spec;
    }

    /** Consume one "--name=VALUE" flag; "" when absent. */
    std::string
    consumeValueFlag(int &argc, char **argv, const char *prefix)
    {
        std::string value;
        size_t len = std::strlen(prefix);
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            if (std::strncmp(argv[i], prefix, len) == 0)
                value = argv[i] + len;
            else
                argv[out++] = argv[i];
        }
        argc = out;
        return value;
    }

    std::string
    resolvePath(const std::string &spec) const
    {
        std::string default_name = "BENCH_" + figure_ + ".json";
        struct stat st{};
        bool is_dir = !spec.empty() && spec.back() == '/';
        if (!is_dir && ::stat(spec.c_str(), &st) == 0 &&
            S_ISDIR(st.st_mode))
            is_dir = true;
        if (spec == ".")
            return default_name;
        if (is_dir) {
            std::string dir = spec;
            if (dir.back() != '/')
                dir += '/';
            return dir + default_name;
        }
        return spec;
    }

    std::string figure_;
    std::string path_;
    JsonValue record_;
    std::chrono::steady_clock::time_point start_;
    SweepShardSpec shard_;
    bool finished_ = false;
    bool sweep_added_ = false;
    double sweep_wall_seconds_ = 0.0;
    uint64_t sim_cycles_total_ = 0;
    uint64_t cells_total_ = 0;
};

} // namespace benchutil
} // namespace sms

#endif // SMS_BENCH_BENCH_UTIL_HPP
