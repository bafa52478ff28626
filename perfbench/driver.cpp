/**
 * @file
 * Performance benchmark driver. One process does one of three jobs and
 * prints one JSON line as the last line of its standard output:
 *
 *   probe  time a fixed-work CPU loop and report the build's provenance,
 *          the thread count and the workload table;
 *   prime  run a workload's grid once, untimed, writing the workload
 *          snapshots and traversal tapes a warm repetition replays, and
 *          the reference record its cells are checked against;
 *   rep    one timed repetition of a workload: prepare all 16 scenes,
 *          runSweep over the workload's grid, write the sms-bench-1
 *          record, then (untimed) check every cell.
 *
 * The repetition goes through the entry points the figure binaries use:
 * prepareWorkload, runSweep and JsonReporter. With --trace it instead
 * calls the layers prepareWorkload composes (makeScene, WideBvh::build,
 * renderAndBuildJobs, snapshot load/store) and the result-cache store
 * itself, each wrapped in a span, so the traced run attributes host time
 * per layer; its spans are written in the timeline's Chrome-trace format.
 * End-to-end numbers come from untraced repetitions only.
 *
 * perfbench/run.py builds this binary and aggregates repetitions; see
 * perfbench/README.md for every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"

extern char **environ;

using namespace sms;
using namespace sms::benchutil;

namespace {

using Clock = std::chrono::steady_clock;

constexpr ScaleProfile kProfile = ScaleProfile::Small;

/** Exit code of a repetition that must not be timed (see README). */
constexpr int kExitNotWarm = 3;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

/** One paper reference point: a grid column's mean change, in %. */
struct PaperPoint
{
    size_t column;
    bool offchip; ///< normalized off-chip accesses instead of IPC
    double percent;
};

struct WorkloadDef
{
    const char *name;
    const char *figure; ///< figure name of the sms-bench-1 record
    bool warm;          ///< replays a primed snapshot/tape cache
    std::vector<StackConfig> columns; ///< column 0 is the RB_8 baseline
    std::vector<PaperPoint> paper;
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs{
        {"fig13_cold",
         "fig13",
         false,
         {StackConfig::baseline(8), StackConfig::withSh(8, 8, false, false),
          StackConfig::withSh(8, 8, true, false),
          StackConfig::withSh(8, 8, true, true), StackConfig::rbFull()},
         // Fig. 13's four geomean IPC gains (+SH_8, +SK, +RA, RB_FULL).
         {{1, false, 15.1}, {2, false, 19.4}, {3, false, 23.2},
          {4, false, 25.3}}},
        // Fig. 15's grid without its duplicate RB_8 column, plus two
        // SH_4 designs that borrow and flush far more often.
        {"stack_pressure",
         "fig15",
         true,
         {StackConfig::baseline(8), StackConfig::baseline(2),
          StackConfig::sms(2, 8), StackConfig::baseline(4),
          StackConfig::sms(4, 8), StackConfig::baseline(16),
          StackConfig::sms(16, 8), StackConfig::sms(8, 8),
          StackConfig::sms(4, 4), StackConfig::sms(2, 4)},
         // RB_2 and RB_2+SMS: IPC -28.3 % / +11.4 %, off-chip accesses
         // +62.3 % / -16.9 % (Fig. 15a/b).
         {{1, false, -28.3}, {2, false, 11.4}, {1, true, 62.3},
          {2, true, -16.9}}},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const auto &d : workloadDefs())
        if (name == d.name)
            return &d;
    return nullptr;
}

/** Worker threads of every workload: a fixed 4, fewer only if nproc is. */
unsigned
benchThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/** Mean |measured - paper| over the workload's reference points, pp. */
double
paperGapPp(const WorkloadDef &def, const SweepResult &sweep)
{
    double sum = 0.0;
    for (const PaperPoint &p : def.paper) {
        double norm = p.offchip ? meanNormOffchip(sweep, p.column)
                                : meanNormIpc(sweep, p.column);
        sum += std::abs((norm - 1.0) * 100.0 - p.percent);
    }
    return sum / static_cast<double>(def.paper.size());
}

// --------------------------------------------------------------------
// Spans of the traced repetition
// --------------------------------------------------------------------

/** One span: a phase of the repetition or a layer call inside it. */
struct SpanRecord
{
    const char *name; ///< layer metric stem, e.g. "bvh.build"
    int64_t start_ns; ///< since the log's epoch
    int64_t end_ns;
    int parent;     ///< index into the log, -1 for the root
    uint32_t track; ///< 0 = main thread, 1.. = worker threads
    int scene;      ///< Table II index, -1 when not per scene
    int cell;       ///< flattened grid index, -1 when not per cell
};

/**
 * In-memory span log. Spans are appended under a mutex when they open
 * and their end is filled in when they close; nothing is written until
 * the repetition's work is done.
 */
class SpanLog
{
  public:
    SpanLog() : epoch_(Clock::now()) {}
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    int
    open(const char *name, int parent, int scene, int cell)
    {
        int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(
            {name, now, now, parent, trackLocked(), scene, cell});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(id)].end_ns = now;
    }

    /** Spans after every worker joined. */
    const std::vector<SpanRecord> &spans() const { return spans_; }

    size_t trackCount() const { return tracks_.size(); }

  private:
    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    uint32_t
    trackLocked()
    {
        auto [it, inserted] = tracks_.emplace(
            std::this_thread::get_id(),
            static_cast<uint32_t>(tracks_.size()));
        (void)inserted;
        return it->second;
    }

    Clock::time_point epoch_;
    std::mutex mu_;
    std::vector<SpanRecord> spans_;
    std::map<std::thread::id, uint32_t> tracks_;
};

/** RAII span; a no-op without a log. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, int parent, int scene = -1,
               int cell = -1)
        : log_(log)
    {
        if (log_)
            id_ = log_->open(name, parent, scene, cell);
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_ = -1;
};

/**
 * prepareWorkload() with each layer call in its own span: the same
 * snapshot lookup, build, render and store sequence.
 */
std::shared_ptr<Workload>
prepareTraced(SpanLog &log, int phase, int scene_index, SceneId id,
              const RenderParams &params)
{
    const std::string dir = workloadCacheDir();
    {
        ScopedSpan span(&log, "trace.snapshot_load", phase, scene_index);
        if (auto cached = loadWorkloadSnapshot(dir, id, kProfile, params))
            return cached;
    }
    auto leaf = [&](const char *name, auto &&fn) {
        ScopedSpan span(&log, name, phase, scene_index);
        return fn();
    };
    Scene scene = leaf("scene.make", [&] { return makeScene(id, kProfile); });
    WideBvh bvh = leaf("bvh.build", [&] { return WideBvh::build(scene); });
    RenderOutput render = leaf("trace.render", [&] {
        return renderAndBuildJobs(scene, bvh, params);
    });
    auto workload = std::make_shared<Workload>(
        id, kProfile, std::move(scene), std::move(bvh), params,
        std::move(render));
    leaf("trace.snapshot_store", [&] {
        return saveWorkloadSnapshot(dir, *workload, kProfile, params);
    });
    return workload;
}

/**
 * Write the log, plus whatever runSweep emitted itself (its "sweep" and
 * per-cell spans), as one Chrome trace in the sweep category.
 */
bool
exportTrace(const SpanLog &log, int64_t epoch_offset_ns,
            const std::string &path, std::string &error)
{
    uint32_t pid = timelineNewProcess("perfbench (wall-clock us)");
    timelineNameThread(pid, 0, "main");
    for (uint32_t t = 1; t < log.trackCount(); ++t)
        timelineNameThread(pid, t, "worker " + std::to_string(t));
    for (const SpanRecord &s : log.spans()) {
        uint64_t start_us =
            static_cast<uint64_t>(s.start_ns + epoch_offset_ns) / 1000;
        uint64_t end_us =
            static_cast<uint64_t>(s.end_ns + epoch_offset_ns) / 1000;
        uint64_t value = 0;
        const char *value_name = nullptr;
        if (s.cell >= 0) {
            value = static_cast<uint64_t>(s.cell);
            value_name = "cell";
        } else if (s.scene >= 0) {
            value = static_cast<uint64_t>(s.scene);
            value_name = "scene";
        }
        timelineSpanAt(TimelineCategory::Sweep, s.name, pid, s.track,
                       start_us, end_us - start_us, value, value_name);
    }
    return timelineExportTo(path, error);
}

// --------------------------------------------------------------------
// Per-layer counts from the returned results
// --------------------------------------------------------------------

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

uint64_t
bytesWithExtension(const std::string &dir, const std::string &ext)
{
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(dir, ec))
        if (entry.is_regular_file(ec) && entry.path().extension() == ext)
            total += entry.file_size(ec);
    return total;
}

/** Workload sizes and summed simulator counters of one grid. */
JsonValue
layerCounts(const std::vector<std::shared_ptr<Workload>> &workloads,
            const SweepResult &sweep, const std::string &wkld_dir)
{
    uint64_t nodes = 0, jobs = 0, rays = 0;
    for (const auto &w : workloads) {
        nodes += w->bvh.nodes().size();
        jobs += w->render.jobs.size();
        rays += w->render.rays;
    }
    SimResult sum;
    uint64_t active = 0;
    uint64_t leaves[kCycleLeafCount] = {};
    uint64_t l1_accesses = 0, l1_misses = 0, l2_accesses = 0, l2_misses = 0;
    for (const auto &row : sweep.results)
        for (const SimResult &r : row) {
            sum.cycles += r.cycles;
            sum.ops.merge(r.ops);
            sum.stack.merge(r.stack);
            l1_accesses += r.l1.accesses();
            l1_misses += r.l1.misses();
            l2_accesses += r.l2.accesses();
            l2_misses += r.l2.misses();
            for (int c = 0; c < kTrafficClassCount; ++c)
                sum.l1_class_misses[c] += r.l1_class_misses[c];
            sum.offchip_accesses += r.offchip_accesses;
            sum.dram.queue_wait_cycles += r.dram.queue_wait_cycles;
            sum.shared_mem.conflict_passes += r.shared_mem.conflict_passes;
            active += r.accounting.warp_active_cycles;
            for (int l = 0; l < kCycleLeafCount; ++l)
                leaves[l] += r.accounting.leaves[l];
        }

    JsonValue m = JsonValue::object();
    m["bvh.wide_nodes"] = nodes;
    m["trace.warp_jobs"] = jobs;
    m["trace.rays"] = rays;
    m["trace.snapshot_mb"] =
        static_cast<double>(bytesWithExtension(wkld_dir, ".wkld")) / 1e6;
    m["sim.tape_mb"] =
        static_cast<double>(bytesWithExtension(wkld_dir, ".tape")) / 1e6;
    m["sim.cycles"] = sum.cycles;
    m["sim.steps"] = sum.ops.steps;
    m["sim.node_visits"] = sum.ops.node_visits;
    m["sim.box_tests"] = sum.ops.box_tests;
    m["sim.prim_tests"] = sum.ops.prim_tests;
    m["core.pushes"] = sum.stack.pushes;
    m["core.rb_spills"] = sum.stack.rb_spills;
    m["core.spill_to_sh_ratio"] =
        ratio(static_cast<double>(sum.stack.rb_spills_to_sh),
              static_cast<double>(sum.stack.rb_spills));
    m["core.global_stores"] = sum.stack.global_stores;
    m["core.global_loads"] = sum.stack.global_loads;
    m["core.borrows"] = sum.stack.borrows;
    m["core.flushes"] = sum.stack.flushes;
    m["core.forced_flushes"] = sum.stack.forced_flushes;
    m["memory.l1_accesses"] = l1_accesses;
    m["memory.l1_hit_ratio"] =
        1.0 - ratio(static_cast<double>(l1_misses),
                    static_cast<double>(l1_accesses));
    m["memory.l1_misses.node"] =
        sum.l1_class_misses[static_cast<int>(TrafficClass::Node)];
    m["memory.l1_misses.prim"] =
        sum.l1_class_misses[static_cast<int>(TrafficClass::Primitive)];
    m["memory.l1_misses.stack"] =
        sum.l1_class_misses[static_cast<int>(TrafficClass::Stack)];
    m["memory.l2_hit_ratio"] =
        1.0 - ratio(static_cast<double>(l2_misses),
                    static_cast<double>(l2_accesses));
    m["memory.offchip_accesses"] = sum.offchip_accesses;
    m["memory.dram_queue_cycles"] = sum.dram.queue_wait_cycles;
    m["memory.shmem_conflict_passes"] = sum.shared_mem.conflict_passes;
    const CycleLeaf shares[] = {
        CycleLeaf::Issue,
        CycleLeaf::Intersect,
        CycleLeaf::StallStackSpill,
        CycleLeaf::StallStackRefill,
        CycleLeaf::StallStackBorrowChain,
        CycleLeaf::StallStackForcedFlush,
        CycleLeaf::StallMemL1Miss,
        CycleLeaf::StallMemL2Miss,
        CycleLeaf::StallMemDramQueue,
        CycleLeaf::StallShmemBankConflict,
    };
    for (CycleLeaf leaf : shares)
        m[std::string("stats.acct.") + cycleLeafName(leaf)] =
            ratio(static_cast<double>(leaves[static_cast<int>(leaf)]),
                  static_cast<double>(active));
    return m;
}

// --------------------------------------------------------------------
// Output checks
// --------------------------------------------------------------------

/** Cell counters keyed by "scene|config" from an sms-bench-1 file. */
std::map<std::string, std::string>
recordCells(const std::string &path)
{
    std::map<std::string, std::string> cells;
    std::vector<JsonValue> records;
    std::string error;
    if (!readJsonLines(path, records, error) || records.empty())
        fatal("cannot read record %s: %s", path.c_str(), error.c_str());
    const JsonValue *results = records.back().find("results");
    if (!results || !results->isArray())
        fatal("record %s has no results", path.c_str());
    for (const JsonValue &cell : results->elements()) {
        const JsonValue *counters = cell.find("counters");
        if (counters)
            cells[cell.stringOr("scene", "") + "|" +
                  cell.stringOr("config", "")] = counters->dump();
    }
    return cells;
}

struct CheckReport
{
    uint64_t cells = 0;
    uint64_t failed = 0;
    std::vector<std::string> reasons; ///< first few, for the log

    void
    fail(const std::string &where, const std::string &why)
    {
        if (reasons.size() < 8)
            reasons.push_back(where + ": " + why);
    }
};

// --------------------------------------------------------------------
// Command line
// --------------------------------------------------------------------

struct Args
{
    std::string mode;
    std::string workload;
    uint64_t seed = 0;
    std::string dir;    ///< cache root of this repetition
    std::string record; ///< sms-bench-1 output path
    std::string reference; ///< warm: the priming run's record
    std::string golden;    ///< bench/golden/BENCH_fig13.json
    std::string trace;     ///< traced repetition: Chrome-trace path
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: perfbench_driver probe\n"
        "       perfbench_driver prime --workload W --seed N --dir D "
        "--record R\n"
        "       perfbench_driver rep --workload W --seed N --dir D "
        "--record R [--reference P] [--golden G] [--trace F]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    if (argc % 2 != 0)
        usage(); // every option takes a value
    Args a;
    a.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string value = argv[i + 1];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--dir")
            a.dir = value;
        else if (key == "--record")
            a.record = value;
        else if (key == "--reference")
            a.reference = value;
        else if (key == "--golden")
            a.golden = value;
        else if (key == "--trace")
            a.trace = value;
        else
            usage();
    }
    if (a.mode != "probe" &&
        (a.workload.empty() || a.dir.empty() || a.record.empty()))
        usage();
    return a;
}

/**
 * Replace every inherited SMS_* variable with the repetition's own
 * settings, so the environment cannot change what is measured.
 */
JsonValue
setEnvironment(const Args &a, unsigned threads, bool result_cache)
{
    std::vector<std::string> inherited;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "SMS_", 4) == 0)
            inherited.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const std::string &name : inherited)
        ::unsetenv(name.c_str());
    ::setenv("SMS_WORKLOAD_CACHE", (a.dir + "/wkld").c_str(), 1);
    ::setenv("SMS_TRAVERSAL_TAPE", "disk", 1);
    ::setenv("SMS_THREADS", std::to_string(threads).c_str(), 1);
    if (result_cache)
        ::setenv("SMS_RESULT_CACHE", (a.dir + "/res").c_str(), 1);
    JsonValue env = JsonValue::object();
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "SMS_", 4) == 0) {
            const char *eq = std::strchr(*e, '=');
            env[std::string(*e, eq - *e)] = std::string(eq + 1);
        }
    return env;
}

double
peakRssMb()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6; // KiB
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Fixed-work dependent integer chain; its time tracks CPU speed. */
int
runProbe()
{
    auto t0 = Clock::now();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint64_t i = 0; i < 200000000ull; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    double seconds = secondsSince(t0);
    JsonValue out = JsonValue::object();
    out["probe_s"] = seconds;
    out["probe_check"] = static_cast<uint64_t>(x & 0xffff);
    out["git"] = gitDescribe();
    out["compiler"] = compilerName();
    out["build_type"] = PERFBENCH_BUILD_TYPE;
    out["threads"] = benchThreads();
    JsonValue workloads = JsonValue::object();
    for (const WorkloadDef &def : workloadDefs()) {
        JsonValue w = JsonValue::object();
        w["cells"] = allScenes().size() * def.columns.size();
        w["warm"] = def.warm;
        workloads[def.name] = std::move(w);
    }
    out["workloads"] = std::move(workloads);
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

// --------------------------------------------------------------------
// One repetition
// --------------------------------------------------------------------

int
runRep(const Args &a, const WorkloadDef &def)
{
    const auto t_start = Clock::now();
    const bool warm_rep = def.warm && a.mode == "rep";
    const bool cold = !def.warm;
    const bool traced = !a.trace.empty();
    const unsigned threads = benchThreads();
    // A cold repetition writes every cache. Traced, it stores the results
    // itself after runSweep, so that each store gets a span.
    JsonValue env = setEnvironment(a, threads, cold && !traced);
    const std::string wkld_dir = a.dir + "/wkld";
    const std::string res_dir = a.dir + "/res";

    std::unique_ptr<SpanLog> log;
    int64_t epoch_offset_ns = 0; // span log epoch on the timeline clock
    if (traced) {
        TimelineConfig tl;
        tl.categories = static_cast<uint32_t>(TimelineCategory::Sweep);
        tl.ring_capacity = 1u << 14;
        timelineConfigure(tl);
        log = std::make_unique<SpanLog>();
        epoch_offset_ns = static_cast<int64_t>(timelineWallMicros()) * 1000;
    }
    std::optional<ScopedSpan> run_span;
    run_span.emplace(log.get(), "bench.run", -1);
    const int run_id = run_span->id();

    const auto &ids = allScenes();
    std::vector<RenderParams> params(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
        params[i] = RenderParams::forScene(ids[i]);
        params[i].seed = a.seed;
    }

    // ---- set-up: all 16 workloads prepared (or loaded).
    std::vector<std::shared_ptr<Workload>> workloads(ids.size());
    double setup_s = 0.0;
    int prepare_id = -1;
    {
        ScopedSpan phase(log.get(), "bench.prepare", run_id);
        prepare_id = phase.id();
        auto t0 = Clock::now();
        parallelFor(
            ids.size(),
            [&](size_t i) {
                workloads[i] =
                    traced ? prepareTraced(*log, prepare_id,
                                           static_cast<int>(i), ids[i],
                                           params[i])
                           : prepareWorkload(ids[i], kProfile, &params[i]);
            },
            threads);
        setup_s = secondsSince(t0);
    }
    const WorkloadCacheStats snap = workloadCacheStats();
    if (warm_rep && snap.hits != ids.size()) {
        std::fprintf(stderr,
                     "perfbench: %s: snapshot hit ratio %llu/%zu < 1; the "
                     "primed cache is incomplete, not timing this run\n",
                     def.name, static_cast<unsigned long long>(snap.hits),
                     ids.size());
        return kExitNotWarm;
    }

    // ---- sweep.
    std::vector<SweepColumn> columns(def.columns.size());
    for (size_t c = 0; c < columns.size(); ++c)
        columns[c].stack = def.columns[c];
    // Result-cache keys as runSweep derives them: one workload
    // fingerprint per scene, one config digest per column.
    std::vector<uint64_t> fingerprints, digests;
    auto resultKeys = [&] {
        for (const auto &w : workloads)
            fingerprints.push_back(
                workloadFingerprint(w->render.jobs, w->bvh));
        for (const SweepColumn &col : columns)
            digests.push_back(gpuConfigDigest(col.gpuConfig()));
    };
    SweepResult sweep;
    double sweep_s = 0.0;
    int sweep_id = -1;
    {
        ScopedSpan phase(log.get(), "bench.sweep", run_id);
        sweep_id = phase.id();
        auto t0 = Clock::now();
        sweep = runSweep(workloads, columns, threads);
        if (cold && traced) {
            {
                ScopedSpan span(log.get(), "serve.result_keys", sweep_id);
                resultKeys();
            }
            const size_t n = columns.size();
            parallelFor(
                ids.size() * n,
                [&](size_t i) {
                    size_t s = i / n, c = i % n;
                    ScopedSpan span(log.get(), "serve.result_store",
                                    sweep_id, static_cast<int>(s),
                                    static_cast<int>(i));
                    storeCachedResult(res_dir, ids[s], kProfile,
                                      fingerprints[s], digests[c],
                                      sweep.results[s][c],
                                      sweep.cell_wall_seconds[s][c]);
                },
                threads);
        }
        sweep_s = secondsSince(t0);
    }

    // ---- report: the sms-bench-1 record, as the figure binaries write it.
    double report_s = 0.0;
    {
        ScopedSpan span(log.get(), "stats.report", run_id);
        auto t0 = Clock::now();
        std::string flag = "--json=" + a.record;
        char arg0[] = "perfbench";
        char *argv[] = {arg0, flag.data(), nullptr};
        int argc = 2;
        JsonReporter reporter(def.figure, argc, argv);
        reporter.addSweep(sweep);
        reporter.finish();
        report_s = secondsSince(t0);
    }
    run_span.reset();
    const double total_s = secondsSince(t_start);
    const double peak_rss_mb = peakRssMb();

    // ---- untimed: cache statistics, then the output checks.
    const TraversalTapeStats tape = traversalTapeStats();
    const ResultCacheStats rcache = resultCacheStats();
    const size_t tape_groups = ids.size(); // default variant: one per scene
    if (warm_rep &&
        (tape.disk_loads != tape_groups || tape.jobs_recorded != 0)) {
        std::fprintf(stderr,
                     "perfbench: %s: tape hit ratio %llu/%zu < 1; the "
                     "primed tapes are missing, not timing this run\n",
                     def.name,
                     static_cast<unsigned long long>(tape.disk_loads),
                     tape_groups);
        return kExitNotWarm;
    }

    CheckReport check;
    std::map<std::string, std::string> reference, golden;
    if (warm_rep)
        reference = recordCells(a.reference);
    if (!a.golden.empty() && a.seed == 0)
        golden = recordCells(a.golden);
    std::map<std::string, std::string> written = recordCells(a.record);
    if (cold && fingerprints.empty())
        resultKeys();
    for (size_t s = 0; s < ids.size(); ++s) {
        for (size_t c = 0; c < columns.size(); ++c) {
            const SimResult &r = sweep.results[s][c];
            const std::string key =
                sweep.sceneLabel(s) + "|" + sweep.configLabel(c);
            const std::string json = toJson(r).dump();
            bool ok = true;
            auto expect = [&](bool cond, const char *why) {
                if (!cond) {
                    ok = false;
                    check.fail(key, why);
                }
            };
            expect(sweep.cell_origin[s][c] == CellOrigin::Simulated,
                   "not simulated");
            expect(r.mismatches == 0, "oracle mismatches");
            bool conserved = r.accounting.conserved();
            for (const CycleAccount &sm : r.sm_accounting)
                conserved = conserved && sm.conserved();
            expect(conserved, "cycle accounting not conserved");
            expect(written.count(key) && written[key] == json,
                   "record cell differs from the result");
            if (warm_rep)
                expect(reference.count(key) && reference[key] == json,
                       "replay differs from the priming run");
            if (cold) {
                SimResult loaded;
                double wall = 0.0;
                expect(loadCachedResult(res_dir, ids[s], kProfile,
                                        fingerprints[s], digests[c], loaded,
                                        wall) &&
                           toJson(loaded).dump() == json,
                       "result cache round trip differs");
            }
            if (golden.count(key))
                expect(golden[key] == json, "differs from the golden");
            ++check.cells;
            if (!ok)
                ++check.failed;
        }
    }
    if (!golden.empty() && std::strcmp(def.figure, "fig13") == 0) {
        size_t matched = 0;
        for (const auto &entry : golden)
            matched += written.count(entry.first);
        if (matched != golden.size()) {
            check.fail("golden", "golden cells missing from the grid");
            ++check.failed;
        }
    }

    // ---- the result line.
    JsonValue out = JsonValue::object();
    out["mode"] = a.mode;
    out["workload"] = def.name;
    out["seed"] = a.seed;
    out["threads"] = threads;
    out["traced"] = traced;
    out["total_s"] = total_s;
    out["setup_s"] = setup_s;
    out["sweep_s"] = sweep_s;
    out["report_s"] = report_s;
    out["peak_rss_mb"] = peak_rss_mb;
    uint64_t cycles = 0;
    for (const auto &row : sweep.results)
        for (const SimResult &r : row)
            cycles += r.cycles;
    out["sim_cycles"] = cycles;
    out["paper_gap_pp"] = paperGapPp(def, sweep);
    out["cells"] = check.cells;
    out["failed_cells"] = check.failed;
    JsonValue reasons = JsonValue::array();
    for (const std::string &r : check.reasons)
        reasons.push(r);
    out["failures"] = std::move(reasons);
    out["env"] = std::move(env);

    JsonValue layers = layerCounts(workloads, sweep, wkld_dir);
    layers["trace.snapshot_hit_ratio"] =
        ratio(static_cast<double>(snap.hits),
              static_cast<double>(snap.hits + snap.misses));
    layers["sim.tape_hit_ratio"] =
        ratio(static_cast<double>(tape.disk_loads),
              static_cast<double>(tape_groups));
    layers["serve.result_hit_ratio"] =
        ratio(static_cast<double>(rcache.hits),
              static_cast<double>(rcache.hits + rcache.misses));
    layers["trace.snapshot_failures"] = snap.failures;
    layers["sim.tape_failures"] = tape.failures;
    layers["serve.result_failures"] = rcache.failures;

    if (traced) {
        // Layer spans are leaves, so their self time is their duration.
        // Busy time of a parallel phase is the self time of the spans
        // whose parent it is.
        std::map<std::string, double> self_s;
        double prepare_busy = 0.0, sweep_busy = 0.0;
        for (const SpanRecord &span : log->spans()) {
            double d = static_cast<double>(span.end_ns - span.start_ns) / 1e9;
            self_s[span.name] += d;
            if (span.parent == prepare_id)
                prepare_busy += d;
            else if (span.parent == sweep_id)
                sweep_busy += d;
        }
        for (const char *name :
             {"scene.make", "bvh.build", "trace.render",
              "trace.snapshot_store", "trace.snapshot_load",
              "serve.result_store", "stats.report"})
            layers[std::string(name) + "_s"] = self_s[name];

        // Cells: runWorkload time per cell as runSweep measured it. On a
        // cold grid each scene's first column records the scene's tape
        // (executes geometry); every other cell replays a tape.
        double record_s = 0.0, replay_s = 0.0;
        uint64_t replay_cycles = 0, recorded_jobs = 0;
        std::vector<double> cell_ms;
        for (size_t s = 0; s < ids.size(); ++s)
            for (size_t c = 0; c < columns.size(); ++c) {
                double wall = sweep.cell_wall_seconds[s][c];
                cell_ms.push_back(wall * 1e3);
                if (cold && c == 0) {
                    record_s += wall;
                    recorded_jobs += workloads[s]->render.jobs.size();
                } else {
                    replay_s += wall;
                    replay_cycles += sweep.results[s][c].cycles;
                }
            }
        if (recorded_jobs != tape.jobs_recorded)
            std::fprintf(stderr,
                         "perfbench: warning: %llu jobs recorded, %llu "
                         "expected; the record/replay split is off\n",
                         static_cast<unsigned long long>(
                             tape.jobs_recorded),
                         static_cast<unsigned long long>(recorded_jobs));
        sweep_busy += record_s + replay_s;
        std::sort(cell_ms.begin(), cell_ms.end());
        layers["sim.record_s"] = record_s;
        layers["sim.replay_s"] = replay_s;
        layers["sim.replay_ns_per_cycle"] =
            ratio(replay_s * 1e9, static_cast<double>(replay_cycles));
        layers["sim.cell_ms_p50"] = cell_ms[(cell_ms.size() - 1) / 2];
        layers["sim.cell_ms_max"] = cell_ms.back();
        layers["bench.prepare_idle_s"] = threads * setup_s - prepare_busy;
        layers["bench.sweep_idle_s"] = threads * sweep_s - sweep_busy;

        // Thread capacity of the run: workers in the parallel phases, the
        // main thread in the serial report and between phases.
        JsonValue acct = JsonValue::object();
        acct["capacity_s"] = threads * (setup_s + sweep_s) +
                             (total_s - setup_s - sweep_s);
        acct["busy_s"] = prepare_busy + sweep_busy + self_s["stats.report"];
        acct["idle_s"] = threads * (setup_s + sweep_s) - prepare_busy -
                         sweep_busy;
        acct["main_unspanned_s"] = total_s - setup_s - sweep_s -
                                   self_s["stats.report"];
        out["accounting"] = std::move(acct);

        std::string error;
        if (!exportTrace(*log, epoch_offset_ns, a.trace, error))
            fatal("trace not written: %s", error.c_str());
    }
    out["layers"] = std::move(layers);
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (args.mode == "probe")
        return runProbe();
    if (args.mode != "prime" && args.mode != "rep")
        usage();
    const WorkloadDef *def = findWorkload(args.workload);
    if (!def)
        fatal("unknown workload '%s'", args.workload.c_str());
    if (args.mode == "prime" && !def->warm)
        fatal("only a warm workload is primed");
    if (def->warm && args.mode == "rep" && args.reference.empty())
        fatal("a warm repetition needs --reference (the priming record)");
    return runRep(args, *def);
}
