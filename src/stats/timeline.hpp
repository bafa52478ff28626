/**
 * @file
 * Cycle-level timeline tracer with Chrome Trace Format export.
 *
 * The simulator's end-of-run counters say how many spills or DRAM
 * stalls happened; this layer says *when*. Any instrumented site can
 * emit duration ("X"), instant ("i") or counter ("C") events onto
 * per-process/per-thread tracks, and the exporter writes a JSON
 * document that Perfetto or chrome://tracing loads directly.
 *
 * Two clock domains share one trace:
 *  - wall-clock microseconds for the bench harness (prepare/sweep
 *    spans), on their own pids;
 *  - simulated cycles for everything inside a simulateJobs() run,
 *    exported as-if-microseconds (1 cycle == 1 us tick). Each sweep
 *    cell gets its own pid so the domains never share a track.
 *
 * Cost model: every emission site is guarded by timelineOn(), a
 * relaxed atomic load plus a bit test. With tracing off that is the
 * entire cost. Compiling with -DSMS_TIMELINE_DISABLED turns the
 * guard into `constexpr false` so the instrumentation is dead code.
 *
 * Recording is wait-free per thread: each emitting thread owns a
 * private ring shard (registered once under a mutex), so concurrent
 * emission never contends. When a shard's ring fills, the oldest
 * events in that shard are overwritten and counted as dropped.
 * Export must not race live emission; call it after workers joined
 * (the bench harness exports from JsonReporter::finish and atexit).
 *
 * Enable via SMS_TIMELINE=<path>[:categories] (see docs/ENV_VARS.md)
 * or programmatically with timelineConfigure().
 */

#ifndef SMS_STATS_TIMELINE_HPP
#define SMS_STATS_TIMELINE_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sms {

class JsonValue;

/** Event categories, usable as a bitmask for filtering. */
enum class TimelineCategory : uint32_t
{
    Sweep = 1u << 0,    ///< bench harness wall-clock spans
    Sim = 1u << 1,      ///< TraversalSim step phases (fetch/op/stack)
    Stack = 1u << 2,    ///< warp-stack spill/refill/borrow/flush
    StackOps = 1u << 3, ///< raw push/pop stream (hot; off by default)
    Cache = 1u << 4,    ///< L1/L2 miss lifetimes
    Dram = 1u << 5,     ///< DRAM queue backlog sampling
    Shmem = 1u << 6,    ///< shared-memory bank-conflict passes
};

/** Number of defined categories. */
constexpr int kTimelineCategoryCount = 7;

/**
 * Default category mask: everything except StackOps, whose raw
 * push/pop stream dwarfs all other events on real scenes.
 */
constexpr uint32_t kTimelineDefaultCategories =
    (static_cast<uint32_t>(TimelineCategory::Sweep) |
     static_cast<uint32_t>(TimelineCategory::Sim) |
     static_cast<uint32_t>(TimelineCategory::Stack) |
     static_cast<uint32_t>(TimelineCategory::Cache) |
     static_cast<uint32_t>(TimelineCategory::Dram) |
     static_cast<uint32_t>(TimelineCategory::Shmem));

/** Mask with every category set, including StackOps. */
constexpr uint32_t kTimelineAllCategories =
    kTimelineDefaultCategories |
    static_cast<uint32_t>(TimelineCategory::StackOps);

/** Lower-case name of one category ("sweep", "sim", ...). */
const char *timelineCategoryName(TimelineCategory cat);

/**
 * Parse a comma-separated category list ("stack,cache,dram", "all",
 * "default") into a bitmask. Returns false and sets @p error on an
 * unknown name. An empty spec yields the default mask.
 */
bool timelineParseCategories(const std::string &spec, uint32_t &mask,
                             std::string &error);

/** Render @p mask as a comma-separated category list. */
std::string timelineCategoryList(uint32_t mask);

#ifndef SMS_TIMELINE_DISABLED
namespace detail {
/** Enabled-category mask; zero when tracing is off. */
extern std::atomic<uint32_t> g_timeline_mask;
} // namespace detail
#endif

/**
 * Is tracing enabled for @p cat? This is the per-site guard: a
 * relaxed load and a bit test, or constexpr false when compiled out.
 */
inline bool
timelineOn(TimelineCategory cat)
{
#ifdef SMS_TIMELINE_DISABLED
    (void)cat;
    return false;
#else
    return (detail::g_timeline_mask.load(std::memory_order_relaxed) &
            static_cast<uint32_t>(cat)) != 0;
#endif
}

/** Is tracing enabled for any category at all? */
inline bool
timelineAnyOn()
{
#ifdef SMS_TIMELINE_DISABLED
    return false;
#else
    return detail::g_timeline_mask.load(std::memory_order_relaxed) != 0;
#endif
}

/**
 * Per-thread emission context. Layers that sit far from the event
 * loop (warp stack, caches) read pid/tid/now from here instead of
 * threading them through every call. simulateJobs() owns the fields
 * while a simulation runs on the thread.
 */
struct TimelineContext
{
    uint32_t pid = 0;  ///< trace process (one per sweep cell / harness)
    uint32_t tid = 0;  ///< trace thread (one per SM warp slot)
    uint64_t now = 0;  ///< current simulated cycle
};

/** The calling thread's emission context. */
TimelineContext &timelineContext();

/** Tracer configuration (programmatic alternative to SMS_TIMELINE). */
struct TimelineConfig
{
    /** Export path; empty records in memory without auto-export. */
    std::string path;
    /** Enabled-category bitmask. */
    uint32_t categories = kTimelineDefaultCategories;
    /** Ring capacity per emitting thread, in events. */
    size_t ring_capacity = 1u << 20;
};

/** Recording statistics, for the bench throughput block and tests. */
struct TimelineStats
{
    bool enabled = false;
    uint32_t categories = 0;
    std::string path;
    uint64_t events_recorded = 0; ///< total emissions accepted
    uint64_t events_dropped = 0;  ///< overwritten by ring wrap
    uint64_t events_kept = 0;     ///< still resident, will export
};

/**
 * Enable tracing with @p config, discarding any prior recording.
 * Registers an atexit hook so a configured path is exported even if
 * the process never calls timelineExport().
 */
void timelineConfigure(const TimelineConfig &config);

/**
 * Read SMS_TIMELINE / SMS_TIMELINE_EVENTS and configure the tracer
 * accordingly. Idempotent: only the first call acts, so every entry
 * point (bench harness, tools) may call it unconditionally. Does
 * nothing when SMS_TIMELINE is unset.
 */
void timelineInitFromEnv();

/** Disable tracing and discard all recorded events and names. */
void timelineShutdown();

/** Current recording statistics. */
TimelineStats timelineStats();

/**
 * Allocate a fresh trace process id and name its track. Used once
 * per simulateJobs() run and per bench harness phase.
 */
uint32_t timelineNewProcess(const std::string &name);

/** Name a thread track within @p pid. Idempotent; last name wins. */
void timelineNameThread(uint32_t pid, uint32_t tid,
                        const std::string &name);

/** Microseconds since the tracer was configured (wall domain). */
uint64_t timelineWallMicros();

/*
 * Emission API. All calls are no-ops unless the category is enabled;
 * callers should still guard with timelineOn() to skip argument
 * setup. @p name must be a string literal (stored by pointer).
 */

/** Duration event [ts, ts+dur) on the calling context's track. */
void timelineSpan(TimelineCategory cat, const char *name, uint64_t ts,
                  uint64_t dur, uint64_t value = 0,
                  const char *value_name = nullptr);

/**
 * Duration event on an explicit (pid, tid) track, with up to two named
 * args.
 */
void timelineSpanAt(TimelineCategory cat, const char *name,
                    uint32_t pid, uint32_t tid, uint64_t ts,
                    uint64_t dur, uint64_t value = 0,
                    const char *value_name = nullptr, uint64_t value2 = 0,
                    const char *value2_name = nullptr);

/** Instant event at the context's current cycle. */
void timelineInstantNow(TimelineCategory cat, const char *name,
                        uint64_t value = 0,
                        const char *value_name = nullptr);

/** Counter sample at @p ts on the calling context's track. */
void timelineCounter(TimelineCategory cat, const char *name,
                     uint64_t ts, uint64_t value);

/**
 * Export everything recorded so far to @p path as Chrome Trace
 * Format JSON. Safe to call only while no thread is emitting.
 */
bool timelineExportTo(const std::string &path, std::string &error);

/**
 * Export to the configured path (no-op without one). Idempotent: the
 * first call exports; later calls (including the atexit hook) return
 * true without rewriting the file.
 */
bool timelineExport(std::string &error);

/** Per-category totals folded from a trace document. */
struct TraceCategorySummary
{
    std::string category;
    uint64_t span_events = 0;
    uint64_t span_time = 0; ///< summed dur, in trace ticks
    uint64_t instant_events = 0;
    uint64_t counter_events = 0;
    uint64_t counter_max = 0;
};

/** Per-(category, event-name) totals folded from a trace document. */
struct TraceNameSummary
{
    std::string category;
    std::string name;
    uint64_t span_events = 0;
    uint64_t span_time = 0; ///< summed dur, in trace ticks
    uint64_t instant_events = 0;
    uint64_t counter_events = 0;
};

/**
 * Full fold of one Chrome-trace document: per-category and
 * per-(category, name) totals plus the recorder's header counters, so
 * callers can tell a complete trace from one the ring buffer clipped
 * (events_dropped > 0 means doc_events under-counts what actually
 * happened and any derived total is a lower bound).
 */
struct TraceSummary
{
    std::vector<TraceCategorySummary> categories; ///< sorted by name
    std::vector<TraceNameSummary> names; ///< sorted by (category, name)
    uint64_t doc_events = 0;      ///< X/i/C events present in the file
    uint64_t events_recorded = 0; ///< accepted at record time (header)
    uint64_t events_dropped = 0;  ///< overwritten by ring wrap (header)
};

/**
 * Fold a parsed Chrome-trace document (as produced by
 * timelineExportTo). Shared by tools/trace_summarize and the tests.
 */
bool summarizeTrace(const JsonValue &doc, TraceSummary &out,
                    std::string &error);

/** Compatibility wrapper: per-category totals only. */
bool summarizeTraceDocument(const JsonValue &doc,
                            std::vector<TraceCategorySummary> &out,
                            std::string &error);

} // namespace sms

#endif // SMS_STATS_TIMELINE_HPP
