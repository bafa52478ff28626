/**
 * @file
 * Live metrics: a process-wide registry of monotonic counters, gauges
 * and fixed-bucket histograms, sampled by a background thread into a
 * schema-versioned JSONL time series ("sms-metrics-1").
 *
 * Every other observability artifact in the repository (the
 * sms-bench-1 record, the timeline trace, the cycle accounting) is
 * post-hoc: it exists only after the run finished. This layer is the
 * live counterpart — the same counters the bench record reports at
 * the end, observable mid-run, so a minutes-long sharded sweep is no
 * longer a black box between fork and merge.
 *
 * Cost model mirrors the timeline tracer: every emission site is
 * guarded by metricsOn(), a relaxed atomic load. With telemetry off
 * (SMS_METRICS unset) that load is the entire cost and no counter is
 * ever written, so the simulator's hot loops and the golden bench
 * records are untouched.
 *
 * Two publication styles share the registry:
 *  - push: instrumented sites hold a `static MetricCounter &` from
 *    metricCounter(name) and add() deltas as work retires (runSweep
 *    cell progress, simulateJobs cycles/rays);
 *  - pull: layers that already keep their own counters (result /
 *    workload / tape caches, simulateJobs call count) register a
 *    collector that copies those values into each snapshot, so the
 *    hot paths of those layers stay completely untouched.
 *
 * The sampler thread wakes every SMS_METRICS_INTERVAL_MS, takes a
 * snapshot and appends one JSONL line to SMS_METRICS. Snapshots are
 * also taken synchronously by metricsFlushNow() and metricsFinish().
 * Every line carries the writer's shard identity (1/1 when unsharded)
 * and a sticky `done` flag that metricsFinish() raises, so the last
 * line of a series is a complete progress report: watchers
 * (the --shard-workers coordinator, tools/sweep_top) read it with
 * readMetricsTail() and judge staleness by the file's mtime.
 */

#ifndef SMS_STATS_METRICS_HPP
#define SMS_STATS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sms {

class JsonValue;

/** Schema identifier of one metrics JSONL line. */
inline constexpr const char *kMetricsSchema = "sms-metrics-1";

namespace detail {
/** Global telemetry gate; nonzero while metrics are being collected. */
extern std::atomic<uint32_t> g_metrics_on;
} // namespace detail

/**
 * Is telemetry enabled? The per-site guard: a relaxed load. All
 * registry mutators are internally gated on this, so instrumented
 * sites may call add()/set() unconditionally; checking metricsOn()
 * first only saves the argument setup.
 */
inline bool
metricsOn()
{
    return detail::g_metrics_on.load(std::memory_order_relaxed) != 0;
}

/** Monotonic counter. Lock-free; relaxed increments. */
class MetricCounter
{
  public:
    /** Add @p delta; no-op while telemetry is off. */
    void
    add(uint64_t delta = 1)
    {
        if (metricsOn())
            value_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Instantaneous value (queue depth, active workers). Lock-free. */
class MetricGauge
{
  public:
    /** Set the current value; no-op while telemetry is off. */
    void
    set(int64_t v)
    {
        if (metricsOn())
            value_.store(v, std::memory_order_relaxed);
    }

    /** Add @p delta (negative to decrement); gated like set(). */
    void
    add(int64_t delta)
    {
        if (metricsOn())
            value_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Raise the value to at least @p v (high-watermark gauges). */
    void
    max(int64_t v)
    {
        if (!metricsOn())
            return;
        int64_t cur = value_.load(std::memory_order_relaxed);
        while (v > cur && !value_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed))
            ;
    }

    int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> value_{0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations with
 * value <= bounds[i] (the first bound that fits); one implicit
 * overflow bucket counts everything above the last bound, so
 * counts().size() == bounds().size() + 1.
 */
class MetricHistogram
{
  public:
    explicit MetricHistogram(std::vector<double> bounds);

    /** Count @p v into its bucket; no-op while telemetry is off. */
    void observe(double v);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Snapshot of the per-bucket counts (bounds + overflow). */
    std::vector<uint64_t> counts() const;

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> counts_;
};

/**
 * Registry lookup/registration. The first call with a name creates
 * the metric; later calls return the same object, whose address is
 * stable for the process lifetime — instrumented sites cache it in a
 * `static` reference so the name lookup happens once per site.
 */
MetricCounter &metricCounter(const std::string &name);
MetricGauge &metricGauge(const std::string &name);
/**
 * Histogram registration. @p bounds must be non-empty and strictly
 * increasing; a re-registration with different bounds is fatal (two
 * sites disagreeing on the buckets of one name is a bug).
 */
MetricHistogram &metricHistogram(const std::string &name,
                                 const std::vector<double> &bounds);

/** One point-in-time view of the whole registry. */
struct MetricsSnapshot
{
    uint32_t shard_index = 1; ///< 1-based; 1/1 when unsharded
    uint32_t shard_count = 1;
    uint64_t seq = 0;    ///< strictly increasing per process
    double wall_ms = 0;  ///< since the sampler was configured
    long pid = 0;
    bool done = false;   ///< set by metricsFinish(), never cleared
    /** Counter values, sorted by name. */
    std::vector<std::pair<std::string, uint64_t>> counters;
    /** Gauge values, sorted by name. */
    std::vector<std::pair<std::string, int64_t>> gauges;
    struct Hist
    {
        std::string name;
        std::vector<double> bounds;
        std::vector<uint64_t> counts; ///< bounds.size() + 1 buckets
    };
    /** Histograms, sorted by name. */
    std::vector<Hist> histograms;

    /** Counter value by name, or @p fallback when absent. */
    uint64_t counterOr(const std::string &name, uint64_t fallback) const;
};

/**
 * A pull-style publisher: called at every snapshot to copy values a
 * layer already counts (cache hit/miss totals, call counts) into the
 * snapshot via the sink. Registration is one-shot and permanent;
 * collectors run only while telemetry is on.
 */
using MetricsCollector =
    std::function<void(const std::function<void(const char *, uint64_t)>
                           &sink)>;
void metricsAddCollector(MetricsCollector collector);

/** Sampler configuration (programmatic alternative to SMS_METRICS). */
struct MetricsConfig
{
    /** JSONL export path; empty samples without writing a series. */
    std::string path;
    /** Sampler period in milliseconds. */
    uint32_t interval_ms = 250;
    /** Shard identity stamped on every line; a count of 0 means 1/1. */
    uint32_t shard_index = 1;
    uint32_t shard_count = 1;
};

/**
 * Enable telemetry and start the sampler thread. Idempotent for an
 * identical config; any other config restarts the sampler.
 */
void metricsConfigure(const MetricsConfig &config);

/**
 * Read SMS_METRICS / SMS_METRICS_INTERVAL_MS and configure the
 * sampler accordingly, stamping lines with the caller's shard
 * identity (the bench layer passes its SweepShardSpec; an inactive
 * 0/0 identity is written as 1/1). Idempotent: only the first call
 * acts. Does nothing when SMS_METRICS is unset.
 */
void metricsInitFromEnv(uint32_t shard_index, uint32_t shard_count);

/**
 * The sampler period SMS_METRICS_INTERVAL_MS asks for: an integer in
 * 1..3600000 ms, else a warning and the 250 ms default.
 */
uint32_t metricsIntervalMsFromEnv();

/** The configured sampler state, for the bench throughput block. */
struct MetricsStats
{
    bool enabled = false;
    std::string path;
    uint32_t interval_ms = 0;
    uint64_t samples = 0; ///< snapshots taken (sampler + forced)
};
MetricsStats metricsStats();

/**
 * Take one snapshot immediately and append its JSONL line (when a path
 * is configured). No-op while the sampler is not configured.
 */
void metricsFlushNow();

/**
 * Mark this process's run finished and flush: the line this writes and
 * every later one carry `done: true`. A process that exits without
 * calling it (fatal(), a kill) ends its series with `done: false`.
 * No-op while the sampler is not configured.
 */
void metricsFinish();

/**
 * Stop the sampler, run one final flush, and turn the gate off.
 * Registered counters keep their values (the registry is never
 * destroyed); a later metricsConfigure() resumes from them.
 */
void metricsShutdown();

/** Current snapshot without sampler involvement (tests, tools). */
MetricsSnapshot metricsSnapshot();

/** JSON form of one snapshot (one sms-metrics-1 JSONL line). */
JsonValue toJson(const MetricsSnapshot &snapshot);

/**
 * Validate a parsed sms-metrics-1 series: every line carries the
 * schema and one in-range shard identity, seq is strictly increasing,
 * wall_ms is non-decreasing, `done` never goes from true back to
 * false, and every counter is monotonic non-decreasing line-over-line.
 * Lines from different pids form independent series and must not be
 * mixed in one file. @return false with @p error set on the first
 * violation.
 */
bool validateMetricsSeries(const std::vector<JsonValue> &lines,
                           std::string &error);

/** The newest complete line of a series file, and how stale it is. */
struct MetricsTail
{
    /** Shard, pid, seq, wall_ms, done and counters (no gauges or
     *  histograms). */
    MetricsSnapshot snapshot;
    double age_seconds = 0; ///< now - file mtime at read time
};

/**
 * Read the last complete line of the sms-metrics-1 series at @p path,
 * scanning backwards from the end of the file rather than reading the
 * whole series. Text after the final newline is a write in progress
 * (or a torn one) and is skipped. @return false with @p error set when
 * the file is missing or unreadable, holds no complete line, or its
 * last complete line is not JSON or fails validateMetricsSeries() as a
 * one-line series (another schema, an out-of-range shard identity, a
 * missing field).
 */
bool readMetricsTail(const std::string &path, MetricsTail &tail,
                     std::string &error);

} // namespace sms

#endif // SMS_STATS_METRICS_HPP
