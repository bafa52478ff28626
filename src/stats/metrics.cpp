/**
 * @file
 * Metrics registry and sampler (see metrics.hpp for the model).
 */

#include "src/stats/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sys/stat.h>
#include <thread>
#include <time.h>
#include <unistd.h>

#include "src/stats/report.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace sms {

namespace detail {
std::atomic<uint32_t> g_metrics_on{0};
} // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/** Registry + sampler state, all behind one mutex except the metric
 *  cells themselves (which are the lock-free hot path). */
struct MetricsState
{
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<MetricCounter>> counters;
    std::map<std::string, std::unique_ptr<MetricGauge>> gauges;
    std::map<std::string, std::unique_ptr<MetricHistogram>> histograms;
    std::vector<MetricsCollector> collectors;
    // Stamped on every snapshot, under `mutex` like the registry.
    uint32_t shard_index = 1;
    uint32_t shard_count = 1;
    bool done = false;

    // Sampler.
    std::thread sampler;
    std::condition_variable wake;
    std::mutex sampler_mutex;
    bool stop = false;
    MetricsConfig config;
    bool configured = false;
    bool env_checked = false;
    bool atexit_registered = false;
    Clock::time_point epoch = Clock::now();
    uint64_t seq = 0;
    uint64_t samples = 0;

    // Serializes flushes (sampler tick vs metricsFlushNow vs exit).
    std::mutex flush_mutex;
};

MetricsState &
state()
{
    static MetricsState *s = new MetricsState; // never destroyed: the
    return *s; // sampler and atexit hooks may outlive static dtors
}

/**
 * Take a snapshot (seq/wall stamped under the registry mutex). With
 * @p finish the sticky done flag is raised first, so the finishing
 * flush is the first line that carries it.
 */
MetricsSnapshot
takeSnapshot(MetricsState &s, bool finish = false)
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(s.mutex);
    s.done = s.done || finish;
    snap.shard_index = s.shard_index;
    snap.shard_count = s.shard_count;
    snap.done = s.done;
    snap.seq = ++s.seq;
    ++s.samples;
    snap.wall_ms = std::chrono::duration<double, std::milli>(
                       Clock::now() - s.epoch)
                       .count();
    snap.pid = static_cast<long>(::getpid());
    for (const auto &c : s.counters)
        snap.counters.emplace_back(c.first, c.second->value());
    for (const auto &g : s.gauges)
        snap.gauges.emplace_back(g.first, g.second->value());
    for (const auto &h : s.histograms) {
        MetricsSnapshot::Hist hist;
        hist.name = h.first;
        hist.bounds = h.second->bounds();
        hist.counts = h.second->counts();
        snap.histograms.push_back(std::move(hist));
    }
    for (const MetricsCollector &collector : s.collectors)
        collector([&snap](const char *name, uint64_t value) {
            snap.counters.emplace_back(name, value);
        });
    std::sort(snap.counters.begin(), snap.counters.end());
    return snap;
}

/** One sampler tick / forced flush: take a snapshot, write its line. */
void
flushOnce(MetricsState &s, bool finish = false)
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(s.sampler_mutex);
        path = s.config.path;
    }
    std::lock_guard<std::mutex> flush_lock(s.flush_mutex);
    MetricsSnapshot snap = takeSnapshot(s, finish);
    if (!path.empty()) {
        std::string error;
        if (!appendJsonLine(path, toJson(snap), error))
            warn("metrics sample not written: %s", error.c_str());
    }
}

/** Flush if the sampler is configured and the gate is on. */
void
flushIfActive(bool finish)
{
    MetricsState &s = state();
    {
        std::lock_guard<std::mutex> lock(s.sampler_mutex);
        if (!s.configured ||
            detail::g_metrics_on.load(std::memory_order_relaxed) == 0)
            return;
    }
    flushOnce(s, finish);
}

/** The shard identity of a series line: whole numbers with
 *  1 <= index <= count < 2^32. False when absent or out of range. */
bool
shardOf(const JsonValue &line, uint32_t &index, uint32_t &count)
{
    const JsonValue *shard = line.find("shard");
    if (!shard || !shard->isObject())
        return false;
    double i = shard->numberOr("index", 0);
    double n = shard->numberOr("count", 0);
    if (!(i >= 1 && i <= n && n < 4294967296.0) || i != std::floor(i) ||
        n != std::floor(n))
        return false;
    index = static_cast<uint32_t>(i);
    count = static_cast<uint32_t>(n);
    return true;
}

void
samplerMain()
{
    MetricsState &s = state();
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(s.sampler_mutex);
            s.wake.wait_for(
                lock, std::chrono::milliseconds(s.config.interval_ms),
                [&] { return s.stop; });
            if (s.stop)
                return;
        }
        flushOnce(s);
    }
}

/** parallelFor occupancy hooks (installed on first configure). */
void
parallelBeginHook(unsigned threads, size_t n)
{
    static MetricGauge &active = metricGauge("parallel.workers_active");
    static MetricCounter &regions = metricCounter("parallel.regions");
    static MetricCounter &iters = metricCounter("parallel.iterations");
    active.add(static_cast<int64_t>(threads));
    regions.add(1);
    iters.add(n);
}

void
parallelEndHook(unsigned threads, size_t)
{
    static MetricGauge &active = metricGauge("parallel.workers_active");
    active.add(-static_cast<int64_t>(threads));
}

void
stopSamplerLocked(MetricsState &s, std::unique_lock<std::mutex> &lock)
{
    if (!s.sampler.joinable())
        return;
    s.stop = true;
    s.wake.notify_all();
    lock.unlock();
    s.sampler.join();
    lock.lock();
    s.sampler = std::thread();
    s.stop = false;
}

} // namespace

MetricHistogram::MetricHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    SMS_ASSERT(!bounds_.empty(), "histogram needs at least one bound");
    for (size_t i = 1; i < bounds_.size(); ++i)
        SMS_ASSERT(bounds_[i - 1] < bounds_[i],
                   "histogram bounds must be strictly increasing");
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
}

void
MetricHistogram::observe(double v)
{
    if (!metricsOn())
        return;
    size_t bucket = static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint64_t>
MetricHistogram::counts() const
{
    std::vector<uint64_t> out(counts_.size());
    for (size_t i = 0; i < counts_.size(); ++i)
        out[i] = counts_[i].load(std::memory_order_relaxed);
    return out;
}

MetricCounter &
metricCounter(const std::string &name)
{
    MetricsState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    auto &slot = s.counters[name];
    if (!slot)
        slot = std::make_unique<MetricCounter>();
    return *slot;
}

MetricGauge &
metricGauge(const std::string &name)
{
    MetricsState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    auto &slot = s.gauges[name];
    if (!slot)
        slot = std::make_unique<MetricGauge>();
    return *slot;
}

MetricHistogram &
metricHistogram(const std::string &name,
                const std::vector<double> &bounds)
{
    MetricsState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    auto &slot = s.histograms[name];
    if (!slot)
        slot = std::make_unique<MetricHistogram>(bounds);
    else if (slot->bounds() != bounds)
        fatal("metric histogram '%s' re-registered with different "
              "bounds",
              name.c_str());
    return *slot;
}

uint64_t
MetricsSnapshot::counterOr(const std::string &name,
                           uint64_t fallback) const
{
    auto it = std::lower_bound(
        counters.begin(), counters.end(), name,
        [](const auto &entry, const std::string &key) {
            return entry.first < key;
        });
    if (it != counters.end() && it->first == name)
        return it->second;
    return fallback;
}

void
metricsAddCollector(MetricsCollector collector)
{
    MetricsState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.collectors.push_back(std::move(collector));
}

void
metricsConfigure(const MetricsConfig &requested)
{
    MetricsConfig config = requested;
    if (config.interval_ms < 1)
        config.interval_ms = 1;
    if (config.shard_count < 1)
        config.shard_index = config.shard_count = 1;
    SMS_ASSERT(config.shard_index >= 1 &&
                   config.shard_index <= config.shard_count,
               "metrics shard identity %u/%u out of range",
               config.shard_index, config.shard_count);
    MetricsState &s = state();
    std::unique_lock<std::mutex> lock(s.sampler_mutex);
    if (s.configured && s.sampler.joinable() &&
        s.config.path == config.path &&
        s.config.interval_ms == config.interval_ms &&
        s.config.shard_index == config.shard_index &&
        s.config.shard_count == config.shard_count)
        return;
    stopSamplerLocked(s, lock);
    s.config = config;
    {
        std::lock_guard<std::mutex> reg(s.mutex);
        s.shard_index = config.shard_index;
        s.shard_count = config.shard_count;
    }
    if (!s.configured)
        s.epoch = Clock::now();
    s.configured = true;
    detail::g_metrics_on.store(1, std::memory_order_relaxed);
    setParallelForHooks(parallelBeginHook, parallelEndHook);
    s.sampler = std::thread(samplerMain);
    if (!s.atexit_registered) {
        s.atexit_registered = true;
        std::atexit([] { metricsShutdown(); });
    }
}

void
metricsInitFromEnv(uint32_t shard_index, uint32_t shard_count)
{
    MetricsState &s = state();
    {
        std::lock_guard<std::mutex> lock(s.sampler_mutex);
        if (s.env_checked)
            return;
        s.env_checked = true;
    }
    const char *path = std::getenv("SMS_METRICS");
    if (!path || !*path)
        return;
    MetricsConfig config;
    config.path = path;
    config.interval_ms = metricsIntervalMsFromEnv();
    config.shard_index = shard_index;
    config.shard_count = shard_count;
    metricsConfigure(config);
}

uint32_t
metricsIntervalMsFromEnv()
{
    const char *env = std::getenv("SMS_METRICS_INTERVAL_MS");
    if (!env || !*env)
        return 250;
    char *end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (!end || *end || v < 1 || v > 3600000) {
        warn("SMS_METRICS_INTERVAL_MS='%s' is not an interval in "
             "1..3600000 ms; using 250",
             env);
        return 250;
    }
    return static_cast<uint32_t>(v);
}

MetricsStats
metricsStats()
{
    MetricsState &s = state();
    MetricsStats out;
    {
        std::lock_guard<std::mutex> lock(s.sampler_mutex);
        out.enabled = s.configured;
        out.path = s.config.path;
        out.interval_ms = s.config.interval_ms;
    }
    std::lock_guard<std::mutex> lock(s.mutex);
    out.samples = s.samples;
    return out;
}

void
metricsFlushNow()
{
    flushIfActive(false);
}

void
metricsFinish()
{
    flushIfActive(true);
}

void
metricsShutdown()
{
    MetricsState &s = state();
    std::unique_lock<std::mutex> lock(s.sampler_mutex);
    if (!s.configured)
        return;
    bool was_on =
        detail::g_metrics_on.load(std::memory_order_relaxed) != 0;
    stopSamplerLocked(s, lock);
    s.configured = false;
    lock.unlock();
    if (was_on)
        flushOnce(s); // final sample while the gate is still on
    detail::g_metrics_on.store(0, std::memory_order_relaxed);
}

MetricsSnapshot
metricsSnapshot()
{
    return takeSnapshot(state());
}

JsonValue
toJson(const MetricsSnapshot &snapshot)
{
    JsonValue line = JsonValue::object();
    line["schema"] = kMetricsSchema;
    JsonValue shard = JsonValue::object();
    shard["index"] = snapshot.shard_index;
    shard["count"] = snapshot.shard_count;
    line["shard"] = std::move(shard);
    line["pid"] = static_cast<long long>(snapshot.pid);
    line["seq"] = snapshot.seq;
    line["wall_ms"] = snapshot.wall_ms;
    line["done"] = snapshot.done;
    JsonValue counters = JsonValue::object();
    for (const auto &c : snapshot.counters)
        counters[c.first] = c.second;
    line["counters"] = std::move(counters);
    JsonValue gauges = JsonValue::object();
    for (const auto &g : snapshot.gauges)
        gauges[g.first] = static_cast<long long>(g.second);
    line["gauges"] = std::move(gauges);
    JsonValue hists = JsonValue::object();
    for (const auto &h : snapshot.histograms) {
        JsonValue hist = JsonValue::object();
        JsonValue bounds = JsonValue::array();
        for (double b : h.bounds)
            bounds.push(JsonValue(b));
        hist["bounds"] = std::move(bounds);
        JsonValue counts = JsonValue::array();
        for (uint64_t c : h.counts)
            counts.push(JsonValue(c));
        hist["counts"] = std::move(counts);
        hists[h.name] = std::move(hist);
    }
    line["histograms"] = std::move(hists);
    return line;
}

bool
validateMetricsSeries(const std::vector<JsonValue> &lines,
                      std::string &error)
{
    if (lines.empty()) {
        error = "metrics series is empty";
        return false;
    }
    double pid = -1;
    uint32_t shard_index = 0, shard_count = 0;
    bool done = false;
    uint64_t last_seq = 0;
    double last_wall = -1.0;
    std::map<std::string, uint64_t> last_counters;
    for (size_t i = 0; i < lines.size(); ++i) {
        const JsonValue &line = lines[i];
        auto where = [&](const char *what) {
            error = strprintf("line %zu: %s", i + 1, what);
        };
        if (line.stringOr("schema", "") != kMetricsSchema) {
            where("schema is not sms-metrics-1");
            return false;
        }
        uint32_t index = 0, count = 0;
        if (!shardOf(line, index, count)) {
            where("shard identity is missing or out of range");
            return false;
        }
        if (i == 0) {
            shard_index = index;
            shard_count = count;
        } else if (index != shard_index || count != shard_count) {
            where("shard identity changes within the series");
            return false;
        }
        double line_pid = line.numberOr("pid", -1);
        if (pid < 0)
            pid = line_pid;
        else if (line_pid != pid) {
            where("mixes samples from different pids (shard workers "
                  "must write distinct series)");
            return false;
        }
        const JsonValue *line_done = line.find("done");
        if (!line_done || !line_done->isBool()) {
            where("done flag is missing");
            return false;
        }
        if (done && !line_done->asBool()) {
            where("done went from true back to false");
            return false;
        }
        done = line_done->asBool();
        uint64_t seq =
            static_cast<uint64_t>(line.numberOr("seq", 0));
        if (seq <= last_seq && i > 0) {
            where("seq is not strictly increasing");
            return false;
        }
        if (seq == 0) {
            where("seq is missing or zero");
            return false;
        }
        last_seq = seq;
        double wall = line.numberOr("wall_ms", -1.0);
        if (wall < 0 || wall < last_wall) {
            where("wall_ms is missing or decreasing");
            return false;
        }
        last_wall = wall;
        const JsonValue *counters = line.find("counters");
        if (!counters || !counters->isObject()) {
            where("counters object is missing");
            return false;
        }
        for (const auto &m : counters->members()) {
            if (!m.second.isNumber()) {
                where("counter value is not a number");
                return false;
            }
            uint64_t v = m.second.asU64();
            auto it = last_counters.find(m.first);
            if (it != last_counters.end() && v < it->second) {
                error = strprintf("line %zu: counter '%s' went "
                                  "backwards (%llu -> %llu)",
                                  i + 1, m.first.c_str(),
                                  static_cast<unsigned long long>(
                                      it->second),
                                  static_cast<unsigned long long>(v));
                return false;
            }
            last_counters[m.first] = v;
        }
    }
    return true;
}

bool
readMetricsTail(const std::string &path, MetricsTail &tail,
                std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    struct stat st;
    if (!in || ::stat(path.c_str(), &st) != 0) {
        error = strprintf("%s: cannot open", path.c_str());
        return false;
    }
    // Read a window at the end of the file, doubling it until it holds
    // the last newline-terminated line whole. Text after the final
    // newline is a write in progress (or a torn one) and is skipped.
    const size_t size = static_cast<size_t>(st.st_size);
    std::string text;
    bool found = false;
    for (size_t want = 4096; !found; want *= 2) {
        size_t n = std::min(want, size);
        std::string buf(n, '\0');
        in.seekg(static_cast<std::streamoff>(size - n));
        if (!in.read(&buf[0], static_cast<std::streamsize>(n))) {
            error = strprintf("%s: short read", path.c_str());
            return false;
        }
        size_t nl = buf.rfind('\n');
        size_t prev = nl == std::string::npos || nl == 0
                          ? std::string::npos
                          : buf.rfind('\n', nl - 1);
        if (nl != std::string::npos &&
            (prev != std::string::npos || n == size)) {
            size_t start = prev == std::string::npos ? 0 : prev + 1;
            text = buf.substr(start, nl - start);
            found = true;
        } else if (n == size) {
            break;
        }
    }
    if (!found) {
        error = strprintf("%s: no complete line yet", path.c_str());
        return false;
    }

    // The last line must pass as a one-line series on its own.
    std::vector<JsonValue> lines(1);
    if (!JsonValue::parse(text, lines[0], error) ||
        !validateMetricsSeries(lines, error)) {
        error = strprintf("%s: last complete line is not a valid "
                          "sample (%s)",
                          path.c_str(), error.c_str());
        return false;
    }
    const JsonValue &line = lines[0];
    MetricsSnapshot &snap = tail.snapshot;
    snap = MetricsSnapshot{};
    shardOf(line, snap.shard_index, snap.shard_count);
    snap.pid = static_cast<long>(line.numberOr("pid", 0));
    snap.seq = line.find("seq")->asU64();
    snap.wall_ms = line.find("wall_ms")->asNumber();
    snap.done = line.find("done")->asBool();
    for (const auto &m : line.find("counters")->members())
        snap.counters.emplace_back(m.first, m.second.asU64());
    std::sort(snap.counters.begin(), snap.counters.end());

    struct timespec now;
    ::clock_gettime(CLOCK_REALTIME, &now);
    double age = static_cast<double>(now.tv_sec - st.st_mtim.tv_sec) +
                 static_cast<double>(now.tv_nsec - st.st_mtim.tv_nsec) *
                     1e-9;
    tail.age_seconds = age > 0.0 ? age : 0.0;
    return true;
}

} // namespace sms
