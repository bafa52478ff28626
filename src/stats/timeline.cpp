/**
 * @file
 * Timeline tracer implementation: per-thread ring shards, track-name
 * registry, Chrome Trace Format exporter, and the per-category fold
 * shared by tools/trace_summarize and the tests.
 */

#include "src/stats/timeline.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "src/stats/report.hpp"

namespace sms {

#ifndef SMS_TIMELINE_DISABLED
namespace detail {
std::atomic<uint32_t> g_timeline_mask{0};
} // namespace detail
#endif

namespace {

/** One recorded event. Names are string literals, stored by pointer. */
struct Event
{
    const char *name = nullptr;
    const char *value_name = nullptr;
    const char *value2_name = nullptr;
    uint64_t ts = 0;
    uint64_t dur = 0;
    uint64_t value = 0;
    uint64_t value2 = 0;
    uint32_t pid = 0;
    uint32_t tid = 0;
    TimelineCategory cat = TimelineCategory::Sweep;
    char ph = 'X';
};

/**
 * A single-producer ring of events. Exactly one thread writes (its
 * owner); the exporter reads only after emitters have quiesced.
 */
struct Shard
{
    std::vector<Event> ring;
    size_t cap = 0;
    uint64_t count = 0; ///< total events ever written

    void
    write(const Event &e)
    {
        if (ring.size() < cap)
            ring.push_back(e);
        else
            ring[count % cap] = e;
        ++count;
    }

    uint64_t kept() const { return std::min<uint64_t>(count, cap); }
    uint64_t dropped() const { return count - kept(); }
};

/** Tracer global state, all guarded by mu (except the mask). */
struct Tracer
{
    std::mutex mu;
    TimelineConfig config;
    bool enabled = false;
    bool exported = false;
    std::vector<std::unique_ptr<Shard>> shards;
    std::map<uint32_t, std::string> process_names;
    std::map<std::pair<uint32_t, uint32_t>, std::string> thread_names;
    uint32_t next_pid = 1;
    std::atomic<uint64_t> generation{0};
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

/** Thread-local shard cache, invalidated by generation bumps. */
struct LocalShard
{
    Shard *shard = nullptr;
    uint64_t generation = 0;
};

thread_local LocalShard t_local;
thread_local TimelineContext t_context;

Shard *
shardForThisThread()
{
    Tracer &t = tracer();
    uint64_t gen = t.generation.load(std::memory_order_acquire);
    if (t_local.shard && t_local.generation == gen)
        return t_local.shard;
    std::lock_guard<std::mutex> lock(t.mu);
    if (!t.enabled)
        return nullptr;
    auto shard = std::make_unique<Shard>();
    shard->cap = std::max<size_t>(t.config.ring_capacity, 1);
    shard->ring.reserve(std::min<size_t>(shard->cap, 4096));
    t_local.shard = shard.get();
    t_local.generation = t.generation.load(std::memory_order_relaxed);
    t.shards.push_back(std::move(shard));
    return t_local.shard;
}

void
emit(const Event &e)
{
    Shard *shard = shardForThisThread();
    if (shard)
        shard->write(e);
}

void
setMask(uint32_t mask)
{
#ifndef SMS_TIMELINE_DISABLED
    detail::g_timeline_mask.store(mask, std::memory_order_relaxed);
#else
    (void)mask;
#endif
}

/** Export-at-exit so `SMS_TIMELINE=x ./bench` needs no explicit call. */
void
atexitExport()
{
    std::string error;
    if (!timelineExport(error))
        std::fprintf(stderr, "timeline: export failed: %s\n",
                     error.c_str());
}

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
appendU64(std::string &out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += buf;
}

/** Serialize one event as a Chrome-trace traceEvents element. */
void
appendEventJson(std::string &out, const Event &e)
{
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\",\"name\":\"";
    appendEscaped(out, e.name);
    out += "\",\"cat\":\"";
    out += timelineCategoryName(e.cat);
    out += "\",\"pid\":";
    appendU64(out, e.pid);
    out += ",\"tid\":";
    appendU64(out, e.tid);
    out += ",\"ts\":";
    appendU64(out, e.ts);
    if (e.ph == 'X') {
        out += ",\"dur\":";
        appendU64(out, e.dur);
    }
    if (e.ph == 'i')
        out += ",\"s\":\"t\"";
    if (e.ph == 'C') {
        out += ",\"args\":{\"value\":";
        appendU64(out, e.value);
        out += "}";
    } else if (e.value_name) {
        out += ",\"args\":{\"";
        appendEscaped(out, e.value_name);
        out += "\":";
        appendU64(out, e.value);
        if (e.value2_name) {
            out += ",\"";
            appendEscaped(out, e.value2_name);
            out += "\":";
            appendU64(out, e.value2);
        }
        out += "}";
    }
    out += "}";
}

/** Serialize a process_name / thread_name metadata event. */
void
appendMetaJson(std::string &out, const char *kind, uint32_t pid,
               const uint32_t *tid, const std::string &name)
{
    out += "{\"ph\":\"M\",\"name\":\"";
    out += kind;
    out += "\",\"pid\":";
    appendU64(out, pid);
    if (tid) {
        out += ",\"tid\":";
        appendU64(out, *tid);
    }
    out += ",\"args\":{\"name\":\"";
    appendEscaped(out, name);
    out += "\"}}";
}

} // namespace

const char *
timelineCategoryName(TimelineCategory cat)
{
    switch (cat) {
    case TimelineCategory::Sweep: return "sweep";
    case TimelineCategory::Sim: return "sim";
    case TimelineCategory::Stack: return "stack";
    case TimelineCategory::StackOps: return "stackops";
    case TimelineCategory::Cache: return "cache";
    case TimelineCategory::Dram: return "dram";
    case TimelineCategory::Shmem: return "shmem";
    }
    return "?";
}

bool
timelineParseCategories(const std::string &spec, uint32_t &mask,
                        std::string &error)
{
    if (spec.empty()) {
        mask = kTimelineDefaultCategories;
        return true;
    }
    uint32_t out = 0;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            continue;
        if (token == "all") {
            out |= kTimelineAllCategories;
            continue;
        }
        if (token == "default") {
            out |= kTimelineDefaultCategories;
            continue;
        }
        bool found = false;
        for (int i = 0; i < kTimelineCategoryCount; ++i) {
            TimelineCategory cat =
                static_cast<TimelineCategory>(1u << i);
            if (token == timelineCategoryName(cat)) {
                out |= static_cast<uint32_t>(cat);
                found = true;
                break;
            }
        }
        if (!found) {
            error = "unknown timeline category \"" + token +
                    "\" (expected " + timelineCategoryList(
                        kTimelineAllCategories) + ", all, or default)";
            return false;
        }
    }
    mask = out;
    return true;
}

std::string
timelineCategoryList(uint32_t mask)
{
    std::string out;
    for (int i = 0; i < kTimelineCategoryCount; ++i) {
        TimelineCategory cat = static_cast<TimelineCategory>(1u << i);
        if (!(mask & static_cast<uint32_t>(cat)))
            continue;
        if (!out.empty())
            out += ",";
        out += timelineCategoryName(cat);
    }
    return out;
}

TimelineContext &
timelineContext()
{
    return t_context;
}

void
timelineConfigure(const TimelineConfig &config)
{
    Tracer &t = tracer();
    {
        std::lock_guard<std::mutex> lock(t.mu);
        t.config = config;
        t.enabled = true;
        t.exported = false;
        t.shards.clear();
        t.process_names.clear();
        t.thread_names.clear();
        t.process_names[0] = "harness (wall-clock us)";
        t.next_pid = 1;
        t.generation.fetch_add(1, std::memory_order_release);
        t.epoch = std::chrono::steady_clock::now();
        static bool atexit_registered = false;
        if (!atexit_registered) {
            atexit_registered = true;
            std::atexit(atexitExport);
        }
    }
    setMask(config.categories);
}

void
timelineInitFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *env = std::getenv("SMS_TIMELINE");
        if (!env || !*env)
            return;
        std::string spec(env);
        TimelineConfig config;
        // Split "<path>[:categories]" on the last colon whose suffix
        // parses as a category list, so plain paths with colons work.
        size_t colon = spec.rfind(':');
        config.path = spec;
        if (colon != std::string::npos) {
            std::string error;
            uint32_t mask = 0;
            std::string tail = spec.substr(colon + 1);
            if (!tail.empty() &&
                timelineParseCategories(tail, mask, error)) {
                config.path = spec.substr(0, colon);
                config.categories = mask;
            }
        }
        if (const char *cap = std::getenv("SMS_TIMELINE_EVENTS")) {
            char *end = nullptr;
            unsigned long long v = std::strtoull(cap, &end, 10);
            if (end != cap && *end == '\0' && v > 0)
                config.ring_capacity = static_cast<size_t>(v);
            else
                std::fprintf(stderr,
                             "timeline: ignoring invalid "
                             "SMS_TIMELINE_EVENTS=%s\n",
                             cap);
        }
        timelineConfigure(config);
    });
}

void
timelineShutdown()
{
    setMask(0);
    Tracer &t = tracer();
    std::lock_guard<std::mutex> lock(t.mu);
    t.enabled = false;
    t.exported = true; // suppress the atexit export
    t.config = TimelineConfig{};
    t.config.path.clear();
    t.shards.clear();
    t.process_names.clear();
    t.thread_names.clear();
    t.next_pid = 1;
    t.generation.fetch_add(1, std::memory_order_release);
}

TimelineStats
timelineStats()
{
    Tracer &t = tracer();
    std::lock_guard<std::mutex> lock(t.mu);
    TimelineStats stats;
    stats.enabled = t.enabled;
    stats.categories = t.enabled ? t.config.categories : 0;
    stats.path = t.config.path;
    for (const auto &shard : t.shards) {
        stats.events_recorded += shard->count;
        stats.events_kept += shard->kept();
        stats.events_dropped += shard->dropped();
    }
    return stats;
}

uint32_t
timelineNewProcess(const std::string &name)
{
    Tracer &t = tracer();
    std::lock_guard<std::mutex> lock(t.mu);
    uint32_t pid = t.next_pid++;
    t.process_names[pid] = name;
    return pid;
}

void
timelineNameThread(uint32_t pid, uint32_t tid, const std::string &name)
{
    Tracer &t = tracer();
    std::lock_guard<std::mutex> lock(t.mu);
    t.thread_names[{pid, tid}] = name;
}

uint64_t
timelineWallMicros()
{
    Tracer &t = tracer();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t.epoch)
            .count());
}

void
timelineSpan(TimelineCategory cat, const char *name, uint64_t ts,
             uint64_t dur, uint64_t value, const char *value_name)
{
    if (!timelineOn(cat))
        return;
    Event e;
    e.name = name;
    e.value_name = value_name;
    e.ts = ts;
    e.dur = dur;
    e.value = value;
    e.pid = t_context.pid;
    e.tid = t_context.tid;
    e.cat = cat;
    e.ph = 'X';
    emit(e);
}

void
timelineSpanAt(TimelineCategory cat, const char *name, uint32_t pid,
               uint32_t tid, uint64_t ts, uint64_t dur, uint64_t value,
               const char *value_name, uint64_t value2,
               const char *value2_name)
{
    if (!timelineOn(cat))
        return;
    Event e;
    e.name = name;
    e.value_name = value_name;
    e.value2_name = value2_name;
    e.ts = ts;
    e.dur = dur;
    e.value = value;
    e.value2 = value2;
    e.pid = pid;
    e.tid = tid;
    e.cat = cat;
    e.ph = 'X';
    emit(e);
}

void
timelineInstantNow(TimelineCategory cat, const char *name,
                   uint64_t value, const char *value_name)
{
    if (!timelineOn(cat))
        return;
    Event e;
    e.name = name;
    e.value_name = value_name;
    e.ts = t_context.now;
    e.value = value;
    e.pid = t_context.pid;
    e.tid = t_context.tid;
    e.cat = cat;
    e.ph = 'i';
    emit(e);
}

void
timelineCounter(TimelineCategory cat, const char *name, uint64_t ts,
                uint64_t value)
{
    if (!timelineOn(cat))
        return;
    Event e;
    e.name = name;
    e.ts = ts;
    e.value = value;
    e.pid = t_context.pid;
    e.tid = t_context.tid;
    e.cat = cat;
    e.ph = 'C';
    emit(e);
}

bool
timelineExportTo(const std::string &path, std::string &error)
{
    Tracer &t = tracer();
    std::lock_guard<std::mutex> lock(t.mu);

    // Gather each shard's resident window in emission order.
    std::vector<Event> events;
    uint64_t recorded = 0, dropped = 0;
    for (const auto &shard : t.shards) {
        recorded += shard->count;
        dropped += shard->dropped();
    }
    events.reserve(recorded - dropped);
    for (const auto &shard : t.shards) {
        uint64_t kept = shard->kept();
        uint64_t first = shard->count - kept;
        for (uint64_t i = 0; i < kept; ++i)
            events.push_back(
                shard->ring[(first + i) % shard->cap]);
    }
    // Tracks in pid/tid order, chronological within a track, longer
    // span first on ties so nested spans render inside their parent.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return std::tie(a.pid, a.tid, a.ts) <
                                    std::tie(b.pid, b.tid, b.ts) ||
                                (a.pid == b.pid && a.tid == b.tid &&
                                 a.ts == b.ts && a.dur > b.dur);
                     });

    std::string out;
    out.reserve(events.size() * 96 + 4096);
    out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
           "\"schema\":\"sms-timeline-1\",\"git\":\"";
    appendEscaped(out, gitDescribe());
    out += "\",\"categories\":\"";
    appendEscaped(out, timelineCategoryList(t.config.categories));
    out += "\",\"clock_note\":\"sim tracks tick in simulated cycles "
           "(1 cycle = 1us), harness tracks in wall-clock us\","
           "\"events_recorded\":";
    appendU64(out, recorded);
    out += ",\"events_dropped\":";
    appendU64(out, dropped);
    out += "},\"traceEvents\":[";
    bool first_event = true;
    auto sep = [&] {
        if (!first_event)
            out += ",\n";
        else
            out += "\n";
        first_event = false;
    };
    for (const auto &[pid, name] : t.process_names) {
        sep();
        appendMetaJson(out, "process_name", pid, nullptr, name);
    }
    for (const auto &[key, name] : t.thread_names) {
        sep();
        appendMetaJson(out, "thread_name", key.first, &key.second,
                       name);
    }
    for (const Event &e : events) {
        sep();
        appendEventJson(out, e);
    }
    out += "\n]}\n";

    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        error = path + ": " + std::strerror(errno);
        return false;
    }
    size_t written = std::fwrite(out.data(), 1, out.size(), f);
    bool ok = written == out.size() && std::fclose(f) == 0;
    if (!ok)
        error = path + ": short write";
    return ok;
}

bool
timelineExport(std::string &error)
{
    Tracer &t = tracer();
    std::string path;
    {
        std::lock_guard<std::mutex> lock(t.mu);
        if (!t.enabled || t.config.path.empty() || t.exported)
            return true;
        t.exported = true;
        path = t.config.path;
    }
    return timelineExportTo(path, error);
}

bool
summarizeTrace(const JsonValue &doc, TraceSummary &out, std::string &error)
{
    out = TraceSummary{};
    const JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        error = "no traceEvents array (not a Chrome-trace document?)";
        return false;
    }
    if (const JsonValue *other = doc.find("otherData")) {
        out.events_recorded = static_cast<uint64_t>(
            other->numberOr("events_recorded", 0.0));
        out.events_dropped = static_cast<uint64_t>(
            other->numberOr("events_dropped", 0.0));
    }
    std::map<std::string, TraceCategorySummary> by_cat;
    std::map<std::pair<std::string, std::string>, TraceNameSummary>
        by_name;
    for (const JsonValue &e : events->elements()) {
        if (!e.isObject())
            continue;
        std::string ph = e.stringOr("ph", "");
        if (ph != "X" && ph != "i" && ph != "C")
            continue; // metadata and unknown phases
        ++out.doc_events;
        std::string cat = e.stringOr("cat", "?");
        std::string name = e.stringOr("name", "?");
        TraceCategorySummary &s = by_cat[cat];
        s.category = cat;
        TraceNameSummary &n = by_name[{cat, name}];
        n.category = cat;
        n.name = name;
        if (ph == "X") {
            uint64_t dur = static_cast<uint64_t>(e.numberOr("dur", 0.0));
            ++s.span_events;
            s.span_time += dur;
            ++n.span_events;
            n.span_time += dur;
        } else if (ph == "i") {
            ++s.instant_events;
            ++n.instant_events;
        } else {
            ++s.counter_events;
            ++n.counter_events;
            const JsonValue *args = e.find("args");
            uint64_t v = args ? static_cast<uint64_t>(
                                    args->numberOr("value", 0.0))
                              : 0;
            s.counter_max = std::max(s.counter_max, v);
        }
    }
    for (auto &[name, summary] : by_cat)
        out.categories.push_back(std::move(summary));
    for (auto &[key, summary] : by_name)
        out.names.push_back(std::move(summary));
    return true;
}

bool
summarizeTraceDocument(const JsonValue &doc,
                       std::vector<TraceCategorySummary> &out,
                       std::string &error)
{
    TraceSummary summary;
    if (!summarizeTrace(doc, summary, error))
        return false;
    out = std::move(summary.categories);
    return true;
}

} // namespace sms
