/**
 * @file
 * Shard partitioning, record merge, and the fork/exec coordinator
 * (see sweep_shard.hpp for the partition and bit-identity contract).
 */

#include "src/serve/sweep_shard.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <sys/wait.h>
#include <unistd.h>

#include "src/stats/cycle_accounting.hpp"
#include "src/stats/histogram.hpp"
#include "src/stats/metrics.hpp"
#include "src/trace/cache_io.hpp"
#include "src/util/check.hpp"

extern char **environ;

namespace sms {

namespace {

SweepShardSpec g_override;
bool g_override_set = false;

/** Max over shards of a numeric field (wall clocks run concurrently). */
double
maxField(const std::vector<const JsonValue *> &blocks,
         const std::string &field)
{
    double v = 0.0;
    for (const JsonValue *b : blocks)
        if (b)
            v = std::max(v, b->numberOr(field, 0.0));
    return v;
}

/** Sum over shards of a numeric field (counters). */
double
sumField(const std::vector<const JsonValue *> &blocks,
         const std::string &field)
{
    double v = 0.0;
    for (const JsonValue *b : blocks)
        if (b)
            v += b->numberOr(field, 0.0);
    return v;
}

/** OR over shards of a boolean field. */
bool
orField(const std::vector<const JsonValue *> &blocks,
        const std::string &field)
{
    for (const JsonValue *b : blocks)
        if (b) {
            const JsonValue *f = b->find(field);
            if (f && f->isBool() && f->asBool())
                return true;
        }
    return false;
}

/** The named sub-blocks of each shard's throughput block. */
std::vector<const JsonValue *>
subBlocks(const std::vector<const JsonValue *> &blocks,
          const std::string &name)
{
    std::vector<const JsonValue *> subs;
    for (const JsonValue *b : blocks)
        subs.push_back(b ? b->find(name) : nullptr);
    return subs;
}

/** Merge the workers' throughput blocks (see sweep_shard.hpp). */
JsonValue
mergeThroughput(const std::vector<const JsonValue *> &blocks)
{
    JsonValue tp = JsonValue::object();
    tp["prepare_wall_seconds"] = maxField(blocks, "prepare_wall_seconds");
    double sweep_wall = maxField(blocks, "sweep_wall_seconds");
    tp["sweep_wall_seconds"] = sweep_wall;
    tp["cells"] = sumField(blocks, "cells");
    double cycles = sumField(blocks, "sim_cycles_total");
    tp["sim_cycles_total"] = cycles;
    tp["sim_cycles_per_sec"] = sweep_wall > 0.0 ? cycles / sweep_wall
                                                : 0.0;
    tp["simulate_calls"] = sumField(blocks, "simulate_calls");
    // Each worker is its own process, and they run at the same time:
    // the largest single peak is a lower bound on the host memory the
    // sweep needed, which may be up to the sum of the workers' peaks.
    tp["peak_rss_mb"] = maxField(blocks, "peak_rss_mb");

    for (const char *cache : {"workload_cache", "result_cache"}) {
        auto subs = subBlocks(blocks, cache);
        JsonValue c = JsonValue::object();
        c["enabled"] = orField(subs, "enabled");
        for (const char *f : {"hits", "misses", "stores", "failures"})
            c[f] = sumField(subs, f);
        tp[cache] = std::move(c);
    }

    auto tapes = subBlocks(blocks, "traversal_tape");
    JsonValue tape = JsonValue::object();
    std::string mode;
    for (const JsonValue *t : tapes)
        if (t && mode.empty())
            mode = t->stringOr("mode", "");
    tape["mode"] = mode;
    for (const char *f : {"jobs_recorded", "jobs_replayed", "bytes",
                          "disk_loads", "disk_stores", "failures"})
        tape[f] = sumField(tapes, f);
    tp["traversal_tape"] = std::move(tape);

    auto tls = subBlocks(blocks, "timeline");
    JsonValue tl = JsonValue::object();
    tl["enabled"] = orField(tls, "enabled");
    std::string path, cats;
    for (const JsonValue *t : tls)
        if (t && path.empty()) {
            path = t->stringOr("path", "");
            cats = t->stringOr("categories", "");
        }
    tl["path"] = path;
    tl["categories"] = cats;
    tl["events_recorded"] = sumField(tls, "events_recorded");
    tl["events_dropped"] = sumField(tls, "events_dropped");
    tp["timeline"] = std::move(tl);

    // The metrics block exists only in telemetry-enabled records; fold
    // it only when some shard carried one, so telemetry-off merges stay
    // byte-identical to pre-telemetry records.
    auto mets = subBlocks(blocks, "metrics");
    bool any_metrics = false;
    for (const JsonValue *m : mets)
        any_metrics = any_metrics || m != nullptr;
    if (any_metrics) {
        JsonValue mv = JsonValue::object();
        mv["enabled"] = orField(mets, "enabled");
        std::string mpath;
        double interval = 0.0;
        for (const JsonValue *m : mets)
            if (m) {
                if (mpath.empty())
                    mpath = m->stringOr("path", "");
                if (interval == 0.0)
                    interval = m->numberOr("interval_ms", 0.0);
            }
        mv["path"] = mpath;
        mv["interval_ms"] = interval;
        mv["samples"] = sumField(mets, "samples");
        // Fixed empty values: sms-bench-1 never drops a key.
        mv["heartbeat_dir"] = "";
        mv["heartbeat_writes"] = 0;
        tp["metrics"] = std::move(mv);
    }
    return tp;
}

} // namespace

bool
parseSweepShardSpec(const std::string &spec, SweepShardSpec &out,
                    std::string &error)
{
    // Validated by hand: sscanf's %lu silently accepts a sign ("1/-2"
    // wraps to a huge count) and unsigned long may be wider than the
    // uint32_t fields (a silent narrowing truncation).
    size_t slash = spec.find('/');
    bool ok = slash != std::string::npos && slash > 0 &&
              slash + 1 < spec.size();
    if (ok)
        for (size_t k = 0; k < spec.size(); ++k)
            if (k != slash &&
                !std::isdigit(static_cast<unsigned char>(spec[k])))
                ok = false;
    unsigned long long i = 0, n = 0;
    if (ok) {
        errno = 0;
        i = std::strtoull(spec.c_str(), nullptr, 10);
        n = std::strtoull(spec.c_str() + slash + 1, nullptr, 10);
        ok = errno == 0 && i >= 1 && n >= 1 && i <= n &&
             n <= std::numeric_limits<uint32_t>::max();
    }
    if (!ok) {
        error = strprintf("'%s' is not a valid shard spec (want i/N "
                          "with 1 <= i <= N)",
                          spec.c_str());
        return false;
    }
    out.index = static_cast<uint32_t>(i);
    out.count = static_cast<uint32_t>(n);
    return true;
}

SweepShardSpec
sweepShardSpec()
{
    if (g_override_set)
        return g_override;
    const char *env = std::getenv("SMS_SWEEP_SHARDS");
    if (!env || !*env)
        return {};
    SweepShardSpec spec;
    std::string error;
    if (!parseSweepShardSpec(env, spec, error))
        fatal("SMS_SWEEP_SHARDS=%s: %s", env, error.c_str());
    return spec;
}

void
setSweepShardSpec(const SweepShardSpec &spec)
{
    g_override = spec;
    g_override_set = true;
}

bool
mergeShardRecords(const std::vector<JsonValue> &shards, JsonValue &merged,
                  std::string &error)
{
    if (shards.empty()) {
        error = "no shard records to merge";
        return false;
    }

    // ---- Validate the manifests and order the shards by index. ----
    uint32_t count = 0;
    std::vector<const JsonValue *> by_index;
    for (const JsonValue &rec : shards) {
        if (rec.stringOr("schema", "") != "sms-bench-1") {
            error = "record schema is not sms-bench-1";
            return false;
        }
        const JsonValue *shard = rec.find("shard");
        if (!shard || !shard->isObject()) {
            error = "record carries no shard block (not produced by a "
                    "shard worker)";
            return false;
        }
        uint32_t n = static_cast<uint32_t>(shard->numberOr("count", 0));
        uint32_t i = static_cast<uint32_t>(shard->numberOr("index", 0));
        if (count == 0) {
            if (n < 1) {
                error = "shard block has count < 1";
                return false;
            }
            count = n;
            by_index.assign(count, nullptr);
        }
        if (n != count) {
            error = strprintf("shard counts disagree (%u vs %u)", n,
                              count);
            return false;
        }
        if (i < 1 || i > count) {
            error = strprintf("shard index %u out of range 1..%u", i,
                              count);
            return false;
        }
        if (by_index[i - 1]) {
            error = strprintf("duplicate shard index %u", i);
            return false;
        }
        by_index[i - 1] = &rec;
        if (rec.stringOr("figure", "") !=
                shards[0].stringOr("figure", "") ||
            rec.stringOr("profile", "") !=
                shards[0].stringOr("profile", "")) {
            error = "shard records mix figures or profiles";
            return false;
        }
    }
    if (shards.size() != count) {
        error = strprintf("have %zu of %u shard records", shards.size(),
                          count);
        return false;
    }

    const JsonValue &first = *by_index[0];
    const JsonValue &fshard = *first.find("shard");
    const JsonValue *scenes = fshard.find("scenes");
    const JsonValue *bases = fshard.find("bases");
    if (!scenes || !scenes->isArray() || !bases || !bases->isObject()) {
        error = "shard block lacks scenes/bases";
        return false;
    }
    for (const JsonValue *rec : by_index) {
        const JsonValue *shard = rec->find("shard");
        const JsonValue *s = shard->find("scenes");
        const JsonValue *b = shard->find("bases");
        if (!s || s->dump() != scenes->dump() || !b ||
            b->dump() != bases->dump()) {
            error = "shard records disagree on scenes or baseline "
                    "columns";
            return false;
        }
    }
    std::vector<std::string> scene_names;
    for (const JsonValue &s : scenes->elements())
        scene_names.push_back(s.asString());

    merged = JsonValue::object();
    merged["schema"] = "sms-bench-1";
    merged["figure"] = first.stringOr("figure", "");
    merged["git"] = first.stringOr("git", "");
    merged["timestamp"] = first.stringOr("timestamp", "");
    merged["profile"] = first.stringOr("profile", "");
    JsonValue minfo = JsonValue::object();
    minfo["shards"] = count;
    merged["merge"] = std::move(minfo);

    // Run-level aggregates over every merged cell.
    CycleAccount agg_account;
    std::vector<uint64_t> agg_hist;
    uint64_t agg_cells = 0;
    auto accumulate = [&](const JsonValue &cell) -> bool {
        const JsonValue *counters = cell.find("counters");
        if (!counters)
            return true; // addResult-style minimal cell
        ++agg_cells;
        const JsonValue *hist = counters->find("depth_hist");
        const JsonValue *counts = hist ? hist->find("counts") : nullptr;
        if (counts && counts->isArray()) {
            if (counts->size() > agg_hist.size())
                agg_hist.resize(counts->size(), 0);
            for (size_t i = 0; i < counts->size(); ++i)
                agg_hist[i] += counts->at(i).asU64();
        }
        const JsonValue *acct = counters->find("cycle_accounting");
        if (!acct)
            return true;
        agg_account.warp_active_cycles +=
            static_cast<uint64_t>(acct->numberOr("warp_active_cycles", 0));
        agg_account.slot_cycles +=
            static_cast<uint64_t>(acct->numberOr("slot_cycles", 0));
        const JsonValue *leaves = acct->find("leaves");
        if (!leaves || !leaves->isObject()) {
            error = "cell cycle_accounting lacks leaves";
            return false;
        }
        for (const auto &m : leaves->members()) {
            int idx = cycleLeafFromName(m.first);
            if (idx < 0) {
                error = strprintf("unknown accounting leaf '%s'",
                                  m.first.c_str());
                return false;
            }
            agg_account.leaves[idx] += m.second.asU64();
        }
        return true;
    };

    // ---- Union, re-order and re-derive each results array. ----
    for (const auto &base_member : bases->members()) {
        const std::string &key = base_member.first;
        size_t base = static_cast<size_t>(base_member.second.asNumber());

        // (scene, config_index) -> cell, duplicates rejected.
        std::map<std::string, std::map<uint64_t, const JsonValue *>>
            by_scene;
        std::map<uint64_t, const JsonValue *> config_rep;
        for (const JsonValue *rec : by_index) {
            const JsonValue *arr = rec->find(key);
            if (!arr || !arr->isArray()) {
                error = strprintf("shard record lacks results array "
                                  "'%s'",
                                  key.c_str());
                return false;
            }
            for (const JsonValue &cell : arr->elements()) {
                std::string scene = cell.stringOr("scene", "");
                uint64_t ci = static_cast<uint64_t>(
                    cell.numberOr("config_index", 0));
                if (!by_scene[scene].emplace(ci, &cell).second) {
                    error = strprintf(
                        "cell %s#%llu of '%s' assigned to more than "
                        "one shard",
                        scene.c_str(),
                        static_cast<unsigned long long>(ci),
                        key.c_str());
                    return false;
                }
                config_rep.emplace(ci, &cell);
            }
        }
        size_t num_configs = config_rep.size();
        for (const auto &cfg : config_rep)
            if (cfg.first >= num_configs) {
                error = strprintf("non-contiguous config_index %llu in "
                                  "'%s'",
                                  static_cast<unsigned long long>(
                                      cfg.first),
                                  key.c_str());
                return false;
            }
        for (const auto &sc : by_scene) {
            bool known = false;
            for (const std::string &sn : scene_names)
                known = known || sn == sc.first;
            if (!known) {
                error = strprintf("cell scene '%s' not in the shard "
                                  "scene list",
                                  sc.first.c_str());
                return false;
            }
        }
        if (num_configs > 0 && base >= num_configs) {
            error = strprintf("baseline column %zu out of range in '%s'",
                              base, key.c_str());
            return false;
        }

        // Per-config norm columns in scene order, for the summary.
        std::vector<std::vector<double>> norm_ipc(num_configs);
        std::vector<std::vector<double>> norm_off(num_configs);

        JsonValue out = JsonValue::array();
        for (const std::string &sn : scene_names) {
            auto it = by_scene.find(sn);
            if (it == by_scene.end()) {
                if (num_configs == 0)
                    continue;
                error = strprintf("scene %s missing from '%s'",
                                  sn.c_str(), key.c_str());
                return false;
            }
            if (it->second.size() != num_configs) {
                error = strprintf("scene %s has %zu of %zu cells in "
                                  "'%s'",
                                  sn.c_str(), it->second.size(),
                                  num_configs, key.c_str());
                return false;
            }
            double b_ipc = it->second.at(base)->numberOr("ipc", 0.0);
            double b_off = it->second.at(base)->numberOr(
                "offchip_accesses", 0.0);
            for (uint64_t ci = 0; ci < num_configs; ++ci) {
                JsonValue cell = *it->second.at(ci);
                double v_ipc = cell.numberOr("ipc", 0.0);
                double v_off = cell.numberOr("offchip_accesses", 0.0);
                // Exactly normIpc()/normOffchip() of bench_util.hpp:
                // same doubles (JSON round-trips are exact), same
                // operations — bit-identical to the single-process run.
                double ni = b_ipc > 0.0 && v_ipc > 0.0
                                ? v_ipc / b_ipc
                                : std::numeric_limits<
                                      double>::quiet_NaN();
                double ratio;
                if (b_off > 0.0)
                    ratio = v_off / b_off;
                else if (v_off > 0.0)
                    ratio = v_off;
                else
                    ratio = 1.0;
                double no = ratio > 1.0e-6 ? ratio : 1.0e-6;
                cell["norm_ipc"] =
                    std::isfinite(ni) ? JsonValue(ni) : JsonValue();
                cell["norm_offchip"] = no;
                norm_ipc[ci].push_back(ni);
                norm_off[ci].push_back(no);
                if (!accumulate(cell))
                    return false;
                out.push(std::move(cell));
            }
        }
        merged[key] = std::move(out);

        if (key == "results" && num_configs > 0) {
            merged["baseline"] =
                config_rep.at(base)->stringOr("config", "");
            JsonValue summary = JsonValue::array();
            for (uint64_t ci = 0; ci < num_configs; ++ci) {
                JsonValue row = JsonValue::object();
                const JsonValue *rep = config_rep.at(ci);
                row["config"] = rep->stringOr("config", "");
                row["config_index"] = ci;
                row["l1_override"] = rep->numberOr("l1_override", 0);
                // meanNormIpc(): geomean over the finite, positive
                // per-scene norms, NaN (-> null) when none survive.
                std::vector<double> vals;
                for (double v : norm_ipc[ci])
                    if (std::isfinite(v) && v > 0.0)
                        vals.push_back(v);
                row["mean_norm_ipc"] =
                    vals.empty()
                        ? JsonValue()
                        : JsonValue(geomean(vals));
                row["mean_norm_offchip"] =
                    norm_off[ci].empty()
                        ? JsonValue()
                        : JsonValue(geomean(norm_off[ci]));
                summary.push(std::move(row));
            }
            merged["summary"] = std::move(summary);
        }
    }

    // ---- Run-level aggregate, conservation re-checked. ----
    JsonValue agg = JsonValue::object();
    agg["cells"] = agg_cells;
    Histogram hist = Histogram::fromBuckets(
        agg_hist, agg_hist.empty() ? 1 : agg_hist.size());
    agg["depth_hist"] = toJson(hist);
    JsonValue acct = toJson(agg_account);
    acct["conserved"] = agg_account.conserved();
    agg["cycle_accounting"] = std::move(acct);
    merged["aggregate"] = std::move(agg);
    if (!agg_account.conserved()) {
        error = strprintf(
            "merged cycle accounting violates conservation: leaf sum "
            "%llu != warp_active_cycles %llu",
            static_cast<unsigned long long>(agg_account.activeSum()),
            static_cast<unsigned long long>(
                agg_account.warp_active_cycles));
        return false;
    }

    double wall = 0.0;
    std::vector<const JsonValue *> throughputs;
    for (const JsonValue *rec : by_index) {
        wall = std::max(wall, rec->numberOr("wall_seconds", 0.0));
        throughputs.push_back(rec->find("throughput"));
    }
    merged["wall_seconds"] = wall;
    merged["throughput"] = mergeThroughput(throughputs);
    return true;
}

namespace {

/** Human-readable decode of a waitpid() status. */
std::string
describeExitStatus(int status)
{
    if (WIFEXITED(status)) {
        int code = WEXITSTATUS(status);
        if (code == 127)
            return "exited with status 127 (exec of the worker binary "
                   "likely failed)";
        return strprintf("exited with status %d", code);
    }
    if (WIFSIGNALED(status))
        return strprintf("was killed by signal %d (%s)",
                         WTERMSIG(status),
                         strsignal(WTERMSIG(status)));
    return strprintf("ended with unrecognized wait status 0x%x",
                     status);
}

/**
 * One shard's cell of the coordinator's status line: a ten-cell
 * progress bar plus done/owned counts from the series tail, and a
 * STALLED marker when the series has not grown for @p stall_after
 * seconds.
 */
std::string
shardProgress(uint32_t index, const MetricsTail &tail, double stall_after)
{
    const MetricsSnapshot &snap = tail.snapshot;
    uint64_t owned = snap.counterOr("sweep.cells_owned", 0);
    uint64_t done = snap.counterOr("sweep.cells_done", 0);
    uint64_t scenes = snap.counterOr("prepare.scenes_total", 0);
    std::string cell;
    if (owned == 0 && scenes > 0 && !snap.done) {
        // Still preparing: the sweep has not published its cells.
        cell = strprintf(" %u:prep %llu/%llu", index,
                         static_cast<unsigned long long>(
                             snap.counterOr("prepare.scenes_done", 0)),
                         static_cast<unsigned long long>(scenes));
    } else {
        double p = owned ? static_cast<double>(done) / owned
                         : (snap.done ? 1.0 : 0.0);
        int fill = static_cast<int>(p * 10.0 + 0.5);
        fill = fill < 0 ? 0 : fill > 10 ? 10 : fill;
        cell = strprintf(" %u:[%.*s%.*s] %llu/%llu", index, fill,
                         "##########", 10 - fill, "..........",
                         static_cast<unsigned long long>(done),
                         static_cast<unsigned long long>(owned));
    }
    if (snap.done)
        cell += " done";
    else if (tail.age_seconds > stall_after)
        cell += " STALLED";
    return cell;
}

} // namespace

void
runShardCoordinator(uint32_t workers, const std::string &json_path,
                    int argc, char **argv)
{
    if (workers < 1)
        fatal("--shard-workers=%u: need at least one worker", workers);
    if (sweepShardSpec().active())
        fatal("--shard-workers cannot be combined with a shard "
              "identity (--shards / SMS_SWEEP_SHARDS)");

    char exe[4096];
    ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
    std::string exe_path =
        n > 0 ? std::string(exe, static_cast<size_t>(n))
              : std::string(argv[0]);

    // Live progress: with SMS_METRICS set, worker i writes its own
    // series <SMS_METRICS>.shard<i> (a sms-metrics-1 stream is
    // single-pid by contract), and the coordinator watches their tails.
    // Unset, telemetry stays completely off.
    const char *metrics_env = std::getenv("SMS_METRICS");
    const bool watch = metrics_env && *metrics_env;

    std::vector<std::string> worker_paths;
    std::vector<std::string> series_paths;
    std::vector<pid_t> pids;
    for (uint32_t i = 1; i <= workers; ++i) {
        std::string wpath =
            json_path + ".shard" + std::to_string(i);
        std::remove(wpath.c_str());
        std::string shard_flag = "--shards=" + std::to_string(i) + "/" +
                                 std::to_string(workers);
        std::string json_flag = "--json=" + wpath;

        // Per-worker environment, prepared before fork (building it in
        // the child would malloc between fork and exec): the per-shard
        // metrics path, so the workers' series do not interleave.
        std::vector<std::string> env_strings;
        for (char **e = environ; *e; ++e) {
            if (metrics_env &&
                std::strncmp(*e, "SMS_METRICS=", 12) == 0)
                continue;
            env_strings.push_back(*e);
        }
        if (watch) {
            std::string mpath =
                std::string(metrics_env) + ".shard" + std::to_string(i);
            std::remove(mpath.c_str());
            env_strings.push_back("SMS_METRICS=" + mpath);
            series_paths.push_back(std::move(mpath));
        }
        std::vector<char *> child_env;
        for (std::string &s : env_strings)
            child_env.push_back(const_cast<char *>(s.c_str()));
        child_env.push_back(nullptr);

        pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork: %s", std::strerror(errno));
        if (pid == 0) {
            std::vector<char *> child_argv;
            child_argv.push_back(const_cast<char *>(exe_path.c_str()));
            for (int a = 1; a < argc; ++a)
                child_argv.push_back(argv[a]);
            child_argv.push_back(const_cast<char *>(shard_flag.c_str()));
            child_argv.push_back(const_cast<char *>(json_flag.c_str()));
            child_argv.push_back(nullptr);
            ::execve(exe_path.c_str(), child_argv.data(),
                     child_env.data());
            std::fprintf(stderr, "execve %s: %s\n", exe_path.c_str(),
                         std::strerror(errno));
            ::_exit(127);
        }
        pids.push_back(pid);
        worker_paths.push_back(std::move(wpath));
    }

    // Reap with WNOHANG instead of blocking: between polls the
    // coordinator reads the series tails to report per-shard progress
    // and flag workers whose series stopped growing.
    const double stall_after =
        watch ? std::max(5.0, 10.0 * metricsIntervalMsFromEnv() / 1000.0)
              : 0.0;
    std::vector<bool> reaped(workers, false);
    std::vector<bool> stall_warned(workers, false);
    uint32_t live = workers;
    bool any_failed = false;
    uint32_t fail_index = 0;
    pid_t fail_pid = 0;
    int fail_status = 0;
    // One "shards:" line over the series tails written so far, warning
    // once per stall; empty while no worker has a complete sample.
    auto progressLine = [&] {
        std::string shards;
        for (uint32_t i = 0; i < workers; ++i) {
            MetricsTail tail;
            std::string terr;
            if (!readMetricsTail(series_paths[i], tail, terr))
                continue; // no complete sample yet
            shards += shardProgress(i + 1, tail, stall_after);
            bool stalled = !tail.snapshot.done && !reaped[i] &&
                           tail.age_seconds > stall_after;
            if (stalled && !stall_warned[i])
                warn("shard worker %u/%u (pid %ld) has not written a "
                     "metrics sample for %.0f s; it may be stalled",
                     i + 1, workers, static_cast<long>(pids[i]),
                     tail.age_seconds);
            stall_warned[i] = stalled;
        }
        return shards.empty() ? shards : "shards:" + shards;
    };
    std::string last_line;
    auto last_scan = std::chrono::steady_clock::now() -
                     std::chrono::hours(1);
    while (live > 0) {
        for (uint32_t i = 0; i < workers && !any_failed; ++i) {
            if (reaped[i])
                continue;
            int status = 0;
            pid_t r = ::waitpid(pids[i], &status, WNOHANG);
            if (r < 0)
                fatal("waitpid shard %u: %s", i + 1,
                      std::strerror(errno));
            if (r == 0)
                continue;
            reaped[i] = true;
            --live;
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                any_failed = true;
                fail_index = i + 1;
                fail_pid = pids[i];
                fail_status = status;
            }
        }
        if (any_failed || live == 0)
            break;

        auto now = std::chrono::steady_clock::now();
        if (watch && now - last_scan >= std::chrono::seconds(1)) {
            last_scan = now;
            std::string line = progressLine();
            if (!line.empty() && line != last_line) {
                std::printf("%s\n", line.c_str());
                std::fflush(stdout);
                last_line = line;
            }
        }
        ::usleep(100000);
    }

    if (any_failed) {
        // Name the casualty precisely, then take the survivors down —
        // their partial records can never merge without the failed
        // shard's cells.
        for (uint32_t i = 0; i < workers; ++i)
            if (!reaped[i])
                ::kill(pids[i], SIGTERM);
        for (uint32_t i = 0; i < workers; ++i)
            if (!reaped[i]) {
                int status = 0;
                ::waitpid(pids[i], &status, 0);
                reaped[i] = true;
            }
        fatal("shard worker %u/%u (pid %ld) %s; the remaining workers "
              "were terminated",
              fail_index, workers, static_cast<long>(fail_pid),
              describeExitStatus(fail_status).c_str());
    }

    if (watch) {
        // End on every worker's final sample, even when the run was
        // shorter than one scan period and printed no progress yet.
        std::string line = progressLine();
        if (line.empty())
            warn("no shard worker wrote a metrics sample");
        else if (line != last_line)
            std::printf("%s\n", line.c_str());
        std::fflush(stdout);
    }

    std::vector<JsonValue> records;
    for (const std::string &wpath : worker_paths) {
        std::vector<JsonValue> lines;
        std::string err;
        if (!readJsonLines(wpath, lines, err) || lines.empty())
            fatal("shard record %s unreadable: %s", wpath.c_str(),
                  err.empty() ? "no records" : err.c_str());
        records.push_back(std::move(lines.back()));
    }

    JsonValue merged;
    std::string err;
    if (!mergeShardRecords(records, merged, err))
        fatal("shard merge failed: %s", err.c_str());
    if (!appendJsonLine(json_path, merged, err))
        fatal("merged record not written: %s", err.c_str());
    for (const std::string &wpath : worker_paths)
        std::remove(wpath.c_str());
    std::printf("\nmerged %u shard records into %s\n", workers,
                json_path.c_str());
    std::exit(0);
}

} // namespace sms
