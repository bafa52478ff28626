/**
 * @file
 * bench_compare — diff two BENCH_*.json records produced by the bench
 * harnesses (see bench/bench_util.hpp JsonReporter) and fail loudly on
 * IPC or off-chip-traffic deltas beyond epsilon. Traffic is gated both
 * in aggregate (offchip_accesses) and per class: when the
 * counters.{l1,l2}.class_misses splits diverge, every diverging class
 * is reported with its signed delta rather than stopping at the first
 * mismatch.
 *
 * Usage:
 *   bench_compare <a.json> <b.json> [--ipc-eps X] [--traffic-eps X]
 *                 [--allow-missing] [--check-accounting]
 *                 [--accounting-eps X] [--throughput-floor R]
 *   bench_compare --check-throughput <record.json>
 *   bench_compare --require-result-cache-hits <record.json>
 *
 * --require-result-cache-hits gates the warm result-cache path on the
 * most recent record of a single file: every sweep cell must have been
 * served from the result cache (hits == cells > 0, zero misses and
 * failures) and the run must not have simulated anything
 * (throughput.simulate_calls == 0). Used by CI to prove that a warm
 * re-run of a sweep performs zero simulation work.
 *
 * Unmerged shard-worker records (carrying a "shard" block) are only
 * comparable against other worker records of the same shard; comparing
 * one against a full or merged record exits 3 (schema mismatch).
 *
 * Each file is JSONL: one record per bench run, appended. By default
 * the LAST record of each file is compared (the most recent run); if
 * both files hold the same number of records they are compared
 * pairwise in order.
 *
 * --check-throughput validates the most recent record of a single file:
 * the run-level "throughput" block must exist with finite numeric
 * fields and a positive peak_rss_mb (wall-clock and memory magnitudes
 * are machine-dependent and deliberately NOT gated — only presence,
 * finiteness and the sign are checked).
 *
 * --throughput-floor R (two-record mode) additionally gates the new
 * record's throughput.sim_cycles_per_sec against the baseline
 * record's: the run fails when new < R * old. Wall-clock throughput is
 * machine-dependent, so R should be lenient enough to absorb runner
 * speed variance — the floor exists to catch structural regressions
 * (a warm run silently rebuilding its tapes, a hot-loop rewrite
 * losing its batching), not few-percent noise.
 *
 * --check-accounting additionally gates each cell's cycle_accounting
 * block: conservation is re-checked at zero epsilon on both records
 * and the per-leaf totals must agree within --accounting-eps.
 *
 * On failure the tool prints a one-line summary naming which blocks
 * (ipc / traffic / accounting / coverage) violated tolerance.
 *
 * Exit codes: 0 = within tolerance, 1 = violations found,
 * 2 = usage / parse error, 3 = records not comparable (schema or
 * figure mismatch).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/stats/report.hpp"

using namespace sms;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <a.json> <b.json> [--ipc-eps X] "
                 "[--traffic-eps X] [--allow-missing] "
                 "[--check-accounting] [--accounting-eps X] "
                 "[--throughput-floor R]\n"
                 "       %s --check-throughput <record.json>\n"
                 "       %s --require-result-cache-hits <record.json>\n",
                 argv0, argv0, argv0);
}

bool
parseEps(const char *arg, double *out)
{
    char *end = nullptr;
    double v = std::strtod(arg, &end);
    if (end == arg || *end != '\0' || v < 0.0)
        return false;
    *out = v;
    return true;
}

void
printIssues(const std::vector<CompareIssue> &issues)
{
    for (const CompareIssue &issue : issues) {
        if (issue.metric.empty()) {
            std::printf("  %s\n", issue.where.c_str());
        } else if (issue.metric.rfind("variant:", 0) == 0) {
            // Variant-axis divergence carries no numbers — the metric
            // string already names both sides ("'sl' vs 'default'").
            std::printf("  %s: %s\n", issue.where.c_str(),
                        issue.metric.c_str());
        } else if (issue.metric.find("class_misses") !=
                   std::string::npos) {
            // Per-class traffic carries the direction of the shift:
            // one class moving down and another up is a different
            // diagnosis than everything drifting the same way.
            std::printf("  %s: %s %.6g vs %.6g (delta %+.6g, rel "
                        "%.4f)\n",
                        issue.where.c_str(), issue.metric.c_str(),
                        issue.a, issue.b, issue.signed_delta,
                        issue.rel);
        } else {
            std::printf("  %s: %s %.6g vs %.6g (rel delta %.4f)\n",
                        issue.where.c_str(), issue.metric.c_str(),
                        issue.a, issue.b, issue.rel);
        }
    }
}

/** Record block a violated metric belongs to, for the failure summary. */
const char *
blockOfMetric(const std::string &metric)
{
    if (metric.rfind("variant", 0) == 0)
        return "variant";
    if (metric.rfind("accounting", 0) == 0)
        return "accounting";
    if (metric.rfind("missing", 0) == 0)
        return "coverage";
    if (metric == "ipc" || metric == "norm_ipc" ||
        metric == "mean_norm_ipc")
        return "ipc";
    if (metric == "offchip_accesses" || metric == "norm_offchip" ||
        metric == "mean_norm_offchip" ||
        metric.find("class_misses") != std::string::npos)
        return "traffic";
    if (metric.rfind("throughput", 0) == 0)
        return "throughput";
    return "other";
}

/** One line naming the violated blocks: "ipc (3 issues), accounting (1)". */
std::string
blockSummary(const std::vector<CompareIssue> &issues)
{
    const char *order[] = {"variant",    "ipc",      "traffic",
                           "accounting", "throughput", "coverage",
                           "other"};
    size_t counts[7] = {};
    for (const CompareIssue &issue : issues) {
        const char *block = blockOfMetric(issue.metric);
        for (int i = 0; i < 7; ++i)
            if (std::strcmp(order[i], block) == 0)
                ++counts[i];
    }
    std::string out;
    for (int i = 0; i < 7; ++i) {
        if (!counts[i])
            continue;
        if (!out.empty())
            out += ", ";
        out += order[i];
        out += " (";
        out += std::to_string(counts[i]);
        out += ")";
    }
    return out;
}

/**
 * Validate the throughput block of the most recent record in @p path:
 * all fields present and finite, and the peak RSS positive (a process
 * that wrote a record had memory). Magnitudes are machine-dependent,
 * so none are compared against thresholds.
 */
int
checkThroughput(const char *path)
{
    std::string error;
    std::vector<JsonValue> records;
    if (!readJsonLines(path, records, error)) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", path,
                     error.c_str());
        return 2;
    }
    if (records.empty()) {
        std::fprintf(stderr, "bench_compare: %s: no records\n", path);
        return 2;
    }
    const JsonValue &rec = records.back();
    bool ok = true;
    auto requireFinite = [&](const JsonValue &obj, const char *name,
                             const char *field) {
        const JsonValue *v = obj.find(field);
        if (!v) {
            std::printf("  missing %s.%s\n", name, field);
            ok = false;
            return;
        }
        double d = obj.numberOr(field, NAN);
        if (!std::isfinite(d)) {
            std::printf("  %s.%s is not a finite number\n", name, field);
            ok = false;
        }
    };
    const JsonValue *throughput = rec.find("throughput");
    if (!throughput) {
        std::printf("  missing record-level \"throughput\" object\n");
        ok = false;
    } else {
        for (const char *field :
             {"prepare_wall_seconds", "sweep_wall_seconds", "cells",
              "sim_cycles_total", "sim_cycles_per_sec",
              "simulate_calls", "peak_rss_mb"})
            requireFinite(*throughput, "throughput", field);
        double peak_rss = throughput->numberOr("peak_rss_mb", NAN);
        if (std::isfinite(peak_rss) && peak_rss <= 0.0) {
            std::printf("  throughput.peak_rss_mb is %g, not positive\n",
                        peak_rss);
            ok = false;
        }
        const JsonValue *cache = throughput->find("workload_cache");
        if (!cache) {
            std::printf("  missing throughput.workload_cache object\n");
            ok = false;
        } else {
            for (const char *field :
                 {"hits", "misses", "stores", "failures"})
                requireFinite(*cache, "throughput.workload_cache", field);
        }
        const JsonValue *rcache = throughput->find("result_cache");
        if (!rcache) {
            std::printf("  missing throughput.result_cache object\n");
            ok = false;
        } else {
            for (const char *field :
                 {"hits", "misses", "stores", "failures"})
                requireFinite(*rcache, "throughput.result_cache", field);
        }
        const JsonValue *tape = throughput->find("traversal_tape");
        if (!tape) {
            std::printf("  missing throughput.traversal_tape object\n");
            ok = false;
        } else {
            if (!tape->find("mode")) {
                std::printf("  missing throughput.traversal_tape.mode\n");
                ok = false;
            }
            for (const char *field :
                 {"jobs_recorded", "jobs_replayed", "bytes",
                  "disk_loads", "disk_stores", "failures"})
                requireFinite(*tape, "throughput.traversal_tape", field);
        }
    }
    std::string fig = rec.stringOr("figure", "?");
    if (ok) {
        std::printf("OK: throughput block of %s (%s) present and "
                    "finite\n",
                    path, fig.c_str());
        return 0;
    }
    std::printf("FAIL: throughput block of %s (%s) incomplete\n", path,
                fig.c_str());
    return 1;
}

/**
 * Gate the warm result-cache path on the most recent record of
 * @p path: hits == cells > 0, zero misses/failures, and zero
 * simulateJobs() calls — the whole sweep was served from the cache.
 */
int
checkResultCacheHits(const char *path)
{
    std::string error;
    std::vector<JsonValue> records;
    if (!readJsonLines(path, records, error)) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", path,
                     error.c_str());
        return 2;
    }
    if (records.empty()) {
        std::fprintf(stderr, "bench_compare: %s: no records\n", path);
        return 2;
    }
    const JsonValue &rec = records.back();
    const JsonValue *throughput = rec.find("throughput");
    const JsonValue *rcache =
        throughput ? throughput->find("result_cache") : nullptr;
    if (!throughput || !rcache) {
        std::printf("FAIL: %s: record lacks a "
                    "throughput.result_cache block\n",
                    path);
        return 1;
    }
    double cells = throughput->numberOr("cells", NAN);
    double sim_calls = throughput->numberOr("simulate_calls", NAN);
    double hits = rcache->numberOr("hits", NAN);
    double misses = rcache->numberOr("misses", NAN);
    double failures = rcache->numberOr("failures", NAN);
    bool enabled = false;
    if (const JsonValue *e = rcache->find("enabled"))
        enabled = e->isBool() && e->asBool();
    bool ok = enabled && std::isfinite(cells) && cells > 0.0 &&
              hits == cells && misses == 0.0 && failures == 0.0 &&
              sim_calls == 0.0;
    std::printf("%s: %s: result_cache enabled=%d hits=%.0f "
                "misses=%.0f failures=%.0f cells=%.0f "
                "simulate_calls=%.0f\n",
                ok ? "OK" : "FAIL", path, enabled ? 1 : 0, hits,
                misses, failures, cells, sim_calls);
    if (!ok)
        std::printf("  expected: enabled, hits == cells > 0, zero "
                    "misses/failures, zero simulate_calls\n");
    return ok ? 0 : 1;
}

/**
 * Gate @p b's sim-cycle throughput at @p floor_ratio times @p a's.
 * Appends one issue when the floor is violated (or when either record
 * lacks the field, which would otherwise make the gate pass vacuously).
 * Returns a one-line human summary for the caller to print under the
 * record header.
 */
std::string
checkThroughputFloor(const JsonValue &a, const JsonValue &b,
                     double floor_ratio,
                     std::vector<CompareIssue> &issues)
{
    auto cyclesPerSec = [](const JsonValue &rec) {
        const JsonValue *t = rec.find("throughput");
        return t ? t->numberOr("sim_cycles_per_sec", NAN) : NAN;
    };
    double base = cyclesPerSec(a);
    double cur = cyclesPerSec(b);
    if (!std::isfinite(base) || !std::isfinite(cur) || base <= 0.0) {
        CompareIssue issue;
        issue.where = "throughput.sim_cycles_per_sec absent or not a "
                      "positive finite number; cannot apply "
                      "--throughput-floor";
        issues.push_back(issue);
        return "  throughput floor: sim_cycles_per_sec unavailable\n";
    }
    double floor = floor_ratio * base;
    char line[160];
    std::snprintf(line, sizeof line,
                  "  throughput floor: %.4g vs baseline %.4g "
                  "(%.3gx, floor %.2fx = %.4g): %s\n",
                  cur, base, cur / base, floor_ratio, floor,
                  cur >= floor ? "ok" : "VIOLATED");
    if (cur < floor) {
        CompareIssue issue;
        issue.where = "throughput";
        issue.metric = "throughput_floor";
        issue.a = floor;
        issue.b = cur;
        issue.rel = (cur - base) / base;
        issues.push_back(issue);
    }
    return line;
}

} // namespace

int
main(int argc, char **argv)
{
    CompareOptions options;
    std::vector<const char *> paths;
    bool check_throughput = false;
    bool require_cache_hits = false;
    double throughput_floor = 0.0;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--check-throughput") == 0) {
            check_throughput = true;
        } else if (std::strcmp(arg, "--require-result-cache-hits") ==
                   0) {
            require_cache_hits = true;
        } else if (std::strcmp(arg, "--throughput-floor") == 0 &&
                   i + 1 < argc) {
            if (!parseEps(argv[++i], &throughput_floor) ||
                throughput_floor <= 0.0) {
                usage(argv[0]);
                return 2;
            }
        } else if (std::strcmp(arg, "--allow-missing") == 0) {
            options.allow_missing = true;
        } else if (std::strcmp(arg, "--check-accounting") == 0) {
            options.check_accounting = true;
        } else if (std::strcmp(arg, "--accounting-eps") == 0 &&
                   i + 1 < argc) {
            if (!parseEps(argv[++i], &options.accounting_eps)) {
                usage(argv[0]);
                return 2;
            }
        } else if (std::strcmp(arg, "--ipc-eps") == 0 && i + 1 < argc) {
            if (!parseEps(argv[++i], &options.ipc_eps)) {
                usage(argv[0]);
                return 2;
            }
        } else if (std::strcmp(arg, "--traffic-eps") == 0 &&
                   i + 1 < argc) {
            if (!parseEps(argv[++i], &options.traffic_eps)) {
                usage(argv[0]);
                return 2;
            }
        } else if (std::strncmp(arg, "--", 2) == 0) {
            usage(argv[0]);
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (check_throughput || require_cache_hits) {
        // The floor needs a baseline record; it is a two-record option.
        if (paths.size() != 1 || throughput_floor > 0.0 ||
            (check_throughput && require_cache_hits)) {
            usage(argv[0]);
            return 2;
        }
        return check_throughput ? checkThroughput(paths[0])
                                : checkResultCacheHits(paths[0]);
    }
    if (paths.size() != 2) {
        usage(argv[0]);
        return 2;
    }

    std::string error;
    std::vector<JsonValue> a, b;
    if (!readJsonLines(paths[0], a, error)) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", paths[0],
                     error.c_str());
        return 2;
    }
    if (!readJsonLines(paths[1], b, error)) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", paths[1],
                     error.c_str());
        return 2;
    }

    // Pair up records: pairwise when counts match, else last-vs-last.
    std::vector<std::pair<const JsonValue *, const JsonValue *>> pairs;
    if (a.size() == b.size()) {
        for (size_t i = 0; i < a.size(); ++i)
            pairs.push_back({&a[i], &b[i]});
    } else {
        std::printf("record counts differ (%zu vs %zu); comparing the "
                    "last record of each file\n",
                    a.size(), b.size());
        pairs.push_back({&a.back(), &b.back()});
    }

    bool ok = true;
    std::vector<CompareIssue> all_issues;
    for (size_t i = 0; i < pairs.size(); ++i) {
        std::vector<CompareIssue> issues;
        CompareStatus status = compareBenchRecords(
            *pairs[i].first, *pairs[i].second, options, issues, error);
        if (status != CompareStatus::Ok) {
            std::fprintf(stderr,
                         "bench_compare: record %zu not comparable: %s\n",
                         i, error.c_str());
            return status == CompareStatus::SchemaMismatch ? 3 : 2;
        }
        std::string floor_line;
        if (throughput_floor > 0.0)
            floor_line = checkThroughputFloor(
                *pairs[i].first, *pairs[i].second, throughput_floor,
                issues);
        std::string fig = pairs[i].first->stringOr("figure", "?");
        std::printf("record %zu (%s): %zu issue%s (ipc_eps=%.3g, "
                    "traffic_eps=%.3g%s)\n",
                    i, fig.c_str(), issues.size(),
                    issues.size() == 1 ? "" : "s", options.ipc_eps,
                    options.traffic_eps,
                    options.check_accounting ? ", accounting checked"
                                             : "");
        std::fputs(floor_line.c_str(), stdout);
        printIssues(issues);
        if (!issues.empty())
            ok = false;
        all_issues.insert(all_issues.end(), issues.begin(), issues.end());
    }

    if (ok) {
        std::printf("OK: all compared metrics within tolerance\n");
        return 0;
    }
    std::printf("FAIL: tolerance exceeded in: %s\n",
                blockSummary(all_issues).c_str());
    return 1;
}
