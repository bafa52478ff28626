/**
 * @file
 * sweep_top — live (or one-shot) monitor over the sms-metrics-1 series
 * of a sweep's workers (SMS_METRICS; a --shard-workers run writes
 * <path>.shard<i> per worker). Renders one row per series file from
 * its last complete line (readMetricsTail, src/stats/metrics.hpp): a
 * progress bar over the sweep.cells_done / sweep.cells_owned counters
 * (while a worker still prepares its scenes and has no cells yet, the
 * cells column shows "prep <prepare.scenes_done>/<prepare.scenes_total>"
 * instead), the simulated-cycle rate, the file's age, and a STALLED
 * flag when a worker stopped appending samples.
 *
 * Usage:
 *   sweep_top <series>... [--once] [--interval-ms N]
 *             [--stall-seconds S] [--expect-shards N]
 *             [--require-complete]
 *
 * Modes:
 *  - live (default): redraw every --interval-ms (1000) until every
 *    expected shard reports done with all owned cells finished, then
 *    exit. Works post-mortem too — nothing deletes the series, so
 *    pointing it at a finished run shows the final state.
 *  - --once: render a single snapshot and exit immediately; with
 *    --require-complete the exit code asserts the run finished. This
 *    is the CI form.
 *
 * A named file that does not exist yet shows as waiting. The run is
 * complete when shards 1..N (N from --expect-shards, else the first
 * readable series) each appear exactly once, done, with every owned
 * cell finished. --require-complete additionally validates each series
 * in full (validateMetricsSeries: schema, one shard identity and pid,
 * strictly increasing seq, non-decreasing wall clock, sticky done,
 * monotonic counters).
 *
 * Exit codes: 0 = ok (complete and valid when completeness was
 * required), 1 = incomplete/stalled shards or an invalid series,
 * 2 = usage error.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "src/stats/metrics.hpp"
#include "src/stats/report.hpp"

using namespace sms;

namespace {

struct Options
{
    std::vector<std::string> series;
    bool once = false;
    bool require_complete = false;
    uint32_t interval_ms = 1000;
    double stall_seconds = 5.0;
    uint32_t expect_shards = 0; ///< 0 = the count the series report
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <series>... [--once] [--interval-ms N]\n"
        "          [--stall-seconds S] [--expect-shards N]\n"
        "          [--require-complete]\n",
        argv0);
    return 2;
}

bool
parseU32(const char *s, uint32_t &out)
{
    char *end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (!end || *end || v < 1 || v > 3600000)
        return false;
    out = static_cast<uint32_t>(v);
    return true;
}

/** A finite number of seconds > 0. */
bool
parseSeconds(const char *s, double &out)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(s, &end);
    if (end == s || *end || errno != 0 || !std::isfinite(v) || v <= 0.0)
        return false;
    out = v;
    return true;
}

/** "1.23G", "45.6M", "789k", "12" — compact rate for one table cell. */
std::string
humanRate(double v)
{
    char buf[32];
    if (v >= 1e9)
        std::snprintf(buf, sizeof buf, "%.2fG", v / 1e9);
    else if (v >= 1e6)
        std::snprintf(buf, sizeof buf, "%.1fM", v / 1e6);
    else if (v >= 1e3)
        std::snprintf(buf, sizeof buf, "%.0fk", v / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
}

/** Render one snapshot of every series; true when the run completed. */
bool
render(const Options &opt, bool clear_screen)
{
    if (clear_screen)
        std::printf("\033[H\033[2J");
    std::printf("%-6s %-8s %-22s %13s %6s %9s %6s  %s\n", "shard",
                "pid", "progress", "cells", "%", "cyc/s", "age",
                "state");
    bool complete = true;
    uint32_t want = opt.expect_shards;
    std::vector<bool> seen;
    for (const std::string &path : opt.series) {
        MetricsTail tail;
        std::string error;
        struct stat st;
        if (::stat(path.c_str(), &st) != 0 && errno == ENOENT) {
            std::printf("%-6s %-8s waiting for %s\n", "-", "-",
                        path.c_str());
            complete = false;
            continue;
        }
        if (!readMetricsTail(path, tail, error)) {
            std::printf("%-6s %-8s unreadable: %s\n", "-", "-",
                        error.c_str());
            complete = false;
            continue;
        }
        const MetricsSnapshot &snap = tail.snapshot;
        uint64_t owned = snap.counterOr("sweep.cells_owned", 0);
        uint64_t done = snap.counterOr("sweep.cells_done", 0);
        uint64_t scenes = snap.counterOr("prepare.scenes_total", 0);
        // Until the sweep publishes its cells, the scenes prepared.
        char cells[48];
        if (owned == 0 && scenes > 0 && !snap.done)
            std::snprintf(
                cells, sizeof cells, "prep %3llu/%-4llu",
                static_cast<unsigned long long>(
                    snap.counterOr("prepare.scenes_done", 0)),
                static_cast<unsigned long long>(scenes));
        else
            std::snprintf(cells, sizeof cells, "%5llu/%-7llu",
                          static_cast<unsigned long long>(done),
                          static_cast<unsigned long long>(owned));
        double p = owned ? static_cast<double>(done) / owned
                         : (snap.done ? 1.0 : 0.0);
        int fill = static_cast<int>(p * 20.0 + 0.5);
        fill = fill < 0 ? 0 : fill > 20 ? 20 : fill;
        char bar[48]; // 22 used; sized for the compiler's bound
        std::snprintf(bar, sizeof bar, "[%.*s%.*s]", fill,
                      "####################", 20 - fill,
                      "....................");
        double cycles = static_cast<double>(
            snap.counterOr("sim.cycles_retired", 0));
        double rate = snap.wall_ms > 0.0 ? cycles / (snap.wall_ms / 1e3)
                                         : 0.0;
        const char *state =
            snap.done ? "done"
            : tail.age_seconds > opt.stall_seconds ? "STALLED"
                                                   : "running";
        std::printf("%2u/%-3u %-8ld %-22s %13s %5.1f %9s %5.1fs  %s\n",
                    snap.shard_index, snap.shard_count, snap.pid, bar,
                    cells, 100.0 * p, humanRate(rate).c_str(),
                    tail.age_seconds, state);

        if (want == 0)
            want = snap.shard_count;
        seen.resize(want, false);
        // readMetricsTail checked 1 <= shard_index <= shard_count.
        uint32_t i = snap.shard_index;
        if (snap.shard_count != want || seen[i - 1] || !snap.done ||
            done < owned)
            complete = false;
        else
            seen[i - 1] = true;
    }
    std::fflush(stdout);
    seen.resize(want, false);
    for (bool s : seen)
        complete = complete && s;
    return complete && want > 0;
}

/** Validate one whole series file; true when it passes. */
bool
validateSeries(const std::string &path)
{
    std::vector<JsonValue> lines;
    std::string error;
    if (!readJsonLines(path, lines, error) ||
        !validateMetricsSeries(lines, error)) {
        std::fprintf(stderr, "sweep_top: %s: invalid series: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    std::printf("series %s: %zu samples, valid\n", path.c_str(),
                lines.size());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--once") == 0) {
            opt.once = true;
        } else if (std::strcmp(a, "--require-complete") == 0) {
            opt.require_complete = true;
        } else if (std::strncmp(a, "--interval-ms=", 14) == 0) {
            if (!parseU32(a + 14, opt.interval_ms))
                return usage(argv[0]);
        } else if (std::strcmp(a, "--interval-ms") == 0 &&
                   i + 1 < argc) {
            if (!parseU32(argv[++i], opt.interval_ms))
                return usage(argv[0]);
        } else if (std::strncmp(a, "--stall-seconds=", 16) == 0) {
            if (!parseSeconds(a + 16, opt.stall_seconds))
                return usage(argv[0]);
        } else if (std::strcmp(a, "--stall-seconds") == 0 &&
                   i + 1 < argc) {
            if (!parseSeconds(argv[++i], opt.stall_seconds))
                return usage(argv[0]);
        } else if (std::strncmp(a, "--expect-shards=", 16) == 0) {
            if (!parseU32(a + 16, opt.expect_shards))
                return usage(argv[0]);
        } else if (std::strcmp(a, "--expect-shards") == 0 &&
                   i + 1 < argc) {
            if (!parseU32(argv[++i], opt.expect_shards))
                return usage(argv[0]);
        } else if (std::strncmp(a, "--", 2) == 0) {
            return usage(argv[0]);
        } else {
            opt.series.push_back(a);
        }
    }
    if (opt.series.empty())
        return usage(argv[0]);

    bool complete = false;
    if (opt.once) {
        complete = render(opt, false);
    } else {
        // Live: redraw until the run completes. The screen is cleared
        // per frame only on a tty; a redirected stream gets appended
        // frames instead of control codes.
        bool tty = ::isatty(1) != 0;
        while (!(complete = render(opt, tty)))
            ::usleep(static_cast<useconds_t>(opt.interval_ms) * 1000);
    }
    if (!opt.require_complete)
        return 0;
    bool valid = true;
    for (const std::string &path : opt.series)
        valid = validateSeries(path) && valid;
    return complete && valid ? 0 : 1;
}
