/**
 * @file
 * sweep_merge — merge the records of N shard workers (bench runs
 * executed with --shards=i/N, see src/serve/sweep_shard.hpp) into one
 * record equivalent to a single-process run, and append it to an
 * output JSONL file.
 *
 * Usage:
 *   sweep_merge --out <merged.json> <shard1.json> ... <shardN.json>
 *
 * The LAST record of each input file is merged (the most recent run).
 * The merge validates that every shard 1..N is present exactly once,
 * that every (scene, config) cell is covered exactly once, recomputes
 * the normalized columns and summary geomeans, rebuilds the run-level
 * aggregate (merged depth histogram, merged cycle-accounting tree with
 * the conservation invariant re-checked), and combines the throughput
 * blocks. The bench coordinator (--shard-workers=N) does the same
 * in-process; this tool covers workers launched by hand or by a
 * cluster scheduler. A successful merge already proves every shard
 * covered its cells exactly once; live progress lives in the workers'
 * sms-metrics-1 series (tools/sweep_top).
 *
 * Exit codes: 0 = merged record appended, 1 = merge rejected
 * (incomplete/overlapping shards, conservation violation), 2 = usage
 * or I/O error.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/serve/sweep_shard.hpp"
#include "src/stats/report.hpp"

using namespace sms;

int
main(int argc, char **argv)
{
    std::string out_path;
    std::vector<const char *> inputs;
    bool bad_flag = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_path = argv[i] + 6;
        else if (std::strncmp(argv[i], "--", 2) == 0)
            bad_flag = true;
        else
            inputs.push_back(argv[i]);
    }
    if (bad_flag || out_path.empty() || inputs.empty()) {
        std::fprintf(stderr,
                     "usage: %s --out <merged.json> <shard1.json> ... "
                     "<shardN.json>\n",
                     argv[0]);
        return 2;
    }

    std::vector<JsonValue> records;
    for (const char *path : inputs) {
        std::vector<JsonValue> lines;
        std::string error;
        if (!readJsonLines(path, lines, error)) {
            std::fprintf(stderr, "sweep_merge: %s: %s\n", path,
                         error.c_str());
            return 2;
        }
        if (lines.empty()) {
            std::fprintf(stderr, "sweep_merge: %s: no records\n", path);
            return 2;
        }
        records.push_back(std::move(lines.back()));
    }

    JsonValue merged;
    std::string error;
    if (!mergeShardRecords(records, merged, error)) {
        std::fprintf(stderr, "sweep_merge: merge rejected: %s\n",
                     error.c_str());
        return 1;
    }
    if (!appendJsonLine(out_path, merged, error)) {
        std::fprintf(stderr, "sweep_merge: %s: %s\n", out_path.c_str(),
                     error.c_str());
        return 2;
    }
    std::printf("merged %zu shard records into %s\n", records.size(),
                out_path.c_str());
    return 0;
}
