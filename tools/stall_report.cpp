/**
 * @file
 * stall_report — "where do the cycles go": fold the cycle_accounting
 * blocks of a BENCH_*.json record (JSONL, schema sms-bench-1) into a
 * per-scene / per-config normalized stall breakdown.
 *
 * Usage:
 *   stall_report <record.json>... [--csv] [--check-conservation]
 *
 * For each file the most recent (last) record is used. Every sweep
 * cell that carries counters.cycle_accounting becomes one table row:
 * the cell's warp-active cycles and each leaf's share of them, in
 * percent. Rows without the block (older records) are skipped with a
 * note.
 *
 * --csv   emit long-format CSV instead (one line per cell and leaf:
 *         file,figure,scene,config,config_index,l1_override,
 *         warp_active_cycles,slot_cycles,leaf,cycles,fraction) for
 *         plotting / pandas.
 *
 * --check-conservation   verify, at zero epsilon, on every cell:
 *         the non-idle leaves sum to warp_active_cycles, each per-SM
 *         tree is conserved the same way, each per-SM tree's full sum
 *         equals its slot budget, and the per-SM trees sum to the
 *         aggregate tree. Exit 1 on any violation.
 *
 * Exit codes: 0 = OK, 1 = conservation violation, 2 = usage / parse
 * error (including records with no accounting blocks at all, and
 * records carrying a leaf this build does not know, which has no
 * column and no place in the sums).
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/stats/cycle_accounting.hpp"
#include "src/stats/report.hpp"

using namespace sms;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <record.json>... [--csv] "
                 "[--check-conservation]\n",
                 argv0);
}

/** One sweep cell's accounting, flattened for reporting. */
struct CellAccounting
{
    std::string file;
    std::string figure;
    std::string scene;
    std::string config;
    int config_index = -1;
    long long l1_override = 0;
    uint64_t leaves[kCycleLeafCount] = {};
    uint64_t warp_active_cycles = 0;
    uint64_t slot_cycles = 0;
    const JsonValue *block = nullptr; ///< for the per-SM checks
};

/** True when array elements look like sweep cells. */
bool
isCellArray(const JsonValue &v)
{
    return v.isArray() && v.size() > 0 && v.at(0).isObject() &&
           v.at(0).find("scene") && v.at(0).find("config");
}

/**
 * Read one cycle_accounting JSON tree into leaf totals. Fails with an
 * empty @p error when the tree has no leaves, and names the leaf in
 * @p error when it carries one this build does not know.
 */
bool
readAccount(const JsonValue &acct, uint64_t leaves[kCycleLeafCount],
            uint64_t &warp_active, uint64_t &slots, std::string &error)
{
    const JsonValue *leaf_obj = acct.find("leaves");
    if (!leaf_obj || !leaf_obj->isObject())
        return false;
    for (int i = 0; i < kCycleLeafCount; ++i)
        leaves[i] = 0;
    for (const auto &[name, count] : leaf_obj->members()) {
        int idx = cycleLeafFromName(name);
        if (idx < 0) {
            error = "unknown accounting leaf '" + name + "'";
            return false;
        }
        if (count.isNumber())
            leaves[idx] = count.asU64();
    }
    warp_active =
        static_cast<uint64_t>(acct.numberOr("warp_active_cycles", 0.0));
    slots = static_cast<uint64_t>(acct.numberOr("slot_cycles", 0.0));
    return true;
}

uint64_t
activeSumOf(const uint64_t leaves[kCycleLeafCount])
{
    uint64_t sum = 0;
    for (int i = 0; i < kCycleLeafCount; ++i)
        if (!cycleLeafIsIdle(static_cast<CycleLeaf>(i)))
            sum += leaves[i];
    return sum;
}

uint64_t
totalSumOf(const uint64_t leaves[kCycleLeafCount])
{
    uint64_t sum = 0;
    for (int i = 0; i < kCycleLeafCount; ++i)
        sum += leaves[i];
    return sum;
}

/** Collect the accounting cells of one record; false on an unknown leaf. */
bool
collectCells(const std::string &file, const JsonValue &record,
             std::vector<CellAccounting> &out, size_t &skipped,
             std::string &error)
{
    std::string figure = record.stringOr("figure", "?");
    for (const auto &member : record.members()) {
        if (!isCellArray(member.second))
            continue;
        for (const JsonValue &cell : member.second.elements()) {
            const JsonValue *counters = cell.find("counters");
            const JsonValue *acct =
                counters ? counters->find("cycle_accounting") : nullptr;
            if (!acct) {
                ++skipped;
                continue;
            }
            CellAccounting row;
            row.file = file;
            row.figure = figure;
            row.scene = cell.stringOr("scene", "?");
            row.config = cell.stringOr("config", "?");
            row.config_index =
                static_cast<int>(cell.numberOr("config_index", -1));
            row.l1_override =
                static_cast<long long>(cell.numberOr("l1_override", 0));
            row.block = acct;
            if (readAccount(*acct, row.leaves, row.warp_active_cycles,
                            row.slot_cycles, error)) {
                out.push_back(row);
            } else if (error.empty()) {
                ++skipped;
            } else {
                error = row.scene + "/" + row.config + ": " + error;
                return false;
            }
        }
    }
    return true;
}

/**
 * Zero-epsilon conservation checks of one cell's block. Appends
 * human-readable violations to @p violations.
 */
void
checkCell(const CellAccounting &cell,
          std::vector<std::string> &violations)
{
    auto where = [&](const char *what) {
        return cell.scene + "/" + cell.config + ": " + what;
    };
    uint64_t active = activeSumOf(cell.leaves);
    if (active != cell.warp_active_cycles)
        violations.push_back(
            where("leaves sum to ") + std::to_string(active) + " but " +
            std::to_string(cell.warp_active_cycles) +
            " warp-active cycles were simulated");
    if (cell.slot_cycles > 0 &&
        totalSumOf(cell.leaves) != cell.slot_cycles)
        violations.push_back(
            where("full sum ") + std::to_string(totalSumOf(cell.leaves)) +
            " misses the slot budget " + std::to_string(cell.slot_cycles));

    const JsonValue *per_sm = cell.block->find("per_sm");
    if (!per_sm || !per_sm->isArray())
        return;
    uint64_t sm_sum[kCycleLeafCount] = {};
    uint64_t sm_active_total = 0;
    for (size_t s = 0; s < per_sm->size(); ++s) {
        uint64_t leaves[kCycleLeafCount];
        uint64_t warp_active = 0, slots = 0;
        std::string error;
        if (!readAccount(per_sm->at(s), leaves, warp_active, slots,
                         error)) {
            if (!error.empty())
                violations.push_back(where("SM ") + std::to_string(s) +
                                     ": " + error);
            continue;
        }
        uint64_t sm_active = activeSumOf(leaves);
        if (sm_active != warp_active)
            violations.push_back(
                where("SM ") + std::to_string(s) + " leaves sum to " +
                std::to_string(sm_active) + " of " +
                std::to_string(warp_active) + " warp-active cycles");
        if (slots > 0 && totalSumOf(leaves) != slots)
            violations.push_back(
                where("SM ") + std::to_string(s) + " full sum " +
                std::to_string(totalSumOf(leaves)) +
                " misses its slot budget " + std::to_string(slots));
        for (int i = 0; i < kCycleLeafCount; ++i)
            sm_sum[i] += leaves[i];
        sm_active_total += warp_active;
    }
    if (per_sm->size() > 0) {
        for (int i = 0; i < kCycleLeafCount; ++i)
            if (sm_sum[i] != cell.leaves[i])
                violations.push_back(
                    where("per-SM trees disagree with the aggregate on "
                          "leaf ") +
                    cycleLeafName(static_cast<CycleLeaf>(i)));
        if (sm_active_total != cell.warp_active_cycles)
            violations.push_back(
                where("per-SM warp-active cycles sum to ") +
                std::to_string(sm_active_total) + " of " +
                std::to_string(cell.warp_active_cycles));
    }
}

void
printText(const std::vector<CellAccounting> &cells)
{
    // Short column labels, in leaf order.
    static const char *const kShort[kCycleLeafCount] = {
        "issue",  "isect",  "st.spill", "st.refil", "st.borrw",
        "st.flush", "m.l1ms", "m.l2ms", "m.dramq",  "sh.conf",
        "a.btrk", "idle",
    };
    std::string last_header_key;
    for (const CellAccounting &cell : cells) {
        std::string header_key = cell.file + "#" + cell.figure;
        if (header_key != last_header_key) {
            last_header_key = header_key;
            std::printf("\n%s (%s) — %% of warp-active cycles\n",
                        cell.file.c_str(), cell.figure.c_str());
            std::printf("%-8s %-22s %14s", "scene", "config",
                        "active_cycles");
            for (int i = 0; i < kCycleLeafCount; ++i) {
                if (cycleLeafIsIdle(static_cast<CycleLeaf>(i)))
                    continue; // idle is slot-scope, not warp-scope
                std::printf(" %8s", kShort[i]);
            }
            std::printf("\n");
        }
        std::printf("%-8s %-22s %14" PRIu64, cell.scene.c_str(),
                    cell.config.c_str(), cell.warp_active_cycles);
        for (int i = 0; i < kCycleLeafCount; ++i) {
            if (cycleLeafIsIdle(static_cast<CycleLeaf>(i)))
                continue;
            double frac =
                cell.warp_active_cycles
                    ? 100.0 * static_cast<double>(cell.leaves[i]) /
                          static_cast<double>(cell.warp_active_cycles)
                    : 0.0;
            std::printf(" %7.2f%%", frac);
        }
        std::printf("\n");
    }
}

void
printCsv(const std::vector<CellAccounting> &cells)
{
    std::printf("file,figure,scene,config,config_index,l1_override,"
                "warp_active_cycles,slot_cycles,leaf,cycles,fraction\n");
    for (const CellAccounting &cell : cells) {
        for (int i = 0; i < kCycleLeafCount; ++i) {
            double frac =
                cell.warp_active_cycles &&
                        !cycleLeafIsIdle(static_cast<CycleLeaf>(i))
                    ? static_cast<double>(cell.leaves[i]) /
                          static_cast<double>(cell.warp_active_cycles)
                    : 0.0;
            std::printf("%s,%s,%s,%s,%d,%lld,%" PRIu64 ",%" PRIu64
                        ",%s,%" PRIu64 ",%.9g\n",
                        cell.file.c_str(), cell.figure.c_str(),
                        cell.scene.c_str(), cell.config.c_str(),
                        cell.config_index, cell.l1_override,
                        cell.warp_active_cycles, cell.slot_cycles,
                        cycleLeafName(static_cast<CycleLeaf>(i)),
                        cell.leaves[i], frac);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool csv = false;
    bool check = false;
    std::vector<const char *> paths;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--csv") == 0) {
            csv = true;
        } else if (std::strcmp(arg, "--check-conservation") == 0) {
            check = true;
        } else if (std::strncmp(arg, "--", 2) == 0) {
            usage(argv[0]);
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        usage(argv[0]);
        return 2;
    }

    // The records stay alive in `docs` for the cells' block pointers.
    std::vector<JsonValue> docs;
    std::vector<std::pair<std::string, size_t>> last_records;
    for (const char *path : paths) {
        std::string error;
        std::vector<JsonValue> records;
        if (!readJsonLines(path, records, error)) {
            std::fprintf(stderr, "stall_report: %s: %s\n", path,
                         error.c_str());
            return 2;
        }
        if (records.empty()) {
            std::fprintf(stderr, "stall_report: %s: no records\n", path);
            return 2;
        }
        docs.push_back(std::move(records.back()));
        last_records.push_back({path, docs.size() - 1});
    }

    std::vector<CellAccounting> cells;
    size_t skipped = 0;
    for (const auto &[path, doc_idx] : last_records) {
        std::string error;
        if (!collectCells(path, docs[doc_idx], cells, skipped, error)) {
            std::fprintf(stderr, "stall_report: %s: %s\n", path.c_str(),
                         error.c_str());
            return 2;
        }
    }
    if (cells.empty()) {
        std::fprintf(stderr,
                     "stall_report: no cycle_accounting blocks found "
                     "(%zu cell%s without one) — record predates the "
                     "accounting schema?\n",
                     skipped, skipped == 1 ? "" : "s");
        return 2;
    }

    if (csv)
        printCsv(cells);
    else
        printText(cells);
    if (skipped > 0 && !csv)
        std::printf("\nnote: %zu cell%s without a cycle_accounting "
                    "block skipped\n",
                    skipped, skipped == 1 ? "" : "s");

    if (check) {
        std::vector<std::string> violations;
        for (const CellAccounting &cell : cells)
            checkCell(cell, violations);
        if (!violations.empty()) {
            for (const std::string &v : violations)
                std::fprintf(stderr, "FAIL: %s\n", v.c_str());
            std::fprintf(stderr,
                         "FAIL: %zu conservation violation%s across %zu "
                         "cells\n",
                         violations.size(),
                         violations.size() == 1 ? "" : "s", cells.size());
            return 1;
        }
        std::printf("OK: conservation holds at zero epsilon on %zu "
                    "cell%s (aggregate, per-SM, slot budgets)\n",
                    cells.size(), cells.size() == 1 ? "" : "s");
    }
    return 0;
}
