/**
 * @file
 * Tests for the machine-readable report layer: JsonValue serialize /
 * parse round-trips, the statistics-struct JSON views, JSONL files,
 * the run manifest, and the bench_compare record comparison (which
 * must flag an injected IPC regression and pass identical records).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "src/core/stack_config.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/stats/report.hpp"

namespace sms {
namespace {

/** Parse or fail the test with the parser's message. */
JsonValue
parseOk(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, v, error)) << error;
    return v;
}

TEST(JsonValue, ScalarRoundTrip)
{
    EXPECT_EQ(JsonValue().dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(false).dump(), "false");
    EXPECT_EQ(JsonValue(42).dump(), "42");
    EXPECT_EQ(JsonValue(-7).dump(), "-7");
    EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
    EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");

    // Integral doubles below 2^53 print without an exponent or dot.
    EXPECT_EQ(JsonValue(uint64_t{1} << 40).dump(), "1099511627776");
}

TEST(JsonValue, NonFiniteBecomesNull)
{
    EXPECT_EQ(JsonValue(std::nan("")).dump(), "null");
    EXPECT_EQ(JsonValue(INFINITY).dump(), "null");
}

TEST(JsonValue, StringEscapes)
{
    JsonValue v(std::string("a\"b\\c\n\t\x01"));
    EXPECT_EQ(v.dump(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
    JsonValue back = parseOk(v.dump());
    EXPECT_EQ(back.asString(), v.asString());
}

TEST(JsonValue, ObjectPreservesInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj["zebra"] = 1;
    obj["apple"] = 2;
    obj["mango"] = 3;
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(JsonValue, NestedRoundTrip)
{
    JsonValue obj = JsonValue::object();
    obj["name"] = "run";
    obj["ok"] = true;
    obj["ipc"] = 0.875;
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push(JsonValue::object());
    arr.push(JsonValue());
    obj["items"] = arr;

    JsonValue back = parseOk(obj.dump());
    EXPECT_TRUE(back.isObject());
    EXPECT_EQ(back.stringOr("name", ""), "run");
    EXPECT_TRUE(back.find("ok")->asBool());
    EXPECT_DOUBLE_EQ(back.numberOr("ipc", 0.0), 0.875);
    ASSERT_EQ(back.find("items")->size(), 3u);
    EXPECT_EQ(back.find("items")->at(0).asU64(), 1u);
    EXPECT_TRUE(back.find("items")->at(2).isNull());

    // Round-trip again: dump(parse(dump(x))) is a fixed point.
    EXPECT_EQ(back.dump(), obj.dump());
}

TEST(JsonValue, ParseUnicodeEscapes)
{
    JsonValue v = parseOk("\"\\u0041\\u00e9\\ud83d\\ude00\"");
    EXPECT_EQ(v.asString(), "A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonValue, ParseErrors)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonValue::parse("", v, error));
    EXPECT_FALSE(JsonValue::parse("{", v, error));
    EXPECT_FALSE(JsonValue::parse("[1,]", v, error));
    EXPECT_FALSE(JsonValue::parse("{\"a\":1} trailing", v, error));
    EXPECT_FALSE(JsonValue::parse("'single'", v, error));
    EXPECT_FALSE(error.empty());
}

TEST(JsonValue, PrettyPrintParses)
{
    JsonValue obj = JsonValue::object();
    obj["a"] = 1;
    JsonValue arr = JsonValue::array();
    arr.push("x");
    obj["b"] = arr;
    std::string pretty = obj.dump(2);
    EXPECT_NE(pretty.find('\n'), std::string::npos);
    EXPECT_EQ(parseOk(pretty).dump(), obj.dump());
}

TEST(Report, SimResultJsonCarriesNewCounters)
{
    SimResult r;
    r.cycles = 1000;
    r.instructions = 800;
    r.l1_class_misses[0] = 11;
    r.l1_class_misses[1] = 22;
    r.l1_class_misses[2] = 33;
    r.l2_class_misses[2] = 5;
    r.dram.busy_cycles = 250;
    r.dram.queue_wait_cycles = 40;
    r.dram.max_queue_wait = 9;
    r.shared_mem.conflict_passes = 17;
    r.shared_mem.conflicted_accesses = 4;
    r.shared_mem.max_passes = 6;
    r.stack.rb_spills_to_sh = 100;
    r.stack.rb_spills_to_global = 3;
    r.stack.rb_refills_from_sh = 90;
    r.stack.rb_refills_from_global = 2;
    r.stack.borrows = 7;
    r.stack.borrow_chain_hist[1] = 5;
    r.stack.borrow_chain_hist[2] = 2;

    JsonValue j = toJson(r);
    JsonValue back = parseOk(j.dump());

    EXPECT_DOUBLE_EQ(back.numberOr("ipc", 0.0), 0.8);
    const JsonValue *l1 = back.find("l1");
    ASSERT_NE(l1, nullptr);
    const JsonValue *cls = l1->find("class_misses");
    ASSERT_NE(cls, nullptr);
    EXPECT_EQ(cls->numberOr("node", 0), 11.0);
    EXPECT_EQ(cls->numberOr("primitive", 0), 22.0);
    EXPECT_EQ(cls->numberOr("stack", 0), 33.0);
    const JsonValue *l2 = back.find("l2");
    ASSERT_NE(l2, nullptr);
    EXPECT_EQ(l2->find("class_misses")->numberOr("stack", 0), 5.0);

    const JsonValue *dram = back.find("dram");
    ASSERT_NE(dram, nullptr);
    EXPECT_EQ(dram->numberOr("busy_cycles", 0), 250.0);
    EXPECT_EQ(dram->numberOr("max_queue_wait", 0), 9.0);
    EXPECT_DOUBLE_EQ(back.numberOr("dram_occupancy", 0.0), 0.25);

    const JsonValue *sm = back.find("shared_mem");
    ASSERT_NE(sm, nullptr);
    EXPECT_EQ(sm->numberOr("conflict_passes", 0), 17.0);
    EXPECT_EQ(sm->numberOr("conflicted_accesses", 0), 4.0);
    EXPECT_EQ(sm->numberOr("max_passes", 0), 6.0);

    const JsonValue *stack = back.find("stack");
    ASSERT_NE(stack, nullptr);
    EXPECT_EQ(stack->numberOr("rb_spills_to_sh", 0), 100.0);
    EXPECT_EQ(stack->numberOr("rb_spills_to_global", 0), 3.0);
    EXPECT_EQ(stack->numberOr("rb_refills_from_sh", 0), 90.0);
    EXPECT_EQ(stack->numberOr("rb_refills_from_global", 0), 2.0);
    const JsonValue *hist = stack->find("borrow_chain_hist");
    ASSERT_NE(hist, nullptr);
    ASSERT_GE(hist->size(), 3u);
    EXPECT_EQ(hist->at(1).asU64(), 5u);
    EXPECT_EQ(hist->at(2).asU64(), 2u);
}

TEST(Report, StackConfigJsonRoundTrip)
{
    StackConfig c = StackConfig::sms();
    JsonValue j = toJson(c);
    JsonValue back = parseOk(j.dump());
    EXPECT_EQ(back.numberOr("rb_entries", 0),
              static_cast<double>(c.rb_entries));
    EXPECT_EQ(back.numberOr("sh_entries", 0),
              static_cast<double>(c.sh_entries));
    EXPECT_EQ(back.find("skewed_bank_access")->asBool(),
              c.skewed_bank_access);
    EXPECT_EQ(back.find("intra_warp_realloc")->asBool(),
              c.intra_warp_realloc);
}

TEST(Report, ManifestHasSchemaAndFigure)
{
    JsonValue m = makeRunManifest("fig13", "Small");
    EXPECT_EQ(m.stringOr("schema", ""), "sms-bench-1");
    EXPECT_EQ(m.stringOr("figure", ""), "fig13");
    EXPECT_EQ(m.stringOr("profile", ""), "Small");
    EXPECT_FALSE(m.stringOr("git", "").empty());
    // Timestamp looks like ISO-8601 UTC.
    std::string ts = m.stringOr("timestamp", "");
    ASSERT_EQ(ts.size(), 20u);
    EXPECT_EQ(ts[4], '-');
    EXPECT_EQ(ts[10], 'T');
    EXPECT_EQ(ts[19], 'Z');
}

TEST(Report, JsonLinesAppendAndRead)
{
    std::string path = testing::TempDir() + "sms_report_test.jsonl";
    std::remove(path.c_str());

    JsonValue a = JsonValue::object();
    a["run"] = 1;
    JsonValue b = JsonValue::object();
    b["run"] = 2;
    std::string error;
    ASSERT_TRUE(appendJsonLine(path, a, error)) << error;
    ASSERT_TRUE(appendJsonLine(path, b, error)) << error;

    std::vector<JsonValue> records;
    ASSERT_TRUE(readJsonLines(path, records, error)) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].numberOr("run", 0), 1.0);
    EXPECT_EQ(records[1].numberOr("run", 0), 2.0);

    std::remove(path.c_str());
    EXPECT_FALSE(readJsonLines(path, records, error));
}

/** A minimal two-scene record in the bench schema. */
JsonValue
makeRecord(double ipc_scale)
{
    JsonValue rec = makeRunManifest("fig13", "Small");
    JsonValue results = JsonValue::array();
    const char *scenes[] = {"WKND", "BUNNY"};
    for (int s = 0; s < 2; ++s) {
        for (int c = 0; c < 2; ++c) {
            JsonValue cell = JsonValue::object();
            cell["scene"] = scenes[s];
            cell["config"] = c == 0 ? "RB_8" : "RB_8+SH_8+SK+RA";
            cell["config_index"] = c;
            cell["ipc"] = (0.5 + 0.1 * c) * (c == 1 ? ipc_scale : 1.0);
            cell["norm_ipc"] = c == 0 ? 1.0 : 1.2 * ipc_scale;
            cell["offchip_accesses"] = 1000.0 - 100.0 * c;
            results.push(cell);
        }
    }
    rec["results"] = results;
    JsonValue summary = JsonValue::array();
    JsonValue row = JsonValue::object();
    row["config"] = "RB_8+SH_8+SK+RA";
    row["mean_norm_ipc"] = 1.2 * ipc_scale;
    row["mean_norm_offchip"] = 0.9;
    summary.push(row);
    rec["summary"] = summary;
    return rec;
}

TEST(Compare, IdenticalRecordsPass)
{
    JsonValue rec = makeRecord(1.0);
    std::vector<CompareIssue> issues;
    std::string error;
    ASSERT_EQ(
        compareBenchRecords(rec, rec, CompareOptions{}, issues, error),
        CompareStatus::Ok)
        << error;
    EXPECT_TRUE(issues.empty());
}

TEST(Compare, IgnoresHostMeasurements)
{
    // Wall clocks and peak RSS describe the host, not the simulation:
    // records that differ only there compare clean at zero epsilon.
    auto hostStamped = [](double scale) {
        JsonValue rec = makeRecord(1.0);
        rec["wall_seconds"] = 2.0 * scale;
        JsonValue throughput = JsonValue::object();
        throughput["sweep_wall_seconds"] = 1.5 * scale;
        throughput["peak_rss_mb"] = 270.0 * scale;
        rec["throughput"] = throughput;
        return rec;
    };
    JsonValue a = hostStamped(1.0);
    JsonValue b = hostStamped(3.0);
    CompareOptions options;
    options.ipc_eps = 0.0;
    options.traffic_eps = 0.0;
    std::vector<CompareIssue> issues;
    std::string error;
    ASSERT_EQ(compareBenchRecords(a, b, options, issues, error),
              CompareStatus::Ok)
        << error;
    EXPECT_TRUE(issues.empty());
}

TEST(Compare, DetectsInjectedIpcRegression)
{
    // The acceptance test of the issue: a 5% IPC regression on the SMS
    // config must trip the default 2% gate.
    JsonValue good = makeRecord(1.0);
    JsonValue bad = makeRecord(0.95);
    std::vector<CompareIssue> issues;
    std::string error;
    ASSERT_EQ(
        compareBenchRecords(good, bad, CompareOptions{}, issues, error),
        CompareStatus::Ok)
        << error;
    EXPECT_FALSE(issues.empty());
    bool saw_ipc = false;
    for (const CompareIssue &issue : issues)
        if (issue.metric == "ipc" || issue.metric == "norm_ipc" ||
            issue.metric == "mean_norm_ipc")
            saw_ipc = true;
    EXPECT_TRUE(saw_ipc);
}

TEST(Compare, WithinEpsilonPasses)
{
    JsonValue good = makeRecord(1.0);
    JsonValue near = makeRecord(1.001); // 0.1% < 2%
    std::vector<CompareIssue> issues;
    std::string error;
    ASSERT_EQ(
        compareBenchRecords(good, near, CompareOptions{}, issues, error),
        CompareStatus::Ok)
        << error;
    EXPECT_TRUE(issues.empty());
}

TEST(Compare, MissingCellFlaggedUnlessAllowed)
{
    JsonValue full = makeRecord(1.0);
    JsonValue partial = makeRecord(1.0);
    // Drop BUNNY cells from the partial record.
    JsonValue trimmed = JsonValue::array();
    for (const JsonValue &cell : partial.find("results")->elements())
        if (cell.stringOr("scene", "") != "BUNNY")
            trimmed.push(cell);
    partial["results"] = trimmed;

    std::vector<CompareIssue> issues;
    std::string error;
    ASSERT_EQ(compareBenchRecords(full, partial, CompareOptions{},
                                  issues, error),
              CompareStatus::Ok)
        << error;
    EXPECT_FALSE(issues.empty());

    issues.clear();
    CompareOptions lax;
    lax.allow_missing = true;
    ASSERT_EQ(compareBenchRecords(full, partial, lax, issues, error),
              CompareStatus::Ok)
        << error;
    EXPECT_TRUE(issues.empty());
}

/**
 * Attach a conserved counters.cycle_accounting block to every cell of
 * @p rec. @p issue_scale multiplies the issue leaf (the conservation
 * totals are recomputed, so scaled blocks stay internally consistent).
 */
void
attachAccounting(JsonValue &rec, double issue_scale = 1.0)
{
    JsonValue cells = JsonValue::array();
    for (const JsonValue &cell : rec.find("results")->elements()) {
        JsonValue copy = cell;
        uint64_t issue = static_cast<uint64_t>(4000 * issue_scale);
        uint64_t intersect = 3000, l2 = 500, idle = 1500;
        JsonValue leaves = JsonValue::object();
        leaves["issue"] = issue;
        leaves["intersect"] = intersect;
        leaves["stall.mem.l2_miss"] = l2;
        leaves["idle.done"] = idle;
        JsonValue acct = JsonValue::object();
        acct["version"] = 1;
        acct["warp_active_cycles"] = issue + intersect + l2;
        acct["slot_cycles"] = issue + intersect + l2 + idle;
        acct["leaves"] = leaves;
        JsonValue counters = JsonValue::object();
        counters["cycle_accounting"] = acct;
        copy["counters"] = counters;
        cells.push(copy);
    }
    rec["results"] = cells;
}

TEST(Compare, AccountingCheckPassesOnIdenticalRecords)
{
    JsonValue rec = makeRecord(1.0);
    attachAccounting(rec);
    CompareOptions options;
    options.check_accounting = true;
    std::vector<CompareIssue> issues;
    std::string error;
    ASSERT_EQ(compareBenchRecords(rec, rec, options, issues, error),
              CompareStatus::Ok)
        << error;
    EXPECT_TRUE(issues.empty());
}

TEST(Compare, AccountingCheckFlagsLeafDrift)
{
    JsonValue good = makeRecord(1.0);
    JsonValue bad = makeRecord(1.0);
    attachAccounting(good, 1.0);
    attachAccounting(bad, 1.10); // 10% more issue cycles, conserved
    CompareOptions options;
    options.check_accounting = true; // default 2% leaf epsilon
    std::vector<CompareIssue> issues;
    std::string error;
    ASSERT_EQ(compareBenchRecords(good, bad, options, issues, error),
              CompareStatus::Ok)
        << error;
    bool saw_leaf = false;
    for (const CompareIssue &issue : issues)
        if (issue.metric == "accounting:issue")
            saw_leaf = true;
    EXPECT_TRUE(saw_leaf);

    // Without the flag the same drift passes silently.
    issues.clear();
    ASSERT_EQ(
        compareBenchRecords(good, bad, CompareOptions{}, issues, error),
        CompareStatus::Ok)
        << error;
    EXPECT_TRUE(issues.empty());
}

TEST(Compare, AccountingCheckFlagsBrokenConservation)
{
    JsonValue good = makeRecord(1.0);
    JsonValue leaky = makeRecord(1.0);
    attachAccounting(good);
    attachAccounting(leaky);
    // Corrupt one leaf without updating the totals: the per-record
    // conservation re-check must fire even though both sides agree.
    JsonValue cells = JsonValue::array();
    for (const JsonValue &cell : leaky.find("results")->elements()) {
        JsonValue copy = cell;
        copy["counters"]["cycle_accounting"]["leaves"]["issue"] = 1;
        cells.push(copy);
    }
    leaky["results"] = cells;

    CompareOptions options;
    options.check_accounting = true;
    std::vector<CompareIssue> issues;
    std::string error;
    ASSERT_EQ(compareBenchRecords(good, leaky, options, issues, error),
              CompareStatus::Ok)
        << error;
    bool saw_conservation = false;
    for (const CompareIssue &issue : issues)
        if (issue.metric == "accounting-conservation")
            saw_conservation = true;
    EXPECT_TRUE(saw_conservation);
}

TEST(Compare, AccountingCheckSkipsRecordsWithoutBlocks)
{
    // Old goldens predate the block; the check must not fail them.
    JsonValue rec = makeRecord(1.0);
    CompareOptions options;
    options.check_accounting = true;
    std::vector<CompareIssue> issues;
    std::string error;
    ASSERT_EQ(compareBenchRecords(rec, rec, options, issues, error),
              CompareStatus::Ok)
        << error;
    EXPECT_TRUE(issues.empty());
}

TEST(Compare, FigureMismatchIsAnError)
{
    JsonValue a = makeRecord(1.0);
    JsonValue b = makeRecord(1.0);
    b["figure"] = "fig15";
    std::vector<CompareIssue> issues;
    std::string error;
    EXPECT_EQ(compareBenchRecords(a, b, CompareOptions{}, issues, error),
              CompareStatus::SchemaMismatch);
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace sms
