/**
 * @file
 * JSON serializer/parser, statistics views and record comparison.
 */

#include "src/stats/report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>

#include "src/core/stack_config.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/stats/cycle_accounting.hpp"
#include "src/stats/histogram.hpp"
#include "src/util/check.hpp"

#ifndef SMS_GIT_DESCRIBE
#define SMS_GIT_DESCRIBE "unknown"
#endif

namespace sms {

// ---------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------

void
JsonValue::push(JsonValue v)
{
    SMS_ASSERT(kind_ == Kind::Array || kind_ == Kind::Null,
               "push on non-array JSON value");
    kind_ = Kind::Array;
    arr_.push_back(std::move(v));
}

size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return arr_.size();
    if (kind_ == Kind::Object)
        return obj_.size();
    return 0;
}

const JsonValue &
JsonValue::at(size_t i) const
{
    SMS_ASSERT(kind_ == Kind::Array && i < arr_.size(),
               "JSON array index %zu out of range", i);
    return arr_[i];
}

JsonValue &
JsonValue::operator[](const std::string &key)
{
    SMS_ASSERT(kind_ == Kind::Object || kind_ == Kind::Null,
               "operator[] on non-object JSON value");
    kind_ = Kind::Object;
    for (auto &member : obj_)
        if (member.first == key)
            return member.second;
    obj_.emplace_back(key, JsonValue());
    return obj_.back().second;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &member : obj_)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->asString() : fallback;
}

namespace {

void
escapeInto(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
}

void
numberInto(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null"; // JSON has no NaN/Inf
        return;
    }
    // Counters are integers; print them without a fraction so records
    // diff cleanly.
    constexpr double kMaxExact = 9007199254740992.0; // 2^53
    if (v == std::floor(v) && std::fabs(v) < kMaxExact) {
        out += strprintf("%lld", static_cast<long long>(v));
        return;
    }
    std::string text = strprintf("%.17g", v);
    // Trim to the shortest representation that round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        std::string shorter = strprintf("%.*g", prec, v);
        if (std::strtod(shorter.c_str(), nullptr) == v) {
            text = shorter;
            break;
        }
    }
    out += text;
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    std::string pad, pad_in;
    if (indent > 0) {
        pad.assign(static_cast<size_t>(indent) * depth, ' ');
        pad_in.assign(static_cast<size_t>(indent) * (depth + 1), ' ');
    }
    const char *nl = indent > 0 ? "\n" : "";
    const char *sp = indent > 0 ? "" : "";

    switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number: numberInto(out, num_); break;
    case Kind::String: escapeInto(out, str_); break;
    case Kind::Array:
        if (arr_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ',';
            out += nl;
            out += pad_in;
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        out += nl;
        out += pad;
        out += ']';
        break;
    case Kind::Object:
        if (obj_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += ',';
            out += nl;
            out += pad_in;
            escapeInto(out, obj_[i].first);
            out += ':';
            out += sp;
            if (indent > 0)
                out += ' ';
            obj_[i].second.dumpTo(out, indent, depth + 1);
        }
        out += nl;
        out += pad;
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ---------------------------------------------------------------------
// Parser (recursive descent)
// ---------------------------------------------------------------------

namespace {

struct Parser
{
    const char *p;
    const char *end;
    std::string error;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg;
        return false;
    }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    literal(const char *text)
    {
        size_t n = std::strlen(text);
        if (static_cast<size_t>(end - p) < n ||
            std::strncmp(p, text, n) != 0)
            return fail(strprintf("expected '%s'", text));
        p += n;
        return true;
    }

    void
    appendUtf8(std::string &s, uint32_t cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xF0 | (cp >> 18));
            s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    hex4(uint32_t &out)
    {
        if (end - p < 4)
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = *p++;
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p >= end)
                return fail("truncated escape");
            char e = *p++;
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                uint32_t cp;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF && end - p >= 6 &&
                    p[0] == '\\' && p[1] == 'u') {
                    p += 2;
                    uint32_t lo;
                    if (!hex4(lo))
                        return false;
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                }
                appendUtf8(out, cp);
                break;
            }
            default: return fail("unknown escape");
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    parseValue(JsonValue &out, int depth)
    {
        if (depth > 128)
            return fail("nesting too deep");
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
        case 'n':
            out = JsonValue();
            return literal("null");
        case 't':
            out = JsonValue(true);
            return literal("true");
        case 'f':
            out = JsonValue(false);
            return literal("false");
        case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue(std::move(s));
            return true;
        }
        case '[': {
            ++p;
            out = JsonValue::array();
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            while (true) {
                JsonValue elem;
                if (!parseValue(elem, depth + 1))
                    return false;
                out.push(std::move(elem));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        case '{': {
            ++p;
            out = JsonValue::object();
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                JsonValue member;
                if (!parseValue(member, depth + 1))
                    return false;
                out[key] = std::move(member);
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        default: {
            char *num_end = nullptr;
            double v = std::strtod(p, &num_end);
            if (num_end == p || num_end > end)
                return fail("invalid token");
            p = num_end;
            out = JsonValue(v);
            return true;
        }
        }
    }
};

} // namespace

bool
JsonValue::parse(const std::string &text, JsonValue &out,
                 std::string &error)
{
    Parser parser{text.data(), text.data() + text.size(), {}};
    if (!parser.parseValue(out, 0)) {
        size_t off = static_cast<size_t>(parser.p - text.data());
        error = strprintf("JSON parse error at offset %zu: %s", off,
                          parser.error.c_str());
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        error = strprintf("trailing characters at offset %zu",
                          static_cast<size_t>(parser.p - text.data()));
        return false;
    }
    error.clear();
    return true;
}

// ---------------------------------------------------------------------
// Statistics views
// ---------------------------------------------------------------------

namespace {

/** Histogram bucket counts trimmed at the largest seen sample. */
JsonValue
bucketArray(const Histogram &h)
{
    JsonValue counts = JsonValue::array();
    size_t last = std::min<size_t>(h.maxSeen() + 1, h.bucketCount());
    if (h.total() == 0)
        last = 0;
    for (size_t i = 0; i < last; ++i)
        counts.push(h.bucket(static_cast<uint32_t>(i)));
    return counts;
}

} // namespace

JsonValue
toJson(const Histogram &h)
{
    JsonValue v = JsonValue::object();
    v["total"] = h.total();
    v["mean"] = h.mean();
    v["median"] = h.median();
    v["p50"] = h.p50();
    v["p90"] = h.p90();
    v["p99"] = h.p99();
    v["max_seen"] = h.maxSeen();
    v["counts"] = bucketArray(h);
    return v;
}

JsonValue
toJson(const LevelStats &s)
{
    JsonValue v = JsonValue::object();
    v["loads"] = s.loads;
    v["stores"] = s.stores;
    v["load_misses"] = s.load_misses;
    v["store_misses"] = s.store_misses;
    v["writebacks"] = s.writebacks;
    v["hits"] = s.accesses() - s.misses();
    v["miss_rate"] = s.missRate();
    return v;
}

JsonValue
toJson(const DramStats &s)
{
    JsonValue v = JsonValue::object();
    v["loads"] = s.loads;
    v["stores"] = s.stores;
    JsonValue by_class = JsonValue::object();
    by_class["node"] = s.by_class[0];
    by_class["primitive"] = s.by_class[1];
    by_class["stack"] = s.by_class[2];
    v["by_class"] = by_class;
    v["queue_wait_cycles"] = s.queue_wait_cycles;
    v["busy_cycles"] = s.busy_cycles;
    v["max_queue_wait"] = s.max_queue_wait;
    v["avg_queue_wait"] = s.avgQueueWait();
    return v;
}

JsonValue
toJson(const SharedMemStats &s)
{
    JsonValue v = JsonValue::object();
    v["accesses"] = s.accesses;
    v["lane_requests"] = s.lane_requests;
    v["conflict_cycles"] = s.conflict_cycles;
    v["conflict_passes"] = s.conflict_passes;
    v["conflicted_accesses"] = s.conflicted_accesses;
    v["max_passes"] = s.max_passes;
    v["avg_conflict_delay"] = s.avgConflictDelay();
    return v;
}

JsonValue
toJson(const WarpStackStats &s)
{
    JsonValue v = JsonValue::object();
    v["pushes"] = s.pushes;
    v["pops"] = s.pops;
    v["rb_spills"] = s.rb_spills;
    v["rb_spills_to_sh"] = s.rb_spills_to_sh;
    v["rb_spills_to_global"] = s.rb_spills_to_global;
    v["rb_refills"] = s.rb_refills;
    v["rb_refills_from_sh"] = s.rb_refills_from_sh;
    v["rb_refills_from_global"] = s.rb_refills_from_global;
    v["sh_stores"] = s.sh_stores;
    v["sh_loads"] = s.sh_loads;
    v["global_stores"] = s.global_stores;
    v["global_loads"] = s.global_loads;
    v["borrows"] = s.borrows;
    v["flushes"] = s.flushes;
    v["forced_flushes"] = s.forced_flushes;
    v["flushed_entries"] = s.flushed_entries;
    v["single_moves"] = s.single_moves;
    v["max_logical_depth"] = s.max_logical_depth;
    // Trim the borrow-chain histogram at its last non-zero bucket.
    uint32_t last = 0;
    for (uint32_t i = 0; i < kBorrowChainBuckets; ++i)
        if (s.borrow_chain_hist[i])
            last = i + 1;
    JsonValue hist = JsonValue::array();
    for (uint32_t i = 0; i < last; ++i)
        hist.push(s.borrow_chain_hist[i]);
    v["borrow_chain_hist"] = hist;
    return v;
}

JsonValue
toJson(const JobCounters &s)
{
    JsonValue v = JsonValue::object();
    v["steps"] = s.steps;
    v["node_visits"] = s.node_visits;
    v["leaf_visits"] = s.leaf_visits;
    v["box_tests"] = s.box_tests;
    v["prim_tests"] = s.prim_tests;
    v["instructions"] = s.instructions;
    v["fetch_cycles"] = s.fetch_cycles;
    v["op_cycles"] = s.op_cycles;
    v["stack_cycles"] = s.stack_cycles;
    return v;
}

JsonValue
toJson(const StackConfig &c)
{
    JsonValue v = JsonValue::object();
    v["rb_entries"] = c.rb_entries;
    v["rb_unbounded"] = c.rb_unbounded;
    v["sh_entries"] = c.sh_entries;
    v["skewed_bank_access"] = c.skewed_bank_access;
    v["intra_warp_realloc"] = c.intra_warp_realloc;
    v["max_borrowed"] = c.max_borrowed;
    v["max_flushes"] = c.max_flushes;
    return v;
}

JsonValue
toJson(const SimResult &r)
{
    JsonValue v = JsonValue::object();
    v["cycles"] = r.cycles;
    v["instructions"] = r.instructions;
    v["ipc"] = r.ipc();
    v["jobs"] = r.jobs;
    v["warps"] = r.warps;
    v["rays"] = r.rays;
    v["mismatches"] = r.mismatches;
    v["offchip_accesses"] = r.offchip_accesses;
    v["dram_occupancy"] = r.dramOccupancy();
    v["ops"] = toJson(r.ops);
    v["stack"] = toJson(r.stack);
    v["shared_mem"] = toJson(r.shared_mem);
    JsonValue l1 = toJson(r.l1);
    JsonValue l1_cls = JsonValue::object();
    l1_cls["node"] = r.l1_class_misses[0];
    l1_cls["primitive"] = r.l1_class_misses[1];
    l1_cls["stack"] = r.l1_class_misses[2];
    l1["class_misses"] = l1_cls;
    v["l1"] = l1;
    JsonValue l2 = toJson(r.l2);
    JsonValue l2_cls = JsonValue::object();
    l2_cls["node"] = r.l2_class_misses[0];
    l2_cls["primitive"] = r.l2_class_misses[1];
    l2_cls["stack"] = r.l2_class_misses[2];
    l2["class_misses"] = l2_cls;
    v["l2"] = l2;
    v["dram"] = toJson(r.dram);
    v["depth_hist"] = toJson(r.depth_hist);
    JsonValue acct = toJson(r.accounting);
    JsonValue per_sm = JsonValue::array();
    for (const CycleAccount &sm : r.sm_accounting)
        per_sm.push(toJson(sm));
    acct["per_sm"] = per_sm;
    v["cycle_accounting"] = acct;
    return v;
}

// ---------------------------------------------------------------------
// Manifest and record files
// ---------------------------------------------------------------------

std::string
gitDescribe()
{
    return SMS_GIT_DESCRIBE;
}

std::string
isoTimestampUtc()
{
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

JsonValue
makeRunManifest(const std::string &figure, const std::string &profile)
{
    JsonValue v = JsonValue::object();
    v["schema"] = "sms-bench-1";
    v["figure"] = figure;
    v["git"] = gitDescribe();
    v["timestamp"] = isoTimestampUtc();
    v["profile"] = profile;
    return v;
}

bool
appendJsonLine(const std::string &path, const JsonValue &record,
               std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        error = strprintf("cannot open '%s' for append", path.c_str());
        return false;
    }
    std::string line = record.dump(0);
    line += '\n';
    size_t written = std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
    if (written != line.size()) {
        error = strprintf("short write to '%s'", path.c_str());
        return false;
    }
    error.clear();
    return true;
}

bool
readJsonLines(const std::string &path, std::vector<JsonValue> &out,
              std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f) {
        error = strprintf("cannot open '%s'", path.c_str());
        return false;
    }
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    out.clear();
    size_t pos = 0;
    int line_no = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        ++line_no;
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        bool blank = true;
        for (char c : line)
            if (!std::isspace(static_cast<unsigned char>(c)))
                blank = false;
        if (blank)
            continue;
        JsonValue record;
        std::string parse_error;
        if (!JsonValue::parse(line, record, parse_error)) {
            error = strprintf("%s:%d: %s", path.c_str(), line_no,
                              parse_error.c_str());
            return false;
        }
        out.push_back(std::move(record));
    }
    if (out.empty()) {
        error = strprintf("'%s' holds no records", path.c_str());
        return false;
    }
    error.clear();
    return true;
}

// ---------------------------------------------------------------------
// Record comparison (the bench_compare gate)
// ---------------------------------------------------------------------

namespace {

double
relDelta(double a, double b)
{
    double mag = std::max(std::fabs(a), std::fabs(b));
    return mag > 0.0 ? std::fabs(a - b) / mag : 0.0;
}

/** True when array elements look like sweep cells. */
bool
isCellArray(const JsonValue &v)
{
    return v.isArray() && v.size() > 0 && v.at(0).isObject() &&
           v.at(0).find("scene") && v.at(0).find("config");
}

std::string
cellKey(const std::string &results_key, const JsonValue &cell)
{
    return strprintf("%s/%s#%d:%s@%lld", results_key.c_str(),
                     cell.stringOr("scene", "?").c_str(),
                     static_cast<int>(cell.numberOr("config_index", -1)),
                     cell.stringOr("config", "?").c_str(),
                     static_cast<long long>(
                         cell.numberOr("l1_override", 0)));
}

void
collectCells(const JsonValue &record,
             std::map<std::string, const JsonValue *> &cells)
{
    for (const auto &member : record.members()) {
        if (!isCellArray(member.second))
            continue;
        for (const JsonValue &cell : member.second.elements())
            cells[cellKey(member.first, cell)] = &cell;
    }
}

void
compareMetric(const std::string &where, const char *metric,
              const JsonValue &a, const JsonValue &b, double eps,
              std::vector<CompareIssue> &issues)
{
    const JsonValue *va = a.find(metric);
    const JsonValue *vb = b.find(metric);
    if (!va || !vb || !va->isNumber() || !vb->isNumber())
        return; // metric absent (older record) — nothing to gate
    double rel = relDelta(va->asNumber(), vb->asNumber());
    if (rel > eps)
        issues.push_back(
            {where, metric, va->asNumber(), vb->asNumber(), rel});
}

/**
 * Two records can pair cells under identical scene/config keys and
 * still disagree on the traversal-variant axes behind those keys —
 * e.g. one file's column was recorded as a stackless run and the
 * other's as a stack run. Every numeric delta downstream would
 * then be diagnosed against the wrong baseline, so each diverging
 * axis is reported as its own issue naming the two human-readable
 * values ("sl" vs "default") rather than leaving the reader to decode
 * variant digests. Axes absent from both cells (the default variant
 * suppresses them) compare equal.
 */
void
compareVariantAxes(const std::string &where, const JsonValue &cell_a,
                   const JsonValue &cell_b,
                   std::vector<CompareIssue> &issues)
{
    for (const char *axis :
         {"architecture", "node_layout", "ray_order"}) {
        std::string va = cell_a.stringOr(axis, "");
        std::string vb = cell_b.stringOr(axis, "");
        if (va == vb)
            continue;
        CompareIssue issue;
        issue.where = where;
        issue.metric = strprintf("variant:%s '%s' vs '%s'", axis,
                                 va.empty() ? "default" : va.c_str(),
                                 vb.empty() ? "default" : vb.c_str());
        issues.push_back(std::move(issue));
    }
}

/**
 * Compare the per-class traffic counters of a cell pair: the
 * counters.{l1,l2}.class_misses objects (Node/Primitive/Stack splits).
 * Every diverging class yields its own issue with the signed delta
 * b - a — a layout change typically moves one class down and another
 * up, and reporting only the first diverging class hides the shape of
 * the shift. Classes absent from either record (older files) are
 * skipped like any absent metric.
 */
void
compareClassTraffic(const std::string &where, const JsonValue &cell_a,
                    const JsonValue &cell_b, double eps,
                    std::vector<CompareIssue> &issues)
{
    for (const char *level : {"l1", "l2"}) {
        auto classes_of =
            [&](const JsonValue &cell) -> const JsonValue * {
            const JsonValue *counters = cell.find("counters");
            const JsonValue *lvl =
                counters ? counters->find(level) : nullptr;
            const JsonValue *cls =
                lvl ? lvl->find("class_misses") : nullptr;
            return cls && cls->isObject() ? cls : nullptr;
        };
        const JsonValue *cls_a = classes_of(cell_a);
        const JsonValue *cls_b = classes_of(cell_b);
        if (!cls_a || !cls_b)
            continue;
        for (const auto &[name, va] : cls_a->members()) {
            const JsonValue *vb = cls_b->find(name);
            if (!vb || !va.isNumber() || !vb->isNumber())
                continue;
            double da = va.asNumber();
            double db = vb->asNumber();
            double rel = relDelta(da, db);
            if (rel > eps) {
                CompareIssue issue{where,
                                   std::string(level) +
                                       "_class_misses:" + name,
                                   da, db, rel};
                issue.signed_delta = db - da;
                issues.push_back(std::move(issue));
            }
        }
    }
}

/**
 * Re-check one cycle_accounting tree's conservation invariant at zero
 * epsilon: non-idle leaves sum to warp_active_cycles, and when a slot
 * budget is present every leaf sums to slot_cycles.
 */
void
checkAccountingConservation(const std::string &where, const JsonValue &acct,
                            std::vector<CompareIssue> &issues)
{
    const JsonValue *leaves = acct.find("leaves");
    if (!leaves || !leaves->isObject())
        return;
    double active = 0.0;
    double total = 0.0;
    for (const auto &[name, count] : leaves->members()) {
        if (!count.isNumber())
            continue;
        total += count.asNumber();
        // Future leaves unknown to this binary still participate; only
        // the idle subtree sits outside warp-active time.
        if (name.rfind("idle.", 0) != 0)
            active += count.asNumber();
    }
    double warp_active = acct.numberOr("warp_active_cycles", active);
    if (active != warp_active)
        issues.push_back({where, "accounting-conservation", active,
                          warp_active, relDelta(active, warp_active)});
    double slots = acct.numberOr("slot_cycles", 0.0);
    if (slots > 0.0 && total != slots)
        issues.push_back({where, "accounting-slot-budget", total, slots,
                          relDelta(total, slots)});
}

/**
 * Gate the cycle_accounting blocks of a cell pair: conservation on each
 * record separately (exact), leaf totals against accounting_eps. Cells
 * without the block (older records) are skipped like any absent metric.
 */
void
compareAccounting(const std::string &where, const JsonValue &cell_a,
                  const JsonValue &cell_b, const CompareOptions &options,
                  std::vector<CompareIssue> &issues)
{
    auto block_of = [](const JsonValue &cell) -> const JsonValue * {
        const JsonValue *counters = cell.find("counters");
        return counters ? counters->find("cycle_accounting") : nullptr;
    };
    const JsonValue *acct_a = block_of(cell_a);
    const JsonValue *acct_b = block_of(cell_b);
    if (acct_a)
        checkAccountingConservation(where + " (a)", *acct_a, issues);
    if (acct_b)
        checkAccountingConservation(where + " (b)", *acct_b, issues);
    if (!acct_a || !acct_b)
        return;

    double wa = acct_a->numberOr("warp_active_cycles", 0.0);
    double wb = acct_b->numberOr("warp_active_cycles", 0.0);
    if (relDelta(wa, wb) > options.accounting_eps)
        issues.push_back({where, "accounting:warp_active_cycles", wa, wb,
                          relDelta(wa, wb)});
    const JsonValue *leaves_a = acct_a->find("leaves");
    const JsonValue *leaves_b = acct_b->find("leaves");
    if (!leaves_a || !leaves_b || !leaves_a->isObject() ||
        !leaves_b->isObject())
        return;
    for (const auto &[name, va] : leaves_a->members()) {
        const JsonValue *vb = leaves_b->find(name);
        if (!vb || !va.isNumber() || !vb->isNumber())
            continue;
        double rel = relDelta(va.asNumber(), vb->asNumber());
        if (rel > options.accounting_eps)
            issues.push_back({where, "accounting:" + name, va.asNumber(),
                              vb->asNumber(), rel});
    }
}

} // namespace

CompareStatus
compareBenchRecords(const JsonValue &a, const JsonValue &b,
                    const CompareOptions &options,
                    std::vector<CompareIssue> &issues, std::string &error)
{
    if (!a.isObject() || !b.isObject()) {
        error = "records must be JSON objects";
        return CompareStatus::Error;
    }
    std::string schema_a = a.stringOr("schema", "");
    std::string schema_b = b.stringOr("schema", "");
    if (schema_a != "sms-bench-1" || schema_b != "sms-bench-1") {
        error = strprintf("unsupported schema ('%s' vs '%s')",
                          schema_a.c_str(), schema_b.c_str());
        return CompareStatus::SchemaMismatch;
    }
    if (a.stringOr("figure", "") != b.stringOr("figure", "")) {
        error = strprintf("comparing different figures ('%s' vs '%s')",
                          a.stringOr("figure", "").c_str(),
                          b.stringOr("figure", "").c_str());
        return CompareStatus::SchemaMismatch;
    }
    // A record with a "shard" block is one worker's partial grid:
    // its norms are null and most cells are absent, so comparing it
    // against a full (single-process or merged) record would drown in
    // bogus coverage issues. Both-partial is allowed — that compares
    // the same shard across runs.
    bool shard_a = a.find("shard") != nullptr;
    bool shard_b = b.find("shard") != nullptr;
    if (shard_a != shard_b) {
        error = strprintf("record %s is an unmerged shard-worker "
                          "record (merge with sweep_merge or "
                          "--shard-workers first)",
                          shard_a ? "a" : "b");
        return CompareStatus::SchemaMismatch;
    }

    std::map<std::string, const JsonValue *> cells_a, cells_b;
    collectCells(a, cells_a);
    collectCells(b, cells_b);

    for (const auto &[key, cell_a] : cells_a) {
        auto it = cells_b.find(key);
        if (it == cells_b.end()) {
            if (!options.allow_missing)
                issues.push_back({key, "missing-in-b", 0, 0, 0});
            continue;
        }
        const JsonValue &cell_b = *it->second;
        compareVariantAxes(key, *cell_a, cell_b, issues);
        compareMetric(key, "ipc", *cell_a, cell_b, options.ipc_eps,
                      issues);
        compareMetric(key, "norm_ipc", *cell_a, cell_b, options.ipc_eps,
                      issues);
        compareMetric(key, "offchip_accesses", *cell_a, cell_b,
                      options.traffic_eps, issues);
        compareMetric(key, "norm_offchip", *cell_a, cell_b,
                      options.traffic_eps, issues);
        compareClassTraffic(key, *cell_a, cell_b, options.traffic_eps,
                            issues);
        if (options.check_accounting)
            compareAccounting(key, *cell_a, cell_b, options, issues);
    }
    if (!options.allow_missing) {
        for (const auto &[key, cell_b] : cells_b) {
            (void)cell_b;
            if (!cells_a.count(key))
                issues.push_back({key, "missing-in-a", 0, 0, 0});
        }
    }

    // Summary means (one row per config column).
    const JsonValue *sum_a = a.find("summary");
    const JsonValue *sum_b = b.find("summary");
    if (sum_a && sum_b && sum_a->isArray() && sum_b->isArray()) {
        std::map<std::string, const JsonValue *> rows_b;
        for (const JsonValue &row : sum_b->elements())
            rows_b[cellKey("summary", row)] = &row;
        for (const JsonValue &row : sum_a->elements()) {
            auto it = rows_b.find(cellKey("summary", row));
            if (it == rows_b.end())
                continue;
            compareVariantAxes(cellKey("summary", row), row,
                               *it->second, issues);
            compareMetric(cellKey("summary", row), "mean_norm_ipc", row,
                          *it->second, options.ipc_eps, issues);
            compareMetric(cellKey("summary", row), "mean_norm_offchip",
                          row, *it->second, options.traffic_eps, issues);
        }
    }

    error.clear();
    return CompareStatus::Ok;
}

} // namespace sms
