/**
 * @file
 * Traversal tape: the compact record of one workload's *functional*
 * traversal, which the timing model replays under any stack
 * configuration.
 *
 * SMS is a complete hierarchical stack (RB -> SH -> global): pops always
 * return the true next node, so the per-lane visit sequence — which
 * node/leaf each lane fetches, which children it pushes, how many
 * box/primitive tests it performs — is identical across every stack
 * configuration (DESIGN.md "config-invariance"). Only *timing* (spills,
 * bank conflicts, cache/DRAM behaviour) changes. buildTraversalTape()
 * therefore does the geometry work once per (workload, traversal
 * variant), untimed, and every timing run replays the tape through the
 * full timing model (WarpStackModel, SharedMemory, MemorySystem) with
 * zero geometry work.
 *
 * Encoding: one append-only byte stream per warp job ("per-warp
 * chunks"), varint-based. Each step stores the coalesced fetch-line
 * list (delta-encoded line indices with the traffic class in the low
 * bits), the intersection-latency inputs, and one action per running
 * lane (box-test count + pushed child references for internal visits;
 * primitive-test count + any-hit termination flag for leaf visits).
 * Child references are stored kind-swizzled so internal nodes encode as
 * their small node index rather than a tag-in-the-high-bits constant.
 *
 * The replayer asserts that every popped stack entry matches the
 * recorded visit kind, catching tape/workload mismatches immediately.
 */

#ifndef SMS_SIM_TRAVERSAL_TAPE_HPP
#define SMS_SIM_TRAVERSAL_TAPE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/bvh/wide_bvh.hpp"
#include "src/memory/request.hpp"
#include "src/scene/scene.hpp"
#include "src/sim/gpu_config.hpp"
#include "src/sim/warp_job.hpp"
#include "src/util/check.hpp"

namespace sms {

// ---------------------------------------------------------------------
// Coalesced fetch lines, packed one per uint64_t as
// (line_index << 2) | traffic_class — exactly the tape's wire layout
// (minus delta-encoding), so the fetch scratch list the simulator
// builds each step records and replays with a shift and a mask instead
// of an (Addr, enum) pair per line. Sorting packed values orders by
// (line, class), identical to sorting the pairs, because a line address
// is its index times kLineBytes.
// ---------------------------------------------------------------------

/** One step's coalesced fetch lines (sorted, duplicate-free). */
using FetchLineList = std::vector<uint64_t>;

inline uint64_t
packFetchLine(Addr line_addr, TrafficClass cls)
{
    return ((line_addr / kLineBytes) << 2) | static_cast<uint64_t>(cls);
}

inline Addr
fetchLineAddr(uint64_t packed)
{
    return static_cast<Addr>(packed >> 2) * kLineBytes;
}

inline TrafficClass
fetchLineClass(uint64_t packed)
{
    return static_cast<TrafficClass>(packed & 3);
}

/**
 * Tape format version. Bump on ANY change to the step encoding or to
 * the meaning of recorded fields; versioned on-disk tapes from older
 * builds then fail validation and are silently rebuilt.
 */
constexpr uint32_t kTraversalTapeVersion = 1;

/** Counters over all tape activity of this process (thread-safe). */
struct TraversalTapeStats
{
    uint64_t jobs_recorded = 0; ///< warp jobs buildTraversalTape wrote
    uint64_t jobs_replayed = 0; ///< warp jobs driven from a tape
    uint64_t bytes = 0;         ///< total bytes buildTraversalTape wrote
    uint64_t disk_loads = 0;    ///< tapes loaded from disk
    uint64_t disk_stores = 0;   ///< tapes persisted to disk
    uint64_t failures = 0;      ///< invalid/unreadable tapes discarded
};

/** Snapshot of this process's tape counters. */
TraversalTapeStats traversalTapeStats();

/** Reset the tape counters (tests). */
void resetTraversalTapeStats();

/** Recorded functional traversal of one warp job. */
struct JobTape
{
    std::vector<uint8_t> bytes;
    uint32_t steps = 0;      ///< pipeline iterations recorded
    uint32_t mismatches = 0; ///< lanes whose hit disagreed with the oracle
};

/** One workload's tape: per-job chunks plus the identity fingerprint. */
struct TraversalTape
{
    /** workloadFingerprint() of the recorded job stream. */
    uint64_t fingerprint = 0;
    std::vector<JobTape> jobs;

    uint64_t
    totalBytes() const
    {
        uint64_t n = 0;
        for (const JobTape &j : jobs)
            n += j.bytes.size();
        return n;
    }
};

/**
 * Identity hash of the functional traversal inputs: the warp-job stream
 * (ids, masks, ray bits) and the BVH shape. Two workloads with equal
 * fingerprints produce equal traversal sequences, so a tape recorded on
 * one replays soundly on the other; used to validate on-disk tapes.
 */
uint64_t workloadFingerprint(const WarpJobList &jobs, const WideBvh &bvh);

/**
 * The functional pass: walk @p jobs warp-synchronously over @p bvh with
 * the machine @p variant selects (per-lane stack or stackless parent
 * links) on exact or quantized nodes, and write every job's per-step
 * outcomes to its tape. Untimed, and takes no stack configuration, so
 * a tape cannot depend on one.
 *
 * Each lane's final hit is checked against the oracle in its WarpJob;
 * JobTape::mismatches counts the lanes that disagree. @p jobs is the
 * stream as simulated (already reordered when the variant reorders),
 * with job ids equal to their index. The tape's fingerprint is
 * workloadFingerprint(jobs, bvh) xor the variant digest.
 */
TraversalTape buildTraversalTape(const Scene &scene, const WideBvh &bvh,
                                 const WarpJobList &jobs,
                                 const TraversalVariant &variant);

// ---------------------------------------------------------------------
// Varint primitives (LEB128). Inline: both sides sit on the sweep's
// hottest loop.
// ---------------------------------------------------------------------

inline void
tapePutVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/** Writes the step records of one JobTape (buildTraversalTape). */
class TapeWriter
{
  public:
    explicit TapeWriter(JobTape *tape) : tape_(tape) {}

    /**
     * Record one step's fetch phase: the coalesced (line, class) list
     * (sorted, duplicate-free — exactly what the memory scheduler
     * issues) and the intersection-latency inputs.
     */
    void
    fetchPhase(const FetchLineList &lines, bool has_internal,
               bool has_leaf, uint32_t max_leaf_prims)
    {
        ++tape_->steps;
        std::vector<uint8_t> &out = tape_->bytes;
        tapePutVarint(out, lines.size());
        uint64_t prev = 0;
        for (uint64_t packed : lines) {
            uint64_t idx = packed >> 2;
            tapePutVarint(out, ((idx - prev) << 2) | (packed & 3));
            prev = idx;
        }
        tapePutVarint(out, (static_cast<uint64_t>(max_leaf_prims) << 2) |
                               (has_leaf ? 2u : 0u) |
                               (has_internal ? 1u : 0u));
    }

    /** Record an internal-node visit of one lane. */
    void
    internalVisit(uint32_t tests, const uint64_t *push_values,
                  uint32_t push_count)
    {
        std::vector<uint8_t> &out = tape_->bytes;
        tapePutVarint(out, (static_cast<uint64_t>(tests) << 4) |
                               (static_cast<uint64_t>(push_count) << 1));
        // Kind-swizzle: ChildRef keeps its 2-bit kind in [31:30]; moving
        // it to the low bits lets small node indices varint-encode in
        // one or two bytes instead of always five.
        for (uint32_t i = 0; i < push_count; ++i) {
            uint32_t bits = static_cast<uint32_t>(push_values[i]);
            tapePutVarint(out, (static_cast<uint64_t>(bits & 0x3fffffffu)
                                << 2) |
                                   (bits >> 30));
        }
    }

    /** Record a leaf visit of one lane. */
    void
    leafVisit(uint32_t tested, bool abandoned)
    {
        tapePutVarint(tape_->bytes,
                      (static_cast<uint64_t>(tested) << 2) |
                          (abandoned ? 2u : 0u) | 1u);
    }

    /** Record the job's oracle-validation outcome (job complete). */
    void finish(uint32_t mismatches) { tape_->mismatches = mismatches; }

  private:
    JobTape *tape_;
};

/** Reads one JobTape's step records back in order. */
class TapeCursor
{
  public:
    explicit TapeCursor(const JobTape *tape)
        : tape_(tape), data_(tape->bytes.data()), size_(tape->bytes.size())
    {}

    const JobTape *tape() const { return tape_; }

    // The inverse of TapeWriter::fetchPhase comes in three calls, so
    // replay issues each fetch line as it decodes it: fetchCount(),
    // then fetchLine() that many times, then fetchOp().

    /** Number of fetch lines of the step that starts here. */
    uint64_t fetchCount() { return varint(); }

    /**
     * Next packed fetch line of the step. @p idx carries the running
     * line index between calls; start it at 0.
     */
    uint64_t
    fetchLine(uint64_t &idx)
    {
        uint64_t v = varint();
        // Two bits hold the class but only kTrafficClassCount values
        // exist; replay indexes per-class counters with it.
        SMS_ASSERT((v & 3) < kTrafficClassCount,
                   "traversal tape fetch line with traffic class %u",
                   static_cast<unsigned>(v & 3));
        idx += v >> 2;
        return (idx << 2) | (v & 3);
    }

    /** The step's intersection-latency inputs, after its last line. */
    void
    fetchOp(bool &has_internal, bool &has_leaf, uint32_t &max_leaf_prims)
    {
        uint64_t op = varint();
        has_internal = (op & 1) != 0;
        has_leaf = (op & 2) != 0;
        max_leaf_prims = static_cast<uint32_t>(op >> 2);
    }

    /** One lane's action this step. */
    struct LaneAction
    {
        bool is_leaf;
        bool abandoned;   ///< leaf only: any-hit early termination
        uint32_t tests;   ///< box tests (internal) / prim tests (leaf)
        uint32_t pushes;  ///< internal only: children pushed
    };

    LaneAction
    laneAction()
    {
        uint64_t h = varint();
        LaneAction a;
        a.is_leaf = (h & 1) != 0;
        if (a.is_leaf) {
            a.abandoned = (h & 2) != 0;
            a.tests = static_cast<uint32_t>(h >> 2);
            a.pushes = 0;
        } else {
            a.abandoned = false;
            a.pushes = static_cast<uint32_t>((h >> 1) & 7);
            a.tests = static_cast<uint32_t>(h >> 4);
        }
        return a;
    }

    /** Next recorded push value (follows an internal laneAction). */
    uint64_t
    pushValue()
    {
        uint64_t v = varint();
        return (static_cast<uint64_t>(v & 3) << 30) |
               static_cast<uint64_t>(v >> 2);
    }

    /** True when every recorded byte has been consumed. */
    bool atEnd() const { return off_ == size_; }

  private:
    uint64_t
    varint()
    {
        // The replay loop decodes every tape byte of every cell, so the
        // buffer is cached as a raw pointer/size pair and the dominant
        // single-byte encoding takes an early return.
        SMS_ASSERT(off_ < size_, "traversal tape truncated at byte %zu",
                   off_);
        uint64_t v = data_[off_++];
        if (v < 0x80)
            return v;
        v &= 0x7f;
        int shift = 7;
        for (;;) {
            SMS_ASSERT(off_ < size_,
                       "traversal tape truncated at byte %zu", off_);
            uint8_t b = data_[off_++];
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
            shift += 7;
        }
    }

    const JobTape *tape_;
    const uint8_t *data_;
    size_t size_;
    size_t off_ = 0;
};

/** Account one replayed run over @p tape (stats). */
void noteTapeReplayed(const TraversalTape &tape);

/** Account a discarded/invalid tape (stats). */
void noteTapeFailure();

/** Account an on-disk tape load / store (stats). */
void noteTapeDiskLoad();
void noteTapeDiskStore();

} // namespace sms

#endif // SMS_SIM_TRAVERSAL_TAPE_HPP
