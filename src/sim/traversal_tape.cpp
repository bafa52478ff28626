/**
 * @file
 * Traversal tape: the functional pass that writes tapes, process-wide
 * counters, and the workload fingerprint validating tape/workload
 * pairing.
 */

#include "src/sim/traversal_tape.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>

#include "src/bvh/node_layout.hpp"
#include "src/bvh/stackless.hpp"
#include "src/bvh/traverse.hpp"
#include "src/stats/metrics.hpp"

namespace sms {

namespace {

std::atomic<uint64_t> g_jobs_recorded{0};
std::atomic<uint64_t> g_jobs_replayed{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<uint64_t> g_disk_loads{0};
std::atomic<uint64_t> g_disk_stores{0};
std::atomic<uint64_t> g_failures{0};

// Pull-collector: publish the existing tape counters into metrics
// snapshots without touching the tape build/replay hot paths.
const bool g_metrics_collector_registered = [] {
    metricsAddCollector(
        [](const std::function<void(const char *, uint64_t)> &sink) {
            sink("tape.jobs_recorded",
                 g_jobs_recorded.load(std::memory_order_relaxed));
            sink("tape.jobs_replayed",
                 g_jobs_replayed.load(std::memory_order_relaxed));
            sink("tape.disk_loads",
                 g_disk_loads.load(std::memory_order_relaxed));
            sink("tape.disk_stores",
                 g_disk_stores.load(std::memory_order_relaxed));
            sink("tape.failures",
                 g_failures.load(std::memory_order_relaxed));
        });
    return true;
}();

uint64_t
hashU32(uint64_t h, uint32_t v)
{
    // One 64-bit mix per word instead of byte-wise FNV: the fingerprint
    // covers every ray of every job, so it is on the warm replay path.
    h ^= v;
    h *= 0x100000001b3ull;
    h ^= h >> 29;
    return h;
}

uint64_t
hashF32(uint64_t h, float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    return hashU32(h, bits);
}

} // namespace

TraversalTapeStats
traversalTapeStats()
{
    TraversalTapeStats s;
    s.jobs_recorded = g_jobs_recorded.load();
    s.jobs_replayed = g_jobs_replayed.load();
    s.bytes = g_bytes.load();
    s.disk_loads = g_disk_loads.load();
    s.disk_stores = g_disk_stores.load();
    s.failures = g_failures.load();
    return s;
}

void
resetTraversalTapeStats()
{
    g_jobs_recorded = 0;
    g_jobs_replayed = 0;
    g_bytes = 0;
    g_disk_loads = 0;
    g_disk_stores = 0;
    g_failures = 0;
}

uint64_t
workloadFingerprint(const WarpJobList &jobs, const WideBvh &bvh)
{
    uint64_t h = 0xcbf29ce484222325ull;
    h = hashU32(h, kTraversalTapeVersion);
    h = hashU32(h, kWarpSize);
    h = hashU32(h, bvh.rootRef().bits());
    h = hashU32(h, static_cast<uint32_t>(bvh.nodes().size()));
    h = hashU32(h, static_cast<uint32_t>(bvh.primIndices().size()));
    h = hashU32(h, static_cast<uint32_t>(jobs.size()));
    for (const WarpJob &job : jobs) {
        h = hashU32(h, job.job_id);
        h = hashU32(h, job.warp_id);
        h = hashU32(h, static_cast<uint32_t>(job.parent));
        // Barriers only exist on reordered streams; hashing them behind
        // the guard keeps every legacy (barrier-free) fingerprint — and
        // thus every existing tape and result-cache entry — unchanged.
        if (job.barrier >= 0) {
            h = hashU32(h, 0x9e3779b9u);
            h = hashU32(h, static_cast<uint32_t>(job.barrier));
        }
        h = hashU32(h, job.any_hit ? 1u : 0u);
        uint32_t mask = 0;
        for (uint32_t i = 0; i < kWarpSize; ++i)
            mask |= job.active[i] ? (1u << i) : 0u;
        h = hashU32(h, mask);
        for (uint32_t i = 0; i < kWarpSize; ++i) {
            if (!job.active[i])
                continue;
            const Ray &ray = job.rays[i];
            h = hashF32(h, ray.origin.x);
            h = hashF32(h, ray.origin.y);
            h = hashF32(h, ray.origin.z);
            h = hashF32(h, ray.dir.x);
            h = hashF32(h, ray.dir.y);
            h = hashF32(h, ray.dir.z);
            h = hashF32(h, ray.tMin);
            h = hashF32(h, ray.tMax);
        }
    }
    return h;
}

namespace {

/**
 * Does a finished lane's hit agree with the oracle recorded at job
 * generation? Quantized layouts visit a superset of the exact nodes in
 * a different near-to-far order (inflated boxes shift entry
 * distances), so an equal-t tie between two primitives can resolve to
 * a different id than the exact-layout oracle recorded. The closest
 * distance itself is still exact — leaf tests are — so under
 * quantization the check keeps the distance and drops the id.
 */
bool
oracleAgrees(const WarpJob &job, uint32_t lane, const HitRecord &hit,
             bool quantized)
{
    if (hit.valid() != job.expected_hit[lane])
        return false;
    if (job.any_hit || !hit.valid())
        return true;
    float expected_t = job.expected_t[lane];
    bool t_matches = std::fabs(hit.t - expected_t) <=
                     1.0e-4f * std::max(1.0f, expected_t);
    return t_matches &&
           (quantized || hit.primitive == job.expected_prim[lane]);
}

/** Append the lines covering [addr, addr + bytes) to @p lines. */
void
addFetchRange(FetchLineList &lines, Addr addr, uint64_t bytes,
              TrafficClass cls)
{
    Addr line = lineAlign(addr);
    uint32_t n = linesCovering(addr, bytes);
    for (uint32_t i = 0; i < n; ++i)
        lines.push_back(
            packFetchLine(line + i * static_cast<Addr>(kLineBytes), cls));
}

} // namespace

TraversalTape
buildTraversalTape(const Scene &scene, const WideBvh &bvh,
                   const WarpJobList &jobs, const TraversalVariant &variant)
{
    TraversalTape tape;
    tape.fingerprint = workloadFingerprint(jobs, bvh) ^ variant.digest();
    tape.jobs.resize(jobs.size());

    // Quantized layouts traverse the decoded (conservatively inflated)
    // boxes, exactly what the hardware computes after dequantization.
    const bool quantized = variant.layout.isQuantized();
    QuantizedBvh qbvh;
    if (quantized)
        qbvh.build(bvh, variant.layout);
    auto node = [&](ChildRef ref) -> const WideNode & {
        return quantized ? qbvh.node(ref.nodeIndex())
                         : bvh.nodes()[ref.nodeIndex()];
    };
    const bool stackless =
        variant.arch.kind == TraversalArchKind::Stackless;
    StacklessLinks links;
    if (stackless)
        links = StacklessLinks::build(bvh);

    // Lane state, reused across jobs. A stack lane keeps a plain LIFO:
    // the stack model is value-exact, so no stack configuration changes
    // what a pop returns. A stackless lane keeps the child reference it
    // visits, the parent it was reached through, its slot there, and
    // the slot it just returned from (-1 on a first visit).
    std::array<std::vector<uint64_t>, kWarpSize> stacks;
    std::array<Ray, kWarpSize> rays;
    std::array<HitRecord, kWarpSize> hits;
    std::array<uint32_t, kWarpSize> sl_cur{}, sl_parent{};
    std::array<int, kWarpSize> sl_slot{}, sl_resume{};
    FetchLineList lines;

    for (uint32_t j = 0; j < jobs.size(); ++j) {
        const WarpJob &job = jobs[j];
        SMS_ASSERT(job.job_id == j, "jobs must be indexed by job_id");
        TapeWriter writer(&tape.jobs[j]);

        uint32_t running = 0;
        for (uint32_t i = 0; i < kWarpSize; ++i) {
            if (!job.active[i] || bvh.empty())
                continue;
            running |= 1u << i;
            rays[i] = job.rays[i];
            hits[i] = HitRecord{};
            if (stackless) {
                sl_cur[i] = bvh.rootRef().bits();
                sl_parent[i] = StacklessLinks::kNoParent;
                sl_resume[i] = -1;
                continue;
            }
            stacks[i].assign(1, bvh.rootRef().stackValue());
        }

        // A leaf visit; true when an any-hit lane found its hit.
        auto visitLeaf = [&](uint32_t i, ChildRef leaf) {
            uint32_t tested = 0;
            bool found = intersectLeaf(scene, bvh, leaf, rays[i], hits[i],
                                       job.any_hit, tested);
            bool abandoned = found && job.any_hit;
            writer.leafVisit(tested, abandoned);
            return abandoned;
        };
        // One lane's update; each returns true when the lane finished.
        auto stackStep = [&](uint32_t i) {
            ChildRef cur = ChildRef::fromStackValue(stacks[i].back());
            stacks[i].pop_back();
            if (!cur.isInternal())
                return visitLeaf(i, cur) || stacks[i].empty();
            // Push far to near, so the nearest child ends on top.
            ChildHits h = intersectNodeChildren(node(cur), rays[i]);
            uint64_t pushed[kWideBvhWidth];
            for (int c = 0; c < h.count; ++c) {
                pushed[c] = h.refs[h.count - 1 - c].stackValue();
                stacks[i].push_back(pushed[c]);
            }
            writer.internalVisit(static_cast<uint32_t>(h.tests), pushed,
                                 static_cast<uint32_t>(h.count));
            return stacks[i].empty();
        };
        auto stacklessStep = [&](uint32_t i) {
            ChildRef cur = ChildRef::fromBits(sl_cur[i]);
            if (cur.isInternal()) {
                const WideNode &n = node(cur);
                SlotHits h = intersectNodeSlots(n, rays[i]);
                int s = nextStacklessSlot(h, sl_resume[i]);
                uint32_t tests = static_cast<uint32_t>(h.tests);
                if (s >= 0) {
                    // Descend: recorded as a visit pushing the child.
                    uint64_t child = n.children[s].stackValue();
                    writer.internalVisit(tests, &child, 1);
                    sl_parent[i] = cur.nodeIndex();
                    sl_slot[i] = s;
                    sl_cur[i] = n.children[s].bits();
                    sl_resume[i] = -1;
                    return false;
                }
                // No child left: a visit pushing nothing, then back up.
                writer.internalVisit(tests, nullptr, 0);
            } else if (visitLeaf(i, cur)) {
                return true;
            }
            uint32_t p = sl_parent[i];
            if (p == StacklessLinks::kNoParent)
                return true; // back at the root with nothing left
            // Backtrack, resuming the parent after the finished slot.
            sl_resume[i] = sl_slot[i];
            sl_cur[i] = ChildRef::makeInternal(p).bits();
            sl_parent[i] = links.parent[p];
            sl_slot[i] = links.slot[p];
            return false;
        };

        uint32_t mismatches = 0;
        while (running != 0) {
            // Fetch: the lines this step needs across the running
            // lanes, coalesced as the RT unit's memory scheduler does.
            // Stackless lanes fetch the node they visit (backtracking
            // revisits included), stack lanes their stack top.
            lines.clear();
            bool has_internal = false;
            bool has_leaf = false;
            uint32_t max_leaf_prims = 0;
            for (uint32_t m = running; m != 0; m &= m - 1) {
                uint32_t i = static_cast<uint32_t>(__builtin_ctz(m));
                ChildRef cur =
                    stackless ? ChildRef::fromBits(sl_cur[i])
                              : ChildRef::fromStackValue(stacks[i].back());
                if (cur.isInternal()) {
                    // The layout sets the footprint: quantized nodes
                    // pack tighter, so fewer lines cover a visit.
                    has_internal = true;
                    const NodeLayoutConfig &layout = variant.layout;
                    addFetchRange(lines, layout.nodeAddress(cur.nodeIndex()),
                                  layout.nodeBytes(), TrafficClass::Node);
                    continue;
                }
                has_leaf = true;
                max_leaf_prims = std::max(max_leaf_prims, cur.primCount());
                for (uint32_t p = 0; p < cur.primCount(); ++p) {
                    uint32_t prim = bvh.primIndices()[cur.primOffset() + p];
                    addFetchRange(lines, bvh.primitiveAddress(scene, prim),
                                  bvh.primitiveFetchBytes(scene, prim),
                                  TrafficClass::Primitive);
                }
            }
            // Packed entries sort exactly like (line, class) pairs.
            std::sort(lines.begin(), lines.end());
            lines.erase(std::unique(lines.begin(), lines.end()),
                        lines.end());
            writer.fetchPhase(lines, has_internal, has_leaf,
                              max_leaf_prims);

            // Update, lane by lane in ascending order (the order replay
            // reads the actions back).
            for (uint32_t m = running; m != 0; m &= m - 1) {
                uint32_t i = static_cast<uint32_t>(__builtin_ctz(m));
                if (!(stackless ? stacklessStep(i) : stackStep(i)))
                    continue;
                running &= ~(1u << i);
                if (!oracleAgrees(job, i, hits[i], quantized))
                    ++mismatches;
            }
        }
        writer.finish(mismatches);
    }
    g_jobs_recorded += tape.jobs.size();
    g_bytes += tape.totalBytes();
    return tape;
}

void
noteTapeReplayed(const TraversalTape &tape)
{
    g_jobs_replayed += tape.jobs.size();
}

void
noteTapeFailure()
{
    ++g_failures;
}

void
noteTapeDiskLoad()
{
    ++g_disk_loads;
}

void
noteTapeDiskStore()
{
    ++g_disk_stores;
}

} // namespace sms
