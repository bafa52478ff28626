/**
 * @file
 * Global event loop of the GPU timing simulation.
 */

#include "src/sim/gpu_sim.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <queue>
#include <string>

#include "src/bvh/stackless.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/stats/metrics.hpp"
#include "src/stats/timeline.hpp"
#include "src/util/check.hpp"

namespace sms {

namespace {

/** Base of the simulated per-thread local (spill) address space. */
constexpr Addr kLocalSpillBase = 0x100000000ull;
/** Bytes reserved per warp job for spill slots (256 slots x 32 x 8 B). */
constexpr Addr kLocalSpillStride = 0x10000ull;
/** Number of distinct spill frames before addresses recycle. */
constexpr Addr kLocalSpillFrames = 8192;

/**
 * Depth observer recording the per-access trace of traced warps. The
 * global depth histogram is fed directly by the warp stack (a devirtualized
 * Histogram pointer), so untraced warps — the overwhelming majority —
 * register no observer at all.
 */
class DepthCollector : public DepthObserver
{
  public:
    DepthCollector(SimResult &result, uint32_t warp_id)
        : result_(result), warp_id_(warp_id)
    {}

    /** Rearm for the next job sharing this in-flight slot. */
    void
    reinit(uint32_t warp_id)
    {
        warp_id_ = warp_id;
        access_index_ = 0;
    }

    void
    onStackAccess(uint32_t lane, uint32_t depth) override
    {
        result_.depth_trace.push_back(
            {warp_id_, access_index_++, lane, depth});
    }

  private:
    SimResult &result_;
    uint32_t warp_id_;
    uint32_t access_index_ = 0;
};

/** One RT-unit occupancy slot executing a job. */
struct InFlight
{
    std::unique_ptr<TraversalSim> sim;
    std::unique_ptr<DepthCollector> collector;
    uint32_t job_index = 0;
    uint32_t slot = 0;
    /** Cycle the job entered its slot (cycle-accounting denominator). */
    Cycle admitted = 0;
    /** false: next event runs stepFetch; true: runs stepStack. */
    bool in_stack_phase = false;
};

/** Job bookkeeping. */
struct JobState
{
    Cycle ready = 0;
    bool is_ready = false;
    bool completed = false;
    Cycle completion = 0;
};

} // namespace

namespace {
std::atomic<uint64_t> g_simulate_calls{0};

// Pull-collector: the call counter already exists for tests, so the
// metrics sampler reads it instead of adding a second hot-path add.
const bool g_sim_collector_registered = [] {
    metricsAddCollector(
        [](const std::function<void(const char *, uint64_t)> &sink) {
            sink("sim.simulate_calls",
                 g_simulate_calls.load(std::memory_order_relaxed));
        });
    return true;
}();
} // namespace

uint64_t
simulateJobsCallCount()
{
    return g_simulate_calls.load(std::memory_order_relaxed);
}

void
resetSimulateJobsCallCount()
{
    g_simulate_calls.store(0, std::memory_order_relaxed);
}

SimResult
simulateJobs(const WideBvh &bvh, const WarpJobList &jobs,
             const GpuConfig &config, const SimOptions &options)
{
    g_simulate_calls.fetch_add(1, std::memory_order_relaxed);
    SimResult result;
    result.jobs = static_cast<uint32_t>(jobs.size());

    const TraversalTape *tape = options.tape;
    SMS_ASSERT(tape, "replay needs a traversal tape");
    SMS_ASSERT(tape->jobs.size() == jobs.size(),
               "traversal tape holds %zu jobs but the workload has %zu",
               tape->jobs.size(), jobs.size());

    // Stackless parent links are a cheap pure function of the BVH, so
    // the functional pass and every timing run rebuild identical copies
    // instead of serializing them anywhere.
    StacklessLinks links;
    if (config.traversal_arch.kind == TraversalArchKind::Stackless)
        links = StacklessLinks::build(bvh);
    const StacklessLinks *links_p =
        config.traversal_arch.kind == TraversalArchKind::Stackless ? &links
                                                                   : nullptr;

    MemorySystem mem(config.resolvedMemConfig(), config.num_sms);
    std::vector<SharedMemory> shared_mems(
        config.num_sms, SharedMemory(config.shared_latency));

    // Timeline: this run is one trace process; each (SM, warp slot)
    // pair is a thread track. Deep layers (stack model, caches, DRAM)
    // read the context this loop maintains.
    const bool tl = timelineAnyOn();
    uint32_t tl_pid = 0;
    if (tl) {
        tl_pid = timelineNewProcess(options.timeline_label.empty()
                                        ? "simulate (cycles)"
                                        : options.timeline_label);
        timelineContext().pid = tl_pid;
    }

    // Flat sorted lookup instead of a node-based std::set: the traced
    // set is tiny and checked once per admitted job.
    std::vector<uint32_t> traced_warps(options.depth_trace_warps);
    std::sort(traced_warps.begin(), traced_warps.end());
    traced_warps.erase(
        std::unique(traced_warps.begin(), traced_warps.end()),
        traced_warps.end());
    auto warp_traced = [&](uint32_t warp_id) {
        return std::binary_search(traced_warps.begin(),
                                  traced_warps.end(), warp_id);
    };

    // Dependency edges: children of each job. Distinct warps are
    // counted with a flat bitmap over warp ids (dense by construction)
    // rather than a std::set insert per job.
    std::vector<std::vector<uint32_t>> children(jobs.size());
    std::vector<JobState> states(jobs.size());
    // Wavefront barriers (reordered streams): distinct barrier values
    // ascending, the jobs gated on each, and how many jobs with id <=
    // the barrier are still incomplete. Job ids are dense (asserted
    // below), so the initial remaining count is barrier + 1.
    std::vector<int32_t> barrier_values;
    std::vector<std::vector<uint32_t>> barrier_jobs;
    std::vector<uint32_t> barrier_remaining;
    std::vector<uint8_t> warp_seen;
    uint32_t traced_jobs = 0;
    for (uint32_t j = 0; j < jobs.size(); ++j) {
        SMS_ASSERT(jobs[j].job_id == j, "jobs must be indexed by job_id");
        if (jobs[j].parent >= 0) {
            SMS_ASSERT(jobs[j].barrier < 0,
                       "a job cannot carry both a parent and a barrier");
            SMS_ASSERT(static_cast<uint32_t>(jobs[j].parent) < j,
                       "parent must precede child");
            children[static_cast<uint32_t>(jobs[j].parent)].push_back(j);
        } else if (jobs[j].barrier >= 0) {
            SMS_ASSERT(static_cast<uint32_t>(jobs[j].barrier) < j,
                       "barrier must precede the gated job");
            auto it = std::lower_bound(barrier_values.begin(),
                                       barrier_values.end(),
                                       jobs[j].barrier);
            size_t k = static_cast<size_t>(it - barrier_values.begin());
            if (it == barrier_values.end() || *it != jobs[j].barrier) {
                barrier_values.insert(it, jobs[j].barrier);
                barrier_jobs.emplace(barrier_jobs.begin() + k);
                barrier_remaining.insert(
                    barrier_remaining.begin() + k,
                    static_cast<uint32_t>(jobs[j].barrier) + 1);
            }
            barrier_jobs[k].push_back(j);
        } else {
            states[j].is_ready = true;
            states[j].ready = 0;
        }
        result.rays += jobs[j].activeLanes();
        uint32_t warp_id = jobs[j].warp_id;
        if (warp_id >= warp_seen.size())
            warp_seen.resize(warp_id + 1, 0);
        if (!warp_seen[warp_id]) {
            warp_seen[warp_id] = 1;
            ++result.warps;
        }
        if (!traced_warps.empty() && warp_traced(warp_id))
            ++traced_jobs;
    }
    // A traced job emits one record per push/pop; pre-size for a deep
    // traversal so the hot observer path rarely reallocates.
    if (traced_jobs > 0)
        result.depth_trace.reserve(static_cast<size_t>(traced_jobs) * 512);

    // Per-SM RT-unit occupancy. The pending queue only ever needs its
    // minimum, so it is a binary min-heap rather than a std::set: no
    // per-insert node allocation, and (ready, job) pairs are unique so
    // the pop order is identical to the ordered-set iteration.
    using PendingEntry = std::pair<Cycle, uint32_t>;
    struct SmState
    {
        std::vector<uint32_t> free_slots;
        /** Ready jobs waiting for a slot, min-heap on (ready, job). */
        std::priority_queue<PendingEntry, std::vector<PendingEntry>,
                            std::greater<>>
            pending;
    };
    std::vector<SmState> sms(config.num_sms);
    for (auto &sm : sms)
        for (uint32_t s = 0; s < config.max_warps_per_rt; ++s)
            sm.free_slots.push_back(config.max_warps_per_rt - 1 - s);

    // Event queue: min-heap on (cycle, sequence); the sequence breaks
    // ties deterministically and is unique, so the in-flight index
    // never takes part in the order.
    struct Event
    {
        Cycle cycle;
        uint64_t seq;
        uint32_t idx;
    };
    struct EventAfter
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.cycle != b.cycle ? a.cycle > b.cycle : a.seq > b.seq;
        }
    };
    std::priority_queue<Event, std::vector<Event>, EventAfter> events;
    uint64_t seq = 0;

    std::vector<InFlight> inflight;
    std::vector<uint32_t> free_inflight;

    // Local-spill frames recycle every kLocalSpillFrames jobs (job_ids
    // congruent mod 8192 share a frame). Two *concurrently* in-flight
    // jobs on the same frame would silently alias spill traffic, so
    // track per-frame occupancy and assert exclusivity.
    std::vector<uint8_t> spill_frame_busy(kLocalSpillFrames, 0);

    uint64_t shared_bytes_per_warp = config.stack.sharedBytesPerWarp();

    auto admit = [&](uint32_t job_index, uint32_t sm_id, Cycle cycle) {
        SmState &sm = sms[sm_id];
        SMS_ASSERT(!sm.free_slots.empty(), "admit without free slot");
        uint32_t slot = sm.free_slots.back();
        sm.free_slots.pop_back();

        const WarpJob &job = jobs[job_index];
        Addr shared_base = slot * shared_bytes_per_warp;
        Addr spill_frame = job.job_id % kLocalSpillFrames;
        SMS_ASSERT(!spill_frame_busy[spill_frame],
                   "local-spill frame %llu aliased: job %u admitted "
                   "while a job with job_id ≡ %u (mod %llu) is still in "
                   "flight",
                   static_cast<unsigned long long>(spill_frame),
                   job.job_id, job.job_id,
                   static_cast<unsigned long long>(kLocalSpillFrames));
        spill_frame_busy[spill_frame] = 1;
        Addr local_base = kLocalSpillBase + spill_frame * kLocalSpillStride;

        uint32_t idx;
        if (!free_inflight.empty()) {
            idx = free_inflight.back();
            free_inflight.pop_back();
        } else {
            idx = static_cast<uint32_t>(inflight.size());
            inflight.emplace_back();
        }
        InFlight &fl = inflight[idx];
        fl.job_index = job_index;
        fl.slot = slot;
        fl.admitted = cycle;
        fl.in_stack_phase = false;
        if (tl)
            timelineNameThread(
                tl_pid, sm_id * config.max_warps_per_rt + slot,
                "SM" + std::to_string(sm_id) + " slot" +
                    std::to_string(slot));
        // Recycled slots rearm their existing sim/collector in place:
        // the stack model, scratch arenas and tape state all keep their
        // allocations across the thousands of jobs sharing the slot.
        const JobTape &job_tape = tape->jobs[job_index];
        bool traced = warp_traced(job.warp_id);
        if (fl.sim) {
            fl.collector->reinit(job.warp_id);
            fl.sim->reinit(job, job_tape, sm_id, shared_base, local_base,
                           shared_mems[sm_id],
                           traced ? fl.collector.get() : nullptr,
                           &result.depth_hist);
        } else {
            fl.collector =
                std::make_unique<DepthCollector>(result, job.warp_id);
            fl.sim = std::make_unique<TraversalSim>(
                bvh, config, job, job_tape, sm_id, shared_base, local_base,
                mem, shared_mems[sm_id],
                traced ? fl.collector.get() : nullptr, &result.depth_hist,
                links_p);
        }
        events.push({cycle, seq++, idx});
    };

    auto sm_of = [&](uint32_t job_index) {
        return jobs[job_index].warp_id % config.num_sms;
    };

    auto schedule_sm = [&](uint32_t sm_id, Cycle now) {
        SmState &sm = sms[sm_id];
        while (!sm.free_slots.empty() && !sm.pending.empty()) {
            auto [ready, job_index] = sm.pending.top();
            sm.pending.pop();
            admit(job_index, sm_id, std::max(now, ready));
        }
    };

    // Seed: initially-ready jobs enter their SM's pending queue.
    for (uint32_t j = 0; j < jobs.size(); ++j)
        if (states[j].is_ready)
            sms[sm_of(j)].pending.push({states[j].ready, j});
    for (uint32_t s = 0; s < config.num_sms; ++s)
        schedule_sm(s, 0);

    uint32_t completed_jobs = 0;
    while (!events.empty()) {
        auto [cycle, event_seq, idx] = events.top();
        (void)event_seq;
        events.pop();
        InFlight &fl = inflight[idx];
        if (tl) {
            TimelineContext &ctx = timelineContext();
            ctx.tid = sm_of(fl.job_index) * config.max_warps_per_rt +
                      fl.slot;
            ctx.now = cycle;
        }

        // The frame ends at the latest *event* retirement, not merely
        // the latest job completion: a zero-latency completion tie
        // (several events sharing the final cycle, ordered by seq)
        // must not under-report the frame length whichever event the
        // heap happens to pop last.
        if (cycle > result.cycles)
            result.cycles = cycle;

        if (fl.in_stack_phase) {
            Cycle done = fl.sim->stepStack(cycle);
            SMS_ASSERT(done >= cycle, "time went backwards");
            fl.in_stack_phase = false;
            events.push({done, seq++, idx});
            continue;
        }
        if (!fl.sim->done()) {
            Cycle op_done = fl.sim->stepFetch(cycle);
            SMS_ASSERT(op_done >= cycle, "time went backwards");
            fl.in_stack_phase = true;
            events.push({op_done, seq++, idx});
            continue;
        }

        // Job complete: harvest, free the slot, release dependents.
        uint32_t job_index = fl.job_index;
        uint32_t sm_id = sm_of(job_index);
        states[job_index].completed = true;
        states[job_index].completion = cycle;
        ++completed_jobs;

        result.ops.merge(fl.sim->counters());
        result.stack.merge(fl.sim->stackStats());
        result.instructions += fl.sim->counters().instructions;
        result.mismatches += fl.sim->mismatches();

        // Cycle-accounting conservation, per job, at zero epsilon: the
        // leaf attribution must cover the job's slot residency exactly.
        // Checked unconditionally — a leak here means the timing model
        // and the attribution disagree about where time went.
        {
            CycleAccount acct = fl.sim->account();
            acct.warp_active_cycles = cycle - fl.admitted;
            SMS_ASSERT(acct.conserved(),
                       "cycle-accounting leak on job %u: leaves sum to "
                       "%llu over %llu active cycles",
                       job_index,
                       static_cast<unsigned long long>(acct.activeSum()),
                       static_cast<unsigned long long>(
                           acct.warp_active_cycles));
            if (result.sm_accounting.empty())
                result.sm_accounting.resize(config.num_sms);
            result.sm_accounting[sm_id].merge(acct);
        }

        sms[sm_id].free_slots.push_back(fl.slot);
        spill_frame_busy[jobs[job_index].job_id % kLocalSpillFrames] = 0;
        // The sim and collector stay alive for the next job admitted to
        // this in-flight slot (admit() rearms them via reinit()).
        free_inflight.push_back(idx);

        for (uint32_t child : children[job_index]) {
            JobState &cs = states[child];
            // Shadow batches launch straight from the hit results; the
            // next bounce additionally waits for shading.
            Cycle extra = jobs[child].any_hit
                              ? 0
                              : config.timing.shading_latency;
            cs.ready = cycle + extra;
            cs.is_ready = true;
            sms[sm_of(child)].pending.push({cs.ready, child});
        }
        // Wavefront barriers: this completion retires one pending
        // dependency of every barrier at or beyond this job id. A
        // barrier whose remaining count hits zero releases its whole
        // batch (shadow batches immediately, bounces after shading),
        // mirroring the parent-edge semantics above.
        std::vector<uint32_t> barrier_released;
        if (!barrier_values.empty()) {
            auto it = std::lower_bound(barrier_values.begin(),
                                       barrier_values.end(),
                                       static_cast<int32_t>(job_index));
            for (size_t k = static_cast<size_t>(
                     it - barrier_values.begin());
                 k < barrier_values.size(); ++k) {
                SMS_ASSERT(barrier_remaining[k] > 0,
                           "barrier %d released twice",
                           barrier_values[k]);
                if (--barrier_remaining[k] == 0)
                    for (uint32_t waiter : barrier_jobs[k])
                        barrier_released.push_back(waiter);
            }
        }
        for (uint32_t waiter : barrier_released) {
            JobState &ws = states[waiter];
            Cycle extra = jobs[waiter].any_hit
                              ? 0
                              : config.timing.shading_latency;
            ws.ready = cycle + extra;
            ws.is_ready = true;
            sms[sm_of(waiter)].pending.push({ws.ready, waiter});
        }

        schedule_sm(sm_id, cycle);
        // A child may target a different SM with idle slots.
        for (uint32_t child : children[job_index]) {
            uint32_t child_sm = sm_of(child);
            if (child_sm != sm_id)
                schedule_sm(child_sm, cycle);
        }
        for (uint32_t waiter : barrier_released) {
            uint32_t waiter_sm = sm_of(waiter);
            if (waiter_sm != sm_id)
                schedule_sm(waiter_sm, cycle);
        }
    }

    SMS_ASSERT(completed_jobs == jobs.size(),
               "deadlock: %u of %zu jobs completed", completed_jobs,
               jobs.size());

    // Close each SM's slot budget: cycles its RT-unit slots were not
    // occupied by a job become idle.done, so per SM (and per run)
    // totalSum() == slot_cycles exactly.
    if (result.sm_accounting.empty())
        result.sm_accounting.resize(config.num_sms);
    for (uint32_t s = 0; s < config.num_sms; ++s) {
        CycleAccount &acct = result.sm_accounting[s];
        acct.slot_cycles =
            static_cast<uint64_t>(config.max_warps_per_rt) * result.cycles;
        uint64_t active = acct.activeSum();
        SMS_ASSERT(active <= acct.slot_cycles,
                   "SM %u attributes %llu active cycles into a %llu-cycle "
                   "slot budget",
                   s, static_cast<unsigned long long>(active),
                   static_cast<unsigned long long>(acct.slot_cycles));
        acct.add(CycleLeaf::IdleDone, acct.slot_cycles - active);
        result.accounting.merge(acct);
    }

    // Aggregate memory statistics.
    for (uint32_t s = 0; s < config.num_sms; ++s) {
        const LevelStats &l1 = mem.l1(s).stats();
        result.l1.loads += l1.loads;
        result.l1.stores += l1.stores;
        result.l1.load_misses += l1.load_misses;
        result.l1.store_misses += l1.store_misses;
        result.l1.writebacks += l1.writebacks;

        for (int cls = 0; cls < kTrafficClassCount; ++cls)
            result.l1_class_misses[cls] +=
                mem.l1(s).missesByClass(static_cast<TrafficClass>(cls));

        const SharedMemStats &sh = shared_mems[s].stats();
        result.shared_mem.accesses += sh.accesses;
        result.shared_mem.lane_requests += sh.lane_requests;
        result.shared_mem.conflict_cycles += sh.conflict_cycles;
        result.shared_mem.conflict_passes += sh.conflict_passes;
        result.shared_mem.conflicted_accesses += sh.conflicted_accesses;
        if (sh.max_passes > result.shared_mem.max_passes)
            result.shared_mem.max_passes = sh.max_passes;
    }
    result.l2 = mem.l2().stats();
    for (int cls = 0; cls < kTrafficClassCount; ++cls)
        result.l2_class_misses[cls] =
            mem.l2().missesByClass(static_cast<TrafficClass>(cls));
    result.dram = mem.dram().stats();
    result.offchip_accesses = mem.offchipAccesses();

    noteTapeReplayed(*tape);

    // Live telemetry: retire this run's headline counters into the
    // metrics registry. Per simulateJobs() call, not per cycle, so the
    // cost is a handful of relaxed adds — and nothing at all when the
    // gate is off.
    if (metricsOn()) {
        static MetricCounter &m_cycles =
            metricCounter("sim.cycles_retired");
        static MetricCounter &m_instr =
            metricCounter("sim.instructions_retired");
        static MetricCounter &m_rays = metricCounter("sim.rays_retired");
        static MetricCounter &m_jobs = metricCounter("sim.jobs_retired");
        static MetricCounter &m_dram_wait =
            metricCounter("sim.dram_queue_wait_cycles");
        static MetricCounter &m_offchip =
            metricCounter("sim.offchip_accesses");
        static MetricGauge &m_dram_depth =
            metricGauge("sim.dram_max_queue_wait");
        m_cycles.add(result.cycles);
        m_instr.add(result.instructions);
        m_rays.add(result.rays);
        m_jobs.add(result.jobs);
        m_dram_wait.add(result.dram.queue_wait_cycles);
        m_offchip.add(result.offchip_accesses);
        m_dram_depth.max(
            static_cast<int64_t>(result.dram.max_queue_wait));
    }

    if (tl) {
        // Stray emissions after this run fall back to the harness pid.
        TimelineContext &ctx = timelineContext();
        ctx.pid = 0;
        ctx.tid = 0;
        ctx.now = 0;
    }
    return result;
}

} // namespace sms
