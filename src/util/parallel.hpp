/**
 * @file
 * Minimal deterministic work-sharing helper for the benchmark drivers.
 *
 * Simulations are independent (each owns its memory models), so benches
 * fan scene x configuration grids across threads. Results are stored by
 * index, keeping output ordering deterministic regardless of thread
 * interleaving.
 *
 * Exceptions thrown by @p fn on a worker thread are captured (first one
 * wins), remaining iterations are abandoned, and the exception is
 * rethrown on the calling thread after all workers joined — a worker
 * throw is a regular error, not std::terminate. A worker thread that
 * cannot be started ends the region the same way: the started workers
 * stop and are joined, and the start failure is rethrown.
 */

#ifndef SMS_UTIL_PARALLEL_HPP
#define SMS_UTIL_PARALLEL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sms {

/**
 * Default worker count for parallelFor's threads==0 mode: SMS_THREADS
 * when set to a positive integer, otherwise hardware_concurrency()
 * (with a fallback of 4 when even that is unknown). Parsed once per
 * process; a malformed value warns and falls through to the hardware
 * default rather than silently serializing.
 */
inline unsigned
defaultThreadCount()
{
    static const unsigned count = [] {
        const char *env = std::getenv("SMS_THREADS");
        if (env && *env) {
            char *end = nullptr;
            unsigned long n = std::strtoul(env, &end, 10);
            if (end && !*end && n >= 1 && n <= 65536)
                return static_cast<unsigned>(n);
            std::fprintf(stderr,
                         "sms: SMS_THREADS='%s' is not a thread count "
                         "in 1..65536; using the hardware default\n",
                         env);
        }
        unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 4u : hw;
    }();
    return count;
}

/**
 * Optional occupancy instrumentation. The metrics layer (which sits
 * above this header in the link order, so it cannot be called
 * directly from here) installs begin/end hooks that publish the
 * worker count and iteration total of each parallelFor and
 * parallelForAfter region as gauges/counters. Null by default: one
 * relaxed load per region is the entire cost when telemetry is off.
 */
using ParallelForHook = void (*)(unsigned threads, size_t n);

namespace detail {
inline std::atomic<ParallelForHook> g_parallel_begin{nullptr};
inline std::atomic<ParallelForHook> g_parallel_end{nullptr};
} // namespace detail

/** Install (or clear, with nullptrs) the region hooks. */
inline void
setParallelForHooks(ParallelForHook begin, ParallelForHook end)
{
    detail::g_parallel_begin.store(begin, std::memory_order_relaxed);
    detail::g_parallel_end.store(end, std::memory_order_relaxed);
}

namespace detail {
/** Runs the begin hook now and the end hook at scope exit. */
struct ParallelRegionScope
{
    unsigned threads;
    size_t n;
    ParallelRegionScope(unsigned threads_, size_t n_)
        : threads(threads_), n(n_)
    {
        if (ParallelForHook hook =
                g_parallel_begin.load(std::memory_order_relaxed))
            hook(threads, n);
    }
    ~ParallelRegionScope()
    {
        if (ParallelForHook hook =
                g_parallel_end.load(std::memory_order_relaxed))
            hook(threads, n);
    }
};
} // namespace detail

/**
 * Run fn(i) for i in [0, n) across up to @p threads workers.
 * Blocks until all iterations finish. fn must be thread-safe.
 *
 * @param chunk iterations claimed per atomic grab. 1 (the default)
 *              balances best; larger chunks cut contention when
 *              iterations are tiny and uniform. The iteration->index
 *              mapping (and thus every result slot) is identical for
 *              any chunk size — only the thread assignment changes.
 */
inline void
parallelFor(size_t n, const std::function<void(size_t)> &fn,
            unsigned threads = 0, size_t chunk = 1)
{
    if (n == 0)
        return;
    if (chunk == 0)
        chunk = 1;
    if (threads == 0)
        threads = defaultThreadCount();
    // One worker per *chunk*, not per iteration: with chunk > 1 a
    // thread claims `chunk` iterations per grab, so spawning more
    // workers than chunks just creates threads that grab nothing (and
    // the old per-iteration clamp never accounted for chunking at all).
    size_t chunks = (n + chunk - 1) / chunk;
    if (threads > chunks)
        threads = static_cast<unsigned>(chunks);
    detail::ParallelRegionScope region(threads, n);
    if (threads <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::atomic<bool> error_claimed{false};

    auto work = [&]() {
        for (;;) {
            if (failed.load(std::memory_order_relaxed))
                return;
            size_t base = next.fetch_add(chunk);
            if (base >= n)
                return;
            size_t end = base + chunk < n ? base + chunk : n;
            for (size_t i = base; i < end; ++i) {
                try {
                    fn(i);
                } catch (...) {
                    // First thrower records; everyone drains out.
                    if (!error_claimed.exchange(true))
                        first_error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(threads);
    try {
        for (unsigned t = 0; t < threads; ++t)
            workers.emplace_back(work);
    } catch (...) {
        // A thread that could not start: stop and join the ones that
        // did, then report the failure to start.
        failed.store(true, std::memory_order_relaxed);
        for (std::thread &w : workers)
            w.join();
        throw;
    }
    for (std::thread &w : workers)
        w.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

/** parallelForAfter()'s "waits for nothing" dependency. */
constexpr size_t kNoTask = static_cast<size_t>(-1);

/**
 * Run fn(i) for i in [0, n) across up to @p threads workers, where task
 * i may not start before task after[i] has finished (kNoTask: ready at
 * once). A task may wait only for an earlier one (after[i] < i), so
 * the dependencies cannot form a cycle.
 *
 * A free worker takes the ready task with the highest priority(i), the
 * lowest index among equal priorities. priority is called under the
 * queue's lock and only for ready tasks, so it may read state that a
 * task's dependency wrote before finishing.
 *
 * Thread count and errors follow parallelFor: threads == 0 means
 * defaultThreadCount(), and the first exception fn throws stops further
 * tasks from starting and is rethrown on the calling thread after every
 * worker joined.
 */
inline void
parallelForAfter(size_t n, const std::vector<size_t> &after,
                 const std::function<uint64_t(size_t)> &priority,
                 const std::function<void(size_t)> &fn,
                 unsigned threads = 0)
{
    if (after.size() != n)
        throw std::invalid_argument(
            "parallelForAfter: one dependency per task required");
    if (n == 0)
        return;
    std::vector<std::vector<size_t>> dependents(n);
    std::vector<size_t> ready;
    for (size_t i = 0; i < n; ++i) {
        if (after[i] == kNoTask)
            ready.push_back(i);
        else if (after[i] < i)
            dependents[after[i]].push_back(i);
        else
            throw std::invalid_argument(
                "parallelForAfter: a task may wait only for an earlier "
                "one");
    }
    if (threads == 0)
        threads = defaultThreadCount();
    if (threads > n)
        threads = static_cast<unsigned>(n);
    detail::ParallelRegionScope region(threads, n);

    std::mutex mutex; // guards ready, unclaimed and first_error
    std::condition_variable changed;
    size_t unclaimed = n;
    std::exception_ptr first_error;
    auto work = [&]() {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            // With nothing ready, a running task still holds every
            // unclaimed one back; its completion notifies.
            changed.wait(lock, [&] {
                return first_error || unclaimed == 0 || !ready.empty();
            });
            if (first_error || unclaimed == 0)
                return;
            auto best = ready.begin();
            uint64_t best_priority = priority(*best);
            for (auto it = best + 1; it != ready.end(); ++it) {
                uint64_t p = priority(*it);
                if (p > best_priority ||
                    (p == best_priority && *it < *best)) {
                    best = it;
                    best_priority = p;
                }
            }
            size_t task = *best;
            *best = ready.back();
            ready.pop_back();
            --unclaimed;
            lock.unlock();
            try {
                fn(task);
            } catch (...) {
                lock.lock();
                if (!first_error)
                    first_error = std::current_exception();
                changed.notify_all();
                return;
            }
            lock.lock();
            ready.insert(ready.end(), dependents[task].begin(),
                         dependents[task].end());
            if (!dependents[task].empty() || unclaimed == 0)
                changed.notify_all();
        }
    };

    // The calling thread is one of the workers.
    std::vector<std::thread> workers;
    workers.reserve(threads - 1);
    try {
        for (unsigned t = 1; t < threads; ++t)
            workers.emplace_back(work);
    } catch (...) {
        // As in parallelFor: stop and join the started workers, then
        // report the failure to start.
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!first_error)
                first_error = std::current_exception();
        }
        changed.notify_all();
        for (std::thread &w : workers)
            w.join();
        throw;
    }
    work();
    for (std::thread &w : workers)
        w.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace sms

#endif // SMS_UTIL_PARALLEL_HPP
