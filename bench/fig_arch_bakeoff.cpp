/**
 * @file
 * Architecture bake-off: competing traversal architectures on one grid.
 *
 * The paper's thesis is that the traversal *stack* is the off-chip
 * traffic problem worth hardware (shared-memory stacks, §VI). The
 * classic alternative dissolves the stack instead of caching it:
 * stackless traversal (parent links, zero stack state, redundant node
 * re-tests). This harness runs, per scene:
 *
 *   RB_8        short stack, spills off-chip   (the paper's baseline)
 *   SMS         shared-memory stack            (the paper's design)
 *   RB_8+sl     stackless, parent links        (no stack to cache)
 *
 * and reports per-class off-chip bytes (node / primitive / stack) plus
 * IPC, so the architectures' costs land in different columns of the
 * same budget: SMS removes the stack column, stackless trades it for
 * the node column. See docs/ARCHITECTURES.md for the loop-by-loop
 * comparison and EXPERIMENTS.md for a worked reading of this table.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/bvh/stackless.hpp"
#include "src/memory/request.hpp"

using namespace sms;
using namespace sms::benchutil;

namespace {

/** Off-chip bytes of one traffic class (DRAM accesses are lines). */
double
offchipBytes(const SimResult &r, TrafficClass cls)
{
    return static_cast<double>(
               r.dram.by_class[static_cast<int>(cls)]) *
           kLineBytes;
}

void
runArchBakeoff(JsonReporter &reporter)
{
    std::printf("=== Architecture bake-off: short stack vs SMS vs "
                "stackless ===\n\n");
    auto workloads = prepareAllScenes();

    // Column order matters: RB_8 first so every norm is against the
    // paper's baseline, and the architecture variants ride the same
    // RB_8 stack config so the *only* moving axis is the architecture.
    std::vector<SweepColumn> columns;
    columns.push_back(SweepColumn{StackConfig::baseline(8)});
    columns.push_back(SweepColumn{StackConfig::sms()});
    SweepColumn stackless{StackConfig::baseline(8)};
    stackless.arch = TraversalArchConfig::stackless();
    columns.push_back(stackless);

    SweepResult sweep = runSweep(workloads, columns);

    // A shard worker holds only its slice of the grid; the cross-cell
    // human tables are computed by nobody and the JSON merge instead.
    if (!sweepShardSpec().active()) {
        for (size_t s = 0; s < workloads.size(); ++s) {
            std::printf("scene %s:\n", sceneName(workloads[s]->id));
            Table table;
            table.setHeader({"config", "node KiB", "prim KiB",
                             "stack KiB", "IPC", "norm IPC"});
            for (size_t c = 0; c < columns.size(); ++c) {
                const SimResult &r = sweep.results[s][c];
                table.addRow(
                    {sweep.configLabel(c),
                     Table::num(offchipBytes(r, TrafficClass::Node) /
                                    1024.0,
                                1),
                     Table::num(
                         offchipBytes(r, TrafficClass::Primitive) /
                             1024.0,
                         1),
                     Table::num(offchipBytes(r, TrafficClass::Stack) /
                                    1024.0,
                                1),
                     Table::num(r.ipc(), 3),
                     Table::num(normIpc(sweep, s, c), 3)});
            }
            table.print();
            std::printf("\n");
        }

        // Cross-scene headline: how each architecture moves the total
        // off-chip budget and the stack column specifically, geomean
        // over scenes against the RB_8 baseline (column 0).
        std::printf("vs RB_8 baseline (geomean over scenes):\n");
        for (size_t c = 1; c < columns.size(); ++c) {
            std::vector<double> traffic_ratios, ipc_ratios;
            for (size_t s = 0; s < workloads.size(); ++s) {
                const SimResult &base = sweep.results[s][0];
                const SimResult &r = sweep.results[s][c];
                if (base.offchip_accesses > 0 && r.offchip_accesses > 0)
                    traffic_ratios.push_back(
                        static_cast<double>(r.offchip_accesses) /
                        static_cast<double>(base.offchip_accesses));
                if (base.ipc() > 0.0 && r.ipc() > 0.0)
                    ipc_ratios.push_back(r.ipc() / base.ipc());
            }
            double traffic = traffic_ratios.empty()
                                 ? 1.0
                                 : geomean(traffic_ratios);
            double ipc = ipc_ratios.empty() ? 1.0 : geomean(ipc_ratios);
            std::printf("  %-12s off-chip %.3fx  IPC %.3fx\n",
                        sweep.configLabel(c).c_str(), traffic, ipc);
        }
        printPaperNote(
            "the paper's §VI keeps the stack and moves it on-chip; the "
            "stackless column deletes the stack but pays node re-fetch — "
            "two different columns of the same off-chip budget");
    }

    reporter.addSweep(sweep);
    reporter.finish();
}

/** Microbenchmark: parent-link build throughput over a real BVH. */
void
BM_StacklessLinksBuild(benchmark::State &state)
{
    auto workload = prepareWorkload(SceneId::BUNNY, ScaleProfile::Tiny);
    for (auto _ : state) {
        StacklessLinks links = StacklessLinks::build(workload->bvh);
        benchmark::DoNotOptimize(links.parent.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(workload->bvh.nodes().size()));
}
BENCHMARK(BM_StacklessLinksBuild);

} // namespace

int
main(int argc, char **argv)
{
    JsonReporter reporter("arch_bakeoff", argc, argv);
    runArchBakeoff(reporter);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
