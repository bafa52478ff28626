/**
 * @file
 * Interactive-style analysis of a scene's traversal-stack behaviour:
 * depth distribution, spill traffic by level, and what each SMS
 * feature contributes — the paper's §III motivation study for one
 * workload at a time.
 *
 * Usage: stack_explorer [scene-name] [rb-entries] [sh-entries]
 */

#include <cstdio>
#include <cstdlib>

#include "src/scene/registry.hpp"
#include "src/stats/table.hpp"
#include "src/trace/render.hpp"

using namespace sms;

int
main(int argc, char **argv)
{
    SceneId id = argc > 1 ? sceneFromName(argv[1]) : SceneId::PARTY;
    uint32_t rb = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 8;
    uint32_t sh = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 8;

    std::printf("Preparing %s...\n", sceneName(id));
    auto workload = prepareWorkload(id);
    WideBvhStats bvh_stats = workload->bvh.computeStats(workload->scene());
    std::printf("  %u primitives, BVH6 depth %u, %.2f children/node, "
                "%.2f prims/leaf\n\n",
                workload->scene().primitiveCount(), bvh_stats.max_depth,
                bvh_stats.avg_children, bvh_stats.avg_leaf_prims);

    SimResult base =
        runWorkload(*workload, makeGpuConfig(StackConfig::baseline(rb)));

    std::printf("Stack depth profile (recorded at every push/pop):\n");
    const Histogram &h = base.depth_hist;
    std::printf("  accesses %llu, mean %.2f, median %u, max %u\n",
                static_cast<unsigned long long>(h.total()), h.mean(),
                h.median(), h.maxSeen());
    for (uint32_t d = 1; d <= h.maxSeen() && d < 40; ++d) {
        double frac = h.fractionInRange(d, d);
        if (frac < 5e-4)
            continue;
        int bars = static_cast<int>(frac * 150);
        std::printf("  %2u %5.1f%% %s\n", d, frac * 100.0,
                    std::string(static_cast<size_t>(bars), '#').c_str());
    }
    std::printf("  needing <=%u entries: %.1f%%  |  %u-%u: %.1f%%  |  "
                ">%u: %.1f%%\n\n",
                rb, h.fractionInRange(0, rb) * 100.0, rb + 1, rb + sh,
                h.fractionInRange(rb + 1, rb + sh) * 100.0, rb + sh,
                h.fractionInRange(rb + sh + 1, 63) * 100.0);

    const StackConfig configs[] = {
        StackConfig::baseline(rb),
        StackConfig::withSh(rb, sh, false, false),
        StackConfig::withSh(rb, sh, true, false),
        StackConfig::withSh(rb, sh, true, true),
        StackConfig::rbFull(),
    };

    Table table;
    table.setHeader({"config", "norm IPC", "off-chip", "stack DRAM",
                     "sh acc", "conflict cyc", "borrows", "flushes"});
    double base_ipc = 0.0;
    for (const StackConfig &config : configs) {
        SimResult r = runWorkload(*workload, makeGpuConfig(config));
        if (base_ipc == 0.0)
            base_ipc = r.ipc();
        table.addRow(
            {config.name(), Table::num(r.ipc() / base_ipc, 3),
             std::to_string(r.offchip_accesses),
             std::to_string(r.dram.by_class[(int)TrafficClass::Stack]),
             std::to_string(r.shared_mem.accesses),
             std::to_string(r.shared_mem.conflict_cycles),
             std::to_string(r.stack.borrows),
             std::to_string(r.stack.flushes)});
    }
    table.print();
    return 0;
}
