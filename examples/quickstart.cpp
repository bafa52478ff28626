/**
 * @file
 * Quickstart: build a scene, render it, and compare the baseline GPU
 * against the SMS architecture.
 *
 * Usage: quickstart [scene-name]
 */

#include <cstdio>
#include <string>

#include "src/scene/registry.hpp"
#include "src/stats/table.hpp"
#include "src/trace/render.hpp"

using namespace sms;

int
main(int argc, char **argv)
{
    SceneId id = argc > 1 ? sceneFromName(argv[1]) : SceneId::BUNNY;

    std::printf("Preparing scene %s...\n", sceneName(id));
    auto workload = prepareWorkload(id);
    std::shared_ptr<const Scene> scene = workload->scene();
    WideBvhStats bvh_stats = workload->bvh.computeStats(*scene);
    std::printf("  primitives: %u  BVH6 nodes: %u  depth: %u  "
                "footprint: %.2f MB\n",
                scene->primitiveCount(), bvh_stats.node_count,
                bvh_stats.max_depth,
                bvh_stats.footprint_bytes / (1024.0 * 1024.0));
    std::printf("  %ux%u @ %u spp -> %zu warp jobs, %llu rays\n",
                workload->params.width, workload->params.height,
                workload->params.spp, workload->render.jobs.size(),
                static_cast<unsigned long long>(workload->render.rays));

    const StackConfig configs[] = {
        StackConfig::baseline(8),
        StackConfig::withSh(8, 8),
        StackConfig::sms(),
        StackConfig::rbFull(),
    };

    Table table;
    table.setHeader({"config", "cycles", "IPC", "speedup", "off-chip",
                     "bank-conflict cyc"});
    double base_ipc = 0.0;
    for (const StackConfig &stack : configs) {
        SimResult r = runWorkload(*workload, makeGpuConfig(stack));
        if (base_ipc == 0.0)
            base_ipc = r.ipc();
        table.addRow({stack.name(),
                      std::to_string(r.cycles),
                      Table::num(r.ipc(), 3),
                      Table::num(r.ipc() / base_ipc, 3),
                      std::to_string(r.offchip_accesses),
                      std::to_string(r.shared_mem.conflict_cycles)});
    }
    table.print();

    std::printf("\nImage hash: %016llx (identical across all configs by "
                "construction)\n",
                static_cast<unsigned long long>(
                    workload->render.film.contentHash()));
    return 0;
}
