/**
 * @file
 * Grid sweep over stack configurations for one scene, emitting CSV for
 * external plotting — the building block for custom design-space
 * studies beyond the paper's figures.
 *
 * Usage: config_sweep [scene-name] > sweep.csv
 */

#include <cstdio>
#include <vector>

#include "src/scene/registry.hpp"
#include "src/trace/render.hpp"

using namespace sms;

int
main(int argc, char **argv)
{
    SceneId id = argc > 1 ? sceneFromName(argv[1]) : SceneId::FRST;
    std::fprintf(stderr, "Preparing %s...\n", sceneName(id));
    auto workload = prepareWorkload(id);

    std::vector<StackConfig> configs;
    for (uint32_t rb : {2u, 4u, 8u, 16u}) {
        configs.push_back(StackConfig::baseline(rb));
        for (uint32_t sh : {4u, 8u, 16u}) {
            configs.push_back(StackConfig::withSh(rb, sh, false, false));
            configs.push_back(StackConfig::withSh(rb, sh, true, true));
        }
    }
    configs.push_back(StackConfig::rbFull());

    std::printf("scene,config,rb,sh,skew,realloc,cycles,instructions,"
                "ipc,offchip,stack_dram,shared_accesses,conflict_cycles,"
                "borrows,flushes,l1_miss_rate\n");
    // Every run builds its tape from the scene: one lease for all of
    // them, so the scene is generated once.
    std::shared_ptr<const Scene> scene = workload->scene();
    for (const StackConfig &config : configs) {
        SimResult r = runWorkload(*workload, makeGpuConfig(config));
        std::printf(
            "%s,%s,%u,%u,%d,%d,%llu,%llu,%.4f,%llu,%llu,%llu,%llu,"
            "%llu,%llu,%.4f\n",
            sceneName(id), config.name().c_str(),
            config.rb_unbounded ? 0 : config.rb_entries,
            config.sh_entries, config.skewed_bank_access ? 1 : 0,
            config.intra_warp_realloc ? 1 : 0,
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.instructions), r.ipc(),
            static_cast<unsigned long long>(r.offchip_accesses),
            static_cast<unsigned long long>(
                r.dram.by_class[(int)TrafficClass::Stack]),
            static_cast<unsigned long long>(r.shared_mem.accesses),
            static_cast<unsigned long long>(
                r.shared_mem.conflict_cycles),
            static_cast<unsigned long long>(r.stack.borrows),
            static_cast<unsigned long long>(r.stack.flushes),
            r.l1.missRate());
        std::fflush(stdout);
    }
    return 0;
}
