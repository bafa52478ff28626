/**
 * @file
 * Table II — benchmark scenes: our procedural stand-ins next to the
 * paper's LumiBench originals (triangle counts and BVH footprints), so
 * the scale substitution is explicit and auditable.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace sms;
using namespace sms::benchutil;

namespace {

void
runTable2(JsonReporter &reporter)
{
    std::printf("=== Table II: benchmark scenes (ours vs paper) ===\n\n");
    auto workloads = prepareAllScenes();

    Table table;
    table.setHeader({"scene", "tris", "spheres", "BVH6 nodes", "depth",
                     "BVH (MB)", "paper tris", "paper BVH (MB)"});
    for (const auto &w : workloads) {
        WideBvhStats stats = w->bvh.computeStats(w->scene());
        const PaperSceneInfo &paper = paperSceneInfo(w->id);
        table.addRow({sceneName(w->id),
                      std::to_string(w->scene().triangleCount()),
                      std::to_string(w->scene().sphereCount()),
                      std::to_string(stats.node_count),
                      std::to_string(stats.max_depth),
                      Table::num(stats.footprint_bytes / (1024.0 * 1024.0),
                                 2),
                      Table::num(paper.triangles_millions, 3) + "M",
                      Table::num(paper.bvh_mb, 1)});
    }
    table.print();
    printPaperNote("scenes are deterministic procedural stand-ins scaled "
                   "down ~30-100x from LumiBench (DESIGN.md §2); "
                   "relative complexity ordering is preserved");

    if (reporter.enabled()) {
        JsonValue scenes = JsonValue::array();
        for (const auto &w : workloads) {
            WideBvhStats stats = w->bvh.computeStats(w->scene());
            JsonValue row = JsonValue::object();
            row["scene"] = sceneName(w->id);
            row["triangles"] = w->scene().triangleCount();
            row["spheres"] = w->scene().sphereCount();
            row["bvh_nodes"] = stats.node_count;
            row["bvh_max_depth"] = stats.max_depth;
            row["bvh_bytes"] = stats.footprint_bytes;
            scenes.push(row);
        }
        reporter.record()["scenes"] = scenes;
    }
    reporter.finish();
}

void
BM_SceneBuildBunny(benchmark::State &state)
{
    for (auto _ : state) {
        Scene scene = makeScene(SceneId::BUNNY, ScaleProfile::Tiny);
        benchmark::DoNotOptimize(scene.primitiveCount());
    }
}
BENCHMARK(BM_SceneBuildBunny);

void
BM_BvhBuildBunny(benchmark::State &state)
{
    Scene scene = makeScene(SceneId::BUNNY, ScaleProfile::Tiny);
    for (auto _ : state) {
        WideBvh bvh = WideBvh::build(scene);
        benchmark::DoNotOptimize(bvh.nodes().size());
    }
}
BENCHMARK(BM_BvhBuildBunny);

} // namespace

int
main(int argc, char **argv)
{
    JsonReporter reporter("table2", argc, argv);
    runTable2(reporter);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
