/**
 * @file
 * Beyond-paper extension bench: the conclusion's "next step" —
 * scaling the Neurocube across multiple cubes connected by their
 * external HMC links (Table I: HMC-Ext, 40 GB/s/link).
 *
 * Sweeps cube count for the scene-labeling network at increasing
 * image sizes (the workloads Fig. 1 shows cannot fit a single
 * on-chip memory) and reports throughput and parallel efficiency:
 * tile parallelism scales well while conv halos are thin relative to
 * tiles, and degrades as tiles shrink.
 */

#include "bench_common.hh"
#include "core/multi_cube.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

void
printFigure()
{
    std::printf("\n=== Extension: multi-cube scaling (Section IX "
                "next steps) ===\n");
    for (unsigned edge : {320u, 640u, 1280u}) {
        unsigned w = edge, h = edge * 3 / 4;
        NetworkDesc net = sceneLabelingNetwork(w, h);
        std::printf("\nscene labeling %ux%u (%.2f GOp/frame):\n", w,
                    h, double(net.totalOps()) / 1e9);
        TextTable table({"cubes", "GOPs/s@5GHz", "frames/s (15nm)",
                         "exchange share %", "efficiency"});
        for (unsigned cubes : {1u, 2u, 4u, 8u, 16u}) {
            MultiCubeConfig config;
            config.numCubes = cubes;
            MultiCubeEstimate est =
                multiCubeNetworkEstimate(net, config);
            double fps = 5e9 / double(est.totalCycles());
            double share = 100.0 * double(est.exchangeCycles)
                         / double(est.totalCycles());
            table.addRow({std::to_string(cubes),
                          formatDouble(est.gopsPerSecond(), 1),
                          formatDouble(fps, 1),
                          formatDouble(share, 1),
                          formatDouble(
                              multiCubeEfficiency(net, config), 2)});
        }
        std::printf("%s", table.str().c_str());
    }
    std::printf("\nshape: near-linear scaling while conv halos stay "
                "thin relative to each cube's tile; efficiency falls "
                "as tiles shrink toward the kernel size and the "
                "external links carry a growing share.\n");
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
