/**
 * @file
 * Reproduces Fig. 12: Neurocube inference of the scene-labeling
 * ConvNN — per-layer (a) operation counts, (b) clock cycles,
 * (c) throughput and (d) memory requirement with duplication
 * overhead, both with and without data duplication. Also reports the
 * Section VI-3 image-processing frame rates at the 28 nm and 15 nm
 * design points.
 *
 * Paper anchors: 132.4 GOPs/s with duplication, 111.4 without;
 * inference at 17.52 frames/s (28 nm) and 292.14 frames/s (15 nm).
 */

#include "bench_common.hh"
#include "power/power_model.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

NetworkDesc
workload()
{
    unsigned w, h;
    inferenceInputSize(w, h);
    return sceneLabelingNetwork(w, h);
}

void
printFigure()
{
    NetworkDesc net = workload();
    std::printf("\n=== Fig. 12: scene-labeling inference (%s input) "
                "===\n",
                quickMode() ? "reduced 160x120" : "320x240");

    NeurocubeConfig dup;
    RunManifest dup_manifest;
    std::string dup_phases;
    RunResult with_dup =
        runForward(dup, net, 1, &dup_manifest, &dup_phases);
    printLayerPanels(with_dup, "with data duplication (black bars)");
    printEnergyPanel(with_dup, "with data duplication");

    NeurocubeConfig nodup;
    nodup.mapping.duplicateConvHalo = false;
    nodup.mapping.duplicateFcInput = false;
    RunManifest nodup_manifest;
    std::string nodup_phases;
    RunResult without =
        runForward(nodup, net, 1, &nodup_manifest, &nodup_phases);
    printLayerPanels(without, "without data duplication (gray bars)");
    printEnergyPanel(without, "without data duplication");

    std::vector<NamedRun> runs = {
        {"duplicated", &with_dup, dup_manifest},
        {"no_duplication", &without, nodup_manifest},
    };
    runs[0].phasesJson = dup_phases;
    runs[1].phasesJson = nodup_phases;
    writeBenchJson("BENCH_fig12.json", runs);
    writeBenchProm("BENCH_fig12.prom", runs);
    writeBenchHtml("BENCH_fig12.html",
                   "Fig. 12: scene-labeling inference", runs);

    PowerModel m28(TechNode::Nm28), m15(TechNode::Nm15);
    std::printf("\nimage throughput (frames/s): 28nm %.2f, 15nm "
                "%.2f  (paper: 17.52 / 292.14)\n",
                with_dup.framesPerSecond(m28.throughputClockGhz()),
                with_dup.framesPerSecond(m15.throughputClockGhz()));
    std::printf("paper anchors: 132.4 GOPs/s (dup), 111.4 GOPs/s "
                "(no dup) at the 5 GHz / 15nm point\n");
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
