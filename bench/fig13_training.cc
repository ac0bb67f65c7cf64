/**
 * @file
 * Reproduces Fig. 13: training the scene-labeling network on a 64x64
 * input with data duplication — per-pass (a) operation counts,
 * (b) clock cycles, (c) throughput and (d) memory with duplication
 * overhead, plus the Section VI-3 training frame rates.
 *
 * Paper anchors: 126.8 GOPs/s training throughput; 272.52 epochs/s
 * (28 nm) and 4542.14 epochs/s (15 nm); ~48% duplication overhead.
 */

#include "bench_common.hh"
#include "core/training.hh"
#include "power/power_model.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

RunResult
runTraining(bool include_gradient)
{
    NetworkDesc net = sceneLabelingNetwork(64, 64);
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input(3, 64, 64);
    Rng rng(2);
    input.randomize(rng);

    NeurocubeConfig config;
#if NEUROCUBE_TRACE_ENABLED
    // Counters-only trace session so the panels and
    // BENCH_fig13.json carry bottleneck and pJ attribution
    // (observational only; see tests/test_golden_cycles.cc).
    config.trace.enabled = true;
#endif
    config.engine = engineFromEnv(config.engine);
    Neurocube cube(config);
    TrainingOptions opts;
    opts.includeWeightGradient = include_gradient;
    WallTimer timer;
    RunResult run = runTrainingIteration(cube, net, data, input, opts);
    run.wallMs = timer.elapsedMs();
    return run;
}

void
printFigure()
{
    std::printf("\n=== Fig. 13: scene-labeling training (64x64, "
                "data duplication) ===\n");

    RunResult run = runTraining(false);
    printLayerPanels(run,
                     "forward + backward-delta passes (paper model)");
    printEnergyPanel(run, "training iteration");

    PowerModel m28(TechNode::Nm28), m15(TechNode::Nm15);
    std::printf("\ntraining throughput (iterations/s): 28nm %.2f, "
                "15nm %.2f  (paper: 272.52 / 4542.14)\n",
                run.framesPerSecond(m28.throughputClockGhz()),
                run.framesPerSecond(m15.throughputClockGhz()));

    // Duplication overhead (Fig. 13d): training keeps activations
    // resident for the backward pass.
    NetworkDesc net = sceneLabelingNetwork(64, 64);
    MappingPolicy dup;
    uint64_t unique = networkUniqueBytes(net.layers);
    uint64_t extra = networkDuplicationBytes(net.layers, dup, 16);
    std::printf("memory: %.2f MB unique, %.2f MB duplicated "
                "(%.0f%% overhead; paper: 48%%)\n",
                double(unique) / (1 << 20), double(extra) / (1 << 20),
                100.0 * double(extra) / double(unique));

    RunResult full = runTraining(true);
    std::printf("\nablation — full backprop (+weight-gradient "
                "passes): %.1f MOp, %.1f GOPs/s @5GHz\n",
                double(full.totalOps()) / 1e6, full.gopsPerSecond());
    std::printf("paper anchor: 126.8 GOPs/s at the 15nm point\n");

    const std::vector<NamedRun> runs = {{"training", &run},
                                        {"full_backprop", &full}};
    writeBenchJson("BENCH_fig13.json", runs);
    writeBenchHtml("BENCH_fig13.html",
                   "Fig. 13: scene-labeling training", runs);
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
