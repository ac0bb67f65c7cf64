/**
 * @file
 * The paper's flagship workload end to end: the 7-layer scene-
 * labeling ConvNN (Fig. 9) running on the Neurocube.
 *
 * Runs inference on a synthetic image, prints the per-layer
 * programming parameters (the Fig. 9 table) and performance, then a
 * training iteration on a 64x64 input (the Fig. 13 setup). Pass a
 * width and height to change the input size, e.g.:
 *
 *   scene_labeling 160 120
 */

#include <cstdio>
#include <cstdlib>

#include "common/stats.hh"
#include "core/neurocube.hh"
#include "core/training.hh"
#include "nn/reference.hh"
#include "power/power_model.hh"

using namespace neurocube;

namespace
{

void
printProgrammingParameters(const NetworkDesc &net)
{
    std::printf("\nprogramming parameters per layer (Fig. 9):\n");
    TextTable table({"layer", "type", "output", "# neurons",
                     "# connections", "out planes", "activation"});
    for (const LayerDesc &l : net.layers) {
        table.addRow(
            {l.name, layerTypeName(l.type),
             std::to_string(l.outWidth()) + "x"
                 + std::to_string(l.outHeight()) + "x"
                 + std::to_string(l.outPlanes()),
             formatCount(l.neuronsPerMap()),
             formatCount(l.connectionsPerNeuron()),
             std::to_string(l.outPlanes()),
             activationName(l.activation)});
    }
    std::printf("%s", table.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned width = argc > 1 ? unsigned(std::atoi(argv[1])) : 160;
    unsigned height = argc > 2 ? unsigned(std::atoi(argv[2])) : 120;

    NetworkDesc net = sceneLabelingNetwork(width, height);
    printProgrammingParameters(net);

    NetworkData data = NetworkData::randomized(net, 11);
    Tensor image(3, height, width);
    Rng rng(12);
    image.randomize(rng);

    // --- Inference.
    NeurocubeConfig config;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(image);

    std::printf("\ninference on a %ux%u image:\n", width, height);
    RunResult run = cube.runForward();
    TextTable table({"layer", "ops (M)", "cycles (K)",
                     "GOPs/s@5GHz"});
    for (const LayerResult &l : run.layers) {
        table.addRow({l.name, formatDouble(double(l.ops) / 1e6, 2),
                      formatDouble(double(l.cycles) / 1e3, 1),
                      formatDouble(l.gopsPerSecond(), 1)});
    }
    std::printf("%s", table.str().c_str());

    PowerModel m15(TechNode::Nm15);
    std::printf("total: %.1f GOPs/s @5GHz, %.1f frames/s (15nm), "
                "compute power %.2f W -> %.1f GOPs/s/W\n",
                run.gopsPerSecond(),
                run.framesPerSecond(m15.throughputClockGhz()),
                m15.computePowerW(),
                m15.efficiencyGopsPerWatt(run.gopsPerSecond()));

    // --- Verify the machine against the sequential reference.
    auto expect = referenceForward(net, data, image);
    size_t mismatches = 0;
    const Tensor &out = cube.layerOutput(net.layers.size() - 1);
    const Tensor &ref = expect.back();
    for (unsigned m = 0; m < out.maps(); ++m)
        for (unsigned y = 0; y < out.height(); ++y)
            for (unsigned x = 0; x < out.width(); ++x)
                if (!(out.at(m, y, x) == ref.at(m, y, x)))
                    ++mismatches;
    std::printf("bit-exact check vs reference: %zu mismatches (%s)\n",
                mismatches, mismatches == 0 ? "PASS" : "FAIL");

    // --- Training iteration (Fig. 13 setup: 64x64).
    std::printf("\ntraining iteration on a 64x64 input:\n");
    NetworkDesc train_net = sceneLabelingNetwork(64, 64);
    NetworkData train_data = NetworkData::randomized(train_net, 13);
    Tensor sample(3, 64, 64);
    sample.randomize(rng);
    Neurocube trainer(config);
    RunResult titer =
        runTrainingIteration(trainer, train_net, train_data, sample);
    std::printf("passes: %zu (forward + backward-delta), %.1f MOp, "
                "%.1f GOPs/s @5GHz, %.1f iterations/s (15nm)\n",
                titer.layers.size(),
                double(titer.totalOps()) / 1e6, titer.gopsPerSecond(),
                titer.framesPerSecond(m15.throughputClockGhz()));

    return mismatches == 0 ? 0 : 1;
}
