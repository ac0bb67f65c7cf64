/**
 * @file
 * Quickstart: build a tiny convolutional network, run it on the
 * Neurocube cycle-level simulator, and check the machine's output
 * against the sequential reference model.
 *
 * Usage: quickstart
 */

#include <cstdio>

#include "core/neurocube.hh"
#include "nn/reference.hh"

using namespace neurocube;

int
main()
{
    // 1. Describe a small network: one 3x3 convolution producing 4
    // feature maps from a 2-map 20x16 input, tanh activation.
    NetworkDesc net;
    net.name = "quickstart";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 20;
    conv.inHeight = 16;
    conv.inMaps = 2;
    conv.outMaps = 4;
    conv.kernel = 3;
    conv.channelwise = true;
    conv.activation = ActivationKind::Tanh;
    net.layers.push_back(conv);
    net.validate();

    // 2. Random parameters and a random input image, all in the
    // machine's Q1.7.8 fixed point.
    NetworkData data = NetworkData::randomized(net, /*seed=*/42);
    Tensor input(net.inputMaps(), net.inputHeight(), net.inputWidth());
    Rng rng(7);
    input.randomize(rng);

    // 3. Instantiate the default machine: 16 HMC vaults, one 16-MAC
    // PE per vault, 4x4 mesh NoC, data duplication on.
    NeurocubeConfig config;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);

    // 4. Execute. The host programs the PNGs once for the layer and
    // it runs fully data-driven.
    RunResult run = cube.runForward();
    const LayerResult &layer = run.layers[0];

    std::printf("layer %-6s  ops %-10llu cycles %-8llu "
                "throughput %.1f GOPs/s @5GHz\n",
                layer.name.c_str(),
                (unsigned long long)layer.ops,
                (unsigned long long)layer.cycles,
                layer.gopsPerSecond());
    std::printf("NoC: %llu local packets, %llu lateral (%.1f%%)\n",
                (unsigned long long)layer.localPackets,
                (unsigned long long)layer.lateralPackets,
                100.0 * layer.lateralFraction());

    // 5. Verify against the sequential fixed-point reference.
    auto expect = referenceForward(net, data, input);
    const Tensor &got = cube.layerOutput(0);
    unsigned mismatches = 0;
    for (unsigned m = 0; m < got.maps(); ++m)
        for (unsigned y = 0; y < got.height(); ++y)
            for (unsigned x = 0; x < got.width(); ++x)
                if (!(got.at(m, y, x) == expect[0].at(m, y, x)))
                    ++mismatches;

    std::printf("verification: %u mismatching elements (%s)\n",
                mismatches, mismatches == 0 ? "PASS" : "FAIL");
    return mismatches == 0 ? 0 : 1;
}
