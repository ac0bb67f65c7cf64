/**
 * @file
 * Reproduces Fig. 14: effect of neural-network parameters on
 * throughput and memory.
 *
 *  (a) 2D convolutional layer, kernel-size sweep, WITHOUT input
 *      duplication: larger kernels raise lateral NoC traffic and
 *      throughput falls.
 *  (b) Same sweep WITH duplication: throughput flat, but the
 *      duplicated-halo memory overhead grows with the kernel.
 *  (c) 3-layer fully connected network, hidden-layer sweep, WITHOUT
 *      input duplication: lateral traffic is high (~71% in the
 *      paper) but constant, so throughput is flat (and low).
 *  (d) Same sweep WITH duplication: full throughput; the duplicated
 *      input becomes a shrinking fraction of memory as the weight
 *      matrix grows.
 */

#include "bench_common.hh"
#include "core/analytic_model.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

unsigned
convImageEdge()
{
    return quickMode() ? 96 : 160;
}

LayerResult
runConv(unsigned kernel, bool duplicate)
{
    unsigned w = convImageEdge();
    unsigned h = w * 3 / 4;
    NetworkDesc net = singleConvNetwork(w, h, kernel, 1);
    NeurocubeConfig config;
    config.mapping.duplicateConvHalo = duplicate;
    RunResult run = runForward(config, net, kernel);
    return run.layers[0];
}

LayerResult
runFc(unsigned hidden, bool duplicate)
{
    unsigned input = quickMode() ? 512 : 1024;
    NetworkDesc net = threeLayerMlp(input, hidden, 16);
    NeurocubeConfig config;
    config.mapping.duplicateFcInput = duplicate;
    RunResult run = runForward(config, net, hidden);
    // The hidden layer dominates; report it (the paper sweeps the
    // hidden width).
    return run.layers[0];
}

void
printConvPanel(bool duplicate)
{
    std::printf("\n--- Fig. 14(%c): conv kernel sweep %s duplication "
                "---\n",
                duplicate ? 'b' : 'a', duplicate ? "WITH" : "WITHOUT");
    TextTable table({"kernel", "GOPs/s@5GHz", "lateral %",
                     "memory (MB)", "dup overhead (MB)"});
    for (unsigned k : {3u, 5u, 7u, 9u, 11u}) {
        LayerResult r = runConv(k, duplicate);
        table.addRow(
            {std::to_string(k) + "x" + std::to_string(k),
             formatDouble(r.gopsPerSecond(), 1),
             formatDouble(100.0 * r.lateralFraction(), 1),
             formatDouble(double(r.memoryBytes) / (1 << 20), 2),
             formatDouble(double(r.duplicationBytes) / (1 << 20),
                          3)});
    }
    std::printf("%s", table.str().c_str());
}

void
printFcPanel(bool duplicate)
{
    std::printf("\n--- Fig. 14(%c): FC hidden-layer sweep %s input "
                "duplication ---\n",
                duplicate ? 'd' : 'c', duplicate ? "WITH" : "WITHOUT");
    TextTable table({"hidden", "GOPs/s@5GHz", "lateral %",
                     "memory (MB)", "dup overhead %"});
    std::vector<unsigned> sweep =
        quickMode() ? std::vector<unsigned>{256, 1024}
                    : std::vector<unsigned>{256, 512, 1024, 2048,
                                            4096};
    for (unsigned hidden : sweep) {
        LayerResult r = runFc(hidden, duplicate);
        double overhead = r.memoryBytes
            ? 100.0 * double(r.duplicationBytes)
                  / double(r.memoryBytes)
            : 0.0;
        table.addRow({std::to_string(hidden),
                      formatDouble(r.gopsPerSecond(), 1),
                      formatDouble(100.0 * r.lateralFraction(), 1),
                      formatDouble(double(r.memoryBytes) / (1 << 20),
                                   2),
                      formatDouble(overhead, 1)});
    }
    std::printf("%s", table.str().c_str());
}

void
printFigure()
{
    std::printf("\n=== Fig. 14: effect of NN parameters (conv image "
                "%ux%u) ===\n",
                convImageEdge(), convImageEdge() * 3 / 4);
    printConvPanel(false);
    printConvPanel(true);
    printFcPanel(false);
    printFcPanel(true);
    std::printf("\npaper shape: (a) throughput falls with kernel "
                "size; (b) flat throughput, halo memory grows; (c) "
                "flat-but-degraded throughput, ~71%% lateral; (d) "
                "flat full throughput, overhead fraction shrinks.\n");
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
