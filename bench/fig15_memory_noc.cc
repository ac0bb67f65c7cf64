/**
 * @file
 * Reproduces Fig. 15:
 *
 *  (a) HMC-internal vs DDR3: although DDR3 has higher peak bandwidth
 *      per channel (12.8 vs 10 GB/s), its two channels funnel all
 *      operand traffic through two mesh injection points and the NoC
 *      becomes the bottleneck; under equal aggregate bandwidth, more
 *      slower channels win.
 *  (b) 2D mesh vs fully connected NoC: the fully connected topology
 *      removes the lateral-traffic degradation of non-duplicated
 *      fully connected layers (at the cost of 17-port routers).
 */

#include "bench_common.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

NetworkDesc
convWorkload()
{
    unsigned w = quickMode() ? 96 : 160;
    return singleConvNetwork(w, w * 3 / 4, 7, 1);
}

/** Named runs collected for BENCH_fig15.json. */
std::vector<std::pair<std::string, RunResult>> g_runs;

RunResult &
recordRun(const std::string &name, RunResult run)
{
    g_runs.emplace_back(name, std::move(run));
    return g_runs.back().second;
}

RunResult
runMemoryConfig(const DramParams &dram, bool duplicate)
{
    NeurocubeConfig config;
    config.dram = dram;
    config.mapping.duplicateConvHalo = duplicate;
    return runForward(config, convWorkload(), 3);
}

/** A hypothetical memory with the given channel count at fixed
 *  aggregate bandwidth (the paper's "more slower channels" point). */
DramParams
equalBandwidthChannels(unsigned channels, double total_gbps)
{
    DramParams p = DramParams::hmcInternal();
    p.name = std::to_string(channels) + "ch";
    p.numChannels = channels;
    p.peakBandwidthGBps = total_gbps / channels;
    return p;
}

void
printPanelA()
{
    std::printf("\n--- Fig. 15(a): HMC-Int vs DDR3 (7x7 conv layer) "
                "---\n");
    TextTable table({"memory", "channels", "BW/ch (GB/s)",
                     "dup", "GOPs/s@5GHz", "lateral %",
                     "bottleneck"});
    for (bool dup : {true, false}) {
        for (bool ddr : {false, true}) {
            DramParams p = ddr ? DramParams::ddr3()
                               : DramParams::hmcInternal();
            RunResult &run = recordRun(
                p.name + (dup ? "_dup" : "_nodup"),
                runMemoryConfig(p, dup));
            const LayerResult &r = run.layers[0];
            table.addRow({p.name, std::to_string(p.numChannels),
                          formatDouble(p.peakBandwidthGBps, 1),
                          dup ? "yes" : "no",
                          formatDouble(r.gopsPerSecond(), 1),
                          formatDouble(100.0 * r.lateralFraction(),
                                       1),
                          bottleneckCell(r.bottleneck)});
        }
    }
    std::printf("%s", table.str().c_str());

    std::printf("\nequal aggregate bandwidth, varying channel count "
                "(duplication on):\n");
    TextTable sweep({"channels", "BW/ch (GB/s)", "GOPs/s@5GHz",
                     "lateral %", "bottleneck"});
    const double total = 64.0; // GB/s aggregate
    for (unsigned ch : {2u, 4u, 8u, 16u}) {
        DramParams p = equalBandwidthChannels(ch, total);
        RunResult &run =
            recordRun(p.name + "_equal_bw", runMemoryConfig(p, true));
        const LayerResult &r = run.layers[0];
        sweep.addRow({std::to_string(ch),
                      formatDouble(p.peakBandwidthGBps, 1),
                      formatDouble(r.gopsPerSecond(), 1),
                      formatDouble(100.0 * r.lateralFraction(), 1),
                      bottleneckCell(r.bottleneck)});
    }
    std::printf("%s", sweep.str().c_str());
    std::printf("paper shape: DDR3 far below HMC despite higher "
                "per-channel bandwidth; at equal aggregate "
                "bandwidth, more channels -> higher throughput.\n");
}

void
printPanelB()
{
    std::printf("\n--- Fig. 15(b): mesh vs fully connected NoC ---\n");
    TextTable table({"NoC", "layer", "dup", "GOPs/s@5GHz",
                     "lateral %", "bottleneck"});

    unsigned fc_in = quickMode() ? 512 : 1024;
    for (NocTopology topo :
         {NocTopology::Mesh2D, NocTopology::FullyConnected}) {
        const char *name =
            topo == NocTopology::Mesh2D ? "mesh" : "fully-conn";
        // Locally connected layer.
        {
            NeurocubeConfig config;
            config.noc.topology = topo;
            config.mapping.duplicateConvHalo = false;
            RunResult &run = recordRun(
                std::string(name) + "_conv",
                runForward(config, convWorkload(), 5));
            const LayerResult &r = run.layers[0];
            table.addRow({name, "conv 7x7", "no",
                          formatDouble(r.gopsPerSecond(), 1),
                          formatDouble(100.0 * r.lateralFraction(),
                                       1),
                          bottleneckCell(r.bottleneck)});
        }
        // Densely connected layer, partitioned input.
        {
            NeurocubeConfig config;
            config.noc.topology = topo;
            config.mapping.duplicateFcInput = false;
            NetworkDesc net = threeLayerMlp(fc_in, 1024, 16);
            RunResult &run = recordRun(std::string(name) + "_fc",
                                       runForward(config, net, 6));
            const LayerResult &r = run.layers[0];
            table.addRow({name, "fully conn", "no",
                          formatDouble(r.gopsPerSecond(), 1),
                          formatDouble(100.0 * r.lateralFraction(),
                                       1),
                          bottleneckCell(r.bottleneck)});
        }
    }
    std::printf("%s", table.str().c_str());
    std::printf("paper shape: the fully connected NoC holds "
                "throughput flat from locally to fully connected "
                "layers; the mesh degrades on dense lateral "
                "traffic. Cost: 17 I/O channels per router.\n");
}

} // namespace

int
main()
{
    std::printf("\n=== Fig. 15: memory technology and NoC topology "
                "===\n");
    printPanelA();
    printPanelB();
    std::vector<NamedRun> runs;
    for (const auto &r : g_runs)
        runs.emplace_back(r.first, &r.second);
    writeBenchJson("BENCH_fig15.json", runs);
    writeBenchHtml("BENCH_fig15.html",
                   "Fig. 15: memory technology and NoC topology",
                   runs);
    return 0;
}
