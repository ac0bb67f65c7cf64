/**
 * @file
 * Ablation benches for the microarchitectural design choices called
 * out in DESIGN.md (beyond the paper's own figures):
 *
 *  - DRAM burst gap (tCCD) sensitivity: the gap between 8-word
 *    bursts is the first-order throughput knob of the vault model;
 *  - router buffer depth: the paper fixes 16-deep FIFOs;
 *  - PE-weight-memory mode (Section III-B2): streaming only states
 *    halves operand traffic for shared-kernel layers;
 *  - host configuration cost per pass.
 */

#include "bench_common.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

NetworkDesc
workload()
{
    unsigned w = quickMode() ? 96 : 160;
    return singleConvNetwork(w, w * 3 / 4, 7, 2);
}

LayerResult
runConfig(const NeurocubeConfig &config)
{
    RunResult run = runForward(config, workload(), 7);
    LayerResult total = run.layers[0];
    for (size_t i = 1; i < run.layers.size(); ++i) {
        total.ops += run.layers[i].ops;
        total.cycles += run.layers[i].cycles;
    }
    return total;
}

void
printAblations()
{
    std::printf("\n=== Ablations: microarchitectural design choices "
                "===\n");

    std::printf("\n--- DRAM burst gap (tCCD) ---\n");
    {
        TextTable table({"tCCD (ticks)", "GOPs/s@5GHz",
                         "efficiency vs 160 GOPs/s peak"});
        for (Tick gap : {Tick(0), Tick(1), Tick(2), Tick(4)}) {
            NeurocubeConfig config;
            config.dram.burstGapTicks = gap;
            LayerResult r = runConfig(config);
            table.addRow({std::to_string(gap),
                          formatDouble(r.gopsPerSecond(), 1),
                          formatDouble(r.gopsPerSecond() / 160.0, 3)});
        }
        std::printf("%s", table.str().c_str());
    }

    std::printf("\n--- router buffer depth (paper: 16) ---\n");
    {
        TextTable table({"depth", "GOPs/s@5GHz"});
        for (unsigned depth : {2u, 4u, 8u, 16u, 32u}) {
            NeurocubeConfig config;
            config.noc.bufferDepth = depth;
            config.mapping.duplicateConvHalo = false; // stress NoC
            LayerResult r = runConfig(config);
            table.addRow({std::to_string(depth),
                          formatDouble(r.gopsPerSecond(), 1)});
        }
        std::printf("%s", table.str().c_str());
    }

    std::printf("\n--- PE weight memory (Section III-B2) ---\n");
    {
        TextTable table({"weights", "GOPs/s@5GHz", "DRAM bits"});
        for (bool local : {false, true}) {
            NeurocubeConfig config;
            config.mapping.weightsInPeMemory = local;
            LayerResult r = runConfig(config);
            table.addRow({local ? "PE memory (stream states only)"
                                : "streamed from DRAM",
                          formatDouble(r.gopsPerSecond(), 1),
                          formatCount(r.dramBits)});
        }
        std::printf("%s", table.str().c_str());
        std::printf("streaming only states halves DRAM traffic and "
                    "nearly doubles shared-kernel throughput.\n");
    }

    std::printf("\n--- host configuration cost per pass ---\n");
    {
        TextTable table({"config ticks/pass", "GOPs/s@5GHz"});
        for (Tick cost : {Tick(0), Tick(64), Tick(512), Tick(4096)}) {
            NeurocubeConfig config;
            config.configTicksPerPass = cost;
            LayerResult r = runConfig(config);
            table.addRow({std::to_string(cost),
                          formatDouble(r.gopsPerSecond(), 1)});
        }
        std::printf("%s", table.str().c_str());
    }
}

} // namespace

int
main()
{
    printAblations();
    return 0;
}
