#include "core/analytic_model.hh"

#include <algorithm>
#include <cmath>

#include "nn/mapping.hh"

namespace neurocube
{

AnalyticEstimate
analyticLayerEstimate(const LayerDesc &layer,
                      const NeurocubeConfig &config)
{
    AnalyticEstimate est;

    const DramParams &dram = config.dram;
    const unsigned channels = dram.numChannels;
    const unsigned pes = config.numPes;
    const bool fc = layer.type == LayerType::FullyConnected;

    uint64_t neurons = layer.neuronsPerMap();
    uint64_t conns = layer.connectionsPerNeuron();
    unsigned planes = layer.outPlanes();
    uint64_t pairs = neurons * conns * planes;
    est.ops = 2 * pairs;

    // --- Lateral-traffic fraction from the mapping policy.
    bool duplicate = fc ? config.mapping.duplicateFcInput
                        : config.mapping.duplicateConvHalo;
    if (fc) {
        est.lateralFraction =
            duplicate ? 0.0 : double(channels - 1) / channels;
    } else if (duplicate) {
        est.lateralFraction = 0.0;
    }
    double nodup_imbalance = 1.0;
    if (!fc && !duplicate) {
        // Receptive fields within (kernel-1) of a tile boundary pull
        // roughly half their operands from a neighbouring vault.
        unsigned gw, gh;
        Rect out_rect{0, 0, int32_t(layer.outWidth()),
                      int32_t(layer.outHeight())};
        tileGridShape(channels, out_rect, gw, gh);
        double tw = double(layer.outWidth()) / gw;
        double th = double(layer.outHeight()) / gh;
        double k = double(layer.kernel) - 1.0;
        double inner = std::max(0.0, tw - k) * std::max(0.0, th - k);
        double band = 1.0 - inner / (tw * th);
        est.lateralFraction = 0.5 * band;
        // A vault also generates operands for the neighbouring
        // outputs whose receptive fields reach into its tile; its
        // walk extends to (tw+k)(th+k) outputs, and the widest such
        // vault bounds the pass.
        nodup_imbalance = (tw + k) * (th + k) / (tw * th);
    }
    // Channels sparser than PEs force operands across the mesh even
    // with duplication (the DDR3 configuration).
    if (channels < pes) {
        est.lateralFraction =
            std::max(est.lateralFraction,
                     double(pes - channels) / pes);
    }

    // --- DRAM streaming bound.
    double elems_per_pair =
        config.mapping.weightsInPeMemory && !fc ? 1.0 : 2.0;
    double elems_per_channel =
        double(pairs) * elems_per_pair / channels;
    // Write-backs share the channel.
    elems_per_channel += double(neurons) * planes / channels;
    double words = elems_per_channel / dram.elementsPerWord();
    double burst_factor =
        double(dram.burstLength + dram.burstGapTicks)
        / dram.burstLength;
    double imbalance = 1.06 * nodup_imbalance;
    double dram_cycles =
        words * burst_factor / dram.wordsPerTick() * imbalance;

    // --- NoC bounds.
    double packets = double(pairs) * elems_per_pair
                   + double(neurons) * planes;
    // Ejection at the hottest PE port (width localPortWidth).
    double eject_cycles = packets / pes / config.noc.localPortWidth
                        * imbalance;
    // Mesh bisection for lateral traffic.
    double noc_cycles = 0.0;
    if (est.lateralFraction > 0.0
        && config.noc.topology == NocTopology::Mesh2D) {
        unsigned mesh_w =
            unsigned(std::lround(std::sqrt(double(pes))));
        double bisection = 2.0 * mesh_w * config.noc.linkWidth;
        noc_cycles = packets * est.lateralFraction / bisection;
    }

    // --- MAC execution bound: each PE retires one 16-wide MAC
    // operation per macsPerPe ticks, i.e. one operand pair per tick.
    double mac_cycles = double(pairs) / pes * imbalance;

    // --- Fill/drain + configuration overhead, charged per output
    // plane.
    double per_plane = double(config.configTicksPerPass)
                     + double(dram.activateTicks()) + 80.0;

    double bound = std::max(
        {dram_cycles, eject_cycles, noc_cycles, mac_cycles});
    est.dramCycles = dram_cycles;
    est.ejectCycles = eject_cycles;
    est.nocCycles = noc_cycles;
    est.macCycles = mac_cycles;
    est.cycles = Tick(bound + per_plane * planes);
    return est;
}

RooflineCeilings
rooflineCeilings(const NeurocubeConfig &config)
{
    const DramParams &dram = config.dram;
    RooflineCeilings roof;
    roof.macsPerCycle = double(config.numPes);
    double burst_factor =
        double(dram.burstLength + dram.burstGapTicks)
        / dram.burstLength;
    roof.dramBytesPerCycle = double(dram.numChannels)
                           * dram.wordsPerTick()
                           * dram.elementsPerWord() * bytesPerElement
                           / burst_factor;
    return roof;
}

} // namespace neurocube
