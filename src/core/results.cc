#include "core/results.hh"

#include <sstream>

#include "common/json.hh"

namespace neurocube
{

namespace
{

void
appendFractions(std::ostringstream &os,
                const std::array<double, numStallClasses> &fractions)
{
    os << "{";
    for (size_t s = 0; s < numStallClasses; ++s) {
        if (s)
            os << ", ";
        os << "\"" << stallClassName(StallClass(s))
           << "\": " << jsonNumber(fractions[s]);
    }
    os << "}";
}

void
appendHistogram(std::ostringstream &os, const char *name,
                const HistogramSummary &h)
{
    os << "\"" << name << "\": {\"count\": " << h.count
       << ", \"mean\": " << jsonNumber(h.mean)
       << ", \"p50\": " << jsonNumber(h.p50)
       << ", \"p99\": " << jsonNumber(h.p99) << ", \"max\": " << h.max
       << "}";
}

void
appendBottleneck(std::ostringstream &os, const BottleneckReport &b)
{
    if (!b.valid) {
        os << "null";
        return;
    }
    os << "{\"label\": \"" << b.label << "\", \"counted_ticks\": "
       << b.countedTicks << ", \"fractions\": ";
    appendFractions(os, b.fractions);

    os << ", \"components\": {";
    // Sim has no per-cycle accounting; report the ticked components.
    static constexpr TraceComponent ticked[] = {
        TraceComponent::Router, TraceComponent::Pe,
        TraceComponent::Png, TraceComponent::Vault};
    bool first = true;
    for (TraceComponent c : ticked) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << traceComponentName(c) << "\": ";
        appendFractions(os, b.componentFractions[size_t(c)]);
    }
    os << "}";

    os << ", \"signals\": {\"pe_busy\": " << jsonNumber(b.peBusy)
       << ", \"pe_stall_cache\": " << jsonNumber(b.peStallCache)
       << ", \"router_blocked\": " << jsonNumber(b.routerBlocked)
       << ", \"png_inject_stall\": " << jsonNumber(b.pngInjectStall)
       << ", \"dram_pressure\": " << jsonNumber(b.dramPressure)
       << ", \"vault_backpressure\": "
       << jsonNumber(b.vaultBackpressure) << "}";

    os << ", \"histograms\": {";
    appendHistogram(os, "noc_latency", b.nocLatency);
    os << ", ";
    appendHistogram(os, "dram_queue_residency", b.dramQueueResidency);
    os << ", ";
    appendHistogram(os, "pe_cache_occupancy", b.peCacheOccupancy);
    os << ", ";
    appendHistogram(os, "png_out_queue_depth", b.pngOutQueueDepth);
    os << "}}";
}

} // namespace

std::string
RunResult::metricsJson() const
{
    std::ostringstream os;
    os << "{\n  \"total_cycles\": " << totalCycles()
       << ",\n  \"total_ops\": " << totalOps()
       << ",\n  \"layers\": [\n";
    for (size_t i = 0; i < layers.size(); ++i) {
        const LayerResult &l = layers[i];
        os << "    {\"name\": " << jsonString(l.name)
           << ", \"cycles\": " << l.cycles << ", \"ops\": " << l.ops
           << ", \"passes\": " << l.passes
           << ", \"lateral_fraction\": "
           << jsonNumber(l.lateralFraction()) << ", \"bottleneck\": ";
        appendBottleneck(os, l.bottleneck);
        os << "}" << (i + 1 < layers.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

namespace
{

void
appendRoofline(std::ostringstream &os, const RooflinePoint &r)
{
    if (!r.valid) {
        os << "null";
        return;
    }
    os << "{\"mac_per_cycle\": " << jsonNumber(r.macPerCycle)
       << ", \"mac_ceiling\": " << jsonNumber(r.macCeiling)
       << ", \"bytes_per_cycle\": " << jsonNumber(r.bytesPerCycle)
       << ", \"bytes_ceiling\": " << jsonNumber(r.bytesCeiling)
       << ", \"intensity\": " << jsonNumber(r.intensity())
       << ", \"bound\": " << jsonString(r.bound) << "}";
}

} // namespace

std::string
RunResult::spatialJson() const
{
    std::ostringstream os;
    os << "{\n  \"aggregate\": "
       << spatialSnapshotJson(spatialTopology, spatialSnapshot(),
                              totalCycles())
       << ",\n  \"layers\": [\n";
    for (size_t i = 0; i < layers.size(); ++i) {
        const LayerResult &l = layers[i];
        os << "    {\"name\": " << jsonString(l.name)
           << ", \"cycles\": " << l.cycles << ", \"roofline\": ";
        appendRoofline(os, l.roofline);
        os << ", \"spatial\": "
           << spatialSnapshotJson(spatialTopology, l.spatial,
                                  l.cycles);
        os << "}" << (i + 1 < layers.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace neurocube
