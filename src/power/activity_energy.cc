#include "power/activity_energy.hh"

#include <sstream>

#include "common/json.hh"
#include "common/types.hh"
#include "core/manifest.hh"
#include "power/energy_model.hh"

namespace neurocube
{

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &other)
{
    macJ += other.macJ;
    sramJ += other.sramJ;
    buffersJ += other.buffersJ;
    nocJ += other.nocJ;
    pngJ += other.pngJ;
    vaultLogicJ += other.vaultLogicJ;
    dramJ += other.dramJ;
    return *this;
}

std::array<EnergyComponentView, 7>
energyComponents(const EnergyBreakdown &b)
{
    return {{
        {"mac", b.macJ},
        {"sram", b.sramJ},
        {"buffers", b.buffersJ},
        {"noc", b.nocJ},
        {"png", b.pngJ},
        {"vault_logic", b.vaultLogicJ},
        {"dram", b.dramJ},
    }};
}

namespace
{

/**
 * A block's energy per event: its Table II dynamic power divided by
 * its clock. Table II reports power at full activity — one event per
 * cycle — so P/f is exactly the per-event switching energy.
 */
double
pjPerEvent(const BlockPower &block)
{
    return block.freqMhz > 0.0
        ? block.dynamicPowerW / (block.freqMhz * 1e6) * 1e12
        : 0.0;
}

/** Fraction of a router flit's energy spent in the crossbar; the
 *  remainder drives the inter-router link. */
constexpr double routerHopFraction = 0.7;

/** Bits in a vault command/address word (the 32-bit HMC word). */
constexpr double vaultXactBits = 32.0;

/**
 * Leakage as a fraction of the synthesized dynamic compute power.
 * Table II reports dynamic power only; these fractions model the
 * technology gap — planar 28 nm HKMG leaks roughly a tenth of its
 * dynamic power, while the 15 nm FinFET node cuts that in half.
 */
double
leakageFraction(TechNode node)
{
    return node == TechNode::Nm28 ? 0.10 : 0.05;
}

} // namespace

ActivityEnergyModel::ActivityEnergyModel(const PowerModel &model)
    : node_(model.node())
{
    for (const BlockPower &block : model.blocks()) {
        double pj = pjPerEvent(block);
        if (block.name.rfind("MAC", 0) == 0) {
            prices_.macOpPj = pj;
        } else if (block.name.rfind("SRAM", 0) == 0) {
            prices_.cacheAccessPj = pj;
        } else if (block.name.rfind("Temporal", 0) == 0) {
            prices_.bufferAccessPj = pj;
        } else if (block.name.rfind("PMC", 0) == 0) {
            prices_.pngOpPj = pj;
        } else if (block.name.rfind("Weight", 0) == 0) {
            prices_.weightRegPj = pj;
        } else if (block.name.rfind("Router", 0) == 0) {
            prices_.nocHopPj = routerHopFraction * pj;
            prices_.nocLinkPj = (1.0 - routerHopFraction) * pj;
        }
    }
    prices_.vaultLogicPjPerBit = model.logicDiePjPerBit();
    prices_.vaultXactPj = prices_.vaultLogicPjPerBit * vaultXactBits;
    prices_.dramPjPerBit = PowerModel::dramPjPerBit();
    staticPowerW_ = leakageFraction(node_) * model.computePowerW();
}

double
ActivityEnergyModel::staticEnergyJ(Tick cycles) const
{
    return staticPowerW_ * double(cycles) / referenceClockHz;
}

EnergyBreakdown
ActivityEnergyModel::price(const EnergyCounts &counts) const
{
    auto joules = [&counts](EnergyEventKind kind, double pj) {
        return double(counts[kind]) * pj * 1e-12;
    };
    EnergyBreakdown out;
    out.macJ = joules(EnergyEventKind::MacOp, prices_.macOpPj);
    out.sramJ = joules(EnergyEventKind::CacheRead,
                       prices_.cacheAccessPj)
              + joules(EnergyEventKind::CacheWrite,
                       prices_.cacheAccessPj);
    out.buffersJ = joules(EnergyEventKind::BufferAccess,
                          prices_.bufferAccessPj)
                 + joules(EnergyEventKind::WeightRegRead,
                          prices_.weightRegPj);
    out.nocJ = joules(EnergyEventKind::NocHop, prices_.nocHopPj)
             + joules(EnergyEventKind::NocLink, prices_.nocLinkPj);
    out.pngJ = joules(EnergyEventKind::PngOp, prices_.pngOpPj);
    out.vaultLogicJ = joules(EnergyEventKind::VaultXact,
                             prices_.vaultXactPj)
                    + joules(EnergyEventKind::DramBit,
                             prices_.vaultLogicPjPerBit);
    out.dramJ = joules(EnergyEventKind::DramBit, prices_.dramPjPerBit);
    return out;
}

EnergyBreakdown
ActivityEnergyModel::price(const RunResult &run) const
{
    EnergyBreakdown total;
    for (const LayerResult &layer : run.layers)
        total += price(layer.energy);
    return total;
}

EnergyComparison
compareWithAnalytic(const RunResult &run, const PowerModel &model)
{
    EnergyComparison cmp;
    ActivityEnergyModel activity(model);
    cmp.activity = activity.price(run);
    cmp.activityJ = cmp.activity.totalJ();
    EnergyReport analytic =
        accountEnergy(run, model, PowerModel::dramPjPerBit());
    cmp.analyticJ = analytic.totalJ();
    cmp.analyticDramJ = analytic.dramJ;
    cmp.ratio = cmp.analyticJ > 0.0 ? cmp.activityJ / cmp.analyticJ
                                    : 0.0;
    return cmp;
}

namespace
{

void
appendComponents(std::ostringstream &os, const EnergyBreakdown &b)
{
    os << "{";
    bool first = true;
    for (const EnergyComponentView &c : energyComponents(b)) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << c.name << "\":" << jsonNumber(c.joules);
    }
    os << "}";
}

void
appendCounts(std::ostringstream &os, const EnergyCounts &counts)
{
    os << "{";
    for (size_t k = 0; k < numEnergyEventKinds; ++k) {
        if (k)
            os << ",";
        os << "\"" << energyEventKindName(EnergyEventKind(k))
           << "\":" << counts.n[k];
    }
    os << "}";
}

} // namespace

std::string
RunResult::energyJson() const
{
    ActivityEnergyModel model;
    EnergyBreakdown total = model.price(*this);
    EnergyCounts counts = energyCounts();
    double seconds = double(totalCycles()) / referenceClockHz;
    double totalJ = total.totalJ();

    std::ostringstream os;
    os << "{\"model\":\"activity\",\"node\":\""
       << techNodeName(model.node()) << "\"";
    os << ",\"valid\":" << (counts.valid ? "true" : "false");
    os << ",\"total_j\":" << jsonNumber(totalJ);
    os << ",\"avg_power_w\":"
       << jsonNumber(seconds > 0.0 ? totalJ / seconds : 0.0);
    os << ",\"gops_per_watt\":"
       << jsonNumber(totalJ > 0.0 ? double(totalOps()) / 1e9 / totalJ
                                  : 0.0);
    // Leakage is reported beside the dynamic totals, never folded
    // into total_j (the activity/analytic ratio tests pin total_j to
    // the dynamic accounting).
    os << ",\"dynamic_j\":" << jsonNumber(totalJ);
    os << ",\"static_j\":"
       << jsonNumber(model.staticEnergyJ(totalCycles()));
    os << ",\"static_power_w\":" << jsonNumber(model.staticPowerW());
    os << ",\"components\":";
    appendComponents(os, total);
    os << ",\"layers\":[";
    for (size_t i = 0; i < layers.size(); ++i) {
        const LayerResult &layer = layers[i];
        EnergyBreakdown lb = model.price(layer.energy);
        if (i)
            os << ",";
        os << "{\"name\":" << jsonString(layer.name);
        os << ",\"total_j\":" << jsonNumber(lb.totalJ());
        os << ",\"components\":";
        appendComponents(os, lb);
        os << ",\"counts\":";
        appendCounts(os, layer.energy);
        os << "}";
    }
    os << "]}";
    return os.str();
}

namespace
{

/**
 * Aggregate stall accounting over a run: absolute component-ticks per
 * stall class, reconstructed from the per-layer bottleneck fractions
 * (each layer's fractions are exact ratios of its countedTicks, so
 * the round-trip loses at most one tick per layer per class).
 */
struct StallTicks
{
    bool valid = false;
    uint64_t countedTicks = 0;
    std::array<uint64_t, numStallClasses> ticks{};
};

StallTicks
aggregateStalls(const RunResult &run)
{
    StallTicks agg;
    for (const LayerResult &layer : run.layers) {
        const BottleneckReport &b = layer.bottleneck;
        if (!b.valid)
            continue;
        agg.valid = true;
        agg.countedTicks += b.countedTicks;
        for (size_t i = 0; i < numStallClasses; ++i) {
            agg.ticks[i] += uint64_t(
                b.fractions[i] * double(b.countedTicks) + 0.5);
        }
    }
    return agg;
}

void
appendManifestFields(std::ostringstream &os, const RunManifest &m)
{
    os << "\"name\":" << jsonString(m.name);
    os << ",\"git_describe\":" << jsonString(m.gitDescribe);
    os << ",\"engine\":" << jsonString(m.engine);
    os << ",\"config_hash\":" << jsonString(m.configHash);
    os << ",\"quick\":" << (m.quick ? "true" : "false");
}

/** The {run=...} label block shared by every metric line. */
std::string
promLabels(const RunManifest &m)
{
    return "{run=\"" + m.name + "\"}";
}

} // namespace

std::string
runManifestJson(const RunManifest &manifest, const RunResult &run)
{
    std::ostringstream os;
    os << "{";
    appendManifestFields(os, manifest);
    os << ",\"cycles\":" << run.totalCycles();
    os << ",\"ops\":" << run.totalOps();
    os << ",\"layers\":" << run.layers.size();
    os << ",\"peak_memory_bytes\":" << run.peakMemoryBytes();
    os << ",\"gops_per_second\":" << jsonNumber(run.gopsPerSecond());
    os << ",\"frames_per_second\":"
       << jsonNumber(run.framesPerSecond());
    os << ",\"wall_ms\":" << jsonNumber(run.wallMs);

    StallTicks stalls = aggregateStalls(run);
    if (stalls.valid) {
        os << ",\"stalls\":{\"counted_ticks\":" << stalls.countedTicks;
        for (size_t i = 0; i < numStallClasses; ++i) {
            os << ",\"" << stallClassName(StallClass(i))
               << "\":" << stalls.ticks[i];
        }
        os << "}";
    } else {
        os << ",\"stalls\":null";
    }

    EnergyCounts counts = run.energyCounts();
    if (counts.valid) {
        ActivityEnergyModel model;
        EnergyBreakdown total = model.price(run);
        double seconds = double(run.totalCycles()) / referenceClockHz;
        double totalJ = total.totalJ();
        os << ",\"energy\":{\"total_j\":" << jsonNumber(totalJ);
        os << ",\"avg_power_w\":"
           << jsonNumber(seconds > 0.0 ? totalJ / seconds : 0.0);
        os << ",\"dynamic_j\":" << jsonNumber(totalJ);
        os << ",\"static_j\":"
           << jsonNumber(model.staticEnergyJ(run.totalCycles()));
        os << ",\"static_power_w\":"
           << jsonNumber(model.staticPowerW());
        os << ",\"components\":";
        appendComponents(os, total);
        os << "}";
    } else {
        os << ",\"energy\":null";
    }
    os << "}";
    return os.str();
}

std::string
runMetricsTextfile(const RunManifest &manifest, const RunResult &run)
{
    const std::string labels = promLabels(manifest);
    std::ostringstream os;
    // Build/config identity rides on an info-style gauge so scrapes
    // can join metrics to the manifest without parsing JSON.
    os << "# TYPE neurocube_run_info gauge\n";
    os << "neurocube_run_info{run=\"" << manifest.name
       << "\",engine=\"" << manifest.engine << "\",git=\""
       << manifest.gitDescribe << "\",config=\""
       << manifest.configHash << "\",quick=\""
       << (manifest.quick ? "1" : "0") << "\"} 1\n";

    os << "# TYPE neurocube_total_cycles gauge\n";
    os << "neurocube_total_cycles" << labels << " "
       << run.totalCycles() << "\n";
    os << "# TYPE neurocube_total_ops gauge\n";
    os << "neurocube_total_ops" << labels << " " << run.totalOps()
       << "\n";
    os << "# TYPE neurocube_wall_ms gauge\n";
    os << "neurocube_wall_ms" << labels << " "
       << jsonNumber(run.wallMs) << "\n";
    os << "# TYPE neurocube_gops_per_second gauge\n";
    os << "neurocube_gops_per_second" << labels << " "
       << jsonNumber(run.gopsPerSecond()) << "\n";
    os << "# TYPE neurocube_peak_memory_bytes gauge\n";
    os << "neurocube_peak_memory_bytes" << labels << " "
       << run.peakMemoryBytes() << "\n";

    StallTicks stalls = aggregateStalls(run);
    if (stalls.valid) {
        os << "# TYPE neurocube_stall_ticks gauge\n";
        for (size_t i = 0; i < numStallClasses; ++i) {
            os << "neurocube_stall_ticks{run=\"" << manifest.name
               << "\",class=\"" << stallClassName(StallClass(i))
               << "\"} " << stalls.ticks[i] << "\n";
        }
    }

    EnergyCounts counts = run.energyCounts();
    if (counts.valid) {
        ActivityEnergyModel model;
        EnergyBreakdown total = model.price(run);
        os << "# TYPE neurocube_energy_total_joules gauge\n";
        os << "neurocube_energy_total_joules" << labels << " "
           << jsonNumber(total.totalJ()) << "\n";
        os << "# TYPE neurocube_energy_joules gauge\n";
        for (const EnergyComponentView &c : energyComponents(total)) {
            os << "neurocube_energy_joules{run=\"" << manifest.name
               << "\",component=\"" << c.name << "\"} "
               << jsonNumber(c.joules) << "\n";
        }
    }
    return os.str();
}

} // namespace neurocube
