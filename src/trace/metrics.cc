#include "trace/metrics.hh"

#include <algorithm>

namespace neurocube
{

const char *
stallClassName(StallClass cls)
{
    switch (cls) {
      case StallClass::Busy:
        return "busy";
      case StallClass::Idle:
        return "idle";
      case StallClass::StallDram:
        return "stall_dram";
      case StallClass::StallNocCredit:
        return "stall_noc_credit";
      case StallClass::StallInject:
        return "stall_inject";
      case StallClass::StallCache:
        return "stall_cache";
      case StallClass::StallClassCount:
        break;
    }
    return "?";
}

uint64_t
MetricsSnapshot::total(Counter counter) const
{
    uint64_t sum = 0;
    for (unsigned i = 0; i < instances(counter); ++i)
        sum += at(counter, i);
    return sum;
}

StallBreakdown
MetricsSnapshot::stalls(TraceComponent component,
                        unsigned instance) const
{
    StallBreakdown b;
    for (size_t s = 0; s < numStallClasses; ++s)
        b.ticks[s] = at(Counter::stall(component, StallClass(s)),
                        instance);
    return b;
}

MetricsSnapshot
MetricsSnapshot::delta(const MetricsSnapshot &before) const
{
    MetricsSnapshot d = *this;
    for (size_t i = 0; i < before.slots.size() && i < d.slots.size();
         ++i)
        d.slots[i] -= before.slots[i];
    return d;
}

EnergyCounts
MetricsSnapshot::energyCounts() const
{
    EnergyCounts counts;
    counts.valid = instances(EnergyEventKind::MacOp) > 0;
    for (size_t k = 0; k < numEnergyEventKinds; ++k)
        counts.n[k] = total(EnergyEventKind(k));
    return counts;
}

SpatialSnapshot
MetricsSnapshot::spatialCounts() const
{
    auto of = [this](SpatialCounter counter) {
        std::vector<uint64_t> v(instances(counter));
        for (unsigned i = 0; i < v.size(); ++i)
            v[i] = at(counter, i);
        return v;
    };
    SpatialSnapshot s;
    s.linkFlits = of(SpatialCounter::LinkFlit);
    s.linkStalls = of(SpatialCounter::LinkStall);
    s.linkOccupancy = of(SpatialCounter::LinkOccupancy);
    s.vaultBytes = of(SpatialCounter::VaultByte);
    s.vaultQueueTicks = of(SpatialCounter::VaultQueue);
    s.peMacOps = of(SpatialCounter::PeMac);
    s.nodeLateral = of(SpatialCounter::NodeLateral);
    s.nodeLocal = of(SpatialCounter::NodeLocal);
    return s;
}

void
MetricsRegistry::configure(unsigned nodes, unsigned pes,
                           unsigned vaults,
                           std::vector<uint16_t> vault_node)
{
    topology_.numNodes = nodes;
    topology_.numPes = pes;
    topology_.numVaults = vaults;
    topology_.vaultNode = std::move(vault_node);
    layOut();
}

void
MetricsRegistry::configureLinks(unsigned mesh_width,
                                std::vector<SpatialLink> links)
{
    topology_.meshWidth = mesh_width;
    topology_.links = std::move(links);
    layOut();
}

void
MetricsRegistry::layOut()
{
    // Counters that share an instance space sit together, instance-
    // major: one component instance's stall classes, or one node's
    // energy kinds, are adjacent slots. Each instance block is padded
    // to whole cache lines, so two instances never share one.
    const unsigned nodes = topology_.numNodes;
    const unsigned pes = topology_.numPes;
    const unsigned vaults = topology_.numVaults;
    constexpr unsigned line = cacheLineBytes / sizeof(uint64_t);
    uint32_t next = 0;
    auto group = [&](Counter first, unsigned counters,
                     InstanceSpace space, unsigned count) {
        const unsigned stride = (counters + line - 1) / line * line;
        for (unsigned k = 0; k < counters; ++k) {
            layout_[first.id() + k] = {next + k, stride, count, space};
        }
        next += stride * count;
    };
    auto stalls = [&](TraceComponent c, InstanceSpace space,
                      unsigned count) {
        group(Counter::stall(c, StallClass(0)), numStallClasses, space,
              count);
    };
    // PNGs publish their hosting node, vault channels their index.
    stalls(TraceComponent::Router, InstanceSpace::Node, nodes);
    stalls(TraceComponent::Pe, InstanceSpace::Node, pes);
    stalls(TraceComponent::Png, InstanceSpace::Node, nodes);
    stalls(TraceComponent::Vault, InstanceSpace::Vault, vaults);
    group(EnergyEventKind(0), numEnergyEventKinds, InstanceSpace::Node,
          std::max({nodes, pes, vaults}));
    static_assert(size_t(SpatialCounter::CounterCount) == 8,
                  "a new SpatialCounter needs a layout group");
    group(SpatialCounter::LinkFlit, 3, InstanceSpace::Link,
          unsigned(topology_.links.size()));
    group(SpatialCounter::VaultByte, 2, InstanceSpace::Vault, vaults);
    group(SpatialCounter::PeMac, 1, InstanceSpace::Node, pes);
    group(SpatialCounter::NodeLateral, 2, InstanceSpace::Node, nodes);
    slots_.assign(next, 0);
}

MetricsSnapshot
MetricsRegistry::filterToNodes(const MetricsSnapshot &delta,
                               const std::vector<unsigned> &nodes) const
{
    std::vector<bool> in_set;
    for (unsigned node : nodes) {
        if (node >= in_set.size())
            in_set.resize(node + 1, false);
        in_set[node] = true;
    }
    auto selected = [&in_set](unsigned node) {
        return node < in_set.size() && in_set[node];
    };
    auto kept = [&](InstanceSpace space, unsigned i) {
        switch (space) {
          case InstanceSpace::Vault:
            return selected(i < topology_.vaultNode.size()
                                ? topology_.vaultNode[i]
                                : i);
          case InstanceSpace::Link:
            return selected(topology_.links[i].src)
                && selected(topology_.links[i].dst);
          case InstanceSpace::Node:
            break;
        }
        return selected(i);
    };
    MetricsSnapshot out = delta;
    for (const CounterSlots &c : out.layout) {
        for (unsigned i = 0; i < c.count; ++i) {
            if (!kept(c.space, i))
                out.slots[c.base + size_t(i) * c.stride] = 0;
        }
    }
    return out;
}

namespace
{

/** One component class's stall cycles, summed over instances. */
StallBreakdown
sumComponent(const MetricsSnapshot &delta, TraceComponent c)
{
    StallBreakdown sum;
    for (unsigned i = 0;
         i < delta.instances(Counter::stall(c, StallClass(0))); ++i)
        sum += delta.stalls(c, i);
    return sum;
}

/** Fraction of a breakdown's cycles spent in one class. */
double
frac(const StallBreakdown &b, StallClass cls)
{
    uint64_t total = b.total();
    return total ? double(b[cls]) / double(total) : 0.0;
}

// Top-down decision thresholds (fractions of component cycles).
constexpr double kMacBusyBound = 0.45;
constexpr double kCacheBound = 0.30;
constexpr double kNocBlockedBound = 0.15;
constexpr double kInjectBound = 0.15;
constexpr double kDramBound = 0.25;
constexpr double kIdleFloor = 0.05;

} // namespace

BottleneckReport
buildBottleneckReport(const MetricsSnapshot &delta)
{
    BottleneckReport report;

    StallBreakdown machine;
    for (size_t c = 0; c < size_t(TraceComponent::ComponentCount); ++c) {
        StallBreakdown comp = sumComponent(delta, TraceComponent(c));
        machine += comp;
        uint64_t total = comp.total();
        for (size_t s = 0; s < numStallClasses; ++s) {
            report.componentFractions[c][s] =
                total ? double(comp.ticks[s]) / double(total) : 0.0;
        }
    }

    report.countedTicks = machine.total();
    if (report.countedTicks == 0)
        return report; // valid stays false: nothing was counted
    for (size_t s = 0; s < numStallClasses; ++s) {
        report.fractions[s] = double(machine.ticks[s])
                            / double(report.countedTicks);
    }

    StallBreakdown pe = sumComponent(delta, TraceComponent::Pe);
    StallBreakdown router = sumComponent(delta, TraceComponent::Router);
    StallBreakdown png = sumComponent(delta, TraceComponent::Png);
    StallBreakdown vault = sumComponent(delta, TraceComponent::Vault);

    report.peBusy = frac(pe, StallClass::Busy);
    report.peStallCache = frac(pe, StallClass::StallCache);
    report.routerBlocked = frac(router, StallClass::StallNocCredit);
    report.pngInjectStall = frac(png, StallClass::StallInject);
    report.dramPressure = frac(vault, StallClass::Busy)
                        + frac(vault, StallClass::StallDram);
    report.vaultBackpressure =
        frac(vault, StallClass::StallNocCredit);

    double png_dram = frac(png, StallClass::StallDram);

    // Top-down: each rule only fires when the levels above it did
    // not explain the cycles (see the header comment).
    if (report.peBusy >= kMacBusyBound) {
        report.label = "mac";
    } else if (report.peStallCache >= kCacheBound) {
        report.label = "cache";
    } else if (report.routerBlocked >= kNocBlockedBound
               || report.vaultBackpressure + report.routerBlocked
                      >= 2.0 * kNocBlockedBound) {
        report.label = "noc";
    } else if (report.pngInjectStall >= kInjectBound) {
        report.label = "inject";
    } else if (report.dramPressure >= kDramBound
               || png_dram >= kDramBound) {
        report.label = "dram";
    } else {
        // Nothing dominant: pick the largest signal, or idle.
        struct Candidate
        {
            const char *label;
            double score;
        };
        Candidate candidates[] = {
            {"mac", report.peBusy},
            {"cache", report.peStallCache},
            {"noc", report.routerBlocked + report.vaultBackpressure},
            {"inject", report.pngInjectStall},
            {"dram", std::max(report.dramPressure, png_dram)},
        };
        const Candidate *best = &candidates[0];
        for (const Candidate &c : candidates) {
            if (c.score > best->score)
                best = &c;
        }
        report.label = best->score >= kIdleFloor ? best->label
                                                 : "idle";
    }

    report.valid = true;
    return report;
}

} // namespace neurocube
