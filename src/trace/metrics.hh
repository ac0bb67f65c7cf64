/**
 * @file
 * The counter registry: stall attribution, activity energy and
 * spatial counters of one machine in one array.
 *
 * Every ticked component (router, PE, PNG, memory channel) classifies
 * each of its cycles into one StallClass, and counts its
 * energy-bearing activity (trace/energy.hh) and its spatially
 * resolved traffic (trace/spatial.hh), all through the NC_COUNT macro
 * (trace/trace.hh) into the MetricsRegistry of its machine's probe.
 * With no registry (tracing off) a site costs a member load and a
 * branch; with -DNEUROCUBE_TRACE=OFF it compiles to nothing.
 *
 * Unlike the event bus in trace/trace.hh, which records *what
 * happened*, the counters answer *where the cycles and the energy
 * went*: snapshots taken around a layer yield a per-layer delta,
 * filterToNodes() narrows it to one batch lane, and three read-outs
 * turn it into result types. buildBottleneckReport() classifies the
 * stall counters top-down — the paper's Fig. 12/15 question of
 * whether a layer is bound by MAC throughput, PNG injection, DRAM
 * service, or NoC saturation — energyCounts() sums the energy kinds,
 * and spatialCounts() lists the spatial counters per instance.
 *
 * The accounting is observational only: counting never alters
 * component behaviour, so tracing cannot change simulated cycle
 * counts (tests/test_golden_cycles.cc asserts this).
 */

#ifndef NEUROCUBE_TRACE_METRICS_HH
#define NEUROCUBE_TRACE_METRICS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cache_line.hh"
#include "common/types.hh"
#include "trace/energy.hh"
#include "trace/events.hh"
#include "trace/spatial.hh"

namespace neurocube
{

/**
 * What one component cycle was spent on. Exactly one class per
 * component per tick, so per-component class counts always sum to the
 * number of ticks the component was advanced.
 */
enum class StallClass : uint8_t
{
    /** Doing useful work (switching, MAC-busy, serving a word...). */
    Busy = 0,
    /** Nothing to do (no pass, queues empty, waiting downstream). */
    Idle,
    /** Waiting on DRAM service (activation, burst gap, bandwidth). */
    StallDram,
    /** Blocked on NoC credits / backpressure from the network side. */
    StallNocCredit,
    /**
     * Starved or blocked at an injection/delivery port: a PNG with
     * packets ready but no port capacity, or a PE waiting for
     * operands to arrive.
     */
    StallInject,
    /** Delayed by an operand-cache sub-bank search. */
    StallCache,
    StallClassCount,
};

/** Number of stall classes (array dimension). */
constexpr size_t numStallClasses = size_t(StallClass::StallClassCount);

/** Snake-case label of a stall class ("busy", "stall_dram", ...). */
const char *stallClassName(StallClass cls);

/** Per-component cycle counts, one slot per stall class. */
struct StallBreakdown
{
    std::array<uint64_t, numStallClasses> ticks{};

    /** Total classified cycles. */
    uint64_t
    total() const
    {
        uint64_t sum = 0;
        for (uint64_t t : ticks)
            sum += t;
        return sum;
    }

    /** Cycles spent in one class. */
    uint64_t
    operator[](StallClass cls) const
    {
        return ticks[size_t(cls)];
    }

    StallBreakdown &
    operator+=(const StallBreakdown &other)
    {
        for (size_t i = 0; i < numStallClasses; ++i)
            ticks[i] += other.ticks[i];
        return *this;
    }
};

/**
 * One counter of the registry: a stall class of one component class,
 * an activity-energy kind, or a spatial counter. Built implicitly
 * from an EnergyEventKind or a SpatialCounter, and by stall() for a
 * stall class, so one NC_COUNT macro publishes all three families.
 */
class Counter
{
  public:
    constexpr Counter(EnergyEventKind kind)
        : id_(uint8_t(energyBase + size_t(kind)))
    {
    }

    constexpr Counter(SpatialCounter counter)
        : id_(uint8_t(spatialBase + size_t(counter)))
    {
    }

    /** Cycles of one component class spent in one stall class. */
    static constexpr Counter
    stall(TraceComponent component, StallClass cls)
    {
        return Counter(size_t(component) * numStallClasses
                       + size_t(cls));
    }

    /** Index into the registry's layout table. */
    constexpr size_t id() const { return id_; }

    /** Ids: the stall counters, then energy, then spatial. */
    static constexpr size_t energyBase =
        size_t(TraceComponent::ComponentCount) * numStallClasses;
    static constexpr size_t spatialBase =
        energyBase + numEnergyEventKinds;
    static constexpr size_t count =
        spatialBase + size_t(SpatialCounter::CounterCount);

  private:
    explicit constexpr Counter(size_t id) : id_(uint8_t(id)) {}

    uint8_t id_;
};

/** Which index space a counter's instances live in. */
enum class InstanceSpace : uint8_t
{
    /** Mesh nodes (routers, PEs, PNGs, and energy per node). */
    Node,
    /** Vault channels (hosted at MetricsRegistry::topology().vaultNode). */
    Vault,
    /** Router-to-router links (SpatialTopology::links order). */
    Link,
};

/**
 * Where one counter lives in the registry's slot array: instance i
 * is slot base + i * stride, for i < count. The counters of one
 * instance share a block, and every block starts a cache line (see
 * MetricsRegistry::add).
 */
struct CounterSlots
{
    uint32_t base = 0;
    uint32_t stride = 1;
    /** Instances; 0 while the counter is not sized. */
    uint32_t count = 0;
    InstanceSpace space = InstanceSpace::Node;
};

/**
 * A copy of every counter at one point in time, or a delta of two
 * such copies. The layout travels with the slots, so a snapshot reads
 * back on its own.
 */
struct MetricsSnapshot
{
    /** Per counter (Counter::id()), where its instances live. */
    std::array<CounterSlots, Counter::count> layout{};
    /**
     * Every counter instance, plus the padding that ends each
     * instance block on a cache line in the live registry.
     */
    std::vector<uint64_t> slots;

    /** Instances of one counter. */
    unsigned
    instances(Counter counter) const
    {
        return layout[counter.id()].count;
    }

    /** One instance of one counter. @pre instance < instances() */
    uint64_t
    at(Counter counter, unsigned instance) const
    {
        const CounterSlots &c = layout[counter.id()];
        return slots[c.base + size_t(instance) * c.stride];
    }

    /** One counter summed over its instances. */
    uint64_t total(Counter counter) const;

    /** Stall-class cycles of one component instance. */
    StallBreakdown stalls(TraceComponent component,
                          unsigned instance) const;

    /** Slot-wise counter deltas since @p before (empty = zeros). */
    MetricsSnapshot delta(const MetricsSnapshot &before) const;

    /**
     * The energy counters summed over nodes; valid iff the registry
     * sized them.
     */
    EnergyCounts energyCounts() const;

    /** The spatial counters, one vector per counter. */
    SpatialSnapshot spatialCounts() const;
};

/**
 * The live counters of one machine: every stall, energy and spatial
 * counter in one array, owned by the TraceSession and fed by
 * NC_COUNT. Sized with configure() and configureLinks() before
 * counting; counts for instances outside a counter's range are
 * dropped (never undefined behaviour).
 *
 * Each instance's block of counters is padded to whole cache lines
 * and the array starts on one, so threads that step disjoint node
 * groups (SimEngine::ThreadedLanes) never write the same line. Every
 * read goes through the layout, so the padding moves no exported
 * value.
 */
class MetricsRegistry
{
  public:
    /**
     * Size every counter but the link counters (TraceSession).
     *
     * @param nodes mesh nodes (routers; PNGs publish their node)
     * @param pes processing elements
     * @param vaults vault channels
     * @param vault_node vault ordinal -> hosting mesh node (empty =
     *        identity attachment)
     */
    void configure(unsigned nodes, unsigned pes, unsigned vaults,
                   std::vector<uint16_t> vault_node = {});

    /**
     * Publish the fabric's link list and size the link counters
     * (the NocFabric constructor; the fabric is built after the
     * session, so links arrive second).
     *
     * @param mesh_width mesh side length, 0 for non-mesh fabrics
     * @param links directed links in counter-instance order
     */
    void configureLinks(unsigned mesh_width,
                        std::vector<SpatialLink> links);

    /** Count @p amount units of one counter at one instance. */
    void
    add(Counter counter, unsigned instance, uint64_t amount)
    {
        const CounterSlots &c = layout_[counter.id()];
        if (instance < c.count)
            slots_[c.base + size_t(instance) * c.stride] += amount;
    }

    /** Deep copy of the current counters. */
    MetricsSnapshot
    snapshot() const
    {
        return {layout_, {slots_.begin(), slots_.end()}};
    }

    /**
     * Restrict a delta to one set of mesh nodes (batch-lane
     * attribution): slots outside the set are zeroed and sizes are
     * kept, so the filtered deltas of a partition sum back to the
     * whole. Node slots follow their own index, vault slots their
     * hosting node, and link slots stay when both endpoints are in
     * the set.
     */
    MetricsSnapshot filterToNodes(const MetricsSnapshot &delta,
                                  const std::vector<unsigned> &nodes) const;

    /** The machine shape the spatial counters describe. */
    const SpatialTopology &topology() const { return topology_; }

  private:
    /** Rebuild the layout table and zero every slot. */
    void layOut();

    SpatialTopology topology_;
    /** Where each counter lives in slots_ (MetricsSnapshot::layout). */
    std::array<CounterSlots, Counter::count> layout_{};
    /** The live counters, each instance block on its own line(s). */
    CacheLineVector<uint64_t> slots_;
};

/** Five-number summary of one Histogram (for reports/JSON). */
struct HistogramSummary
{
    uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    uint64_t max = 0;
};

/**
 * Per-layer (or per-lane) bottleneck attribution derived from a
 * metrics delta. `fractions` is the machine-level breakdown over
 * every classified component-cycle in the delta and sums to 1 (when
 * countedTicks > 0); `componentFractions` gives the same breakdown
 * per component class.
 */
struct BottleneckReport
{
    /** False when no metrics were recorded (report is meaningless). */
    bool valid = false;

    /**
     * Dominant bottleneck: "mac" (compute-bound), "cache" (operand
     * cache searches), "noc" (network saturation), "inject" (PNG
     * injection port), "dram" (memory service), or "idle".
     */
    const char *label = "n/a";

    /** Machine-level cycle fractions per stall class (sum ~ 1.0). */
    std::array<double, numStallClasses> fractions{};

    /**
     * Per component class (router/pe/png/vault, indexed by
     * TraceComponent) cycle fractions per stall class.
     */
    std::array<std::array<double, numStallClasses>,
               size_t(TraceComponent::ComponentCount)>
        componentFractions{};

    /** Component-cycles classified in this delta. */
    uint64_t countedTicks = 0;

    // Signals the top-down classifier decided on (for reports).
    /** PE busy fraction (MAC array utilization). */
    double peBusy = 0.0;
    /** PE cycles delayed by sub-bank searches. */
    double peStallCache = 0.0;
    /** Router cycles with a head-of-line blocked input. */
    double routerBlocked = 0.0;
    /** PNG cycles with packets ready but no injection capacity. */
    double pngInjectStall = 0.0;
    /** Vault cycles busy or stalled on DRAM timing. */
    double dramPressure = 0.0;
    /** Vault cycles stalled on downstream (NoC-side) backpressure. */
    double vaultBackpressure = 0.0;

    // Distribution summaries, filled by the machine (cumulative to
    // the end of the layer; see Neurocube::runSingleLayer).
    HistogramSummary nocLatency;
    HistogramSummary dramQueueResidency;
    HistogramSummary peCacheOccupancy;
    HistogramSummary pngOutQueueDepth;
};

/**
 * Top-down bottleneck classification of a metrics delta.
 *
 * The decision order mirrors top-down CPU analysis: compute
 * saturation first ("mac"), then the operand-cache search penalty
 * ("cache"), then network congestion ("noc" — head-of-line blocking
 * inside routers explains downstream injection stalls, so it is
 * checked before "inject"), then the PNG injection port ("inject"),
 * then DRAM service ("dram"), falling back to the largest stall
 * fraction or "idle".
 *
 * @param delta counter delta covering the interval of interest
 *        (filtered to a lane's nodes for per-lane attribution)
 */
BottleneckReport buildBottleneckReport(const MetricsSnapshot &delta);

} // namespace neurocube

#endif // NEUROCUBE_TRACE_METRICS_HH
