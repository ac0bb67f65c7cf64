/**
 * @file
 * Activity-based energy accounting: per-event counters and prices.
 *
 * Every simulated component publishes its energy-bearing activity
 * (MAC operations, operand-cache accesses, buffer writes, flit hops,
 * DRAM bits, ...) through the NC_ENERGY_EVENT macro into an
 * EnergyRegistry owned by the active TraceSession — the same
 * publish/snapshot/delta shape as the stall-attribution metrics in
 * trace/metrics.hh. Counting is a single array increment; pricing
 * (counts x pJ) happens at report time in power/activity_energy.hh,
 * so the same raw counts can be priced at either technology node.
 *
 * The accounting is observational only: recording an event never
 * alters component behaviour, so enabling energy accounting cannot
 * change simulated cycle counts (tests/test_golden_cycles.cc
 * asserts this). With -DNEUROCUBE_TRACE=OFF the macro compiles to
 * nothing and no EnergyRegistry is ever created.
 */

#ifndef NEUROCUBE_TRACE_ENERGY_HH
#define NEUROCUBE_TRACE_ENERGY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "trace/events.hh"

#ifndef NEUROCUBE_TRACE_ENABLED
#define NEUROCUBE_TRACE_ENABLED 1
#endif

namespace neurocube
{

/**
 * One kind of energy-bearing activity. Each kind is published by
 * exactly one component class, so a single node-indexed counter
 * table serves the whole machine.
 */
enum class EnergyEventKind : uint8_t
{
    /** MAC operations executed (PE; one multiply + accumulate). */
    MacOp = 0,
    /** Operand-cache entries scanned or extracted (PE SRAM read). */
    CacheRead,
    /** Operand-cache entries parked (PE SRAM write). */
    CacheWrite,
    /** Temporal-buffer stagings (PE; one state or weight slot). */
    BufferAccess,
    /** Weight-register reads (PE local weight supply). */
    WeightRegRead,
    /** Flits switched through a router crossbar. */
    NocHop,
    /** Flit-segments crossing router-to-router links: each traversal
     *  counts the link's Manhattan length in grid hops, so long
     *  fully-connected channels cost proportionally more than mesh
     *  neighbour links (which count 1). */
    NocLink,
    /** PNG transactions: element reads issued + write-backs absorbed. */
    PngOp,
    /** Vault-controller word transactions (command/address path). */
    VaultXact,
    /** Bits moved over a DRAM interface. */
    DramBit,
    KindCount,
};

/** Number of energy event kinds (array dimension). */
constexpr size_t numEnergyEventKinds =
    size_t(EnergyEventKind::KindCount);

/** Snake-case label of a kind ("mac_op", "dram_bit", ...). */
const char *energyEventKindName(EnergyEventKind kind);

/** Raw activity counts, one slot per kind. */
struct EnergyCounts
{
    /**
     * False when no energy accounting was active for the interval
     * the counts describe (counts are then meaningless zeros).
     */
    bool valid = false;

    std::array<uint64_t, numEnergyEventKinds> n{};

    uint64_t
    operator[](EnergyEventKind kind) const
    {
        return n[size_t(kind)];
    }

    EnergyCounts &
    operator+=(const EnergyCounts &other)
    {
        for (size_t i = 0; i < numEnergyEventKinds; ++i)
            n[i] += other.n[i];
        valid = valid || other.valid;
        return *this;
    }
};

/**
 * A copy of every instance's counters at one point in time. Also the
 * storage the live EnergyRegistry mutates. Instances are node-indexed
 * (PE id, router id, PNG node, channel index — batching requires the
 * identity vault attachment, so one index space covers them all).
 */
struct EnergySnapshot
{
    std::vector<EnergyCounts> instances;

    /** Per-instance counter deltas since @p before. */
    EnergySnapshot delta(const EnergySnapshot &before) const;

    /**
     * Sum counts over instances, restricted to @p nodes when non-null
     * (per-lane attribution). valid iff any instance exists.
     */
    EnergyCounts sum(const std::vector<unsigned> *nodes = nullptr) const;
};

/**
 * The live activity counters, owned by the TraceSession and fed by
 * NC_ENERGY_EVENT. Instances must be sized with configure() before
 * counting; events for unknown instances are dropped (never
 * undefined behaviour).
 */
class EnergyRegistry
{
  public:
    /** Size the per-instance counter array (nodes on the mesh). */
    void configure(unsigned instances);

    /** Count @p amount units of one kind at one instance. */
    void
    add(EnergyEventKind kind, unsigned instance, uint64_t amount)
    {
        auto &vec = state_.instances;
        if (instance < vec.size())
            vec[instance].n[size_t(kind)] += amount;
    }

    /** The live counters (read-only view). */
    const EnergySnapshot &state() const { return state_; }

    /** Deep copy of the current counters. */
    EnergySnapshot snapshot() const { return state_; }

    /** Zero every counter (instance sizing is kept). */
    void reset();

  private:
    EnergySnapshot state_;
};

namespace energy
{

namespace detail
{
/** Storage behind activeRegistry() (do not touch directly). */
extern EnergyRegistry *g_activeRegistry;
} // namespace detail

/**
 * The process-wide registry NC_ENERGY_EVENT publishes to, or nullptr
 * while energy accounting is off (mirrors metrics::activeRegistry()).
 * Inline so the per-event sites reduce to one load + branch.
 */
inline EnergyRegistry *
activeRegistry()
{
    return detail::g_activeRegistry;
}

/** Install (or, with nullptr, remove) the active registry. */
void setActiveRegistry(EnergyRegistry *registry);

} // namespace energy

/**
 * Per-event energy prices in picojoules, the flat plain-data form
 * the trace-layer exporters consume (power-over-time tracks). The
 * defaults are the 15 nm Table II derivation; ActivityEnergyModel
 * (power/activity_energy.hh) re-derives them from the PowerModel
 * seeds for either node — tests/test_energy.cc asserts the defaults
 * stay in sync with the 15 nm model.
 */
struct EnergyPrices
{
    /** One MAC op: MAC dynamic power / MAC clock (Table II row). */
    double macOpPj = 9.17e-3 / 320e6 * 1e12;
    /** One operand-cache entry read or written (SRAM row). */
    double cacheAccessPj = 2.90e-2 / 5.12e9 * 1e12;
    /** One temporal-buffer staging. */
    double bufferAccessPj = 2.05e-5 / 5.12e9 * 1e12;
    /** One weight-register read. */
    double weightRegPj = 1.44e-4 / 5.12e9 * 1e12;
    /** One crossbar hop (70% of the router row's per-flit energy). */
    double nocHopPj = 0.7 * 3.59e-2 / 5.12e9 * 1e12;
    /** One unit-distance link segment (the remaining 30% of the
     *  router row's per-flit energy: link drivers). Link traversals
     *  are counted in Manhattan grid hops, so a fully-connected
     *  channel spanning d grid cells pays d of these. */
    double nocLinkPj = 0.3 * 3.59e-2 / 5.12e9 * 1e12;
    /** One PNG transaction (PMC row). */
    double pngOpPj = 1.39e-3 / 5.12e9 * 1e12;
    /**
     * One vault-controller transaction: a 32-bit command/address
     * word through the logic die at its pJ/bit.
     */
    double vaultXactPj = 6.78 * 0.5 * 32.0;
    /** One data bit through the HMC logic die (6.78 pJ/bit, x0.5
     *  15 nm logic scaling — Table I / Section VII). */
    double vaultLogicPjPerBit = 6.78 * 0.5;
    /** One bit moved at the DRAM dies (Table I). */
    double dramPjPerBit = 3.7;
};

/**
 * Price one trace event in pJ — the window-power estimate the
 * exporters use for the CSV avg_power_w column and the Chrome
 * power.W counter track. This prices the event *stream*, which sees
 * slightly less than the registry (temporal-buffer and weight-
 * register accesses publish no trace events); the exact per-layer
 * accounting is the EnergyRegistry path.
 */
double tracePjOf(const TraceEvent &event, const EnergyPrices &prices);

} // namespace neurocube

#if NEUROCUBE_TRACE_ENABLED

/**
 * Count energy-bearing activity: NC_ENERGY_EVENT(kind, instance,
 * amount). Compiles to a null-check while energy accounting is
 * inactive and to nothing with -DNEUROCUBE_TRACE=OFF.
 */
#define NC_ENERGY_EVENT(kind, instance, amount) \
    do { \
        if (::neurocube::EnergyRegistry *nc_energy_r_ = \
                ::neurocube::energy::activeRegistry()) { \
            nc_energy_r_->add((kind), unsigned(instance), \
                              uint64_t(amount)); \
        } \
    } while (0)

#else

namespace neurocube::energy::detail
{
/** Marks macro arguments as used in NEUROCUBE_TRACE=OFF builds. */
template <typename... Args>
inline void
ignore(Args &&...)
{
}
} // namespace neurocube::energy::detail

#define NC_ENERGY_EVENT(kind, instance, amount) \
    do { \
        if (false) { \
            ::neurocube::energy::detail::ignore( \
                (kind), (instance), (amount)); \
        } \
    } while (0)

#endif // NEUROCUBE_TRACE_ENABLED

#endif // NEUROCUBE_TRACE_ENERGY_HH
