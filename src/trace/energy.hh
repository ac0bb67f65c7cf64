/**
 * @file
 * Activity-based energy accounting: event kinds, counts and prices.
 *
 * Every simulated component publishes its energy-bearing activity
 * (MAC operations, operand-cache accesses, buffer writes, flit hops,
 * DRAM bits, ...) through the NC_COUNT macro into its machine's
 * MetricsRegistry (trace/metrics.hh), one counter per kind and node
 * next to the stall and spatial counters. Counting is a single array
 * increment; a registry delta reads back as EnergyCounts
 * (MetricsSnapshot::energyCounts), and pricing (counts x pJ) happens
 * at report time in power/activity_energy.hh, so the same raw counts
 * can be priced at either technology node.
 *
 * The accounting is observational only: recording an event never
 * alters component behaviour, so energy accounting cannot change
 * simulated cycle counts (tests/test_golden_cycles.cc asserts this).
 * With -DNEUROCUBE_TRACE=OFF the macro compiles to nothing.
 */

#ifndef NEUROCUBE_TRACE_ENERGY_HH
#define NEUROCUBE_TRACE_ENERGY_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "trace/events.hh"

namespace neurocube
{

/**
 * One kind of energy-bearing activity. Each kind is published by
 * exactly one component class, so one node-indexed counter per kind
 * serves the whole machine (vault channels count at their channel
 * index, which batching requires to equal the hosting node).
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
 * accounting is the MetricsRegistry's energy counters.
 */
double tracePjOf(const TraceEvent &event, const EnergyPrices &prices);

} // namespace neurocube

#endif // NEUROCUBE_TRACE_ENERGY_HH
