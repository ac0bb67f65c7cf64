/**
 * @file
 * Result records produced by simulation runs.
 *
 * Throughput follows the paper's accounting: one MAC operation counts
 * as two arithmetic operations (multiply + add), and GOPs/s divides
 * by wall-clock time at the reference clock (5 GHz) unless a slower
 * logic-node clock is applied (the 28 nm design runs at 300 MHz, so
 * every rate scales by 0.06 — Section VII).
 */

#ifndef NEUROCUBE_CORE_RESULTS_HH
#define NEUROCUBE_CORE_RESULTS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/dram_params.hh"
#include "trace/energy.hh"
#include "trace/metrics.hh"
#include "trace/spatial.hh"

namespace neurocube
{

/**
 * One layer's position on the machine roofline: achieved MAC and
 * DRAM-byte rates per reference cycle against the analytic-model
 * ceilings (rooflineCeilings), with the analytic bound attribution.
 * Derived purely from already-measured quantities — observational.
 */
struct RooflinePoint
{
    /** false when the layer ran zero cycles (nothing to plot). */
    bool valid = false;
    /** Achieved MAC operations per cycle (ops / 2 / cycles). */
    double macPerCycle = 0.0;
    /** Compute ceiling, MACs per cycle. */
    double macCeiling = 0.0;
    /** Achieved DRAM bytes per cycle (dramBits / 8 / cycles). */
    double bytesPerCycle = 0.0;
    /** Aggregate DRAM streaming ceiling, bytes per cycle. */
    double bytesCeiling = 0.0;
    /** Analytic bound label: "dram", "eject", "noc", or "mac". */
    std::string bound;

    /** Arithmetic intensity: MACs per DRAM byte. */
    double
    intensity() const
    {
        return bytesPerCycle > 0.0 ? macPerCycle / bytesPerCycle
                                   : 0.0;
    }
};

/** Statistics for one executed layer. */
struct LayerResult
{
    std::string name;
    /** PNG programming passes executed (one per layer). */
    unsigned passes = 0;
    /** Arithmetic operations (2 per MAC op). */
    uint64_t ops = 0;
    /** Reference-clock cycles including per-pass configuration. */
    Tick cycles = 0;
    /** Operand/write-back packets that crossed between nodes. */
    uint64_t lateralPackets = 0;
    /** Packets that stayed within their node. */
    uint64_t localPackets = 0;
    /** Bits moved over the DRAM interfaces. */
    uint64_t dramBits = 0;
    /** Resident memory for this layer (with duplication), bytes. */
    uint64_t memoryBytes = 0;
    /** Duplication overhead within memoryBytes. */
    uint64_t duplicationBytes = 0;
    /**
     * Stall-attribution bottleneck report for this layer. valid only
     * when the machine ran with a trace session (config.trace.enabled
     * in a NEUROCUBE_TRACE=ON build).
     */
    BottleneckReport bottleneck;
    /**
     * Activity counts for this layer's interval (energy accounting).
     * valid only when the machine ran with a trace session
     * (config.trace.enabled in a NEUROCUBE_TRACE=ON build); price
     * with ActivityEnergyModel.
     */
    EnergyCounts energy;
    /**
     * Spatial counter delta for this layer's interval (per-link,
     * per-vault, per-PE, per-node). valid only when the machine ran
     * with a trace session (config.trace.enabled in a
     * NEUROCUBE_TRACE=ON build). Strictly observational — never
     * feeds back into timing or energy.
     */
    SpatialSnapshot spatial;
    /** Roofline position (valid only when cycles were measured). */
    RooflinePoint roofline;

    /** Throughput at a given logic clock (GHz). */
    double
    gopsPerSecond(double clock_ghz = referenceClockHz / 1e9) const
    {
        if (cycles == 0)
            return 0.0;
        double seconds = double(cycles) / (clock_ghz * 1e9);
        return double(ops) / seconds / 1e9;
    }

    /** Fraction of NoC traffic that crossed between nodes. */
    double
    lateralFraction() const
    {
        uint64_t total = lateralPackets + localPackets;
        return total ? double(lateralPackets) / double(total) : 0.0;
    }
};

/** Aggregated statistics for a multi-layer run. */
struct RunResult
{
    std::vector<LayerResult> layers;

    /**
     * Static shape of the machine the run executed on (mesh width,
     * link endpoints, vault hosting), for keying the per-layer
     * spatial snapshots. Empty (numNodes == 0) when the run carried
     * no spatial accounting.
     */
    SpatialTopology spatialTopology;

    /**
     * Host wall-clock time of the run in milliseconds, measured and
     * filled by the caller (the bench harness); 0 when nobody timed
     * the run. Purely diagnostic — never part of any simulated
     * quantity, and excluded from the bench.sh --compare gates.
     */
    double wallMs = 0.0;

    /** Sum of per-layer operation counts. */
    uint64_t
    totalOps() const
    {
        uint64_t total = 0;
        for (const LayerResult &l : layers)
            total += l.ops;
        return total;
    }

    /** Sum of per-layer cycle counts. */
    Tick
    totalCycles() const
    {
        Tick total = 0;
        for (const LayerResult &l : layers)
            total += l.cycles;
        return total;
    }

    /** Peak per-layer resident memory, bytes. */
    uint64_t
    peakMemoryBytes() const
    {
        uint64_t peak = 0;
        for (const LayerResult &l : layers)
            peak = std::max(peak, l.memoryBytes);
        return peak;
    }

    /** End-to-end throughput at a given logic clock (GHz). */
    double
    gopsPerSecond(double clock_ghz = referenceClockHz / 1e9) const
    {
        Tick cycles = totalCycles();
        if (cycles == 0)
            return 0.0;
        double seconds = double(cycles) / (clock_ghz * 1e9);
        return double(totalOps()) / seconds / 1e9;
    }

    /** Executions per second (frames/s) at a given clock. */
    double
    framesPerSecond(double clock_ghz = referenceClockHz / 1e9) const
    {
        Tick cycles = totalCycles();
        if (cycles == 0)
            return 0.0;
        return clock_ghz * 1e9 / double(cycles);
    }

    /**
     * Machine-readable per-layer metrics as a JSON document: cycles,
     * ops, and each layer's bottleneck label, stall fractions, and
     * histogram summaries. Layers without a valid bottleneck report
     * (tracing off) carry "bottleneck": null.
     */
    std::string metricsJson() const;

    /** Sum of the per-layer spatial counter deltas. */
    SpatialSnapshot
    spatialSnapshot() const
    {
        SpatialSnapshot total;
        for (const LayerResult &l : layers)
            total += l.spatial;
        return total;
    }

    /**
     * Deterministic heatmap/roofline export as a JSON document:
     * {"aggregate": <snapshot>, "layers": [{"name", "cycles",
     * "roofline"|null, "spatial": <snapshot>}]}. Snapshots are
     * mesh-shaped matrices keyed by spatialTopology (see
     * spatialSnapshotJson). Empty-topology runs still produce a
     * well-formed document with zero-length matrices. Carries no
     * "wall_ms" key, the one key scripts/bench.sh still greps (its
     * trace-overhead gate sums every "wall_ms" of a bench JSON).
     */
    std::string spatialJson() const;

    /** Sum of the per-layer activity counts. */
    EnergyCounts
    energyCounts() const
    {
        EnergyCounts total;
        for (const LayerResult &l : layers)
            total += l.energy;
        return total;
    }

    /**
     * Activity-based energy accounting as a JSON document: total
     * joules, average power, GOPS/W, per-component breakdown, and a
     * per-layer breakdown with the raw event counts. Priced at the
     * 15 nm node (the node whose clocks the cycle model times);
     * "valid": false when the run carried no energy accounting.
     * Defined in src/power/activity_energy.cc — callers link
     * nc_power.
     */
    std::string energyJson() const;
};

/** Statistics for one batched multi-lane forward execution. */
struct BatchRunResult
{
    /** Per-lane run statistics (one entry per submitted input). */
    std::vector<RunResult> lanes;
    /**
     * Aggregate wall-clock of the batched run in reference cycles:
     * per layer, every lane advances in the same cycle loop, so the
     * aggregate is the sum over layers of the slowest lane (plus the
     * shared per-pass configuration time charged once).
     */
    Tick cycles = 0;

    /** Sum of per-lane operation counts. */
    uint64_t
    totalOps() const
    {
        uint64_t total = 0;
        for (const RunResult &lane : lanes)
            total += lane.totalOps();
        return total;
    }

    /** Aggregate throughput at a given logic clock (GHz). */
    double
    gopsPerSecond(double clock_ghz = referenceClockHz / 1e9) const
    {
        if (cycles == 0)
            return 0.0;
        double seconds = double(cycles) / (clock_ghz * 1e9);
        return double(totalOps()) / seconds / 1e9;
    }
};

} // namespace neurocube

#endif // NEUROCUBE_CORE_RESULTS_HH
