/**
 * @file
 * Top-level machine configuration.
 *
 * Gathers what a workload may vary: the DRAM technology (vault count,
 * timing), the NoC topology, the data-mapping policy, and the
 * attachment of memory channels to mesh nodes. The PE and PNG
 * micro-architecture is fixed hardware, so its parameters are
 * constants of Pe, OpCache, Png and AddressGenerator (and macsPerPe
 * in common/types.hh). The defaults instantiate the paper's machine:
 * 16 HMC vaults, one 16-MAC PE per vault, 4x4 mesh.
 */

#ifndef NEUROCUBE_CORE_CONFIG_HH
#define NEUROCUBE_CORE_CONFIG_HH

#include <vector>

#include "dram/dram_params.hh"
#include "nn/mapping.hh"
#include "noc/fabric.hh"
#include "trace/trace_config.hh"

namespace neurocube
{

/**
 * Which cycle-loop implementation advances the machine. All three
 * produce bit-identical simulated state, cycle counts, stall
 * attribution and energy counts (tests/test_engine_diff.cc fuzzes
 * the equivalence); they differ only in wall-clock cost.
 */
enum class SimEngine
{
    /**
     * Tick every component every cycle (the reference semantics):
     * the wake-list scheduler in tick-all mode, which never skips.
     */
    Legacy,
    /**
     * Wake-list scheduler: components report their next interesting
     * cycle, quiescent components are skipped and their idle time
     * accounted in bulk (see DESIGN.md "Event-driven scheduler").
     * One scheduler over the whole machine: the reference the
     * threaded engine's results and traces are compared against.
     */
    Event,
    /**
     * Event schedulers on several threads, batched or not. Each pass
     * is cut into the node groups its compiled traffic never
     * connects (with data duplication, every vault alone; batch
     * lanes never join), packed into at most min(groups, CPUs the
     * process may run on) buckets, and each bucket's
     * scheduler runs on its own thread until the pass ends. A pass
     * whose traffic connects every node (DDR3 channels feeding all
     * PEs) runs one scheduler, as Event does. With a live event
     * recorder each bucket stages its events, and the recorder
     * merges them into the stream Event records (DESIGN.md 6b).
     */
    ThreadedLanes,
};

/** Structural + policy configuration of one Neurocube instance. */
struct NeurocubeConfig
{
    /**
     * Cycle-loop implementation. Every engine works with tracing:
     * the event loop stamps executed ticks and aggregates skipped
     * windows into EngineSkip events, producing the same cycle,
     * stall, and energy accounting as a traced legacy run (fuzzed in
     * tests/test_engine_diff.cc). ThreadedLanes' exports are
     * byte-identical to Event's (tests/test_engine_threads.cc).
     */
    SimEngine engine = SimEngine::ThreadedLanes;

    /** Memory technology (channel count lives here). */
    DramParams dram = DramParams::hmcInternal();

    /** Processing elements on the logic die. */
    unsigned numPes = 16;

    /** NoC structure (numNodes is forced to numPes). */
    NocFabric::Config noc;

    /** Data placement policy (duplication knobs). */
    MappingPolicy mapping;

    /** Batched multi-lane execution (Neurocube::runForwardBatch). */
    struct BatchConfig
    {
        /**
         * Vault groups running independent inputs concurrently. Each
         * lane owns a rectangular sub-mesh (16 PEs split into 1, 2 or
         * 4 groups on the HMC) with its own PEs, PNGs and channels;
         * X-Y routes never leave the sub-mesh, so lanes are isolated
         * on the NoC. Requires one memory channel per mesh node
         * attached identically (the HMC configuration).
         */
        unsigned lanes = 1;
    };

    /** Batch-lane partitioning for runForwardBatch. */
    BatchConfig batch;

    /**
     * Host programming cost charged per pass (one per layer), in
     * reference ticks (writing the PNG configuration registers,
     * Fig. 8c).
     */
    Tick configTicksPerPass = 64;

    /**
     * Memoize structural layer plans in the compiler (keyed by
     * layer descriptor + lane partition + mapping policy), so
     * repeated compiles of the same shape — every batch of a
     * serving run, every epoch of training — pay only the value
     * binding. Bit-exact either way; off forces a full rebuild per
     * compile (the equivalence tests exercise both).
     */
    bool planCache = true;

    /** Event tracing (off by default; see src/trace/). */
    TraceConfig trace;

    /**
     * Mesh node each memory channel attaches to: channels spread
     * evenly over the nodes, so channel i sits at node i when there
     * are as many channels as PEs (the HMC) and the two DDR3
     * channels at nodes 4 and 12.
     */
    std::vector<unsigned>
    resolvedMemoryNodes() const
    {
        std::vector<unsigned> nodes(dram.numChannels);
        for (unsigned c = 0; c < dram.numChannels; ++c) {
            // Spread channels evenly across the node space.
            nodes[c] = unsigned((uint64_t(2 * c + 1) * numPes)
                                / (2 * dram.numChannels));
        }
        return nodes;
    }
};

} // namespace neurocube

#endif // NEUROCUBE_CORE_CONFIG_HH
