/**
 * @file
 * Spatial observability: per-link, per-vault, per-PE and per-node
 * counters.
 *
 * The stall classes and activity-energy kinds (trace/metrics.hh,
 * trace/energy.hh) say *what* a run was bound by; these counters say
 * *where*. Every router-to-router link counts its flit traversals,
 * credit-stall cycles, and source-queue occupancy; every vault
 * channel counts its DRAM bytes and queue-depth integral; every PE
 * counts its active MAC operations; every node counts the lateral
 * and local packets injected there. They live in the machine's
 * MetricsRegistry next to the other counters and are published
 * through the same NC_COUNT macro; a registry delta reads back as a
 * SpatialSnapshot (MetricsSnapshot::spatialCounts).
 *
 * The accounting is observational only: counting never alters
 * component behaviour, so the spatial counters cannot change
 * simulated cycle counts or energy (tests/test_spatial.cc and the
 * bench baselines assert this). Counters are bumped only at action
 * sites — a link traversal attempt, a vault-channel tick, a PE
 * flush, an injection — so ticks the event engine proves idle and
 * skips contribute exactly zero, making the counters bit-identical
 * across the Legacy, Event, and ThreadedLanes engines
 * (tests/test_engine_diff.cc asserts this).
 */

#ifndef NEUROCUBE_TRACE_SPATIAL_HH
#define NEUROCUBE_TRACE_SPATIAL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace neurocube
{

/**
 * One kind of spatially resolved activity. Grouped by instance space
 * (links, vaults, PEs, nodes): the MetricsRegistry lays each group
 * out together, in this order.
 */
enum class SpatialCounter : uint8_t
{
    /** Packet transfers over one router-to-router link. */
    LinkFlit = 0,
    /**
     * Cycles one link wanted to move a waiting packet but the
     * downstream input FIFO had no space (credit starvation). At
     * most one per link per executed fabric cycle.
     */
    LinkStall,
    /**
     * Source output-queue depth, summed over executed fabric cycles
     * (an occupancy integral: divide by cycles for the mean queue
     * length feeding the link).
     */
    LinkOccupancy,
    /** Bytes served by one vault channel's DRAM interface. */
    VaultByte,
    /**
     * Read+write queue depth of one vault channel, summed over its
     * executed cycles (divide by cycles for mean queue depth).
     */
    VaultQueue,
    /** MAC operations retired by one PE. */
    PeMac,
    /** Packets injected at one node for another node. */
    NodeLateral,
    /** Packets injected at one node for that same node. */
    NodeLocal,
    CounterCount,
};

/** One directed router-to-router channel (node endpoints). */
struct SpatialLink
{
    uint16_t src = 0;
    uint16_t dst = 0;
};

/**
 * Shape of the machine the spatial counters describe — everything a
 * consumer needs to fold flat instance indices back onto the mesh.
 * Assembled in two steps in the MetricsRegistry: the TraceSession
 * publishes the node/vault/PE extents (from its TraceTopology), and
 * the NocFabric — built after the session — publishes the link list
 * and mesh width.
 */
struct SpatialTopology
{
    /** Mesh nodes (== routers == PEs in every paper configuration). */
    unsigned numNodes = 0;
    /** Mesh side length; 0 for non-mesh (fully connected) fabrics. */
    unsigned meshWidth = 0;
    /** Vault channels. */
    unsigned numVaults = 0;
    /** Processing elements. */
    unsigned numPes = 0;
    /** Directed links, in fabric construction order (== counter
     *  instance order). */
    std::vector<SpatialLink> links;
    /** Vault ordinal -> hosting mesh node (empty = identity). */
    std::vector<uint16_t> vaultNode;
};

/**
 * The spatial counters of one interval, one vector per counter in
 * instance order: link counters by link ordinal
 * (SpatialTopology::links order), vault counters by channel index,
 * PE counters by PE id, and the node injection counters by mesh
 * node. Read out of a registry delta by
 * MetricsSnapshot::spatialCounts().
 */
struct SpatialSnapshot
{
    std::vector<uint64_t> linkFlits;
    std::vector<uint64_t> linkStalls;
    std::vector<uint64_t> linkOccupancy;
    std::vector<uint64_t> vaultBytes;
    std::vector<uint64_t> vaultQueueTicks;
    std::vector<uint64_t> peMacOps;
    /** Lateral / node-local packets injected at each node. */
    std::vector<uint64_t> nodeLateral;
    std::vector<uint64_t> nodeLocal;

    /** True when any counter vector is populated. */
    bool
    valid() const
    {
        return !linkFlits.empty() || !vaultBytes.empty()
            || !peMacOps.empty() || !nodeLateral.empty();
    }

    /** Accumulate another snapshot's counts (per-layer roll-up). */
    SpatialSnapshot &operator+=(const SpatialSnapshot &other);

    /** Sum of the per-link flit counters. */
    uint64_t totalLinkFlits() const;
    /** Sum of the per-vault byte counters. */
    uint64_t totalVaultBytes() const;
    /** Sum of the per-PE MAC counters. */
    uint64_t totalPeMacOps() const;
};

/**
 * Serialize one snapshot + topology as a JSON object (no trailing
 * newline): the mesh shape, per-link records with node endpoints,
 * and the vault/PE/node vectors as flat arrays in instance order.
 * Deterministic — fixed field order, integers only — so identical
 * runs produce byte-identical documents.
 *
 * @param cycles reference cycles the counters cover (the divisor
 *        for occupancy/queue integrals); 0 when unknown
 */
std::string spatialSnapshotJson(const SpatialTopology &topology,
                                const SpatialSnapshot &snapshot,
                                uint64_t cycles = 0);

} // namespace neurocube

#endif // NEUROCUBE_TRACE_SPATIAL_HH
