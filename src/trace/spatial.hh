/**
 * @file
 * Spatial observability: per-link, per-vault, and per-PE counters.
 *
 * The stall-attribution metrics (trace/metrics.hh) and the activity
 * energy counts (trace/energy.hh) say *what* a run was bound by; this
 * layer says *where*. Every router-to-router link counts its flit
 * traversals, credit-stall cycles, and source-queue occupancy; every
 * vault channel counts its DRAM bytes and queue-depth integral; every
 * PE counts its active MAC operations. The counters live in a
 * SpatialRegistry owned by the active TraceSession and are published
 * through the NC_SPATIAL_EVENT macro — the same publish/snapshot/
 * delta shape as the other two registries, with the same costs: one
 * array increment while a session is live, a null-check while not,
 * and nothing at all with -DNEUROCUBE_TRACE=OFF.
 *
 * The accounting is observational only: counting never alters
 * component behaviour, so enabling the spatial layer cannot change
 * simulated cycle counts or energy (tests/test_golden_cycles.cc and
 * the bench baselines assert this). Counters are bumped only at
 * action sites — a link traversal attempt, a vault-channel tick, a
 * PE flush — so ticks the event engine proves idle and skips
 * contribute exactly zero, making the counters bit-identical across
 * the Legacy, Event, and ThreadedLanes engines
 * (tests/test_engine_diff.cc asserts this).
 */

#ifndef NEUROCUBE_TRACE_SPATIAL_HH
#define NEUROCUBE_TRACE_SPATIAL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

#ifndef NEUROCUBE_TRACE_ENABLED
#define NEUROCUBE_TRACE_ENABLED 1
#endif

namespace neurocube
{

/** One kind of spatially resolved activity. */
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
 * Assembled in two steps: the TraceSession publishes the node/vault/
 * PE extents (from its TraceTopology), and the NocFabric — built
 * after the session — publishes the link list and mesh width.
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
 * A copy of every spatial counter at one point in time. Also the
 * storage the live SpatialRegistry mutates. Link counters are
 * indexed by link ordinal (SpatialTopology::links order), vault
 * counters by channel index, PE counters by PE id, and the node
 * injection counters — folded in from the NoC fabric's per-node
 * accounting by Neurocube::spatialSnapshot() — by mesh node.
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

    /** Per-instance counter deltas since @p before. */
    SpatialSnapshot delta(const SpatialSnapshot &before) const;

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
 * The live spatial counters, owned by the TraceSession and fed by
 * NC_SPATIAL_EVENT. Instances must be sized with configure() /
 * configureLinks() before counting; events for unknown instances are
 * dropped (never undefined behaviour).
 */
class SpatialRegistry
{
  public:
    /**
     * Size the node/vault/PE counter arrays (TraceSession).
     *
     * @param vault_node vault ordinal -> hosting mesh node
     *        (empty = identity attachment)
     */
    void configure(unsigned nodes, unsigned vaults, unsigned pes,
                   std::vector<uint16_t> vault_node = {});

    /**
     * Publish the fabric's link list and size the per-link counter
     * arrays (called by the NocFabric constructor; the fabric is
     * built after the session, so links arrive second).
     *
     * @param mesh_width mesh side length, 0 for non-mesh fabrics
     * @param links directed links in counter-instance order
     */
    void configureLinks(unsigned mesh_width,
                        std::vector<SpatialLink> links);

    /** Count @p amount units of one counter at one instance. */
    void
    add(SpatialCounter counter, unsigned instance, uint64_t amount)
    {
        std::vector<uint64_t> *vec = nullptr;
        switch (counter) {
          case SpatialCounter::LinkFlit:
            vec = &state_.linkFlits;
            break;
          case SpatialCounter::LinkStall:
            vec = &state_.linkStalls;
            break;
          case SpatialCounter::LinkOccupancy:
            vec = &state_.linkOccupancy;
            break;
          case SpatialCounter::VaultByte:
            vec = &state_.vaultBytes;
            break;
          case SpatialCounter::VaultQueue:
            vec = &state_.vaultQueueTicks;
            break;
          case SpatialCounter::PeMac:
            vec = &state_.peMacOps;
            break;
          case SpatialCounter::CounterCount:
            return;
        }
        if (instance < vec->size())
            (*vec)[instance] += amount;
    }

    /** The machine shape the counters describe. */
    const SpatialTopology &topology() const { return topology_; }

    /** The live counters (read-only view). */
    const SpatialSnapshot &state() const { return state_; }

    /** Deep copy of the current counters (node vectors excluded —
     *  the fabric owns those; see Neurocube::spatialSnapshot()). */
    SpatialSnapshot snapshot() const { return state_; }

    /** Zero every counter (instance sizing is kept). */
    void reset();

  private:
    SpatialTopology topology_;
    SpatialSnapshot state_;
};

namespace spatial
{

namespace detail
{
/** Storage behind activeRegistry() (do not touch directly). */
extern SpatialRegistry *g_activeRegistry;
} // namespace detail

/**
 * The process-wide registry NC_SPATIAL_EVENT publishes to, or
 * nullptr while the spatial layer is off (mirrors
 * metrics::activeRegistry()). Inline so the per-event sites reduce
 * to one load + branch.
 */
inline SpatialRegistry *
activeRegistry()
{
    return detail::g_activeRegistry;
}

/** Install (or, with nullptr, remove) the active registry. */
void setActiveRegistry(SpatialRegistry *registry);

} // namespace spatial

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

/**
 * Restrict a snapshot to one set of mesh nodes (batch-lane
 * attribution): entries outside the set are zeroed, vector sizes are
 * kept, so filtered snapshots of a partition still sum back to the
 * whole. Links are kept when both endpoints are in the set; vaults
 * follow their hosting node (topology.vaultNode, identity when
 * empty); PE and node entries follow their own index.
 */
SpatialSnapshot filterSnapshotToNodes(
    const SpatialTopology &topology, const SpatialSnapshot &snapshot,
    const std::vector<unsigned> &nodes);

} // namespace neurocube

#if NEUROCUBE_TRACE_ENABLED

/**
 * Count spatially resolved activity: NC_SPATIAL_EVENT(counter,
 * instance, amount). Compiles to a null-check while no spatial
 * registry is active and to nothing with -DNEUROCUBE_TRACE=OFF.
 */
#define NC_SPATIAL_EVENT(counter, instance, amount) \
    do { \
        if (::neurocube::SpatialRegistry *nc_spatial_r_ = \
                ::neurocube::spatial::activeRegistry()) { \
            nc_spatial_r_->add((counter), unsigned(instance), \
                               uint64_t(amount)); \
        } \
    } while (0)

#else

namespace neurocube::spatial::detail
{
/** Marks macro arguments as used in NEUROCUBE_TRACE=OFF builds. */
template <typename... Args>
inline void
ignore(Args &&...)
{
}
} // namespace neurocube::spatial::detail

#define NC_SPATIAL_EVENT(counter, instance, amount) \
    do { \
        if (false) { \
            ::neurocube::spatial::detail::ignore( \
                (counter), (instance), (amount)); \
        } \
    } while (0)

#endif // NEUROCUBE_TRACE_ENABLED

#endif // NEUROCUBE_TRACE_SPATIAL_HH
