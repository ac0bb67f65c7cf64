/**
 * @file
 * NoC fabric: routers wired into a topology, plus endpoint queues.
 *
 * Two topologies from the paper are provided:
 *  - 2D mesh with deterministic X-Y routing (Fig. 6a), the baseline
 *    Neurocube NoC;
 *  - fully connected, where every router has a direct channel to
 *    every other router (Fig. 6b, 17 in/out channels per router for
 *    16 nodes), used in the Section VI-C comparison.
 *
 * Credit-based flow control is modelled by space checks against the
 * downstream FIFO a link feeds (zero-latency credit return). Each
 * node hosts one PE endpoint and one memory (PNG) endpoint.
 */

#ifndef NEUROCUBE_NOC_FABRIC_HH
#define NEUROCUBE_NOC_FABRIC_HH

#include <memory>
#include <string>
#include <vector>

#include "common/cache_line.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/wake.hh"
#include "noc/packet.hh"
#include "noc/router.hh"

namespace neurocube
{

/** Which paper topology to instantiate. */
enum class NocTopology
{
    Mesh2D,
    FullyConnected,
};

/** Routers wired into a topology with PE/memory endpoints. */
class NocFabric
{
  public:
    /** Structural parameters of the fabric. */
    struct Config
    {
        NocTopology topology = NocTopology::Mesh2D;
        /** Number of nodes; must be a perfect square for the mesh. */
        unsigned numNodes = 16;
        /** Router FIFO depth (paper: 16). */
        unsigned bufferDepth = 16;
        /** Packets per cycle on PE/memory ports (2: one DRAM word). */
        unsigned localPortWidth = 2;
        /** Packets per cycle on router-to-router channels. */
        unsigned linkWidth = 1;
        /** Capacity of each endpoint delivery queue. */
        unsigned deliveryDepth = 32;
    };

    /**
     * @param config structural parameters
     * @param parent stat group parent
     * @param probe the machine's instrumentation, passed on to every
     *        router; the fabric publishes its link list into the
     *        probe's registry
     */
    NocFabric(const Config &config, StatGroup *parent,
              Probe probe = {});

    /** Space available for PNG injection at node v. */
    unsigned memInjectSpace(VaultId v) const;
    /** Inject a packet from the PNG at node v. */
    void injectFromMem(VaultId v, const Packet &packet, Tick now);

    /** Space available for PE injection at node p. */
    unsigned peInjectSpace(PeId p) const;
    /** Inject a packet from the PE at node p. */
    void injectFromPe(PeId p, const Packet &packet, Tick now);

    /** Packets delivered to PE p; the PE pops from the front. */
    Ring<Packet> &peDelivery(PeId p) { return nodes_[p].peDelivery; }
    /** Packets delivered to the PNG/memory port at node v. */
    Ring<Packet> &memDelivery(VaultId v)
    {
        return nodes_[v].memDelivery;
    }

    /**
     * Every router a packet from node @p src to node @p dst's PE port
     * (with @p to_mem, its memory port) passes through, both ends
     * included, in route order. Walks the routers' own route tables,
     * so it holds for every topology.
     */
    std::vector<unsigned> routeRouters(unsigned src, unsigned dst,
                                       bool to_mem) const;

    /**
     * Structural slice of the fabric: a set of routers and the links
     * between them. The whole fabric is one view (built once); a
     * batch lane's view holds the lane's routers and the links
     * internal to it. Ticking a lane's view is equivalent to ticking
     * the whole fabric as long as no packet crosses lanes (routers,
     * links and ejections are mutually independent within a cycle,
     * so restricting the iteration to one lane's slice cannot
     * reorder anything observable).
     */
    struct LaneView
    {
        /** View nodes, ascending (matches full-fabric tick order). */
        std::vector<unsigned> nodes;
        /** Bit i of word i / 64 set: links_[i] is in the view. */
        std::vector<uint64_t> linkMask;
        /**
         * tick()'s scratch, sized when the view is built: the links
         * whose source FIFO holds a packet, and the nodes with a
         * packet for an endpoint. One scheduler (one thread) ticks a
         * view, and its tick() allocates nothing.
         */
        mutable std::vector<uint64_t> occupiedLinks;
        mutable std::vector<unsigned> ejecting;
    };

    /**
     * Slice the fabric along a node partition (one view per part: a
     * batch lane, or a group of nodes that no pass traffic connects
     * to the others).
     */
    std::vector<LaneView>
    buildLaneViews(
        const std::vector<std::vector<unsigned>> &partition) const;

    /**
     * Advance one cycle of @p view (nullptr: the whole fabric):
     * switch the routers, then move the links, then eject. An empty
     * router is not ticked: each router keeps the first tick it has
     * not yet accounted, and its skipped idle cycles are replayed by
     * Router::skipTicks() just before the next packet lands in it
     * (or by catchUp()). With @p tick_all every router of the view is
     * ticked every call (the scheduler's tick-all mode, the oracle).
     *
     * Push sites assume the scheduler's phase order within a cycle:
     * PNG injection before the fabric's tick, link pushes inside it,
     * PE injection after it.
     */
    void tick(Tick now, const LaneView *view = nullptr,
              bool tick_all = false);

    /** True when none of the view's routers holds a packet. */
    bool routersIdle(const LaneView *view = nullptr) const;

    /**
     * Restart the accounting of the view's routers at @p start (a
     * pass start): ticks before it, such as the configuration
     * window, stay unaccounted.
     */
    void restartAccounting(Tick start, const LaneView *view = nullptr);

    /** Account every router of the view up to @p final (exclusive). */
    void catchUp(Tick final, const LaneView *view = nullptr);

    /**
     * Install the wake sink of one node (its scheduler), or nullptr
     * to detach. Ejections into the node's delivery queues report
     * onEject(node, to_mem) and injections report
     * onInject(node, from_mem) to it.
     */
    void
    setNodeWakeSink(unsigned node, WakeSink *sink)
    {
        nodeSink_[node] = sink;
    }

    /**
     * Copy the per-node counts into the registered stats the stats
     * dump prints (noc.ejected, latencySum, linkFlits, latency).
     * The accessors below sum the nodes themselves; the pass driver
     * refreshes the stats once per pass.
     */
    void refreshStats();

    /** True when no packet is anywhere in the fabric. */
    bool idle() const;

    /**
     * True when one node holds no packets: its router FIFOs and both
     * endpoint delivery queues are empty. Batched execution uses this
     * for lane-tagged completion (a lane is quiescent when every one
     * of its nodes is).
     */
    bool nodeQuiescent(unsigned node) const;

    /**
     * Install a node -> lane assignment. While set, every injection
     * and every link traversal is checked against it: a packet
     * injected toward another lane counts once at its source, and
     * once more at each router it enters outside its destination's
     * lane (crossLanePackets()). Pass an empty vector to remove.
     */
    void setLaneMap(std::vector<uint16_t> lane_of);

    /** Packets that violated the lane map (0 when lanes isolate). */
    uint64_t
    crossLanePackets() const
    {
        return sumNodes(&NodeState::crossLane);
    }

    /** Structural parameters. */
    const Config &config() const { return config_; }

    /** Packets whose source and destination node differ. */
    uint64_t lateralPackets() const { return sumNodes(&NodeState::lateral); }
    /** Packets delivered to a same-node destination. */
    uint64_t localPackets() const { return sumNodes(&NodeState::local); }
    /** Total packets ejected at endpoints. */
    uint64_t ejectedPackets() const { return sumNodes(&NodeState::ejected); }
    /** Mean end-to-end packet latency in ticks. */
    double
    meanLatency() const
    {
        const uint64_t n = ejectedPackets();
        return n ? double(sumNodes(&NodeState::latencySum)) / double(n)
                 : 0.0;
    }

    /** End-to-end packet latency distribution (ticks). */
    Histogram latencyHistogram() const;

    /** Lateral packets injected at one node (per-lane accounting). */
    uint64_t
    nodeLateralPackets(unsigned node) const
    {
        return nodes_[node].lateral;
    }
    /** Node-local packets injected at one node. */
    uint64_t
    nodeLocalPackets(unsigned node) const
    {
        return nodes_[node].local;
    }
    /** Packets ejected at one node. */
    uint64_t
    nodeEjectedPackets(unsigned node) const
    {
        return nodes_[node].ejected;
    }
    /** Latency distribution of the packets ejected at one node. */
    const Histogram &
    nodeLatencyHistogram(unsigned node) const
    {
        return nodes_[node].latency;
    }

    /** Total packet transfers over router-to-router links. */
    uint64_t linkFlits() const { return sumNodes(&NodeState::linkFlits); }

    /** Fraction of traffic that crossed between nodes. */
    double
    lateralFraction() const
    {
        uint64_t lateral = lateralPackets();
        uint64_t total = lateral + localPackets();
        return total ? double(lateral) / double(total) : 0.0;
    }

    /** Direct access to a router (tests and layout tools). */
    Router &router(unsigned node) { return *routers_[node]; }

  private:
    /** A unidirectional channel between two router ports. */
    struct Link
    {
        unsigned srcRouter;
        unsigned srcPort;
        unsigned dstRouter;
        unsigned dstPort;
        unsigned width;
        /**
         * Physical length in Manhattan grid hops on the chip floor
         * plan (mesh neighbour links are 1; fully-connected channels
         * span the grid distance between their endpoints). Scales the
         * NocLink energy per traversal, so the fully-connected
         * topology pays for its long global wires.
         */
        unsigned distance;
    };

    void buildMesh();
    void buildFullyConnected();
    void accountInjection(unsigned node, const Packet &packet);
    /** The view a LaneView pointer names (nullptr: the fabric). */
    const LaneView &
    viewOrAll(const LaneView *view) const
    {
        return view != nullptr ? *view : all_;
    }
    /** Replay router @p node's idle cycles up to @p to (exclusive). */
    void
    catchUpRouter(unsigned node, Tick to)
    {
        Tick &accounted = nodes_[node].accounted;
        if (accounted < to) {
            routers_[node]->skipTicks(to - accounted);
            accounted = to;
        }
    }
    /** Move packets across one link (phase 2 body of tick @p now).
     *  @p index is the link's ordinal in links_ (spatial counter
     *  instance). @pre the source output FIFO is occupied */
    void traverseLink(const Link &link, size_t index, Tick now);
    /** Eject into one node's delivery queues (phase 3 body). */
    void ejectNode(unsigned node, Tick now);

    /**
     * The per-node state the node's own scheduler writes, on cache
     * lines of its own: threads stepping neighbouring nodes never
     * share a line. The fabric's counts live here, kept apart from
     * the registry (which exists only while tracing), and the
     * accessors sum them.
     */
    struct alignas(cacheLineBytes) NodeState
    {
        Ring<Packet> peDelivery;
        Ring<Packet> memDelivery;
        /** First tick the node's router has not accounted (tick()). */
        Tick accounted = 0;
        /** Lateral/local packets injected here. */
        uint64_t lateral = 0;
        uint64_t local = 0;
        /** Packets ejected here and the sum of their latencies. */
        uint64_t ejected = 0;
        uint64_t latencySum = 0;
        /** Link transfers out of this node's router. */
        uint64_t linkFlits = 0;
        /** Lane-map violations injected at or entering this node. */
        uint64_t crossLane = 0;
        Histogram latency{nullptr, "latency", ""};
    };

    /** Sum one per-node count over every node. */
    uint64_t
    sumNodes(uint64_t NodeState::*count) const
    {
        uint64_t total = 0;
        for (const NodeState &n : nodes_)
            total += n.*count;
        return total;
    }

    Config config_;
    Probe probe_;
    unsigned meshWidth_ = 0;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<Link> links_;
    /** Every node and every link (the view a null view means). */
    LaneView all_;
    /** Router port count (every router of a topology has the same). */
    unsigned numPorts_ = 0;
    /** Per node * numPorts_ + port: the link that port feeds. */
    std::vector<size_t> linkAt_;
    /** Per node: output ports that feed a link. */
    std::vector<uint64_t> linkPorts_;
    /** Per node: output port feeding the PE endpoint. */
    std::vector<unsigned> pePort_;
    /** Per node: output port feeding the memory endpoint. */
    std::vector<unsigned> memPort_;
    /** Per node: delivery queues, router accounting, counts. */
    std::vector<NodeState> nodes_;
    /** Node -> lane assignment (empty = no checking). */
    std::vector<uint16_t> laneOf_;

    /** Per-node scheduler wake sinks (null outside a pass). */
    std::vector<WakeSink *> nodeSink_;

    StatGroup statGroup_;
    Stat statEjected_;
    Stat statLatencySum_;
    Stat statLinkFlits_;
    Histogram histLatency_;
};

} // namespace neurocube

#endif // NEUROCUBE_NOC_FABRIC_HH
