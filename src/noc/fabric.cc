#include "noc/fabric.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace neurocube
{

NocFabric::NocFabric(const Config &config, StatGroup *parent,
                     Probe probe)
    : config_(config), probe_(probe),
      pePort_(config.numNodes),
      memPort_(config.numNodes),
      nodes_(config.numNodes),
      nodeSink_(config.numNodes, nullptr),
      statGroup_(parent, "noc"),
      statEjected_(&statGroup_, "ejected", "packets ejected at endpoints"),
      statLatencySum_(&statGroup_, "latencySum",
                      "sum of end-to-end packet latencies (ticks)"),
      statLinkFlits_(&statGroup_, "linkFlits",
                     "packet transfers over router-to-router links"),
      histLatency_(&statGroup_, "latency",
                   "end-to-end packet latency (ticks)")
{
    // A zero width or depth never moves a packet: the run would spin
    // to its pass deadline. Reject it here, naming the field.
    nc_assert(config_.linkWidth > 0, "noc.linkWidth must be > 0");
    nc_assert(config_.localPortWidth > 0,
              "noc.localPortWidth must be > 0");
    nc_assert(config_.bufferDepth > 0, "noc.bufferDepth must be > 0");
    nc_assert(config_.deliveryDepth > 0,
              "noc.deliveryDepth must be > 0");
    switch (config_.topology) {
      case NocTopology::Mesh2D:
        buildMesh();
        break;
      case NocTopology::FullyConnected:
        buildFullyConnected();
        break;
    }
    numPorts_ = routers_.front()->config().numPorts;
    linkAt_.assign(size_t(config_.numNodes) * numPorts_, SIZE_MAX);
    linkPorts_.assign(config_.numNodes, 0);
    for (size_t i = 0; i < links_.size(); ++i) {
        const Link &link = links_[i];
        linkAt_[link.srcRouter * numPorts_ + link.srcPort] = i;
        linkPorts_[link.srcRouter] |= uint64_t(1) << link.srcPort;
    }
    all_.nodes.resize(config_.numNodes);
    std::iota(all_.nodes.begin(), all_.nodes.end(), 0u);
    all_.linkMask.assign((links_.size() + 63) / 64, ~uint64_t(0));
    all_.occupiedLinks.resize(all_.linkMask.size());
    all_.ejecting.reserve(config_.numNodes);
    for (NodeState &node : nodes_) {
        node.peDelivery = Ring<Packet>(config_.deliveryDepth);
        node.memDelivery = Ring<Packet>(config_.deliveryDepth);
    }

    // The session sized the registry's node, vault and PE counters;
    // the fabric contributes the link list. One-time, not a hot path.
    if (probe_.registry != nullptr) {
        std::vector<SpatialLink> links;
        links.reserve(links_.size());
        for (const Link &link : links_) {
            links.push_back({uint16_t(link.srcRouter),
                             uint16_t(link.dstRouter)});
        }
        probe_.registry->configureLinks(meshWidth_, std::move(links));
    }
}

void
NocFabric::buildMesh()
{
    const unsigned n = config_.numNodes;
    meshWidth_ = static_cast<unsigned>(std::lround(std::sqrt(double(n))));
    nc_assert(meshWidth_ * meshWidth_ == n,
              "mesh needs a square node count, got %u", n);

    Router::Config rc;
    rc.numPorts = MeshPortCount;
    rc.bufferDepth = config_.bufferDepth;
    rc.numNodes = n;
    rc.portWidth.assign(MeshPortCount, config_.linkWidth);
    rc.portWidth[PortPe] = config_.localPortWidth;
    rc.portWidth[PortMem] = config_.localPortWidth;

    for (unsigned i = 0; i < n; ++i) {
        routers_.push_back(std::make_unique<Router>(
            rc, &statGroup_, "router" + std::to_string(i), i, probe_));
        pePort_[i] = PortPe;
        memPort_[i] = PortMem;
    }

    // X-Y deterministic routing tables.
    for (unsigned r = 0; r < n; ++r) {
        unsigned rx = r % meshWidth_;
        unsigned ry = r / meshWidth_;
        for (unsigned d = 0; d < n; ++d) {
            unsigned dx = d % meshWidth_;
            unsigned dy = d / meshWidth_;
            unsigned port;
            if (dx > rx)
                port = PortEast;
            else if (dx < rx)
                port = PortWest;
            else if (dy > ry)
                port = PortSouth;
            else if (dy < ry)
                port = PortNorth;
            else
                port = PortPe; // replaced below for mem destinations
            routers_[r]->setRoute(routeIndex(d, false, n), port);
            routers_[r]->setRoute(routeIndex(d, true, n),
                                  (dx == rx && dy == ry) ? PortMem
                                                         : port);
        }
    }

    // Neighbour links (both directions).
    auto add_link = [&](unsigned a, unsigned ap, unsigned b,
                        unsigned bp) {
        links_.push_back({a, ap, b, bp, config_.linkWidth, 1});
    };
    for (unsigned y = 0; y < meshWidth_; ++y) {
        for (unsigned x = 0; x < meshWidth_; ++x) {
            unsigned r = y * meshWidth_ + x;
            if (x + 1 < meshWidth_) {
                unsigned e = r + 1;
                add_link(r, PortEast, e, PortWest);
                add_link(e, PortWest, r, PortEast);
            }
            if (y + 1 < meshWidth_) {
                unsigned s = r + meshWidth_;
                add_link(r, PortSouth, s, PortNorth);
                add_link(s, PortNorth, r, PortSouth);
            }
        }
    }
}

void
NocFabric::buildFullyConnected()
{
    const unsigned n = config_.numNodes;
    nc_assert(n >= 2, "fully connected NoC needs >= 2 nodes");

    // Ports: 0..n-2 are direct channels to the other routers, then
    // the PE port and the memory port (17 channels for 16 nodes).
    const unsigned pe_port = n - 1;
    const unsigned mem_port = n;

    Router::Config rc;
    rc.numPorts = n + 1;
    rc.bufferDepth = config_.bufferDepth;
    rc.numNodes = n;
    rc.portWidth.assign(rc.numPorts, config_.linkWidth);
    rc.portWidth[pe_port] = config_.localPortWidth;
    rc.portWidth[mem_port] = config_.localPortWidth;

    for (unsigned i = 0; i < n; ++i) {
        routers_.push_back(std::make_unique<Router>(
            rc, &statGroup_, "router" + std::to_string(i), i, probe_));
        pePort_[i] = pe_port;
        memPort_[i] = mem_port;
    }

    auto neighbour_port = [&](unsigned self, unsigned other) {
        return other < self ? other : other - 1;
    };

    for (unsigned r = 0; r < n; ++r) {
        for (unsigned d = 0; d < n; ++d) {
            unsigned port = (d == r) ? pe_port : neighbour_port(r, d);
            routers_[r]->setRoute(routeIndex(d, false, n), port);
            routers_[r]->setRoute(routeIndex(d, true, n),
                                  (d == r) ? mem_port : port);
        }
    }

    // Direct channels are physical wires on the same floor plan the
    // mesh uses: lay the n routers on a square grid and price each
    // channel by the Manhattan distance between its endpoints.
    const unsigned grid =
        static_cast<unsigned>(std::lround(std::sqrt(double(n))));
    auto manhattan = [&](unsigned a, unsigned b) {
        unsigned ax = a % grid, ay = a / grid;
        unsigned bx = b % grid, by = b / grid;
        return (ax > bx ? ax - bx : bx - ax)
             + (ay > by ? ay - by : by - ay);
    };
    for (unsigned a = 0; a < n; ++a) {
        for (unsigned b = 0; b < n; ++b) {
            if (a == b)
                continue;
            links_.push_back({a, neighbour_port(a, b), b,
                              neighbour_port(b, a),
                              config_.linkWidth, manhattan(a, b)});
        }
    }
}

void
NocFabric::accountInjection(unsigned node, const Packet &packet)
{
    // The registry counts the same packet for the spatial export.
    NodeState &n = nodes_[node];
    const bool local = packet.dst == node;
    ++(local ? n.local : n.lateral);
    NC_COUNT(probe_,
             local ? SpatialCounter::NodeLocal : SpatialCounter::NodeLateral,
             node, 1);
    if (!laneOf_.empty() && laneOf_[node] != laneOf_[packet.dst])
        ++n.crossLane;
}

void
NocFabric::setLaneMap(std::vector<uint16_t> lane_of)
{
    nc_assert(lane_of.empty() || lane_of.size() == config_.numNodes,
              "lane map size %zu != node count %u", lane_of.size(),
              config_.numNodes);
    laneOf_ = std::move(lane_of);
}

unsigned
NocFabric::memInjectSpace(VaultId v) const
{
    return routers_[v]->inputSpace(memPort_[v]);
}

void
NocFabric::injectFromMem(VaultId v, const Packet &packet, Tick now)
{
    // Wake before the push: the scheduler wakes the fabric for the
    // tick that first switches the packet.
    if (nodeSink_[v] != nullptr)
        nodeSink_[v]->onInject(v, true);
    // PNGs inject before the fabric ticks at now: the router's idle
    // cycles run up to now, and the tick at now switches the packet.
    catchUpRouter(v, now);
    Packet p = packet;
    p.injectTick = now;
    accountInjection(v, p);
    routers_[v]->pushInput(memPort_[v], p);
}

unsigned
NocFabric::peInjectSpace(PeId p) const
{
    return routers_[p]->inputSpace(pePort_[p]);
}

void
NocFabric::injectFromPe(PeId p, const Packet &packet, Tick now)
{
    // Wake before the push (see injectFromMem).
    if (nodeSink_[p] != nullptr)
        nodeSink_[p]->onInject(p, false);
    // PEs inject after the fabric ticked at now, so the router was
    // idle through now (or already ticked at now).
    catchUpRouter(p, now + 1);
    Packet pk = packet;
    pk.injectTick = now;
    accountInjection(p, pk);
    routers_[p]->pushInput(pePort_[p], pk);
}

void
NocFabric::traverseLink(const Link &link, size_t index, Tick now)
{
    Router &src = *routers_[link.srcRouter];
    Router &dst = *routers_[link.dstRouter];
    const Ring<Packet> &out = src.outputQueue(link.srcPort);
    // Occupancy integral: source queue depth, once per executed
    // link-cycle with a packet waiting. Empty FIFOs and the cycles
    // the event engine skips would contribute zero, so the integral
    // is engine-invariant without any bulk accounting.
    NC_COUNT(probe_, SpatialCounter::LinkOccupancy, index, out.size());
    // Phase 1 of this tick is over: a router it skipped was idle
    // through now.
    catchUpRouter(link.dstRouter, now + 1);
    unsigned budget = link.width;
    while (budget > 0 && !out.empty()
           && dst.inputSpace(link.dstPort) > 0) {
        // With a lane map installed, a packet entering a router
        // outside its destination's lane escaped its sub-mesh.
        if (!laneOf_.empty()
            && laneOf_[link.dstRouter] != laneOf_[out.front().dst])
            ++nodes_[link.dstRouter].crossLane;
        dst.pushInput(link.dstPort, out.front());
        src.popOutput(link.srcPort);
        --budget;
        ++nodes_[link.srcRouter].linkFlits;
        NC_COUNT(probe_, SpatialCounter::LinkFlit, index, 1);
        NC_COUNT(probe_, EnergyEventKind::NocLink, link.srcRouter,
                 link.distance);
        NC_TRACE(probe_, TraceComponent::Router, link.srcRouter,
                 TraceEventType::LinkFlit, link.dstRouter);
    }
    // Credit starvation: a packet wanted this link but the
    // downstream FIFO was out of space. At most one stall per link
    // per executed cycle (a classification, not a flit count).
    if (budget > 0 && !out.empty()
        && dst.inputSpace(link.dstPort) == 0)
        NC_COUNT(probe_, SpatialCounter::LinkStall, index, 1);
}

void
NocFabric::ejectNode(unsigned node, Tick now)
{
    Router &router = *routers_[node];
    NodeState &n = nodes_[node];
    auto eject = [&](unsigned port, Ring<Packet> &sink,
                     bool is_mem) {
        const Ring<Packet> &out = router.outputQueue(port);
        unsigned budget = router.portWidth(port);
        bool ejected = false;
        while (budget > 0 && !out.empty()
               && sink.size() < config_.deliveryDepth) {
            Tick latency = now - out.front().injectTick;
            ++n.ejected;
            n.latencySum += latency;
            n.latency.sample(latency);
            NC_TRACE(probe_, TraceComponent::Router, node,
                     TraceEventType::PacketEject, is_mem ? 1 : 0, latency);
            sink.push_back(out.front());
            router.popOutput(port);
            --budget;
            ejected = true;
        }
        if (ejected && nodeSink_[node] != nullptr)
            nodeSink_[node]->onEject(node, is_mem);
    };
    eject(pePort_[node], n.peDelivery, false);
    eject(memPort_[node], n.memDelivery, true);
}

void
NocFabric::tick(Tick now, const LaneView *view, bool tick_all)
{
    const LaneView &v = viewOrAll(view);
    // The view's scratch: the links whose source FIFO holds a packet,
    // and the nodes with a packet for an endpoint. Only phase 1
    // enqueues into output FIFOs, so both are complete once it is
    // over.
    std::vector<uint64_t> &occupied_links = v.occupiedLinks;
    std::vector<unsigned> &ejecting = v.ejecting;
    std::fill(occupied_links.begin(), occupied_links.end(), 0);
    ejecting.clear();

    // Phase 1: switch allocation in every router that holds a packet.
    for (unsigned node : v.nodes) {
        Router &router = *routers_[node];
        if (!tick_all && router.idle())
            continue;
        NC_TRACE_SLOT(probe_, TraceSlot::Switch, node);
        catchUpRouter(node, now);
        router.tick();
        nodes_[node].accounted = now + 1;
        const uint64_t outputs = router.occupiedOutputs();
        for (uint64_t m = outputs & linkPorts_[node]; m != 0;
             m &= m - 1) {
            const size_t link =
                linkAt_[node * numPorts_ + std::countr_zero(m)];
            occupied_links[link / 64] |= uint64_t(1) << (link % 64);
        }
        // Routes lead only to links and to the two endpoint ports.
        if ((outputs & ~linkPorts_[node]) != 0)
            ejecting.push_back(node);
    }

    // Phase 2: router-to-router links (credit = downstream space),
    // in ascending link index. Links never share a source or
    // destination FIFO, so the three phase loops (and any
    // restriction of them to a view) are order-independent within a
    // cycle; the ascending order keeps trace events in place.
    for (size_t w = 0; w < occupied_links.size(); ++w) {
        for (uint64_t m = occupied_links[w] & v.linkMask[w]; m != 0;
             m &= m - 1) {
            const size_t index = w * 64 + std::countr_zero(m);
            NC_TRACE_SLOT(probe_, TraceSlot::Link, index);
            traverseLink(links_[index], index, now);
        }
    }

    // Phase 3: ejection into endpoint delivery queues.
    for (unsigned node : ejecting) {
        NC_TRACE_SLOT(probe_, TraceSlot::Eject, node);
        ejectNode(node, now);
    }
}

bool
NocFabric::routersIdle(const LaneView *view) const
{
    for (unsigned node : viewOrAll(view).nodes) {
        if (!routers_[node]->idle())
            return false;
    }
    return true;
}

void
NocFabric::restartAccounting(Tick start, const LaneView *view)
{
    for (unsigned node : viewOrAll(view).nodes)
        nodes_[node].accounted = start;
}

void
NocFabric::catchUp(Tick final, const LaneView *view)
{
    for (unsigned node : viewOrAll(view).nodes)
        catchUpRouter(node, final);
}

std::vector<unsigned>
NocFabric::routeRouters(unsigned src, unsigned dst, bool to_mem) const
{
    const unsigned index =
        routeIndex(uint16_t(dst), to_mem, config_.numNodes);
    std::vector<unsigned> path{src};
    for (unsigned node = src;;) {
        const size_t link =
            linkAt_[node * numPorts_ + routers_[node]->route(index)];
        if (link == SIZE_MAX)
            return path; // an endpoint port: the packet ejects here
        node = links_[link].dstRouter;
        path.push_back(node);
        nc_assert(path.size() <= config_.numNodes,
                  "route from %u to %u loops", src, dst);
    }
}

std::vector<NocFabric::LaneView>
NocFabric::buildLaneViews(
    const std::vector<std::vector<unsigned>> &partition) const
{
    std::vector<LaneView> views(partition.size());
    std::vector<size_t> lane_of(config_.numNodes, SIZE_MAX);
    for (size_t l = 0; l < partition.size(); ++l) {
        views[l].linkMask.assign((links_.size() + 63) / 64, 0);
        views[l].occupiedLinks.resize(views[l].linkMask.size());
        views[l].ejecting.reserve(partition[l].size());
        views[l].nodes = partition[l];
        std::sort(views[l].nodes.begin(), views[l].nodes.end());
        for (unsigned node : views[l].nodes) {
            nc_assert(lane_of[node] == SIZE_MAX,
                      "node %u in two lanes", node);
            lane_of[node] = l;
        }
    }
    for (size_t i = 0; i < links_.size(); ++i) {
        size_t src_lane = lane_of[links_[i].srcRouter];
        if (src_lane != SIZE_MAX
            && src_lane == lane_of[links_[i].dstRouter]) {
            views[src_lane].linkMask[i / 64] |= uint64_t(1) << (i % 64);
        }
    }
    return views;
}

Histogram
NocFabric::latencyHistogram() const
{
    Histogram latency(nullptr, "", "");
    for (const NodeState &n : nodes_)
        latency.merge(n.latency);
    return latency;
}

void
NocFabric::refreshStats()
{
    // Every count is integer-valued, so the sums are exact.
    statEjected_.set(double(ejectedPackets()));
    statLatencySum_.set(double(sumNodes(&NodeState::latencySum)));
    statLinkFlits_.set(double(linkFlits()));
    histLatency_.reset();
    histLatency_.merge(latencyHistogram());
}

bool
NocFabric::nodeQuiescent(unsigned node) const
{
    return routers_[node]->idle() && nodes_[node].peDelivery.empty()
        && nodes_[node].memDelivery.empty();
}

bool
NocFabric::idle() const
{
    for (unsigned node = 0; node < config_.numNodes; ++node) {
        if (!nodeQuiescent(node))
            return false;
    }
    return true;
}

} // namespace neurocube
