/**
 * @file
 * Unit tests for the router and the NoC fabric.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "noc/fabric.hh"
#include "noc/packet.hh"
#include "noc/router.hh"
#include "trace/energy.hh"
#include "trace/metrics.hh"
#include "trace/spatial.hh"

namespace neurocube
{
namespace
{

Packet
operandTo(uint16_t dst, MacId mac = 0, OpId op = 0)
{
    Packet p;
    p.kind = PacketKind::State;
    p.dst = dst;
    p.mac = mac;
    p.opId = op;
    return p;
}

TEST(Packet, HardwareOpIdWraps)
{
    Packet p;
    p.opId = 300;
    EXPECT_EQ(p.hwOpId(), 44u);
    p.opId = 255;
    EXPECT_EQ(p.hwOpId(), 255u);
    EXPECT_EQ(Packet::bits, 36u);
}

class FabricTest : public ::testing::Test
{
  protected:
    NocFabric::Config
    meshConfig()
    {
        NocFabric::Config c;
        c.topology = NocTopology::Mesh2D;
        c.numNodes = 16;
        return c;
    }

    void
    build(const NocFabric::Config &c)
    {
        fabric_ = std::make_unique<NocFabric>(c, &root_);
    }

    /** Tick until routers drain or limit; returns ticks used. */
    Tick
    drain(Tick limit = 1000)
    {
        Tick t = 0;
        do {
            fabric_->tick(now_ + t++);
        } while (t < limit && !fabric_->routersIdle());
        now_ += t;
        return t;
    }

    StatGroup root_{nullptr, "test"};
    std::unique_ptr<NocFabric> fabric_;
    Tick now_ = 0;
};

TEST_F(FabricTest, LocalDeliveryMemToPe)
{
    build(meshConfig());
    fabric_->injectFromMem(5, operandTo(5), now_);
    drain();
    ASSERT_EQ(fabric_->peDelivery(5).size(), 1u);
    EXPECT_EQ(fabric_->localPackets(), 1u);
    EXPECT_EQ(fabric_->lateralPackets(), 0u);
}

TEST_F(FabricTest, LateralDeliveryCrossesMesh)
{
    build(meshConfig());
    // Node 0 (corner) to node 15 (opposite corner): 6 hops.
    fabric_->injectFromMem(0, operandTo(15), now_);
    Tick t = drain();
    ASSERT_EQ(fabric_->peDelivery(15).size(), 1u);
    EXPECT_EQ(fabric_->lateralPackets(), 1u);
    EXPECT_GE(t, 6u);
}

TEST_F(FabricTest, AllPairsRoute)
{
    build(meshConfig());
    for (uint16_t src = 0; src < 16; ++src) {
        for (uint16_t dst = 0; dst < 16; ++dst) {
            fabric_->injectFromMem(src, operandTo(dst), now_);
            drain();
            ASSERT_EQ(fabric_->peDelivery(dst).size(), 1u)
                << "src " << src << " dst " << dst;
            fabric_->peDelivery(dst).clear();
        }
    }
}

TEST_F(FabricTest, WriteBackRoutesToMemPort)
{
    build(meshConfig());
    Packet wb;
    wb.kind = PacketKind::WriteBack;
    wb.dst = 3;
    wb.dstIsMem = true;
    fabric_->injectFromPe(12, wb, now_);
    drain();
    ASSERT_EQ(fabric_->memDelivery(3).size(), 1u);
    EXPECT_EQ(fabric_->memDelivery(3).front().kind,
              PacketKind::WriteBack);
}

TEST_F(FabricTest, FullyConnectedSingleHop)
{
    NocFabric::Config c;
    c.topology = NocTopology::FullyConnected;
    c.numNodes = 16;
    build(c);
    fabric_->injectFromMem(0, operandTo(15), now_);
    Tick t = drain();
    ASSERT_EQ(fabric_->peDelivery(15).size(), 1u);
    // Direct channel: at most a couple of router traversals.
    EXPECT_LE(t, 4u);
}

TEST_F(FabricTest, FullyConnectedAllPairs)
{
    NocFabric::Config c;
    c.topology = NocTopology::FullyConnected;
    c.numNodes = 16;
    build(c);
    for (uint16_t src = 0; src < 16; ++src) {
        for (uint16_t dst = 0; dst < 16; ++dst) {
            fabric_->injectFromMem(src, operandTo(dst), now_);
            drain();
            ASSERT_EQ(fabric_->peDelivery(dst).size(), 1u)
                << "src " << src << " dst " << dst;
            fabric_->peDelivery(dst).clear();
        }
    }
}

TEST_F(FabricTest, BackpressureLimitsInjection)
{
    NocFabric::Config c = meshConfig();
    c.deliveryDepth = 4;
    build(c);
    // Fill a PE's delivery queue and never drain it; injection space
    // must eventually run out (buffers + delivery queue are finite).
    unsigned injected = 0;
    for (Tick t = 0; t < 200; ++t) {
        while (fabric_->memInjectSpace(2) > 0 && injected < 1000) {
            fabric_->injectFromMem(2, operandTo(2), now_);
            ++injected;
        }
        fabric_->tick(now_++);
    }
    // 4 delivery + 16 in + 16 out FIFO slots; allow generous slack
    // but far below the 1000 offered.
    EXPECT_LT(injected, 100u);
    EXPECT_GE(injected, 4u);
}

TEST_F(FabricTest, LatencyAccounted)
{
    build(meshConfig());
    fabric_->injectFromMem(0, operandTo(15), now_);
    drain();
    EXPECT_GE(fabric_->meanLatency(), 6.0);
    EXPECT_EQ(fabric_->ejectedPackets(), 1u);
}

TEST_F(FabricTest, LaneMapCountsEscapingPackets)
{
    build(meshConfig());
    // Two lanes: the top two rows (nodes 0-7) and the bottom two.
    std::vector<uint16_t> lane_of(16);
    for (unsigned node = 0; node < 16; ++node)
        lane_of[node] = uint16_t(node / 8);
    fabric_->setLaneMap(lane_of);

    // A packet within its lane counts nowhere.
    fabric_->injectFromMem(0, operandTo(5), now_);
    drain();
    ASSERT_EQ(fabric_->peDelivery(5).size(), 1u);
    EXPECT_EQ(fabric_->crossLanePackets(), 0u);

    // Node 3 to node 12: one count at injection, then one for each
    // router it enters outside lane 1. X-Y routing goes west along
    // row 0 (2, 1, 0), then south (4, 8, 12): four routers.
    fabric_->injectFromMem(3, operandTo(12), now_);
    EXPECT_EQ(fabric_->crossLanePackets(), 1u);
    drain();
    ASSERT_EQ(fabric_->peDelivery(12).size(), 1u);
    ASSERT_EQ(fabric_->routeRouters(3, 12, false),
              (std::vector<unsigned>{3, 2, 1, 0, 4, 8, 12}));
    EXPECT_EQ(fabric_->crossLanePackets(), 1u + 4u);

    // With the map cleared, the same packet counts nothing.
    fabric_->setLaneMap({});
    fabric_->injectFromMem(3, operandTo(12), now_);
    drain();
    ASSERT_EQ(fabric_->peDelivery(12).size(), 2u);
    EXPECT_EQ(fabric_->crossLanePackets(), 5u);
}

TEST_F(FabricTest, LateralFraction)
{
    build(meshConfig());
    fabric_->injectFromMem(0, operandTo(0), now_);
    fabric_->injectFromMem(0, operandTo(1), now_);
    drain();
    fabric_->peDelivery(0).clear();
    fabric_->peDelivery(1).clear();
    EXPECT_DOUBLE_EQ(fabric_->lateralFraction(), 0.5);
}

TEST(Router, RotatingPriorityIsFair)
{
    // Two inputs contending for one output should share it roughly
    // evenly thanks to the rotating daisy chain.
    Router::Config rc;
    rc.numPorts = 3;
    rc.bufferDepth = 16;
    rc.numNodes = 1;
    rc.portWidth = {1, 1, 1};
    StatGroup root(nullptr, "t");
    Router router(rc, &root, "r");
    router.setRoute(routeIndex(0, false, 1), 2);

    Packet p = operandTo(0);
    for (int cycle = 0; cycle < 100; ++cycle) {
        for (unsigned in = 0; in < 2; ++in) {
            if (router.inputSpace(in) > 0)
                router.pushInput(in, p);
        }
        router.tick();
        while (!router.outputQueue(2).empty())
            router.popOutput(2);
    }
    // The crossbar moves one packet per output per cycle; both
    // inputs stay saturated, so the sum is ~100 and the split fair.
    EXPECT_EQ(router.packetsSwitched(), 100u);
}

TEST(Router, RotatingArbiterBoundsWaitingTime)
{
    // Starvation freedom of the rotating daisy chain (Section III-C):
    // with all six input ports of a mesh-sized router saturated and
    // contending for one output, every input must win within any six
    // consecutive grants (the chain visits each port once per
    // rotation period, so the worst-case wait is one full rotation).
    constexpr unsigned Inputs = 6;
    Router::Config rc;
    rc.numPorts = Inputs;
    rc.bufferDepth = 4;
    rc.numNodes = 1;
    rc.portWidth.assign(Inputs, 1);
    StatGroup root(nullptr, "t");
    Router router(rc, &root, "r");
    router.setRoute(routeIndex(0, false, 1), Inputs - 1);

    std::vector<uint16_t> grants;
    for (int cycle = 0; cycle < 120; ++cycle) {
        for (unsigned in = 0; in < Inputs; ++in) {
            // Tag each packet with its input port via the src field.
            Packet p = operandTo(0);
            p.src = VaultId(in);
            if (router.inputSpace(in) > 0)
                router.pushInput(in, p);
        }
        router.tick();
        while (!router.outputQueue(Inputs - 1).empty()) {
            grants.push_back(
                uint16_t(router.outputQueue(Inputs - 1).front().src));
            router.popOutput(Inputs - 1);
        }
    }

    ASSERT_GE(grants.size(), 2 * Inputs);
    for (size_t start = 0; start + Inputs <= grants.size(); ++start) {
        unsigned seen = 0;
        for (size_t i = start; i < start + Inputs; ++i)
            seen |= 1u << grants[i];
        EXPECT_EQ(seen, (1u << Inputs) - 1)
            << "input starved in the grant window at " << start;
    }
}

TEST(Router, CreditViolationAsserts)
{
    Router::Config rc;
    rc.numPorts = 2;
    rc.bufferDepth = 2;
    rc.numNodes = 1;
    StatGroup root(nullptr, "t");
    Router router(rc, &root, "r");
    Packet p = operandTo(0);
    router.pushInput(0, p);
    router.pushInput(0, p);
    EXPECT_EQ(router.inputSpace(0), 0u);
    EXPECT_DEATH(router.pushInput(0, p), "credit violation");
}

TEST(FabricConfig, ZeroWidthsAndDepthsAreRejected)
{
    // Each would never move a packet and spin a run to its deadline.
    StatGroup root(nullptr, "t");
    NocFabric::Config c;
    c.linkWidth = 0;
    EXPECT_DEATH(NocFabric(c, &root), "noc.linkWidth must be > 0");
    c = NocFabric::Config{};
    c.localPortWidth = 0;
    EXPECT_DEATH(NocFabric(c, &root),
                 "noc.localPortWidth must be > 0");
    c = NocFabric::Config{};
    c.bufferDepth = 0;
    EXPECT_DEATH(NocFabric(c, &root), "noc.bufferDepth must be > 0");
    c = NocFabric::Config{};
    c.deliveryDepth = 0;
    EXPECT_DEATH(NocFabric(c, &root),
                 "noc.deliveryDepth must be > 0");
}

TEST(Router, PortCountBoundedByOccupancyMask)
{
    Router::Config rc;
    rc.numPorts = 65;
    rc.numNodes = 1;
    StatGroup root(nullptr, "t");
    EXPECT_DEATH(Router(rc, &root, "r"), "occupancy masks hold 64");
    rc.numPorts = 64;
    Router widest(rc, &root, "r64");
    EXPECT_EQ(widest.portWidth(63), 1u);
}

TEST(Router, SkipTicksWithBufferedPacketAsserts)
{
    Router::Config rc;
    rc.numPorts = 2;
    rc.numNodes = 1;
    StatGroup root(nullptr, "t");
    Router router(rc, &root, "r");
    router.pushInput(0, operandTo(0));
    EXPECT_DEATH(router.skipTicks(1), "skipTicks while packets");
}

TEST(Router, MissingRouteAsserts)
{
    Router::Config rc;
    rc.numPorts = 2;
    rc.numNodes = 2;
    StatGroup root(nullptr, "t");
    Router router(rc, &root, "r");
    router.pushInput(0, operandTo(1));
    EXPECT_DEATH(router.tick(), "no route installed for dst 1");
    Router far(rc, &root, "far");
    far.pushInput(0, operandTo(7));
    EXPECT_DEATH(far.tick(), "unroutable destination 7");
}

/**
 * Differential check of the fabric's router skipping: one seeded
 * stimulus runs once with every router ticked every cycle (the
 * scheduler's tick-all mode) and once with empty routers left out
 * and caught up lazily. The stimulus follows the machine's phase
 * order: PNG-side draining and injection before the fabric's tick,
 * PE-side draining and injection after it.
 */
class FabricSkipDiff
    : public ::testing::TestWithParam<std::tuple<NocTopology, unsigned>>
{
  protected:
    /** One packet handed to an endpoint: (tick, node, to_mem, id). */
    using Delivery = std::tuple<Tick, unsigned, bool, uint32_t>;

    struct Outcome
    {
        std::vector<Delivery> delivered;
        Tick final = 0;
        /** The fabric's whole counter registry at the end. */
        MetricsSnapshot counters;
        uint64_t linkFlitStat = 0;
        uint64_t ejected = 0;
        uint64_t latencyMin = 0, latencyMax = 0;
        double latencyMean = 0, latencyP50 = 0, latencyP99 = 0;
    };

    static Outcome
    run(bool tick_all, uint64_t seed)
    {
        const auto [topology, link_width] = GetParam();
        NocFabric::Config c;
        c.topology = topology;
        c.numNodes = 16;
        c.linkWidth = link_width;
        c.bufferDepth = 4;
        c.deliveryDepth = 4;

        MetricsRegistry registry;
        registry.configure(c.numNodes, c.numNodes, c.numNodes);

        Outcome o;
        {
            StatGroup root(nullptr, "t");
            NocFabric fabric(c, &root, Probe{nullptr, &registry});
            Rng rng(seed);
            uint32_t next_id = 0;
            Tick quiet_until = 0;
            const Tick inject_end = 3000;
            auto drain = [&](Tick t, unsigned node, bool to_mem,
                             uint64_t n) {
                Ring<Packet> &q = to_mem ? fabric.memDelivery(node)
                                         : fabric.peDelivery(node);
                for (; n > 0 && !q.empty(); --n) {
                    o.delivered.emplace_back(t, node, to_mem,
                                             q.front().neuron);
                    q.pop_front();
                }
            };
            auto packet = [&](bool to_mem) {
                // A third of the traffic converges on one node, so
                // its FIFOs back up into the links feeding it.
                const uint64_t dst =
                    rng.below(3) == 0 ? 5 : rng.below(c.numNodes);
                Packet p = operandTo(uint16_t(dst));
                p.dstIsMem = to_mem;
                p.neuron = next_id++;
                return p;
            };
            Tick t = 0;
            for (;; ++t) {
                const bool injecting = t < inject_end;
                if (injecting && t >= quiet_until
                    && rng.below(64) == 0) {
                    // An idle gap: no endpoint injects for a while.
                    quiet_until = t + 1 + rng.below(40);
                }
                const bool active = injecting && t >= quiet_until;
                // PNG phase: absorb write-backs, inject operands.
                for (unsigned v = 0; v < c.numNodes; ++v) {
                    drain(t, v, true, injecting ? rng.below(3) : 2);
                    if (!active || rng.below(4) != 0)
                        continue;
                    for (uint64_t k = rng.below(3); k > 0
                         && fabric.memInjectSpace(VaultId(v)) > 0; --k)
                        fabric.injectFromMem(VaultId(v), packet(false),
                                             t);
                }
                // Fabric phase: the event scheduler leaves an empty
                // fabric asleep; tick-all mode ticks it regardless.
                if (tick_all || !fabric.routersIdle())
                    fabric.tick(t, nullptr, tick_all);
                // PE phase: consume operands, inject write-backs.
                for (unsigned p = 0; p < c.numNodes; ++p) {
                    drain(t, p, false, injecting ? rng.below(3) : 2);
                    if (active && rng.below(6) == 0
                        && fabric.peInjectSpace(PeId(p)) > 0)
                        fabric.injectFromPe(PeId(p), packet(true), t);
                }
                if (!injecting && fabric.idle())
                    break;
                if (t > 100000) {
                    ADD_FAILURE() << "fabric never drained";
                    break;
                }
            }
            o.final = t + 1;
            fabric.catchUp(o.final);

            o.counters = registry.snapshot();
            o.linkFlitStat = fabric.linkFlits();
            o.ejected = fabric.ejectedPackets();
            const Histogram &h = fabric.latencyHistogram();
            o.latencyMin = h.min();
            o.latencyMax = h.max();
            o.latencyMean = h.mean();
            o.latencyP50 = h.p50();
            o.latencyP99 = h.p99();
            EXPECT_EQ(o.ejected, next_id);
        }
        return o;
    }
};

TEST_P(FabricSkipDiff, SkippingMatchesTickAll)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const Outcome all = run(true, seed);
        const Outcome skip = run(false, seed);

        ASSERT_GT(all.delivered.size(), 1000u);
        ASSERT_EQ(all.final, skip.final);
        const size_t n =
            std::min(all.delivered.size(), skip.delivered.size());
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(all.delivered[i], skip.delivered[i])
                << "first differing delivery at index " << i
                << ", tick " << std::get<0>(all.delivered[i]);
        }
        ASSERT_EQ(all.delivered.size(), skip.delivered.size());

#if NEUROCUBE_TRACE_ENABLED
        // Every router is accounted for every tick, ticked or not.
        // The stimulus must reach every regime: idle stretches,
        // switching, and head-of-line blocking behind full FIFOs.
        const MetricsSnapshot &a = all.counters;
        const MetricsSnapshot &k = skip.counters;
        ASSERT_EQ(k.instances(Counter::stall(TraceComponent::Router,
                                             StallClass::Idle)),
                  16u);
        StallBreakdown sum;
        for (unsigned r = 0; r < 16; ++r) {
            EXPECT_EQ(a.stalls(TraceComponent::Router, r).ticks,
                      k.stalls(TraceComponent::Router, r).ticks)
                << "router " << r;
            EXPECT_EQ(k.stalls(TraceComponent::Router, r).total(),
                      skip.final);
            sum += k.stalls(TraceComponent::Router, r);
        }
        EXPECT_GT(sum[StallClass::Idle], 0u);
        EXPECT_GT(sum[StallClass::Busy], 0u);
        EXPECT_GT(sum[StallClass::StallNocCredit], 0u);
        uint64_t hops = 0;
        for (unsigned r = 0; r < 16; ++r) {
            for (EnergyEventKind kind :
                 {EnergyEventKind::NocHop, EnergyEventKind::NocLink}) {
                EXPECT_EQ(a.at(kind, r), k.at(kind, r))
                    << "router " << r;
            }
            hops += k.at(EnergyEventKind::NocHop, r);
        }
        EXPECT_GT(hops, 0u);
        const SpatialSnapshot as = a.spatialCounts();
        const SpatialSnapshot ks = k.spatialCounts();
        EXPECT_EQ(as.linkFlits, ks.linkFlits);
        EXPECT_EQ(as.linkStalls, ks.linkStalls);
        EXPECT_EQ(as.linkOccupancy, ks.linkOccupancy);
        uint64_t stalls = 0;
        for (uint64_t n : ks.linkStalls)
            stalls += n;
        EXPECT_GT(stalls, 0u);
        // Beyond the asserts above: every counter slot agrees.
        EXPECT_EQ(a.slots, k.slots);
#endif
        EXPECT_EQ(all.linkFlitStat, skip.linkFlitStat);
        EXPECT_GT(skip.linkFlitStat, 0u);
        EXPECT_EQ(all.ejected, skip.ejected);
        EXPECT_EQ(all.latencyMin, skip.latencyMin);
        EXPECT_EQ(all.latencyMax, skip.latencyMax);
        EXPECT_EQ(all.latencyMean, skip.latencyMean);
        EXPECT_EQ(all.latencyP50, skip.latencyP50);
        EXPECT_EQ(all.latencyP99, skip.latencyP99);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, FabricSkipDiff,
    ::testing::Combine(::testing::Values(NocTopology::Mesh2D,
                                         NocTopology::FullyConnected),
                       ::testing::Values(1u, 2u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) == NocTopology::Mesh2D
                               ? "Mesh"
                               : "FullyConnected")
             + "Width" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace neurocube
