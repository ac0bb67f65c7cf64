/**
 * @file
 * Unit tests for the PNG: LUT, address generator, and response
 * matching in the PNG itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "dram/memory_channel.hh"
#include "noc/fabric.hh"
#include "png/address_generator.hh"
#include "png/lut.hh"
#include "png/png.hh"

namespace neurocube
{
namespace
{

TEST(Lut, IdentityIsExact)
{
    const Lut &lut = sharedLut(ActivationKind::Identity);
    for (int raw = -32768; raw <= 32767; raw += 257) {
        Fixed in = Fixed::fromRaw(int16_t(raw));
        EXPECT_EQ(lut.apply(in), in);
    }
}

TEST(Lut, ReluClampsNegatives)
{
    const Lut &lut = sharedLut(ActivationKind::ReLU);
    EXPECT_EQ(lut.apply(Fixed::fromDouble(-3.0)).raw(), 0);
    EXPECT_EQ(lut.apply(Fixed::fromDouble(3.0)),
              Fixed::fromDouble(3.0));
}

TEST(Lut, SigmoidMatchesQuantizedMath)
{
    const Lut &lut = sharedLut(ActivationKind::Sigmoid);
    for (double v : {-8.0, -1.0, 0.0, 1.0, 8.0}) {
        Fixed in = Fixed::fromDouble(v);
        Fixed expect =
            Fixed::fromDouble(1.0 / (1.0 + std::exp(-in.toDouble())));
        EXPECT_EQ(lut.apply(in), expect) << "at " << v;
    }
}

TEST(Lut, TanhSaturatesToUnit)
{
    const Lut &lut = sharedLut(ActivationKind::Tanh);
    EXPECT_NEAR(lut.apply(Fixed::fromDouble(20.0)).toDouble(), 1.0,
                1.0 / 256.0);
    EXPECT_NEAR(lut.apply(Fixed::fromDouble(-20.0)).toDouble(), -1.0,
                1.0 / 256.0);
}

/**
 * Build a simple one-vault conv program with a k x k kernel and a
 * 6x6 output. The default 3x3 kernel fits one connection block of
 * 16; a 5x5 kernel spans a full block and a partial one (16 + 9).
 */
PngProgram
smallConvProgram(int k = 3)
{
    PngProgram prog;
    prog.enabled = true;
    prog.outWalk = {0, 0, 6, 6};
    prog.strideX = prog.strideY = 1;
    for (int dy = 0; dy < k; ++dy) {
        for (int dx = 0; dx < k; ++dx) {
            prog.conns.push_back({0, int16_t(dx), int16_t(dy)});
        }
    }
    const int in = 5 + k;
    prog.input.region = {100, uint64_t(in * in)};
    prog.input.stored = {0, 0, in, in};
    prog.input.planes = 1;
    prog.output.region = {200, 36};
    prog.output.stored = {0, 0, 6, 6};
    prog.output.planes = 1;
    prog.weights = {300, uint64_t(k * k)};
    prog.outTiles = TileMap::grid({0, 0, 6, 6}, 1, 1);
    prog.homeTiles = prog.outTiles;
    prog.outMapWidth = 6;
    prog.expectedWriteBacks = 36;
    return prog;
}

TEST(AddressGenerator, GeneratesAllPairsOnce)
{
    for (int k : {3, 5}) {
        uint64_t pairs = 36u * uint64_t(k * k);
        AddressGenerator gen;
        gen.configure(smallConvProgram(k));
        std::map<std::tuple<uint32_t, uint32_t, uint32_t>, int> seen;
        GeneratedOp op;
        uint64_t states = 0, weights = 0;
        while (gen.next(op)) {
            if (op.kind == PacketKind::State)
                ++states;
            else
                ++weights;
            seen[{op.group, op.opId, op.mac}] += 1;
        }
        EXPECT_EQ(states, pairs) << "kernel " << k;
        EXPECT_EQ(weights, pairs) << "kernel " << k;
        EXPECT_EQ(gen.totalPairs(), pairs) << "kernel " << k;
        EXPECT_EQ(seen.size(), pairs) << "kernel " << k;
        // Each (group, op, mac) must appear exactly twice: one state,
        // one weight.
        for (const auto &[key, count] : seen)
            EXPECT_EQ(count, 2) << "group/op/mac duplicated or missing";
    }
}

TEST(AddressGenerator, ConvAddressesFollowEq45)
{
    AddressGenerator gen;
    PngProgram prog = smallConvProgram();
    gen.configure(prog);
    GeneratedOp op;
    while (gen.next(op)) {
        if (op.kind != PacketKind::State)
            continue;
        uint32_t x = op.neuron % 6;
        uint32_t y = op.neuron / 6;
        const Conn &c = prog.conns[op.opId];
        // Addr = (targ_y * W + targ_x) + base (Eq. 5, W = stored
        // width 8).
        Addr expect = 100 + (y + c.dy) * 8 + (x + c.dx);
        EXPECT_EQ(op.addr, expect);
    }
}

TEST(AddressGenerator, SharedWeightsIndexedByConnection)
{
    AddressGenerator gen;
    gen.configure(smallConvProgram());
    GeneratedOp op;
    while (gen.next(op)) {
        if (op.kind == PacketKind::Weight) {
            EXPECT_EQ(op.addr, 300 + op.opId);
        }
    }
}

TEST(AddressGenerator, StatesBeforeWeightsPerConnection)
{
    // For every (group, connection), all state operands are emitted
    // before any weight operand — the burst-aligned DRAM pattern
    // (states of a whole connection block stream first, then the
    // block's weights), in the full block and in the partial one.
    AddressGenerator gen;
    gen.configure(smallConvProgram(5));
    GeneratedOp op;
    std::map<std::pair<uint32_t, uint32_t>, int> last_state;
    std::map<std::pair<uint32_t, uint32_t>, int> first_weight;
    int seq = 0;
    while (gen.next(op)) {
        auto key = std::make_pair(op.group, uint32_t(op.opId));
        if (op.kind == PacketKind::State) {
            last_state[key] = seq;
        } else {
            if (!first_weight.count(key))
                first_weight[key] = seq;
        }
        ++seq;
    }
    for (const auto &[key, w] : first_weight) {
        ASSERT_TRUE(last_state.count(key));
        EXPECT_GT(w, last_state[key])
            << "group " << key.first << " op " << key.second;
    }
}

TEST(AddressGenerator, ConnectionBlockingLengthensStreamRuns)
{
    // The 5x5 kernel's 25 connections form a full block of 16 and a
    // partial one of 9. The first group's 16 MACs stream each block's
    // state operands back-to-back, then that block's weights.
    static_assert(AddressGenerator::connBlockSize == 16);
    AddressGenerator gen;
    gen.configure(smallConvProgram(5));
    GeneratedOp op;
    std::vector<std::pair<PacketKind, unsigned>> runs;
    while (runs.size() < 5 && gen.next(op)) {
        if (runs.empty() || runs.back().first != op.kind)
            runs.push_back({op.kind, 0});
        ++runs.back().second;
    }
    ASSERT_EQ(runs.size(), 5u);
    const unsigned full = AddressGenerator::connBlockSize * macsPerPe;
    EXPECT_EQ(runs[0].first, PacketKind::State);
    EXPECT_EQ(runs[0].second, full);
    EXPECT_EQ(runs[1].first, PacketKind::Weight);
    EXPECT_EQ(runs[1].second, full);
    EXPECT_EQ(runs[2].first, PacketKind::State);
    EXPECT_EQ(runs[2].second, 9u * macsPerPe);
    EXPECT_EQ(runs[3].first, PacketKind::Weight);
    EXPECT_EQ(runs[3].second, 9u * macsPerPe);
    // The second group starts again at the first block.
    EXPECT_EQ(runs[4].first, PacketKind::State);
    EXPECT_EQ(op.opId, 0u);
    EXPECT_EQ(op.group, 1u);
}

TEST(AddressGenerator, OrderedPerDestinationGroup)
{
    // The PE's OP-counter sequencing needs: per destination, groups
    // non-decreasing; and within a (dst, group), each operand KIND's
    // op ids non-decreasing (states of a connection block stream
    // before the block's weights, so kinds interleave across the
    // 5x5 kernel's two blocks).
    AddressGenerator gen;
    gen.configure(smallConvProgram(5));
    GeneratedOp op;
    std::map<uint32_t, uint32_t> last_group; // dst -> group
    std::map<std::tuple<uint32_t, uint32_t, int>, uint32_t> last_op;
    while (gen.next(op)) {
        auto it = last_group.find(op.dst);
        if (it != last_group.end()) {
            EXPECT_GE(op.group, it->second)
                << "group regressed for dst " << op.dst;
        }
        last_group[op.dst] = op.group;
        auto key = std::make_tuple(op.dst, op.group,
                                   int(op.kind));
        auto jt = last_op.find(key);
        if (jt != last_op.end()) {
            EXPECT_GE(op.opId, jt->second)
                << "op id regressed for dst " << op.dst << " kind "
                << int(op.kind);
        }
        last_op[key] = op.opId;
    }
}

TEST(AddressGenerator, InputFilteringSplitsWorkExactly)
{
    // Two vaults each own half of the input; together they must
    // generate every (neuron, conn) exactly once.
    PngProgram base = smallConvProgram();
    base.filterByInput = true;
    std::map<std::pair<uint32_t, uint32_t>, int> coverage;
    for (int half = 0; half < 2; ++half) {
        PngProgram prog = base;
        prog.ownedInput = half == 0 ? Rect{0, 0, 8, 4}
                                    : Rect{0, 4, 8, 4};
        // Both walk the full output (reachable region = everything
        // for this small image).
        AddressGenerator gen;
        gen.configure(prog);
        GeneratedOp op;
        while (gen.next(op)) {
            if (op.kind == PacketKind::State)
                coverage[{op.neuron, op.opId}] += 1;
        }
    }
    EXPECT_EQ(coverage.size(), size_t(36 * 9));
    for (const auto &[key, count] : coverage)
        EXPECT_EQ(count, 1);
}

TEST(AddressGenerator, StrideZeroFullyConnected)
{
    PngProgram prog;
    prog.enabled = true;
    prog.outWalk = {0, 0, 4, 1};
    prog.strideX = prog.strideY = 0;
    for (int i = 0; i < 10; ++i)
        prog.conns.push_back({0, int16_t(i), 0});
    prog.input.region = {0, 10};
    prog.input.stored = {0, 0, 10, 1};
    prog.input.planes = 1;
    prog.output.region = {50, 4};
    prog.output.stored = {0, 0, 4, 1};
    prog.output.planes = 1;
    prog.weights = {100, 40};
    prog.weightNeuronStride = 10;
    prog.outTiles = TileMap::grid({0, 0, 4, 1}, 1, 1);
    prog.homeTiles = prog.outTiles;
    prog.outMapWidth = 4;

    AddressGenerator gen;
    gen.configure(prog);
    GeneratedOp op;
    while (gen.next(op)) {
        if (op.kind == PacketKind::State) {
            EXPECT_EQ(op.addr, Addr(op.opId)); // input[conn]
        } else {
            // W[o * 10 + c] with walk index = o.
            EXPECT_EQ(op.addr, 100 + op.neuron * 10 + op.opId);
        }
    }
    EXPECT_EQ(gen.totalPairs(), 40u);
}

TEST(AddressGenerator, StreamWeightsOffHalvesTraffic)
{
    PngProgram prog = smallConvProgram();
    prog.streamWeights = false;
    AddressGenerator gen;
    gen.configure(prog);
    GeneratedOp op;
    uint64_t total = 0;
    while (gen.next(op)) {
        EXPECT_EQ(op.kind, PacketKind::State);
        ++total;
    }
    EXPECT_EQ(total, 36u * 9u);
    EXPECT_EQ(gen.totalPairs(), 36u * 9u);
}

TEST(AddressGenerator, RoutingFieldsFollowRelocatedOwners)
{
    // A batch-lane-style program: the 6x6 output is split into four
    // 3x3 tiles hosted on non-identity mesh nodes, its storage into
    // two channels (coarser, as on DDR3) on their own nodes, and two
    // output planes run from one program.
    PngProgram prog = smallConvProgram();
    prog.outTiles = TileMap::grid({0, 0, 6, 6}, 2, 2);
    prog.peNode = {5, 6, 9, 10};
    prog.homeTiles = TileMap::grid({0, 0, 6, 6}, 2, 1);
    prog.homeNode = {12, 3};
    prog.outPlanes = 2;
    prog.outPlaneSize = 36;
    AddressGenerator gen;
    gen.configure(prog);
    GeneratedOp op;
    std::set<uint32_t> neurons;
    uint64_t ops = 0;
    while (gen.next(op)) {
        uint32_t plane = op.neuron / 36;
        uint32_t x = op.neuron % 36 % 6;
        uint32_t y = op.neuron % 36 / 6;
        ASSERT_LT(plane, 2u);
        unsigned tile = prog.outTiles.owner(int32_t(x), int32_t(y));
        unsigned home = prog.homeTiles.owner(int32_t(x), int32_t(y));
        EXPECT_EQ(op.dst, prog.peNode[tile]) << x << "," << y;
        EXPECT_EQ(op.homeVault, prog.homeNode[home]) << x << "," << y;
        uint64_t local =
            prog.outTiles.localIndex(int32_t(x), int32_t(y));
        EXPECT_EQ(op.mac, MacId(local % 16));
        // Nine neurons per tile: one group per plane.
        EXPECT_EQ(op.group, uint32_t(local / 16) + plane);
        neurons.insert(op.neuron);
        ++ops;
    }
    EXPECT_EQ(neurons.size(), 72u);
    EXPECT_EQ(ops, 2u * 2u * 36u * 9u); // planes x kinds x pairs
}

/**
 * One PNG wired to its vault channel and the NoC. Every element of
 * the store holds its own address, so a packet's data names the read
 * it came from.
 */
class PngTest : public ::testing::Test
{
  protected:
    PngTest()
        : root_(nullptr, "t"),
          channel_(DramParams::hmcInternal(), &root_, "ch"),
          fabric_(NocFabric::Config{}, &root_),
          png_(0, channel_, fabric_, &root_)
    {
        for (Addr a = 0; a < 512; ++a)
            channel_.store().write(a, Fixed::fromRaw(int16_t(a)));
    }

    /**
     * One tick in the machine's phase order (PNG, channel, NoC). The
     * channel's responses are held back and handed to the PNG in
     * reverse, eight or more at a time, so reads complete out of
     * issue order and in-flight slots free out of order. Operand
     * packets delivered to any PE are appended to @p out.
     */
    void
    step(std::vector<Packet> &out)
    {
        png_.tick(now_);
        channel_.tick(now_);
        auto &responses = channel_.responses();
        while (!responses.empty()) {
            held_.push_back(responses.front());
            responses.pop_front();
        }
        if (held_.size() >= 8 || (channel_.idle() && !held_.empty())) {
            for (auto it = held_.rbegin(); it != held_.rend(); ++it)
                responses.push_back(*it);
            held_.clear();
        }
        fabric_.tick(now_);
        for (unsigned pe = 0; pe < fabric_.config().numNodes; ++pe) {
            auto &delivery = fabric_.peDelivery(PeId(pe));
            while (!delivery.empty()) {
                out.push_back(delivery.front());
                delivery.pop_front();
            }
        }
        ++now_;
    }

    /** Address the read behind an operand packet of smallConvProgram
     *  must have had. */
    static Addr
    expectedAddr(const Packet &packet)
    {
        if (packet.kind == PacketKind::Weight)
            return 300 + packet.opId;
        const Conn c = smallConvProgram().conns[packet.opId];
        uint32_t x = packet.neuron % 6, y = packet.neuron / 6;
        return 100 + (y + c.dy) * 8 + (x + c.dx);
    }

    StatGroup root_;
    MemoryChannel channel_;
    NocFabric fabric_;
    Png png_;
    std::vector<MemResponse> held_;
    Tick now_ = 0;
};

TEST_F(PngTest, OutOfOrderResponsesKeepTheirReadMetadata)
{
    // 648 reads through at most 64 in-flight slots: slots are reused
    // many times, in scrambled order.
    png_.configure(smallConvProgram());
    const size_t reads = 36 * 9 * 2;
    std::vector<Packet> packets;
    for (int t = 0; t < 20000 && packets.size() < reads; ++t)
        step(packets);
    ASSERT_EQ(packets.size(), reads);

    std::set<std::tuple<int, uint32_t, OpId, MacId>> seen;
    bool out_of_order = false;
    for (size_t i = 0; i < packets.size(); ++i) {
        const Packet &p = packets[i];
        EXPECT_EQ(p.data.raw(), int16_t(expectedAddr(p)))
            << "packet " << i << " carries another read's metadata";
        EXPECT_EQ(p.neuron, p.group * 16 + p.mac);
        EXPECT_EQ(p.src, 0u);
        EXPECT_TRUE(seen.insert({int(p.kind), p.group, p.opId, p.mac})
                        .second);
        if (i > 0 && p.kind == packets[i - 1].kind
            && p.group == packets[i - 1].group
            && p.opId == packets[i - 1].opId
            && p.mac < packets[i - 1].mac)
            out_of_order = true;
    }
    EXPECT_TRUE(out_of_order) << "the harness did not reorder reads";

    // Every slot came back: reprogramming finds nothing in flight
    // (configure panics otherwise, as the next test shows).
    png_.configure(smallConvProgram());
}

TEST_F(PngTest, ReprogrammingWithReadsInFlightPanics)
{
    png_.configure(smallConvProgram());
    std::vector<Packet> packets;
    step(packets);
    EXPECT_DEATH(png_.configure(smallConvProgram()), "work in flight");
}

TEST_F(PngTest, DisabledProgramOwningWriteBacksPanicsAtLoad)
{
    // A disabled PNG never absorbs write-backs yet reports done, so a
    // pass would only stall on them: configure names the vault.
    PngProgram program = smallConvProgram();
    program.enabled = false;
    ASSERT_GT(program.expectedWriteBacks, 0u);
    EXPECT_DEATH(png_.configure(program),
                 "disabled program for vault 0 expects");
}

TEST_F(PngTest, UnmatchedResponseTagPanics)
{
    png_.configure(smallConvProgram());
    std::vector<Packet> packets;
    step(packets); // four reads in flight: slots 0-3
    channel_.responses().push_back({0, Fixed(), 40});
    EXPECT_DEATH(png_.tick(now_), "unmatched response tag");
}

TEST_F(PngTest, ResponseWithoutPendingReadPanics)
{
    // A full channel queue keeps the PNG from issuing, so nothing is
    // in flight when the stray response arrives.
    for (Addr a = 0; a < MemoryChannel::queueCapacity; ++a)
        channel_.enqueue({false, a, Fixed(), 0});
    png_.configure(smallConvProgram());
    channel_.responses().push_back({0, Fixed(), 0});
    EXPECT_DEATH(png_.tick(now_), "response without a pending read");
}

} // namespace
} // namespace neurocube
