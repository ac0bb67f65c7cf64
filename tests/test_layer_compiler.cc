/**
 * @file
 * Unit tests of the layer program compiler: memory layout, program
 * register contents, host gather, the plane-loop collapse, and the
 * traffic groups a plan splits the mesh into.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/layer_compiler.hh"
#include "core/neurocube.hh"

namespace neurocube
{
namespace
{

class CompilerTest : public ::testing::Test
{
  protected:
    CompilerTest() : compiler_(config_)
    {
        for (unsigned ch = 0; ch < 16; ++ch) {
            storesOwned_.push_back(
                std::make_unique<BackingStore>());
            stores_.push_back(storesOwned_.back().get());
        }
    }

    CompiledLayer
    compile(const LayerDesc &layer, const std::vector<Fixed> &w,
            const Tensor &input)
    {
        return compiler_.compile(layer, w, input, stores_);
    }

    NeurocubeConfig config_;
    LayerCompiler compiler_;
    std::vector<std::unique_ptr<BackingStore>> storesOwned_;
    std::vector<BackingStore *> stores_;
};

LayerDesc
smallConv()
{
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 20;
    conv.inHeight = 16;
    conv.inMaps = 2;
    conv.outMaps = 4;
    conv.kernel = 3;
    conv.channelwise = true;
    conv.activation = ActivationKind::Tanh;
    return conv;
}

TEST_F(CompilerTest, ConvCollapsesToOneProgram)
{
    LayerDesc conv = smallConv();
    NetworkDesc net;
    net.layers.push_back(conv);
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input(2, 16, 20);
    CompiledLayer compiled =
        compile(conv, data.weights[0], input);

    // One program that iterates all four output maps.
    const PngProgram &prog = compiled.programs()[0];
    EXPECT_EQ(prog.outPlanes, 4u);
    EXPECT_EQ(prog.planeInMapModulo, 2u);
    EXPECT_EQ(prog.weightPlaneStride, 9u);
    EXPECT_EQ(prog.conns.size(), 9u);
    EXPECT_EQ(prog.outPlaneSize, uint32_t(18 * 14));
    EXPECT_EQ(prog.activation, ActivationKind::Tanh);
    // PE sees all planes' neurons.
    const PePassConfig pc = compiled.peConfig(0);
    EXPECT_EQ(pc.planes, 4u);
    EXPECT_EQ(pc.numNeurons % 4u, 0u);
}

TEST_F(CompilerTest, InputWrittenIntoStoredRect)
{
    LayerDesc conv = smallConv();
    NetworkDesc net;
    net.layers.push_back(conv);
    NetworkData data = NetworkData::randomized(net, 2);
    Tensor input(2, 16, 20);
    Rng rng(3);
    input.randomize(rng);
    CompiledLayer compiled =
        compile(conv, data.weights[0], input);

    for (unsigned ch = 0; ch < 16; ++ch) {
        const PngProgram &prog = compiled.programs()[ch];
        const Rect &stored = prog.input.stored;
        for (unsigned m = 0; m < 2; ++m) {
            for (int32_t y = stored.y0; y < stored.y0 + stored.h;
                 ++y) {
                for (int32_t x = stored.x0;
                     x < stored.x0 + stored.w; ++x) {
                    EXPECT_EQ(stores_[ch]->read(
                                  prog.input.addrOf(m, x, y)),
                              input.at(m, unsigned(y), unsigned(x)));
                }
            }
        }
    }
}

TEST_F(CompilerTest, SharedKernelsDuplicatedInEveryVault)
{
    LayerDesc conv = smallConv();
    NetworkDesc net;
    net.layers.push_back(conv);
    NetworkData data = NetworkData::randomized(net, 4);
    Tensor input(2, 16, 20);
    CompiledLayer compiled =
        compile(conv, data.weights[0], input);

    for (unsigned ch = 0; ch < 16; ++ch) {
        const PngProgram &prog = compiled.programs()[ch];
        for (size_t i = 0; i < data.weights[0].size(); ++i) {
            EXPECT_EQ(stores_[ch]->read(prog.weights.base + i),
                      data.weights[0][i])
                << "vault " << ch << " weight " << i;
        }
    }
}

TEST_F(CompilerTest, GatherRoundTripsOutputStores)
{
    LayerDesc conv = smallConv();
    NetworkDesc net;
    net.layers.push_back(conv);
    NetworkData data = NetworkData::randomized(net, 5);
    Tensor input(2, 16, 20);
    CompiledLayer compiled =
        compile(conv, data.weights[0], input);

    // Write a recognizable pattern into every vault's output region
    // and gather it back.
    for (unsigned ch = 0; ch < 16; ++ch) {
        const PlaneStorage &out = compiled.outputStorage()[ch];
        for (unsigned p = 0; p < out.planes; ++p) {
            const Rect &tile = out.stored;
            for (int32_t y = tile.y0; y < tile.y0 + tile.h; ++y) {
                for (int32_t x = tile.x0; x < tile.x0 + tile.w;
                     ++x) {
                    stores_[ch]->write(
                        out.addrOf(p, x, y),
                        Fixed::fromRaw(int16_t(p * 1000 + y * 20
                                               + x)));
                }
            }
        }
    }
    Tensor gathered = compiler_.gather(compiled, stores_);
    ASSERT_EQ(gathered.maps(), 4u);
    for (unsigned p = 0; p < 4; ++p) {
        for (unsigned y = 0; y < gathered.height(); ++y) {
            for (unsigned x = 0; x < gathered.width(); ++x) {
                EXPECT_EQ(gathered.at(p, y, x).raw(),
                          int16_t(p * 1000 + y * 20 + x));
            }
        }
    }
}

TEST_F(CompilerTest, FcWeightsInterleavedGroupBlocked)
{
    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.inWidth = 8;
    fc.inHeight = 1;
    fc.inMaps = 1;
    fc.outMaps = 32;

    NetworkDesc net;
    net.layers.push_back(fc);
    NetworkData data = NetworkData::randomized(net, 6);
    Tensor input(1, 1, 8);
    CompiledLayer compiled = compile(fc, data.weights[0], input);

    // Vault ch owns output slice [2ch, 2ch+2); its weights are
    // stored MAC-minor: base + (walk/16)*8*16 + c*16 + walk%16.
    for (unsigned ch = 0; ch < 16; ++ch) {
        const PngProgram &prog = compiled.programs()[ch];
        EXPECT_TRUE(prog.weightInterleaved);
        EXPECT_EQ(prog.weightNeuronStride, 8u);
        Rect tile = compiled.mapping().outTiles.tile(ch);
        uint64_t walk = 0;
        for (int32_t o = tile.x0; o < tile.x0 + tile.w;
             ++o, ++walk) {
            for (uint64_t c = 0; c < 8; ++c) {
                Addr addr = prog.weights.base
                    + (walk / 16) * 8 * 16 + c * 16 + walk % 16;
                EXPECT_EQ(stores_[ch]->read(addr),
                          data.weights[0][uint64_t(o) * 8 + c]);
            }
        }
    }
}

TEST_F(CompilerTest, PixelMajorLayoutForPerPixelClassifier)
{
    LayerDesc fc1;
    fc1.type = LayerType::Conv2D;
    fc1.name = "fc1";
    fc1.inWidth = 10;
    fc1.inHeight = 6;
    fc1.inMaps = 8;
    fc1.outMaps = 2;
    fc1.kernel = 1;
    fc1.channelwise = false;

    NetworkDesc net;
    net.layers.push_back(fc1);
    NetworkData data = NetworkData::randomized(net, 7);
    Tensor input(8, 6, 10);
    Rng rng(8);
    input.randomize(rng);
    CompiledLayer compiled = compile(fc1, data.weights[0], input);

    const PngProgram &prog = compiled.programs()[0];
    EXPECT_TRUE(prog.input.pixelMajor);
    // Consecutive maps of one pixel are adjacent in the vault.
    const Rect &stored = prog.input.stored;
    Addr a0 = prog.input.addrOf(0, stored.x0, stored.y0);
    Addr a1 = prog.input.addrOf(1, stored.x0, stored.y0);
    EXPECT_EQ(a1, a0 + 1);
}

TEST_F(CompilerTest, WordZeroOfEveryChannelStaysReserved)
{
    // Every channel's layout starts at word 1: the addresses, and
    // with them the DRAM rows and banks each layer touches, are
    // pinned by the golden cycle files.
    LayerDesc conv = smallConv();
    NetworkDesc net;
    net.layers.push_back(conv);
    NetworkData data = NetworkData::randomized(net, 9);
    Tensor input(2, 16, 20);
    CompiledLayer compiled =
        compile(conv, data.weights[0], input);
    for (unsigned ch = 0; ch < 16; ++ch) {
        const PngProgram &prog = compiled.programs()[ch];
        EXPECT_EQ(prog.input.region.base, 1u) << "channel " << ch;
    }
}

TEST_F(CompilerTest, PlanCacheHitsOnRepeatAndBindsIdentically)
{
    LayerDesc conv = smallConv();
    NetworkDesc net;
    net.layers.push_back(conv);
    NetworkData data = NetworkData::randomized(net, 11);
    Tensor input(2, 16, 20);
    Rng rng(12);
    input.randomize(rng);

    CompiledLayer a = compile(conv, data.weights[0], input);
    EXPECT_EQ(compiler_.planCacheMisses(), 1u);
    EXPECT_EQ(compiler_.planCacheHits(), 0u);

    // Snapshot every store over the bound address range (the output
    // region is allocated last, so its end is the layout top).
    auto snapshot = [&]() {
        std::vector<std::vector<Fixed>> bytes(16);
        for (unsigned ch = 0; ch < 16; ++ch) {
            const Region &out = a.outputStorage()[ch].region;
            for (Addr addr = 0; addr < out.base + out.elements;
                 ++addr) {
                bytes[ch].push_back(stores_[ch]->read(addr));
            }
        }
        return bytes;
    };
    std::vector<std::vector<Fixed>> cold = snapshot();

    // Second compile is served from the cache (same plan object)
    // and binds the stores to the exact same contents.
    CompiledLayer b = compile(conv, data.weights[0], input);
    EXPECT_EQ(compiler_.planCacheMisses(), 1u);
    EXPECT_EQ(compiler_.planCacheHits(), 1u);
    EXPECT_EQ(a.plan.get(), b.plan.get());
    EXPECT_TRUE(snapshot() == cold);

    // A different layer shape is a different plan.
    LayerDesc other = conv;
    other.name = "conv2";
    other.outMaps = 2;
    NetworkDesc other_net;
    other_net.layers.push_back(other);
    NetworkData other_data = NetworkData::randomized(other_net, 13);
    compile(other, other_data.weights[0], input);
    EXPECT_EQ(compiler_.planCacheMisses(), 2u);

    // A cache-disabled compiler builds fresh plans every time but
    // binds bit-identical store contents.
    NeurocubeConfig no_cache = config_;
    no_cache.planCache = false;
    LayerCompiler cold_compiler(no_cache);
    cold_compiler.compile(conv, data.weights[0], input, stores_);
    cold_compiler.compile(conv, data.weights[0], input, stores_);
    EXPECT_EQ(cold_compiler.planCacheHits(), 0u);
    EXPECT_EQ(cold_compiler.planCacheMisses(), 2u);
    EXPECT_TRUE(snapshot() == cold);
}

/**
 * A layer's plan on one machine shape, with the machine's fabric: the
 * inputs of trafficGroups.
 */
struct PlannedLayer
{
    explicit PlannedLayer(const NeurocubeConfig &config)
        : cube(config), compiler(config)
    {
    }

    /** Compile @p layer onto the machine, or onto @p lane of it. */
    std::shared_ptr<const LayerPlan>
    plan(const LayerDesc &layer, const LaneSpec *lane = nullptr)
    {
        std::vector<BackingStore *> stores;
        if (lane != nullptr) {
            for (unsigned node : lane->nodes)
                stores.push_back(&cube.channel(node).store());
        } else {
            for (unsigned ch = 0; ch < cube.config().dram.numChannels;
                 ++ch)
                stores.push_back(&cube.channel(ch).store());
        }
        std::vector<Fixed> weights(layer.weightCount());
        Tensor input(layer.inMaps, layer.inHeight, layer.inWidth);
        return compiler.compile(layer, weights, input, stores, lane).plan;
    }

    Neurocube cube;
    LayerCompiler compiler;
};

LayerDesc
groupConv()
{
    LayerDesc conv = smallConv();
    conv.inWidth = 24;
    conv.inHeight = 24;
    return conv;
}

/**
 * The groups an independent union-find finds: every PNG joined with
 * the PE of every tile its walk overlaps, every PE with the home of
 * every home tile its tile overlaps, and, on the mesh, the routers of
 * the X-Y route between them.
 */
std::vector<unsigned>
expectedGroups(const LayerPlan &plan, bool mesh)
{
    std::vector<unsigned> root(16);
    std::iota(root.begin(), root.end(), 0u);
    auto find = [&](unsigned n) {
        while (root[n] != n)
            n = root[n];
        return n;
    };
    auto join = [&](unsigned a, unsigned b) {
        const unsigned ra = find(a), rb = find(b);
        root[std::max(ra, rb)] = std::min(ra, rb);
    };
    auto join_route = [&](unsigned src, unsigned dst) {
        join(src, dst);
        if (!mesh)
            return;
        unsigned x = src % 4, y = src / 4;
        while (x != dst % 4) {
            x = x < dst % 4 ? x + 1 : x - 1;
            join(src, y * 4 + x);
        }
        while (y != dst / 4) {
            y = y < dst / 4 ? y + 1 : y - 1;
            join(src, y * 4 + x);
        }
    };
    const PngProgram &first = plan.programs.front();
    auto node = [](const std::vector<uint16_t> &nodes, unsigned i) {
        return nodes.empty() ? i : unsigned(nodes[i]);
    };
    for (unsigned ch = 0; ch < plan.programs.size(); ++ch) {
        const PngProgram &prog = plan.programs[ch];
        for (unsigned t = 0; prog.enabled && t < 16; ++t) {
            if (prog.outWalk.overlaps(prog.outTiles.tile(t)))
                join_route(node(prog.homeNode, ch), node(prog.peNode, t));
        }
    }
    for (unsigned t = 0; t < 16; ++t) {
        for (unsigned h = 0; h < first.homeTiles.numNodes(); ++h) {
            if (first.outTiles.tile(t).overlaps(first.homeTiles.tile(h)))
                join_route(node(first.peNode, t), node(first.homeNode, h));
        }
    }
    for (unsigned n = 0; n < 16; ++n)
        root[n] = find(n);
    return root;
}

TEST(TrafficGroups, DuplicatedHmcConvSplitsIntoSingleVaults)
{
    PlannedLayer m{NeurocubeConfig{}};
    const std::vector<unsigned> &groups =
        m.plan(groupConv())->nodeGroups(m.cube.fabric());
    std::vector<unsigned> alone(16);
    std::iota(alone.begin(), alone.end(), 0u);
    EXPECT_EQ(groups, alone);
}

TEST(TrafficGroups, Ddr3ConvIsOneGroup)
{
    NeurocubeConfig config;
    config.dram = DramParams::ddr3();
    PlannedLayer m{config};
    EXPECT_EQ(m.plan(groupConv())->nodeGroups(m.cube.fabric()),
              std::vector<unsigned>(16, 0));
}

/**
 * A 2x2/2 pool whose 26-pixel rows split unevenly: the input tiles of
 * the second and third vault columns (and rows) reach into the next
 * output tile, the first column's do not.
 */
LayerDesc
unevenPool()
{
    LayerDesc pool = groupConv();
    pool.type = LayerType::Pool;
    pool.kernel = 2;
    pool.stride = 2;
    pool.inWidth = 26;
    pool.inHeight = 26;
    pool.outMaps = pool.inMaps;
    return pool;
}

TEST(TrafficGroups, NoDuplicationJoinsAlongXyRoutes)
{
    NeurocubeConfig config;
    config.mapping.duplicateConvHalo = false;
    PlannedLayer m{config};
    // The conv's halos chain every vault into one group.
    const auto conv = m.plan(groupConv());
    EXPECT_EQ(trafficGroups(*conv, m.cube.fabric()),
              expectedGroups(*conv, true));
    // The uneven pool leaves four.
    const auto pool = m.plan(unevenPool());
    const std::vector<unsigned> groups =
        trafficGroups(*pool, m.cube.fabric());
    EXPECT_EQ(groups, expectedGroups(*pool, true));
    EXPECT_EQ(groups, (std::vector<unsigned>{0, 1, 1, 1, 4, 5, 5, 5,
                                             4, 5, 5, 5, 4, 5, 5, 5}));
}

TEST(TrafficGroups, FullyConnectedJoinsNoIntermediateRouter)
{
    NeurocubeConfig config;
    config.mapping.duplicateConvHalo = false;
    config.noc.topology = NocTopology::FullyConnected;
    PlannedLayer m{config};
    for (const LayerDesc &layer : {groupConv(), unevenPool()}) {
        const auto plan = m.plan(layer);
        EXPECT_EQ(trafficGroups(*plan, m.cube.fabric()),
                  expectedGroups(*plan, false))
            << layerTypeName(layer.type);
    }
}

TEST(TrafficGroups, BatchLanesNeverJoin)
{
    NeurocubeConfig config;
    config.batch.lanes = 2;
    config.mapping.duplicateConvHalo = false;
    PlannedLayer m{config};
    for (const LaneSpec &lane : m.cube.lanePartition()) {
        const std::vector<unsigned> groups =
            trafficGroups(*m.plan(groupConv(), &lane), m.cube.fabric());
        for (unsigned node : lane.nodes) {
            EXPECT_TRUE(std::count(lane.nodes.begin(), lane.nodes.end(),
                                   groups[node]))
                << "lane " << lane.index << " node " << node
                << " joined node " << groups[node];
        }
    }
}

} // namespace
} // namespace neurocube
