/**
 * @file
 * Parameterized property tests: for swept layer shapes, mappings and
 * machine configurations, the cycle-level machine must (a) produce
 * bit-identical results to the sequential reference, (b) execute
 * exactly the descriptor's operation count, (c) respect conservation
 * laws (every injected packet ejected, every read issued serviced),
 * and (d) honour mapping invariants (no lateral traffic and no cache
 * overflow under full duplication).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/neurocube.hh"
#include "nn/reference.hh"

namespace neurocube
{
namespace
{

bool
tensorsBitEqual(const Tensor &a, const Tensor &b)
{
    return a.maps() == b.maps() && a.height() == b.height()
        && a.width() == b.width() && a.flat() == b.flat();
}

// ---------------------------------------------------------------
// Convolution sweep.

struct ConvCase
{
    unsigned width;
    unsigned height;
    unsigned kernel;
    unsigned inMaps;
    unsigned outMaps;
    bool channelwise;
    bool duplicate;

    friend std::ostream &
    operator<<(std::ostream &os, const ConvCase &c)
    {
        return os << c.width << "x" << c.height << "_k" << c.kernel
                  << "_m" << c.inMaps << "to" << c.outMaps
                  << (c.channelwise ? "_cw" : "_full")
                  << (c.duplicate ? "_dup" : "_nodup");
    }
};

class ConvProperty : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvProperty, MachineMatchesReferenceAndInvariants)
{
    const ConvCase &c = GetParam();

    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = c.width;
    conv.inHeight = c.height;
    conv.inMaps = c.inMaps;
    conv.outMaps = c.outMaps;
    conv.kernel = c.kernel;
    conv.channelwise = c.channelwise;
    conv.activation = ActivationKind::Tanh;

    NetworkDesc net;
    net.name = "prop-conv";
    net.layers.push_back(conv);
    net.validate();

    NetworkData data = NetworkData::randomized(net, 101 + c.kernel);
    Tensor input(c.inMaps, c.height, c.width);
    Rng rng(202 + c.width);
    input.randomize(rng);

    NeurocubeConfig config;
    config.mapping.duplicateConvHalo = c.duplicate;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    LayerResult r = cube.runLayer(0);

    // (a) Bit-exact result.
    Tensor expect = referenceLayer(conv, data.weights[0], input);
    EXPECT_TRUE(tensorsBitEqual(cube.layerOutput(0), expect));

    // (b) Exact operation count.
    EXPECT_EQ(r.ops, conv.totalOps());

    // (c) Conservation: every injected packet was ejected.
    EXPECT_TRUE(cube.fabric().idle());

    // (d) Mapping invariants. (Cache overflow is asserted separately
    // for MAC-aligned tiles — partial groups legitimately run the
    // stream ahead of the MAC retire rate until backpressure
    // engages.)
    if (c.duplicate) {
        EXPECT_EQ(r.lateralPackets, 0u);
    } else if (c.kernel > 1) {
        EXPECT_GT(r.lateralPackets, 0u);
    }

    // Cycles can never beat the per-vault streaming bound.
    EXPECT_GE(r.cycles, r.ops / 2
                            / config.dram.numChannels
                            / config.noc.localPortWidth);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvProperty,
    ::testing::Values(
        ConvCase{17, 13, 3, 1, 1, true, true},
        ConvCase{17, 13, 3, 1, 1, true, false},
        ConvCase{24, 18, 5, 2, 4, true, true},
        ConvCase{24, 18, 5, 2, 4, true, false},
        ConvCase{20, 20, 7, 1, 2, true, true},
        ConvCase{16, 12, 1, 3, 5, false, true},
        ConvCase{14, 10, 3, 2, 2, false, true},
        ConvCase{14, 10, 3, 2, 2, false, false},
        ConvCase{33, 9, 3, 1, 2, true, true},
        ConvCase{9, 33, 3, 1, 2, true, false}),
    [](const ::testing::TestParamInfo<ConvCase> &info) {
        std::ostringstream os;
        os << info.param;
        return os.str();
    });

// ---------------------------------------------------------------
// Fully connected sweep.

struct FcCase
{
    unsigned inWidth;
    unsigned inHeight;
    unsigned inMaps;
    unsigned outputs;
    bool duplicate;

    friend std::ostream &
    operator<<(std::ostream &os, const FcCase &c)
    {
        return os << c.inMaps << "x" << c.inHeight << "x" << c.inWidth
                  << "_to" << c.outputs
                  << (c.duplicate ? "_dup" : "_nodup");
    }
};

class FcProperty : public ::testing::TestWithParam<FcCase>
{
};

TEST_P(FcProperty, MachineMatchesReferenceAndInvariants)
{
    const FcCase &c = GetParam();

    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.inWidth = c.inWidth;
    fc.inHeight = c.inHeight;
    fc.inMaps = c.inMaps;
    fc.outMaps = c.outputs;
    fc.activation = ActivationKind::Sigmoid;

    NetworkDesc net;
    net.name = "prop-fc";
    net.layers.push_back(fc);
    net.validate();

    NetworkData data = NetworkData::randomized(net, 303 + c.outputs);
    Tensor input(c.inMaps, c.inHeight, c.inWidth);
    Rng rng(404 + c.inWidth);
    input.randomize(rng);

    NeurocubeConfig config;
    config.mapping.duplicateFcInput = c.duplicate;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    LayerResult r = cube.runLayer(0);

    Tensor expect = referenceLayer(fc, data.weights[0], input);
    EXPECT_TRUE(tensorsBitEqual(cube.layerOutput(0), expect));
    EXPECT_EQ(r.ops, fc.totalOps());
    if (c.duplicate) {
        EXPECT_EQ(r.lateralPackets, 0u);
    } else if (c.outputs >= 16) {
        // Fig. 10e: partitioned input makes most traffic lateral.
        EXPECT_GT(r.lateralFraction(), 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FcProperty,
    ::testing::Values(FcCase{12, 1, 1, 7, true},
                      FcCase{12, 1, 1, 7, false},
                      FcCase{64, 1, 1, 40, true},
                      FcCase{64, 1, 1, 40, false},
                      FcCase{10, 6, 2, 18, true},
                      FcCase{10, 6, 2, 18, false},
                      FcCase{7, 7, 3, 3, true},
                      FcCase{7, 7, 3, 3, false},
                      FcCase{200, 1, 1, 1, true},
                      FcCase{1, 1, 1, 33, false}),
    [](const ::testing::TestParamInfo<FcCase> &info) {
        std::ostringstream os;
        os << info.param;
        return os.str();
    });

// ---------------------------------------------------------------
// Machine-configuration sweep on one fixed workload.

struct MachineCase
{
    const char *name;
    NocTopology topology;
    bool ddr3;
    bool weightsInPeMemory;
    bool broadcast;
};

class MachineProperty : public ::testing::TestWithParam<MachineCase>
{
};

TEST_P(MachineProperty, WorkloadSurvivesConfiguration)
{
    const MachineCase &c = GetParam();

    NetworkDesc net;
    net.name = "prop-machine";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 18;
    conv.inHeight = 14;
    conv.inMaps = 2;
    conv.outMaps = 3;
    conv.kernel = 3;
    conv.channelwise = false;
    conv.activation = ActivationKind::ReLU;
    net.layers.push_back(conv);

    LayerDesc fc = nextLayerTemplate(conv);
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.outMaps = 9;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();

    NetworkData data = NetworkData::randomized(net, 99);
    Tensor input(2, 14, 18);
    Rng rng(98);
    input.randomize(rng);

    NeurocubeConfig config;
    config.noc.topology = c.topology;
    if (c.ddr3)
        config.dram = DramParams::ddr3();
    config.mapping.weightsInPeMemory = c.weightsInPeMemory;
    config.dram.broadcastDuplicateReads = c.broadcast;

    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    RunResult run = cube.runForward();

    auto expect = referenceForward(net, data, input);
    EXPECT_TRUE(tensorsBitEqual(cube.layerOutput(0), expect[0]))
        << c.name;
    EXPECT_GT(run.totalOps(), 0u);
    EXPECT_TRUE(cube.fabric().idle());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MachineProperty,
    ::testing::Values(
        MachineCase{"mesh", NocTopology::Mesh2D, false, false, false},
        MachineCase{"fully_connected_noc",
                    NocTopology::FullyConnected, false, false, false},
        MachineCase{"ddr3", NocTopology::Mesh2D, true, false, false},
        MachineCase{"weight_memory", NocTopology::Mesh2D, false, true,
                    false},
        MachineCase{"broadcast_reads", NocTopology::Mesh2D, false,
                    false, true}),
    [](const ::testing::TestParamInfo<MachineCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------
// Activation sweep: every LUT must survive the full dataflow.

class ActivationProperty
    : public ::testing::TestWithParam<ActivationKind>
{
};

TEST_P(ActivationProperty, LutAppliedOnWriteBack)
{
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 12;
    conv.inHeight = 10;
    conv.inMaps = 1;
    conv.outMaps = 2;
    conv.kernel = 3;
    conv.channelwise = true;
    conv.activation = GetParam();

    NetworkDesc net;
    net.name = "prop-act";
    net.layers.push_back(conv);
    net.validate();
    NetworkData data = NetworkData::randomized(net, 55);
    Tensor input(1, 10, 12);
    Rng rng(56);
    input.randomize(rng, -2.0, 2.0);

    Neurocube cube(NeurocubeConfig{});
    cube.loadNetwork(net, data);
    cube.setInput(input);
    cube.runLayer(0);
    Tensor expect = referenceLayer(conv, data.weights[0], input);
    EXPECT_TRUE(tensorsBitEqual(cube.layerOutput(0), expect));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ActivationProperty,
    ::testing::Values(ActivationKind::Identity, ActivationKind::ReLU,
                      ActivationKind::Sigmoid, ActivationKind::Tanh),
    [](const ::testing::TestParamInfo<ActivationKind> &info) {
        return std::string(activationName(info.param));
    });

// ---------------------------------------------------------------
// Determinism: two identical runs must produce identical cycle
// counts and identical memory contents.

TEST(Determinism, RepeatedRunsAreBitIdentical)
{
    NetworkDesc net;
    net.name = "det";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 20;
    conv.inHeight = 16;
    conv.inMaps = 2;
    conv.outMaps = 2;
    conv.kernel = 3;
    conv.channelwise = true;
    conv.activation = ActivationKind::Tanh;
    net.layers.push_back(conv);
    net.validate();

    NetworkData data = NetworkData::randomized(net, 7);
    Tensor input(2, 16, 20);
    Rng rng(8);
    input.randomize(rng);

    auto run_once = [&](Tick &cycles, Tensor &out) {
        Neurocube cube(NeurocubeConfig{});
        cube.loadNetwork(net, data);
        cube.setInput(input);
        LayerResult r = cube.runLayer(0);
        cycles = r.cycles;
        out = cube.layerOutput(0);
    };
    Tick c1, c2;
    Tensor o1, o2;
    run_once(c1, o1);
    run_once(c2, o2);
    EXPECT_EQ(c1, c2);
    EXPECT_TRUE(tensorsBitEqual(o1, o2));
}

// ---------------------------------------------------------------
// Batched lanes: the vault-group partition must isolate lanes on the
// NoC (rectangular sub-meshes are closed under X-Y routing) and keep
// every lane's timing independent of what the other lanes compute.

TEST(BatchLaneProperty, NoPacketEverLeavesItsVaultGroup)
{
    // Randomized layer shapes across both lane widths; the fabric's
    // lane checker counts any injection or link traversal that
    // disagrees with the node -> lane map.
    Rng shapes(4242);
    for (unsigned lanes : {2u, 4u}) {
        for (unsigned trial = 0; trial < 4; ++trial) {
            NetworkDesc net;
            net.name = "lane-iso";
            LayerDesc conv;
            conv.type = LayerType::Conv2D;
            conv.name = "conv";
            conv.inWidth = 12 + unsigned(shapes.next() % 12);
            conv.inHeight = 8 + unsigned(shapes.next() % 12);
            conv.inMaps = 1 + unsigned(shapes.next() % 3);
            conv.outMaps = conv.inMaps + unsigned(shapes.next() % 3);
            conv.kernel = 3;
            conv.channelwise = true;
            conv.activation = ActivationKind::Tanh;
            net.layers.push_back(conv);

            LayerDesc fc = nextLayerTemplate(conv);
            fc.type = LayerType::FullyConnected;
            fc.name = "fc";
            fc.outMaps = 4 + unsigned(shapes.next() % 28);
            fc.activation = ActivationKind::Sigmoid;
            net.layers.push_back(fc);
            net.validate();

            NetworkData data =
                NetworkData::randomized(net, 600 + trial);
            std::vector<Tensor> inputs;
            for (unsigned l = 0; l < lanes; ++l) {
                Tensor in(net.inputMaps(), net.inputHeight(),
                          net.inputWidth());
                Rng rng(700 + 10 * trial + l);
                in.randomize(rng);
                inputs.push_back(std::move(in));
            }

            NeurocubeConfig config;
            config.batch.lanes = lanes;
            // Partitioned FC input maximizes lateral traffic, the
            // hardest case for lane confinement.
            config.mapping.duplicateFcInput = (trial % 2 == 0);
            Neurocube cube(config);
            cube.loadNetwork(net, data);
            cube.runForwardBatch(inputs);
            EXPECT_EQ(cube.fabric().crossLanePackets(), 0u)
                << lanes << " lanes, trial " << trial;
            EXPECT_TRUE(cube.fabric().idle());
        }
    }
}

TEST(BatchLaneProperty, LaneCyclesIndependentOfOtherLanesInputs)
{
    // Timing is data independent per lane: changing what the other
    // lanes compute must not move a lane's per-layer cycle counts.
    NetworkDesc net;
    net.name = "lane-indep";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 16;
    conv.inHeight = 12;
    conv.inMaps = 2;
    conv.outMaps = 3;
    conv.kernel = 3;
    conv.channelwise = true;
    conv.activation = ActivationKind::Tanh;
    net.layers.push_back(conv);
    LayerDesc fc = nextLayerTemplate(conv);
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.outMaps = 24;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    NetworkData data = NetworkData::randomized(net, 81);

    auto lane0_cycles = [&](uint64_t other_seed) {
        std::vector<Tensor> inputs;
        for (unsigned l = 0; l < 4; ++l) {
            Tensor in(net.inputMaps(), net.inputHeight(),
                      net.inputWidth());
            // Lane 0 keeps its input; the others get fresh ones.
            Rng rng(l == 0 ? 900 : other_seed + l);
            in.randomize(rng);
            inputs.push_back(std::move(in));
        }
        NeurocubeConfig config;
        config.batch.lanes = 4;
        Neurocube cube(config);
        cube.loadNetwork(net, data);
        BatchRunResult run = cube.runForwardBatch(inputs);
        std::vector<Tick> cycles;
        for (const LayerResult &l : run.lanes[0].layers)
            cycles.push_back(l.cycles);
        return cycles;
    };

    EXPECT_EQ(lane0_cycles(1000), lane0_cycles(2000));
}

} // namespace
} // namespace neurocube
