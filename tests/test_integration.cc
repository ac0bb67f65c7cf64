/**
 * @file
 * End-to-end integration tests: the cycle-level machine must produce
 * bit-identical outputs to the sequential reference model for every
 * layer type and mapping policy, while its cycle counts respect the
 * machine's physical bounds.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/neurocube.hh"
#include "nn/reference.hh"

namespace neurocube
{
namespace
{

/** Compare two tensors bit-for-bit; report the first mismatch. */
::testing::AssertionResult
tensorsEqual(const Tensor &a, const Tensor &b)
{
    if (a.maps() != b.maps() || a.height() != b.height()
        || a.width() != b.width()) {
        return ::testing::AssertionFailure()
            << "shape " << a.maps() << "x" << a.height() << "x"
            << a.width() << " vs " << b.maps() << "x" << b.height()
            << "x" << b.width();
    }
    for (unsigned m = 0; m < a.maps(); ++m) {
        for (unsigned y = 0; y < a.height(); ++y) {
            for (unsigned x = 0; x < a.width(); ++x) {
                if (!(a.at(m, y, x) == b.at(m, y, x))) {
                    return ::testing::AssertionFailure()
                        << "mismatch at (" << m << "," << y << ","
                        << x << "): " << a.at(m, y, x).toDouble()
                        << " vs " << b.at(m, y, x).toDouble();
                }
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/** Run net on the machine and compare every layer to the reference. */
RunResult
runAndVerify(const NeurocubeConfig &config, const NetworkDesc &net,
             uint64_t seed)
{
    NetworkData data = NetworkData::randomized(net, seed);
    Tensor input(net.inputMaps(), net.inputHeight(), net.inputWidth());
    Rng rng(seed + 1);
    input.randomize(rng);

    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    RunResult run = cube.runForward();

    auto expect = referenceForward(net, data, input);
    for (size_t i = 0; i < net.layers.size(); ++i) {
        EXPECT_TRUE(tensorsEqual(cube.layerOutput(i), expect[i]))
            << "layer " << i << " (" << net.layers[i].name << ")";
    }
    return run;
}

NetworkDesc
tinyConvNet()
{
    NetworkDesc net;
    net.name = "tiny-conv";
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
    net.layers.push_back(conv);
    net.validate();
    return net;
}

TEST(Integration, ChannelwiseConvMatchesReference)
{
    runAndVerify(NeurocubeConfig{}, tinyConvNet(), 1);
}

TEST(Integration, ConvWithoutDuplicationMatchesReference)
{
    NeurocubeConfig config;
    config.mapping.duplicateConvHalo = false;
    RunResult run = runAndVerify(config, tinyConvNet(), 2);
    EXPECT_GT(run.layers[0].lateralPackets, 0u);
}

TEST(Integration, ThinLayersWithoutDuplicationMatchReference)
{
    // Three input rows spread over the 16 vaults' 4x4 grid leave some
    // vaults owning output columns that their own input tile cannot
    // reach (or owning no input at all); their PNGs must still absorb
    // the write-backs of those outputs.
    NeurocubeConfig config;
    config.mapping.duplicateConvHalo = false;
    auto thin = [](LayerType type, unsigned width, unsigned kernel,
                   unsigned stride) {
        NetworkDesc net;
        net.name = "thin";
        LayerDesc layer;
        layer.type = type;
        layer.name = "thin";
        layer.inWidth = width;
        layer.inHeight = 3;
        layer.inMaps = 1;
        layer.outMaps = 1;
        layer.kernel = kernel;
        layer.stride = stride;
        layer.channelwise = true;
        net.layers.push_back(layer);
        net.validate();
        return net;
    };
    runAndVerify(config, thin(LayerType::Pool, 32, 2, 2), 21); // 16x1
    runAndVerify(config, thin(LayerType::Conv2D, 18, 3, 1), 22); // 16x1
}

TEST(Integration, ConvWithDuplicationHasNoLateralTraffic)
{
    NeurocubeConfig config;
    config.mapping.duplicateConvHalo = true;
    RunResult run = runAndVerify(config, tinyConvNet(), 3);
    EXPECT_EQ(run.layers[0].lateralPackets, 0u);
}

TEST(Integration, DuplicatedModeNeverOverflowsOpCache)
{
    // In the paper's mapping (full duplication) every PE consumes a
    // single in-order stream; when its tiles are MAC-aligned (each
    // per-plane tile a multiple of 16 neurons) the 16x64-entry cache
    // must suffice. Out 32x32 -> 8x8 = 64-neuron tiles.
    NeurocubeConfig config;
    Neurocube cube(config);
    NetworkDesc net;
    net.name = "aligned-conv";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 34;
    conv.inHeight = 34;
    conv.inMaps = 2;
    conv.outMaps = 4;
    conv.kernel = 3;
    conv.channelwise = true;
    conv.activation = ActivationKind::Tanh;
    net.layers.push_back(conv);
    net.validate();
    NetworkData data = NetworkData::randomized(net, 77);
    Tensor input(2, 34, 34);
    Rng rng(78);
    input.randomize(rng);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    cube.runForward();
    EXPECT_EQ(cube.totalCacheOverflows(), 0u);
}

TEST(Integration, PoolingMatchesReference)
{
    NetworkDesc net;
    net.name = "pool-net";
    LayerDesc pool;
    pool.type = LayerType::Pool;
    pool.name = "pool";
    pool.inWidth = 24;
    pool.inHeight = 18;
    pool.inMaps = 3;
    pool.outMaps = 3;
    pool.kernel = 2;
    pool.stride = 2;
    net.layers.push_back(pool);
    net.validate();
    runAndVerify(NeurocubeConfig{}, net, 4);
}

TEST(Integration, FullConvAccumulationMatchesReference)
{
    NetworkDesc net;
    net.name = "full-conv";
    LayerDesc fc;
    fc.type = LayerType::Conv2D;
    fc.name = "fc1";
    fc.inWidth = 9;
    fc.inHeight = 7;
    fc.inMaps = 5;
    fc.outMaps = 3;
    fc.kernel = 1;
    fc.channelwise = false;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    runAndVerify(NeurocubeConfig{}, net, 5);
}

TEST(Integration, FullConvSpatialKernelMatchesReference)
{
    NetworkDesc net;
    net.name = "full-conv-3x3";
    LayerDesc fc;
    fc.type = LayerType::Conv2D;
    fc.name = "conv";
    fc.inWidth = 11;
    fc.inHeight = 9;
    fc.inMaps = 2;
    fc.outMaps = 2;
    fc.kernel = 3;
    fc.channelwise = false;
    fc.activation = ActivationKind::ReLU;
    net.layers.push_back(fc);
    net.validate();
    runAndVerify(NeurocubeConfig{}, net, 6);
}

TEST(Integration, FullyConnectedDuplicatedMatchesReference)
{
    NeurocubeConfig config;
    config.mapping.duplicateFcInput = true;
    RunResult run =
        runAndVerify(config, threeLayerMlp(48, 32, 10), 7);
    // Fig. 10d: duplicated input keeps FC traffic local.
    EXPECT_EQ(run.layers[0].lateralPackets, 0u);
}

TEST(Integration, FullyConnectedPartitionedMatchesReference)
{
    NeurocubeConfig config;
    config.mapping.duplicateFcInput = false;
    RunResult run =
        runAndVerify(config, threeLayerMlp(48, 32, 10), 8);
    // Fig. 10e / Fig. 14c: partitioned input makes most traffic
    // lateral.
    EXPECT_GT(run.layers[0].lateralFraction(), 0.5);
}

TEST(Integration, Fc2dInputMatchesReference)
{
    // MLP over a 2D multi-map input exercises the plane-major
    // flattening and the non-contiguous weight slices.
    NetworkDesc net;
    net.name = "fc2d";
    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.inWidth = 10;
    fc.inHeight = 6;
    fc.inMaps = 2;
    fc.outMaps = 18;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    for (bool dup : {true, false}) {
        NeurocubeConfig config;
        config.mapping.duplicateFcInput = dup;
        runAndVerify(config, net, 9);
    }
}

TEST(Integration, MultiLayerPipelineMatchesReference)
{
    NetworkDesc net;
    net.name = "pipeline";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 18;
    conv.inHeight = 14;
    conv.inMaps = 2;
    conv.outMaps = 4;
    conv.kernel = 3;
    conv.channelwise = true;
    conv.activation = ActivationKind::Tanh;
    net.layers.push_back(conv);

    LayerDesc pool = nextLayerTemplate(conv);
    pool.type = LayerType::Pool;
    pool.name = "pool";
    pool.outMaps = pool.inMaps;
    pool.kernel = 2;
    pool.stride = 2;
    net.layers.push_back(pool);

    LayerDesc fc = nextLayerTemplate(pool);
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.outMaps = 9;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();

    runAndVerify(NeurocubeConfig{}, net, 10);
}

TEST(Integration, WeightMemoryModeMatchesReference)
{
    NeurocubeConfig config;
    config.mapping.weightsInPeMemory = true;
    runAndVerify(config, tinyConvNet(), 11);
}

TEST(Integration, FullyConnectedNocMatchesReference)
{
    NeurocubeConfig config;
    config.noc.topology = NocTopology::FullyConnected;
    config.mapping.duplicateFcInput = false;
    runAndVerify(config, threeLayerMlp(48, 32, 10), 12);
}

TEST(Integration, Ddr3TwoChannelsMatchesReference)
{
    NeurocubeConfig config;
    config.dram = DramParams::ddr3();
    runAndVerify(config, tinyConvNet(), 13);
}

TEST(Integration, CyclesRespectMemoryBound)
{
    // A conv layer's cycles can never beat the DRAM streaming bound:
    // one operand pair per vault-word, one word per tick per vault.
    NeurocubeConfig config;
    Neurocube cube(config);
    NetworkDesc net = tinyConvNet();
    NetworkData data = NetworkData::randomized(net, 20);
    Tensor input(2, 16, 20);
    Rng rng(21);
    input.randomize(rng);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    LayerResult r = cube.runLayer(0);
    uint64_t pairs = r.ops / 2;
    // Words needed across 16 vaults, perfectly balanced.
    uint64_t min_cycles = pairs / 16;
    EXPECT_GE(r.cycles, min_cycles);
    EXPECT_EQ(r.ops, net.layers[0].totalOps());
}

TEST(Integration, LongIdleGapDoesNotPerturbSteadyState)
{
    // advanceIdleTo jumps the clock in O(1) — a trillion-tick idle
    // gap (an open-loop server draining its queue) must neither cost
    // wall time proportional to the gap nor perturb any machine
    // state: the post-gap run repeats the pre-gap steady state's
    // cycle count exactly.
    NetworkDesc net = tinyConvNet();
    NetworkData data = NetworkData::randomized(net, 21);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(22);
    input.randomize(rng);

    Neurocube cube((NeurocubeConfig()));
    const LayerDesc &layer = net.layers[0];

    // Warm up to the steady state (run 2 == run 3: DRAM row-buffer
    // and cache state converge after the first pass).
    cube.runSingleLayer(layer, data.weights[0], input, nullptr);
    LayerResult warm =
        cube.runSingleLayer(layer, data.weights[0], input, nullptr);
    LayerResult steady =
        cube.runSingleLayer(layer, data.weights[0], input, nullptr);
    ASSERT_EQ(warm.cycles, steady.cycles);

    const Tick gap = Tick(1) << 40; // ~10^12 idle ticks
    Tick before = cube.now();
    cube.advanceIdleTo(before + gap);
    EXPECT_EQ(cube.now(), before + gap);

    Tensor output;
    LayerResult after =
        cube.runSingleLayer(layer, data.weights[0], input, &output);
    EXPECT_EQ(after.cycles, steady.cycles);
    EXPECT_TRUE(tensorsEqual(
        output, referenceForward(net, data, input)[0]));
}

TEST(Integration, StatsDumpIsWellFormed)
{
    NeurocubeConfig config;
    Neurocube cube(config);
    NetworkDesc net = tinyConvNet();
    NetworkData data = NetworkData::randomized(net, 30);
    Tensor input(2, 16, 20);
    Rng rng(31);
    input.randomize(rng);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    cube.runForward();
    std::ostringstream os;
    cube.stats().dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("neurocube.passes"), std::string::npos);
    EXPECT_NE(out.find("vault0"), std::string::npos);
    EXPECT_NE(out.find("noc"), std::string::npos);
}

/** The stats dump's values by path, printed exactly. */
std::map<std::string, double>
dumpValues(Neurocube &cube)
{
    std::ostringstream os;
    os.precision(17);
    cube.stats().dump(os);
    std::map<std::string, double> values;
    std::istringstream lines(os.str());
    for (std::string line; std::getline(lines, line);) {
        std::istringstream fields(line);
        std::string path;
        double value = 0.0;
        if (fields >> path >> value)
            values[path] = value;
    }
    return values;
}

/** The dump's NoC lines must equal the fabric's per-node sums. */
void
expectDumpMatchesFabric(Neurocube &cube)
{
    const NocFabric &fabric = cube.fabric();
    std::map<std::string, double> dump = dumpValues(cube);
    EXPECT_EQ(dump.at("neurocube.noc.ejected"),
              double(fabric.ejectedPackets()));
    EXPECT_EQ(dump.at("neurocube.noc.linkFlits"),
              double(fabric.linkFlits()));
    const Histogram latency = fabric.latencyHistogram();
    EXPECT_EQ(dump.at("neurocube.noc.latency.count"),
              double(latency.count()));
    EXPECT_EQ(dump.at("neurocube.noc.latency.min"), double(latency.min()));
    EXPECT_EQ(dump.at("neurocube.noc.latency.max"), double(latency.max()));
    EXPECT_EQ(dump.at("neurocube.noc.latency.mean"), latency.mean());
    EXPECT_EQ(dump.at("neurocube.noc.latency.p50"), latency.p50());
    EXPECT_EQ(dump.at("neurocube.noc.latency.p99"), latency.p99());
    EXPECT_EQ(latency.count(), fabric.ejectedPackets());
    // Without duplication operands cross the mesh, so every count
    // above is non-zero.
    EXPECT_GT(fabric.linkFlits(), 0u);
}

TEST(Integration, StatsDumpCarriesTheFabricCounts)
{
    NetworkDesc net = tinyConvNet();
    NetworkData data = NetworkData::randomized(net, 32);
    NeurocubeConfig config;
    config.mapping.duplicateConvHalo = false;

    // A fanned-out run: four batch lanes on the threaded engine.
    config.batch.lanes = 4;
    std::vector<Tensor> inputs;
    for (uint64_t l = 0; l < 4; ++l) {
        Tensor in(net.inputMaps(), net.inputHeight(), net.inputWidth());
        Rng rng(33 + l);
        in.randomize(rng);
        inputs.push_back(std::move(in));
    }
    {
        Neurocube cube(config);
        cube.loadNetwork(net, data);
        cube.runForwardBatch(inputs);
        SCOPED_TRACE("threaded batch");
        expectDumpMatchesFabric(cube);
    }

    // One scheduler over the whole machine.
    config.batch.lanes = 1;
    config.engine = SimEngine::Event;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(inputs[0]);
    cube.runForward();
    SCOPED_TRACE("event");
    expectDumpMatchesFabric(cube);
}

} // namespace
} // namespace neurocube
