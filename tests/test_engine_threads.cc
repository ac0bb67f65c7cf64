/**
 * @file
 * Thread-safety tests for the ThreadedLanes engine. These run under
 * the tsan preset (scripts/check.sh, CI): each batched pass spawns
 * one worker per active lane, and the per-lane schedulers must never
 * touch shared state without the fabric's per-node scratch detour.
 * The checks themselves are determinism checks — a data race that
 * corrupts counters shows up as a cross-engine mismatch even when
 * tsan is not watching.
 */

#include <gtest/gtest.h>

#include "core/neurocube.hh"
#include "nn/reference.hh"

namespace neurocube
{
namespace
{

NetworkDesc
convFcNet()
{
    NetworkDesc net;
    net.name = "threads-conv-fc";
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

    LayerDesc fc = nextLayerTemplate(conv);
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.outMaps = 32;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    return net;
}

NeurocubeConfig
threadedConfig(unsigned lanes)
{
    NeurocubeConfig config;
    config.engine = SimEngine::ThreadedLanes;
    config.batch.lanes = lanes;
#if NEUROCUBE_TRACE_ENABLED
    // Counters on: the lane workers' per-(counter, instance) writes
    // into the one shared counter array are exactly what tsan must
    // vet.
    config.trace.enabled = true;
#endif
    return config;
}

std::vector<Tensor>
laneInputs(const NetworkDesc &net, unsigned count, uint64_t seed)
{
    std::vector<Tensor> inputs;
    for (unsigned l = 0; l < count; ++l) {
        Tensor in(net.inputMaps(), net.inputHeight(),
                  net.inputWidth());
        Rng rng(seed + l);
        in.randomize(rng);
        inputs.push_back(std::move(in));
    }
    return inputs;
}

TEST(EngineThreads, FourLanesMatchReferenceUnderThreads)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 21);
    std::vector<Tensor> inputs = laneInputs(net, 4, 2100);

    Neurocube cube(threadedConfig(4));
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    ASSERT_EQ(run.lanes.size(), 4u);
    for (unsigned l = 0; l < 4; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        for (size_t i = 0; i < net.layers.size(); ++i) {
            const Tensor &got = cube.batchLayerOutput(l, i);
            ASSERT_EQ(got.flat(), expect[i].flat())
                << "lane " << l << " layer " << i;
        }
    }
    EXPECT_EQ(cube.fabric().crossLanePackets(), 0u);
}

TEST(EngineThreads, ThreadedMatchesSingleThreadedEvent)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 22);
    std::vector<Tensor> inputs = laneInputs(net, 4, 2200);

    auto run_with = [&](SimEngine engine) {
        NeurocubeConfig config = threadedConfig(4);
        config.engine = engine;
        Neurocube cube(config);
        cube.loadNetwork(net, data);
        BatchRunResult run = cube.runForwardBatch(inputs);
        std::vector<Tick> cycles{run.cycles};
        std::vector<EnergyCounts> energy;
        for (const RunResult &lane : run.lanes) {
            cycles.push_back(lane.totalCycles());
            energy.push_back(lane.energyCounts());
        }
        return std::make_pair(cycles, energy);
    };

    auto event = run_with(SimEngine::Event);
    auto threaded = run_with(SimEngine::ThreadedLanes);
    EXPECT_EQ(event.first, threaded.first);
    ASSERT_EQ(event.second.size(), threaded.second.size());
    for (size_t l = 0; l < event.second.size(); ++l) {
        EXPECT_EQ(event.second[l].n, threaded.second[l].n)
            << "lane " << l;
    }
}

TEST(EngineThreads, RepeatedBatchesAndReconfiguresAreStable)
{
    // Online lane reconfiguration with worker threads in the mix:
    // the serving scheduler's pattern. Warm state (caches, row
    // buffers) may make later runs faster than the cold first, but
    // two fresh machines driven through the same sequence must
    // report identical cycle counts — any cross-thread
    // nondeterminism shows up as a mismatch here.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 23);
    std::vector<Tensor> inputs = laneInputs(net, 4, 2300);

    auto sequence = [&]() {
        Neurocube cube(threadedConfig(4));
        cube.loadNetwork(net, data);
        const unsigned lane_counts[] = {4, 2, 4, 1, 4};
        std::vector<Tick> cycles;
        for (unsigned lanes : lane_counts) {
            cube.setBatchLanes(lanes);
            std::vector<Tensor> batch(inputs.begin(),
                                      inputs.begin() + lanes);
            cycles.push_back(cube.runForwardBatch(batch).cycles);
        }
        return cycles;
    };
    std::vector<Tick> a = sequence();
    std::vector<Tick> b = sequence();
    EXPECT_EQ(a, b);
    for (Tick c : a)
        EXPECT_GT(c, 0u);
}

TEST(EngineThreads, PartialBatchParksTrailingLanesThreaded)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 24);
    std::vector<Tensor> inputs = laneInputs(net, 2, 2400);

    Neurocube cube(threadedConfig(4));
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    ASSERT_EQ(run.lanes.size(), 2u);
    for (unsigned l = 0; l < 2; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        for (size_t i = 0; i < net.layers.size(); ++i) {
            ASSERT_EQ(cube.batchLayerOutput(l, i).flat(),
                      expect[i].flat())
                << "lane " << l << " layer " << i;
        }
    }
    EXPECT_EQ(cube.fabric().crossLanePackets(), 0u);
}

} // namespace
} // namespace neurocube
