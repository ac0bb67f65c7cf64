/**
 * @file
 * Thread-safety tests for the ThreadedLanes engine. These run under
 * the tsan preset (scripts/check.sh, CI): each pass is cut into
 * buckets of node groups that its traffic never connects, batched or
 * not, and each bucket's scheduler runs on its own thread. The
 * buckets must touch only their own nodes' state (the fabric counts
 * per node), and under a live recorder they stage their events for
 * the recorder's merge. The checks themselves are determinism
 * checks — a data race that corrupts counters or event order shows
 * up as a mismatch against the one-scheduler Event engine even when
 * tsan is not watching.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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

/** Conv, pool and FC: the shapes an unbatched inference fans out. */
NetworkDesc
convPoolFcNet()
{
    NetworkDesc net;
    net.name = "threads-conv-pool-fc";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 24;
    conv.inHeight = 20;
    conv.inMaps = 1;
    conv.outMaps = 4;
    conv.kernel = 5;
    conv.activation = ActivationKind::Tanh;
    net.layers.push_back(conv);

    LayerDesc pool = nextLayerTemplate(conv);
    pool.type = LayerType::Pool;
    pool.name = "pool";
    pool.kernel = 2;
    pool.stride = 2;
    pool.channelwise = true;
    pool.outMaps = pool.inMaps;
    net.layers.push_back(pool);

    LayerDesc fc = nextLayerTemplate(pool);
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.outMaps = 24;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    return net;
}

/** Every slot of a machine's counter registry. */
std::vector<uint64_t>
registrySlots(Neurocube &cube)
{
    MetricsRegistry *registry = cube.metricsRegistry();
    return registry ? registry->snapshot().slots
                    : std::vector<uint64_t>{};
}

TEST(EngineThreads, UnbatchedFanOutMatchesEvent)
{
    // Duplicated conv, pool and FC passes split into one group per
    // vault, so ThreadedLanes steps them on several threads.
    NetworkDesc net = convPoolFcNet();
    NetworkData data = NetworkData::randomized(net, 25);
    Tensor input = laneInputs(net, 1, 2500).front();

    struct Snapshot
    {
        std::vector<Tick> cycles;
        std::vector<Tensor> outputs;
        std::string metrics;
        std::vector<uint64_t> counters;
        uint64_t crossBucket = 0;
    };
    auto run_with = [&](SimEngine engine) {
        NeurocubeConfig config = threadedConfig(1);
        config.engine = engine;
        Neurocube cube(config);
        cube.loadNetwork(net, data);
        cube.setInput(input);
        RunResult run = cube.runForward();
        Snapshot snap;
        for (const LayerResult &l : run.layers)
            snap.cycles.push_back(l.cycles);
        for (size_t i = 0; i < net.layers.size(); ++i)
            snap.outputs.push_back(cube.layerOutput(i));
        snap.metrics = run.metricsJson();
        snap.counters = registrySlots(cube);
        snap.crossBucket = cube.fabric().crossLanePackets();
        return snap;
    };

    const Snapshot event = run_with(SimEngine::Event);
    const Snapshot threaded = run_with(SimEngine::ThreadedLanes);
    EXPECT_EQ(event.cycles, threaded.cycles);
    ASSERT_EQ(event.outputs.size(), threaded.outputs.size());
    for (size_t i = 0; i < event.outputs.size(); ++i) {
        EXPECT_EQ(event.outputs[i].flat(), threaded.outputs[i].flat())
            << "layer " << i;
    }
    EXPECT_EQ(event.metrics, threaded.metrics);
    EXPECT_EQ(event.counters, threaded.counters);
    // A fanned-out pass arms the lane checker with its buckets: no
    // packet left its bucket.
    EXPECT_EQ(threaded.crossBucket, 0u);
}

/** The Chrome JSON and time-series CSV bytes of one traced run. */
struct TraceBytes
{
    std::string json;
    std::string csv;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Run @p run on a machine exporting both traces; return the bytes. */
template <class Run>
TraceBytes
tracedRun(NeurocubeConfig config, SimEngine engine, const Run &run)
{
    const std::string tag = "engine_threads_trace";
    config.engine = engine;
    config.trace.enabled = true;
    config.trace.chromeJsonPath = tag + ".trace.json";
    config.trace.timeseriesCsvPath = tag + ".trace.csv";
    {
        Neurocube cube(config);
        run(cube);
    }
    TraceBytes bytes{slurp(config.trace.chromeJsonPath),
                     slurp(config.trace.timeseriesCsvPath)};
    std::remove(config.trace.chromeJsonPath.c_str());
    std::remove(config.trace.timeseriesCsvPath.c_str());
    return bytes;
}

/** Threaded exports must equal Event's byte for byte. */
template <class Run>
void
expectSameTraces(const NeurocubeConfig &config, const Run &run)
{
    const TraceBytes event = tracedRun(config, SimEngine::Event, run);
    const TraceBytes threaded =
        tracedRun(config, SimEngine::ThreadedLanes, run);
#if NEUROCUBE_TRACE_ENABLED
    EXPECT_GT(event.json.size(), 1000u);
    EXPECT_GT(event.csv.size(), 100u);
#endif
    EXPECT_TRUE(event.json == threaded.json) << "Chrome JSON differs";
    EXPECT_TRUE(event.csv == threaded.csv) << "time-series CSV differs";
}

TEST(EngineThreads, UnbatchedTracesMatchEventByteForByte)
{
    NetworkDesc net = convPoolFcNet();
    NetworkData data = NetworkData::randomized(net, 26);
    Tensor input = laneInputs(net, 1, 2600).front();
    auto run = [&](Neurocube &cube) {
        cube.loadNetwork(net, data);
        cube.setInput(input);
        cube.runForward();
    };
    for (Tick window : {Tick(64), Tick(1024)}) {
        NeurocubeConfig config;
        config.trace.windowTicks = window;
        SCOPED_TRACE("window " + std::to_string(window));
        expectSameTraces(config, run);
    }
    NeurocubeConfig sampled;
    sampled.trace.windowTicks = 64;
    sampled.trace.samplePeriod = 32;
    SCOPED_TRACE("sampled at 32");
    expectSameTraces(sampled, run);
}

TEST(EngineThreads, BatchedTracesMatchEventByteForByte)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 27);
    std::vector<Tensor> inputs = laneInputs(net, 4, 2700);
    NeurocubeConfig config;
    config.batch.lanes = 4;
    config.trace.windowTicks = 64;
    expectSameTraces(config, [&](Neurocube &cube) {
        cube.loadNetwork(net, data);
        cube.runForwardBatch(inputs);
    });
}

TEST(EngineThreads, FinishedBucketsWakeLikeOneScheduler)
{
    // The scene net's last FC layer: buckets finish at different
    // ticks, some right after their vault's last serve. A finished
    // bucket holds no wake (a served PNG that is done stays asleep),
    // so one scheduler executes no tick for it while the others run
    // either, which every per-tick EngineSkip of a 1-tick-window time
    // series shows.
    NetworkDesc net = sceneLabelingNetwork(160, 120);
    const size_t last = net.layers.size() - 1;
    const LayerDesc &fc = net.layers[last];
    NetworkData data = NetworkData::randomized(net, 29);
    Tensor input(fc.inMaps, fc.inHeight, fc.inWidth);
    Rng rng(2900);
    input.randomize(rng);
    NeurocubeConfig config;
    config.trace.windowTicks = 1;
    config.trace.componentMask = 1u << unsigned(TraceComponent::Sim);
    expectSameTraces(config, [&](Neurocube &cube) {
        cube.runSingleLayer(fc, data.weights[last], input);
    });
}

TEST(EngineThreads, Ddr3TracesMatchEventByteForByte)
{
    // The two DDR3 channels feed every PE: one group, one scheduler.
    NetworkDesc net = convFcNet();
    net.layers.resize(1);
    NetworkData data = NetworkData::randomized(net, 28);
    Tensor input = laneInputs(net, 1, 2800).front();
    NeurocubeConfig config;
    config.dram = DramParams::ddr3();
    config.trace.windowTicks = 64;
    expectSameTraces(config, [&](Neurocube &cube) {
        cube.loadNetwork(net, data);
        cube.setInput(input);
        cube.runForward();
    });
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
