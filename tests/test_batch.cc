/**
 * @file
 * Batched multi-lane execution tests: runForwardBatch shards the
 * machine into vault groups and must stay bit-identical to the
 * sequential reference model on every lane, keep every packet inside
 * its lane's sub-mesh, and beat running the same inputs sequentially
 * on the whole machine (the lanes fill the 16-MAC groups that
 * whole-machine FC mapping leaves mostly idle).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

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

/** Conv + FC pipeline exercising both batched layer mappings. */
NetworkDesc
convFcNet()
{
    NetworkDesc net;
    net.name = "batch-conv-fc";
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

/** Single FC layer for the throughput acceptance check. */
NetworkDesc
fcNet(unsigned in, unsigned out)
{
    NetworkDesc net;
    net.name = "batch-fc";
    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.inWidth = in;
    fc.inHeight = 1;
    fc.inMaps = 1;
    fc.outMaps = out;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    return net;
}

/** A distinct randomized input per lane. */
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

/** Sum of sequential whole-machine runs over the same inputs. */
Tick
sequentialCycles(const NeurocubeConfig &config, const NetworkDesc &net,
                 const NetworkData &data,
                 const std::vector<Tensor> &inputs)
{
    Tick total = 0;
    for (const Tensor &in : inputs) {
        Neurocube cube(config);
        cube.loadNetwork(net, data);
        cube.setInput(in);
        total += cube.runForward().totalCycles();
    }
    return total;
}

class BatchDifferential : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BatchDifferential, EveryLaneMatchesReference)
{
    const unsigned lanes = GetParam();
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 1);
    std::vector<Tensor> inputs = laneInputs(net, lanes, 100);

    NeurocubeConfig config;
    config.batch.lanes = lanes;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    ASSERT_EQ(run.lanes.size(), lanes);
    ASSERT_EQ(cube.lanePartition().size(), lanes);
    for (unsigned l = 0; l < lanes; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        ASSERT_EQ(run.lanes[l].layers.size(), net.layers.size());
        for (size_t i = 0; i < net.layers.size(); ++i) {
            EXPECT_TRUE(
                tensorsEqual(cube.batchLayerOutput(l, i), expect[i]))
                << "lane " << l << " layer " << i;
        }
    }
    // The fabric's lane checker ran for the whole batch: nothing may
    // have left its vault group.
    EXPECT_EQ(cube.fabric().crossLanePackets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Lanes, BatchDifferential,
                         ::testing::Values(1u, 2u, 4u));

TEST(Batch, PartialBatchLeavesTrailingLanesIdle)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 2);
    std::vector<Tensor> inputs = laneInputs(net, 2, 200);

    NeurocubeConfig config;
    config.batch.lanes = 4;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    ASSERT_EQ(run.lanes.size(), 2u);
    for (unsigned l = 0; l < 2; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        for (size_t i = 0; i < net.layers.size(); ++i) {
            EXPECT_TRUE(
                tensorsEqual(cube.batchLayerOutput(l, i), expect[i]))
                << "lane " << l << " layer " << i;
        }
    }
    EXPECT_EQ(cube.fabric().crossLanePackets(), 0u);
}

#if NEUROCUBE_TRACE_ENABLED // bottleneck reports need the registry
TEST(Batch, LaneNocLatencyCountsOnlyTheLanesPackets)
{
    // A lane's latency histogram merges only its own nodes, where its
    // packets eject; the lanes together account for every ejection.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 2);
    std::vector<Tensor> inputs = laneInputs(net, 2, 200);

    NeurocubeConfig config;
    config.batch.lanes = 4;
    config.trace.enabled = true;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    ASSERT_EQ(run.lanes.size(), 2u);
    uint64_t total = 0;
    for (unsigned l = 0; l < 2; ++l) {
        uint64_t ejected = 0;
        for (unsigned node : cube.lanePartition()[l].nodes)
            ejected += cube.fabric().nodeEjectedPackets(node);
        const BottleneckReport &last = run.lanes[l].layers.back().bottleneck;
        ASSERT_TRUE(last.valid);
        EXPECT_GT(ejected, 0u) << "lane " << l;
        EXPECT_EQ(last.nocLatency.count, ejected) << "lane " << l;
        total += last.nocLatency.count;
    }
    EXPECT_EQ(total, cube.fabric().ejectedPackets());
}
#endif

TEST(Batch, AggregateBeatsSequentialOnConvFc)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 3);
    std::vector<Tensor> inputs = laneInputs(net, 4, 300);

    NeurocubeConfig config;
    config.batch.lanes = 4;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    Tick sequential = sequentialCycles(NeurocubeConfig{}, net, data,
                                       inputs);
    EXPECT_LT(run.cycles, sequential)
        << "batched " << run.cycles << " vs sequential " << sequential;
}

TEST(Batch, FourLaneFcThroughputAcceptance)
{
    // Acceptance criterion: 4 lanes on an FC layer reach >= 2.5x the
    // throughput of 4 sequential whole-machine runs. Whole-machine
    // mapping gives each PE only out/16 neurons, so its 16-MAC groups
    // run mostly empty while the flush pipeline still charges a full
    // 16-tick MAC latency per connection; a lane's PEs carry 4x the
    // neurons through the same number of flushes.
    NetworkDesc net = fcNet(256, 64);
    NetworkData data = NetworkData::randomized(net, 4);
    std::vector<Tensor> inputs = laneInputs(net, 4, 400);

    NeurocubeConfig config;
    config.mapping.weightsInPeMemory = true;
    Tick sequential = sequentialCycles(config, net, data, inputs);

    config.batch.lanes = 4;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);
    ASSERT_GT(run.cycles, 0u);

    for (unsigned l = 0; l < 4; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        EXPECT_TRUE(tensorsEqual(cube.batchLayerOutput(l, 0),
                                 expect[0]))
            << "lane " << l;
    }

    double speedup = double(sequential) / double(run.cycles);
    EXPECT_GE(speedup, 2.5)
        << "sequential " << sequential << " cycles vs batched "
        << run.cycles;
}

TEST(Batch, SetBatchLanesReentrantAcrossLaneCounts)
{
    // One cube, three consecutive batches with different lane
    // counts (4 -> 2 -> 1), as the serving scheduler reconfigures
    // the mesh online. Every run must stay bit-identical to the
    // reference model and keep packets inside their lanes — no
    // state from a previous partition may leak into the next run.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 6);
    std::vector<Tensor> inputs = laneInputs(net, 4, 600);

    Neurocube cube(NeurocubeConfig{});
    cube.loadNetwork(net, data);

    const unsigned lane_counts[] = {4, 2, 1, 4};
    for (unsigned lanes : lane_counts) {
        cube.setBatchLanes(lanes);
        ASSERT_EQ(cube.lanePartition().size(), lanes);
        std::vector<Tensor> batch(inputs.begin(),
                                  inputs.begin() + lanes);
        BatchRunResult run = cube.runForwardBatch(batch);
        ASSERT_EQ(run.lanes.size(), lanes);
        for (unsigned l = 0; l < lanes; ++l) {
            auto expect = referenceForward(net, data, inputs[l]);
            for (size_t i = 0; i < net.layers.size(); ++i) {
                EXPECT_TRUE(tensorsEqual(cube.batchLayerOutput(l, i),
                                         expect[i]))
                    << lanes << " lanes, lane " << l << " layer "
                    << i;
            }
        }
        EXPECT_EQ(cube.fabric().crossLanePackets(), 0u)
            << lanes << " lanes";
    }
}

TEST(Batch, PlanCacheRoundTripAcrossLaneCounts)
{
    // A 4 -> 2 -> 4 lane round trip: steady-state batches are served
    // entirely from the plan cache, and every setBatchLanes that
    // changes the partition invalidates it (the counters prove both),
    // while outputs stay bit-identical to the reference model.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 8);
    std::vector<Tensor> inputs = laneInputs(net, 4, 800);
    std::vector<Tensor> pair(inputs.begin(), inputs.begin() + 2);

    Neurocube cube((NeurocubeConfig()));
    cube.loadNetwork(net, data);
    const LayerCompiler &compiler = cube.compiler();

    cube.setBatchLanes(4);
    cube.runForwardBatch(inputs);
    // 2 layers x 4 lanes, all cold.
    EXPECT_EQ(compiler.planCacheMisses(), 8u);
    EXPECT_EQ(compiler.planCacheHits(), 0u);

    // Steady state: the same shapes recompile as pure hits.
    cube.runForwardBatch(inputs);
    EXPECT_EQ(compiler.planCacheMisses(), 8u);
    EXPECT_EQ(compiler.planCacheHits(), 8u);

    // Re-partitioning drops the cache: 2 lanes compile cold.
    cube.setBatchLanes(2);
    cube.runForwardBatch(pair);
    EXPECT_EQ(compiler.planCacheMisses(), 12u);
    EXPECT_EQ(compiler.planCacheHits(), 8u);

    // Back to 4 lanes: invalidated again, cold once, then hits.
    cube.setBatchLanes(4);
    cube.runForwardBatch(inputs);
    EXPECT_EQ(compiler.planCacheMisses(), 20u);
    EXPECT_EQ(compiler.planCacheHits(), 8u);
    cube.runForwardBatch(inputs);
    EXPECT_EQ(compiler.planCacheMisses(), 20u);
    EXPECT_EQ(compiler.planCacheHits(), 16u);

    // A same-count setBatchLanes is a no-op and keeps the cache.
    cube.setBatchLanes(4);
    cube.runForwardBatch(inputs);
    EXPECT_EQ(compiler.planCacheMisses(), 20u);
    EXPECT_EQ(compiler.planCacheHits(), 24u);

    for (unsigned l = 0; l < 4; ++l) {
        auto expect = referenceForward(net, data, inputs[l]);
        for (size_t i = 0; i < net.layers.size(); ++i) {
            EXPECT_TRUE(tensorsEqual(cube.batchLayerOutput(l, i),
                                     expect[i]))
                << "lane " << l << " layer " << i;
        }
    }
}

TEST(Batch, SetBatchLanesTimingIsDeterministic)
{
    // Warm machine state (caches, row buffers) may legitimately make
    // a second run faster than the first, but the whole reconfigure
    // sequence must be deterministic: two cubes driven through the
    // same 4 -> 2 -> 2 lane sequence report identical cycle counts,
    // and the warm steady state is stable run over run.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 7);
    std::vector<Tensor> inputs = laneInputs(net, 4, 700);
    std::vector<Tensor> pair(inputs.begin(), inputs.begin() + 2);

    auto sequence = [&]() {
        Neurocube cube((NeurocubeConfig()));
        cube.loadNetwork(net, data);
        cube.setBatchLanes(4);
        std::vector<Tick> cycles;
        cycles.push_back(cube.runForwardBatch(inputs).cycles);
        cube.setBatchLanes(2);
        cycles.push_back(cube.runForwardBatch(pair).cycles);
        cycles.push_back(cube.runForwardBatch(pair).cycles);
        return cycles;
    };
    std::vector<Tick> a = sequence();
    std::vector<Tick> b = sequence();
    EXPECT_EQ(a, b);
    for (Tick c : a)
        EXPECT_GT(c, 0u);
}

TEST(Batch, PerLaneStatsPartitionTheMachine)
{
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 5);
    std::vector<Tensor> inputs = laneInputs(net, 4, 500);

    NeurocubeConfig config;
    config.batch.lanes = 4;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    // Identical layer structure everywhere; per-lane ops follow the
    // reference operation count for the lane's own input.
    for (const RunResult &lane : run.lanes) {
        ASSERT_EQ(lane.layers.size(), net.layers.size());
        for (size_t i = 0; i < net.layers.size(); ++i) {
            EXPECT_EQ(lane.layers[i].ops,
                      net.layers[i].totalOps())
                << "layer " << i;
            EXPECT_GT(lane.layers[i].cycles, 0u);
            EXPECT_LE(lane.layers[i].cycles, run.cycles);
            EXPECT_GT(lane.layers[i].dramBits, 0u);
        }
    }
    // The aggregate wall clock can never beat the slowest lane.
    for (const RunResult &lane : run.lanes)
        EXPECT_LE(lane.totalCycles(), run.cycles);
}

TEST(Batch, OneLaneBatchMatchesUnbatchedForward)
{
    // A one-lane batch covers the whole machine, so on every engine
    // it must report exactly what an unbatched forward run of the
    // same input reports: cycles, traffic, footprint, roofline and
    // every counter-derived export.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 9);
    const Tensor x = laneInputs(net, 1, 900)[0];

    for (SimEngine engine : {SimEngine::Legacy, SimEngine::Event,
                             SimEngine::ThreadedLanes}) {
        SCOPED_TRACE("engine " + std::to_string(int(engine)));
        NeurocubeConfig config;
        config.engine = engine;
        config.batch.lanes = 1;
        config.trace.enabled = true;

        RunResult batched;
        {
            Neurocube cube(config);
            cube.loadNetwork(net, data);
            BatchRunResult run = cube.runForwardBatch({x});
            ASSERT_EQ(run.lanes.size(), 1u);
            batched = run.lanes[0];
            EXPECT_EQ(run.cycles, batched.totalCycles());
        }
        RunResult unbatched;
        {
            Neurocube cube(config);
            cube.loadNetwork(net, data);
            cube.setInput(x);
            unbatched = cube.runForward();
        }

        ASSERT_EQ(batched.layers.size(), unbatched.layers.size());
        for (size_t i = 0; i < unbatched.layers.size(); ++i) {
            SCOPED_TRACE("layer " + std::to_string(i));
            const LayerResult &b = batched.layers[i];
            const LayerResult &u = unbatched.layers[i];
            EXPECT_EQ(b.name, u.name);
            EXPECT_EQ(b.cycles, u.cycles);
            EXPECT_EQ(b.ops, u.ops);
            EXPECT_EQ(b.dramBits, u.dramBits);
            EXPECT_EQ(b.lateralPackets, u.lateralPackets);
            EXPECT_EQ(b.localPackets, u.localPackets);
            EXPECT_EQ(b.memoryBytes, u.memoryBytes);
            EXPECT_EQ(b.duplicationBytes, u.duplicationBytes);
            EXPECT_EQ(b.passes, u.passes);
            EXPECT_EQ(b.roofline.valid, u.roofline.valid);
            EXPECT_EQ(b.roofline.macPerCycle, u.roofline.macPerCycle);
            EXPECT_EQ(b.roofline.macCeiling, u.roofline.macCeiling);
            EXPECT_EQ(b.roofline.bytesPerCycle,
                      u.roofline.bytesPerCycle);
            EXPECT_EQ(b.roofline.bytesCeiling, u.roofline.bytesCeiling);
            EXPECT_EQ(b.roofline.bound, u.roofline.bound);
        }
        EXPECT_EQ(batched.metricsJson(), unbatched.metricsJson());
        EXPECT_EQ(batched.spatialJson(), unbatched.spatialJson());
        EnergyCounts be = batched.energyCounts();
        EnergyCounts ue = unbatched.energyCounts();
        EXPECT_EQ(be.valid, ue.valid);
        EXPECT_EQ(be.n, ue.n);
    }
}

#if NEUROCUBE_TRACE_ENABLED
/** Trace sink that keeps every event it is handed. */
struct CollectingSink : TraceSink
{
    std::vector<TraceEvent> events;

    void
    consume(const TraceEvent *batch, size_t count) override
    {
        events.insert(events.end(), batch, batch + count);
    }
};

TEST(Batch, ConfiguredStampFollowsTheConfigurationWindow)
{
    // Every pass charges configTicksPerPass before stamping its
    // start, so a PNG's Configured phase begins where its
    // data-driven run does, batched or not.
    NetworkDesc net = convFcNet();
    NetworkData data = NetworkData::randomized(net, 10);
    const Tensor x = laneInputs(net, 1, 1000)[0];

    const std::string path = "batch_configured_stamp.trace.json";
    auto configured_ticks = [&](bool batched) {
        // A Chrome sink gives the machine a recorder; the test's own
        // sink rides along on it and outlives the machine, whose
        // session finishes every sink when it is destroyed.
        NeurocubeConfig config;
        config.trace.enabled = true;
        config.trace.chromeJsonPath = path;
        config.trace.componentMask = 1u << unsigned(TraceComponent::Png);
        CollectingSink sink;
        {
            Neurocube cube(config);
            cube.probe().recorder->addSink(&sink);
            cube.loadNetwork(net, data);
            if (batched) {
                cube.runForwardBatch({x});
            } else {
                cube.setInput(x);
                cube.runForward();
            }
        }
        std::vector<Tick> ticks;
        for (const TraceEvent &e : sink.events) {
            if (e.type == TraceEventType::PngPhase
                && e.arg == uint32_t(PngFsmPhase::Configured))
                ticks.push_back(e.tick);
        }
        return ticks;
    };

    const std::vector<Tick> unbatched = configured_ticks(false);
    ASSERT_FALSE(unbatched.empty());
    EXPECT_EQ(unbatched.front(), NeurocubeConfig().configTicksPerPass);
    EXPECT_EQ(configured_ticks(true), unbatched);
    std::remove(path.c_str());
}
#endif

} // namespace
} // namespace neurocube
