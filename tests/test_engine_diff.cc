/**
 * @file
 * Differential fuzz harness for the simulation engines: every
 * SimEngine must produce bit-identical results. For seeded random
 * networks (layer shapes, kernel geometry, activation mix), machine
 * configurations (DRAM technology and burst gap, NoC buffer/link
 * widths, mapping knobs, data duplication) and batch lane counts, the legacy tick-every-cycle loop,
 * the event-driven wake-list scheduler and the threaded scheduler
 * (one per bucket of node groups) are run on the same workload and
 * compared on:
 *
 *   - final cycle counts (total and per layer),
 *   - computed outputs (every layer tensor, bit for bit),
 *   - stall-class attribution totals (the full metrics JSON),
 *   - energy event counts (every EnergyEventKind counter),
 *   - every slot of the counter registry at the end of the run
 *     (each stall, energy and spatial counter of each instance),
 *   - for batches, each lane's metrics and spatial JSON.
 *
 * A fanned-out ThreadedLanes pass arms the fabric's lane checker with
 * its buckets, so every threaded case also asserts that no packet
 * left its bucket (crossLanePackets() == 0).
 *
 * The seed count defaults to 100 full-profile iterations; sanitizer
 * builds (asan/tsan) and CI quick runs drop to a handful via
 * NEUROCUBE_FUZZ_SEEDS so the suite stays inside its time budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/neurocube.hh"
#include "core/recurrent.hh"
#include "core/training.hh"

namespace neurocube
{
namespace
{

/** Seed count: env override, else fewer under sanitizers. */
unsigned
fuzzSeedCount()
{
    const char *env = std::getenv("NEUROCUBE_FUZZ_SEEDS");
    if (env != nullptr && env[0] != '\0') {
        long n = std::atol(env);
        return n > 0 ? unsigned(n) : 1u;
    }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return 8;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return 8;
#else
    return 100;
#endif
#else
    return 100;
#endif
}

/** Random small network: 1-3 chained conv/FC layers. */
NetworkDesc
randomNet(Rng &rng)
{
    NetworkDesc net;
    net.name = "fuzz-net";

    LayerDesc first;
    first.type = LayerType::Conv2D;
    first.name = "l0";
    first.inWidth = 8 + unsigned(rng.below(13));  // 8..20
    first.inHeight = 6 + unsigned(rng.below(11)); // 6..16
    first.inMaps = 1 + unsigned(rng.below(3));
    first.outMaps = 1 + unsigned(rng.below(4));
    first.kernel = rng.below(2) ? 5 : 3;
    first.channelwise = rng.below(2) != 0;
    if (first.channelwise)
        first.outMaps = first.inMaps;
    first.activation =
        rng.below(2) ? ActivationKind::Tanh : ActivationKind::Sigmoid;
    net.layers.push_back(first);

    const unsigned extra = unsigned(rng.below(3)); // 0..2 more layers
    for (unsigned i = 0; i < extra; ++i) {
        LayerDesc next = nextLayerTemplate(net.layers.back());
        next.name = "l" + std::to_string(i + 1);
        if (rng.below(2) != 0 && next.inWidth >= 3
            && next.inHeight >= 3) {
            next.type = LayerType::Conv2D;
            next.kernel = 3;
            next.channelwise = rng.below(2) != 0;
            next.outMaps = next.channelwise
                               ? next.inMaps
                               : 1 + unsigned(rng.below(4));
        } else {
            next.type = LayerType::FullyConnected;
            next.outMaps = 8 + unsigned(rng.below(57)); // 8..64
        }
        next.activation = rng.below(2) ? ActivationKind::Tanh
                                       : ActivationKind::Sigmoid;
        net.layers.push_back(next);
    }
    net.validate();
    return net;
}

/** Random machine: DRAM technology, NoC widths, mapping knobs. */
NeurocubeConfig
randomConfig(Rng &rng, bool need_identity_channels)
{
    NeurocubeConfig config;
    if (!need_identity_channels) {
        // Batch lanes need one channel per node (HMC); single runs
        // also fuzz the scarce-channel technologies.
        switch (rng.below(3)) {
        case 0:
            config.dram = DramParams::hmcInternal();
            break;
        case 1:
            config.dram = DramParams::ddr3();
            break;
        default:
            config.dram = DramParams::hbm();
            break;
        }
    }
    const Tick burst_gaps[] = {0, 1, 2, 4};
    config.dram.burstGapTicks = burst_gaps[rng.below(4)];
    // Without duplication several PEs' streams share one vault's
    // queue, so FR-FCFS serves from its middle (about one case in
    // four for each layer kind).
    config.mapping.duplicateConvHalo = rng.below(4) != 0;
    config.mapping.duplicateFcInput = rng.below(4) != 0;
    // About one case in four runs the 17-port fully connected NoC.
    if (rng.below(4) == 0)
        config.noc.topology = NocTopology::FullyConnected;
    config.noc.bufferDepth = 4u << rng.below(3);    // 4, 8, 16
    config.noc.linkWidth = 1 + unsigned(rng.below(2));
    config.noc.localPortWidth = 1 + unsigned(rng.below(3)); // 1..3
    config.noc.deliveryDepth = 16u << rng.below(2); // 16, 32
    config.mapping.weightsInPeMemory = rng.below(2) != 0;
#if NEUROCUBE_TRACE_ENABLED
    // Counters on, no event sinks: the invariants under test include
    // the stall, energy and spatial counters, and a sink-less session
    // leaves every engine eligible.
    config.trace.enabled = true;
#endif
    return config;
}

/**
 * Every slot of a machine's counter registry (empty without one): the
 * per-instance stall, energy and spatial state a run leaves behind.
 */
std::vector<uint64_t>
registrySlots(Neurocube &cube)
{
    MetricsRegistry *registry = cube.metricsRegistry();
    return registry ? registry->snapshot().slots
                    : std::vector<uint64_t>{};
}

/** Name the first registry slot two runs disagree on. */
::testing::AssertionResult
slotsEqual(const std::vector<uint64_t> &ref,
           const std::vector<uint64_t> &got)
{
    if (ref.size() != got.size()) {
        return ::testing::AssertionFailure()
            << "counter registry size " << ref.size() << " vs "
            << got.size();
    }
    for (size_t i = 0; i < ref.size(); ++i) {
        if (ref[i] != got[i]) {
            return ::testing::AssertionFailure()
                << "counter registry slot " << i << ": " << ref[i]
                << " vs " << got[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/** Everything one engine run produces that must be engine-invariant. */
struct RunSnapshot
{
    Tick totalCycles = 0;
    std::vector<Tick> layerCycles;
    std::vector<Tensor> outputs;
    std::string metricsJson;
    std::string spatialJson;
    EnergyCounts energy;
    std::vector<uint64_t> counters;
    /** Packets that left their lane, or their bucket when fanned out. */
    uint64_t crossLanePackets = 0;
};

RunSnapshot
snapshotForward(const NeurocubeConfig &base, SimEngine engine,
                const NetworkDesc &net, const NetworkData &data,
                const Tensor &input)
{
    NeurocubeConfig config = base;
    config.engine = engine;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    RunResult run = cube.runForward();

    RunSnapshot snap;
    snap.totalCycles = run.totalCycles();
    for (const LayerResult &l : run.layers)
        snap.layerCycles.push_back(l.cycles);
    for (size_t i = 0; i < net.layers.size(); ++i)
        snap.outputs.push_back(cube.layerOutput(i));
    snap.metricsJson = run.metricsJson();
    snap.spatialJson = run.spatialJson();
    snap.energy = run.energyCounts();
    snap.counters = registrySlots(cube);
    snap.crossLanePackets = cube.fabric().crossLanePackets();
    return snap;
}

::testing::AssertionResult
tensorsEqual(const Tensor &a, const Tensor &b)
{
    if (a.maps() != b.maps() || a.height() != b.height()
        || a.width() != b.width())
        return ::testing::AssertionFailure() << "shape mismatch";
    for (unsigned m = 0; m < a.maps(); ++m) {
        for (unsigned y = 0; y < a.height(); ++y) {
            for (unsigned x = 0; x < a.width(); ++x) {
                if (!(a.at(m, y, x) == b.at(m, y, x))) {
                    return ::testing::AssertionFailure()
                        << "value mismatch at (" << m << "," << y
                        << "," << x << ")";
                }
            }
        }
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
snapshotsEqual(const RunSnapshot &ref, const RunSnapshot &got)
{
    if (ref.totalCycles != got.totalCycles) {
        return ::testing::AssertionFailure()
            << "total cycles " << ref.totalCycles << " vs "
            << got.totalCycles;
    }
    if (ref.layerCycles != got.layerCycles)
        return ::testing::AssertionFailure() << "per-layer cycles";
    if (ref.outputs.size() != got.outputs.size())
        return ::testing::AssertionFailure() << "output count";
    for (size_t i = 0; i < ref.outputs.size(); ++i) {
        auto eq = tensorsEqual(ref.outputs[i], got.outputs[i]);
        if (!eq) {
            return ::testing::AssertionFailure()
                << "layer " << i << " output: " << eq.message();
        }
    }
    if (ref.metricsJson != got.metricsJson) {
        return ::testing::AssertionFailure()
            << "stall-attribution metrics JSON differs";
    }
    if (ref.spatialJson != got.spatialJson) {
        return ::testing::AssertionFailure()
            << "spatial heatmap/roofline JSON differs";
    }
    if (ref.energy.valid != got.energy.valid)
        return ::testing::AssertionFailure() << "energy validity";
    for (size_t k = 0; k < numEnergyEventKinds; ++k) {
        if (ref.energy.n[k] != got.energy.n[k]) {
            return ::testing::AssertionFailure()
                << "energy count " << k << ": " << ref.energy.n[k]
                << " vs " << got.energy.n[k];
        }
    }
    return slotsEqual(ref.counters, got.counters);
}

TEST(EngineDiff, FuzzForwardAllThreeEngines)
{
    const unsigned seeds = fuzzSeedCount();
    for (unsigned seed = 1; seed <= seeds; ++seed) {
        Rng rng(uint64_t(seed) * 0x517cc1b727220a95ull);
        NetworkDesc net = randomNet(rng);
        NeurocubeConfig config = randomConfig(rng, false);
        NetworkData data = NetworkData::randomized(net, seed);
        Tensor input(net.inputMaps(), net.inputHeight(),
                     net.inputWidth());
        Rng input_rng(seed + 1000);
        input.randomize(input_rng);

        RunSnapshot legacy = snapshotForward(config, SimEngine::Legacy,
                                             net, data, input);
        RunSnapshot event = snapshotForward(config, SimEngine::Event,
                                            net, data, input);
        RunSnapshot threaded = snapshotForward(
            config, SimEngine::ThreadedLanes, net, data, input);
        ASSERT_TRUE(snapshotsEqual(legacy, event))
            << "seed " << seed << " net " << net.layers.size()
            << " layers, " << net.inputWidth() << "x"
            << net.inputHeight();
        ASSERT_TRUE(snapshotsEqual(legacy, threaded))
            << "seed " << seed << " (threaded)";
        ASSERT_EQ(threaded.crossLanePackets, 0u) << "seed " << seed;
        ASSERT_GT(legacy.totalCycles, 0u) << "seed " << seed;
    }
}

/** Snapshot of a batched run, comparable across engines. */
struct BatchSnapshot
{
    Tick cycles = 0;
    std::vector<Tick> laneCycles;
    std::vector<Tensor> outputs; // lane-major, all layers
    std::vector<EnergyCounts> laneEnergy;
    std::vector<std::string> laneSpatial;
    std::vector<std::string> laneMetrics;
    std::vector<uint64_t> counters;
    uint64_t crossLanePackets = 0;
};

BatchSnapshot
snapshotBatch(const NeurocubeConfig &base, SimEngine engine,
              unsigned lanes, const NetworkDesc &net,
              const NetworkData &data,
              const std::vector<Tensor> &inputs)
{
    NeurocubeConfig config = base;
    config.engine = engine;
    config.batch.lanes = lanes;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    BatchRunResult run = cube.runForwardBatch(inputs);

    BatchSnapshot snap;
    snap.cycles = run.cycles;
    for (const RunResult &lane : run.lanes) {
        snap.laneCycles.push_back(lane.totalCycles());
        snap.laneEnergy.push_back(lane.energyCounts());
        snap.laneSpatial.push_back(lane.spatialJson());
        snap.laneMetrics.push_back(lane.metricsJson());
    }
    for (unsigned l = 0; l < inputs.size(); ++l) {
        for (size_t i = 0; i < net.layers.size(); ++i)
            snap.outputs.push_back(cube.batchLayerOutput(l, i));
    }
    snap.counters = registrySlots(cube);
    snap.crossLanePackets = cube.fabric().crossLanePackets();
    return snap;
}

::testing::AssertionResult
batchSnapshotsEqual(const BatchSnapshot &ref, const BatchSnapshot &got)
{
    if (ref.cycles != got.cycles) {
        return ::testing::AssertionFailure()
            << "batch cycles " << ref.cycles << " vs " << got.cycles;
    }
    if (ref.laneCycles != got.laneCycles)
        return ::testing::AssertionFailure() << "per-lane cycles";
    if (ref.outputs.size() != got.outputs.size())
        return ::testing::AssertionFailure() << "output count";
    for (size_t i = 0; i < ref.outputs.size(); ++i) {
        auto eq = tensorsEqual(ref.outputs[i], got.outputs[i]);
        if (!eq) {
            return ::testing::AssertionFailure()
                << "output " << i << ": " << eq.message();
        }
    }
    for (size_t l = 0; l < ref.laneEnergy.size(); ++l) {
        for (size_t k = 0; k < numEnergyEventKinds; ++k) {
            if (ref.laneEnergy[l].n[k] != got.laneEnergy[l].n[k]) {
                return ::testing::AssertionFailure()
                    << "lane " << l << " energy count " << k;
            }
        }
    }
    for (size_t l = 0; l < ref.laneSpatial.size(); ++l) {
        if (ref.laneSpatial[l] != got.laneSpatial[l]) {
            return ::testing::AssertionFailure()
                << "lane " << l << " spatial JSON differs";
        }
        if (ref.laneMetrics[l] != got.laneMetrics[l]) {
            return ::testing::AssertionFailure()
                << "lane " << l << " metrics JSON differs";
        }
    }
    return slotsEqual(ref.counters, got.counters);
}

TEST(EngineDiff, FuzzBatchAllThreeEngines)
{
    // Batched runs are where ThreadedLanes diverges from Event, so
    // every seed runs all three engines on a random lane count
    // (including partial batches that park trailing lanes).
    const unsigned seeds = std::max(1u, fuzzSeedCount() / 4);
    for (unsigned seed = 1; seed <= seeds; ++seed) {
        Rng rng(uint64_t(seed) * 0x2545f4914f6cdd1dull);
        NetworkDesc net = randomNet(rng);
        // Batch lanes need the identity channel attachment (HMC).
        NeurocubeConfig config = randomConfig(rng, true);
        const unsigned lanes = 1u << rng.below(3); // 1, 2, 4
        const unsigned occupied = 1 + unsigned(rng.below(lanes));
        NetworkData data = NetworkData::randomized(net, seed);
        std::vector<Tensor> inputs;
        for (unsigned l = 0; l < occupied; ++l) {
            Tensor in(net.inputMaps(), net.inputHeight(),
                      net.inputWidth());
            Rng in_rng(seed * 100 + l);
            in.randomize(in_rng);
            inputs.push_back(std::move(in));
        }

        BatchSnapshot legacy = snapshotBatch(
            config, SimEngine::Legacy, lanes, net, data, inputs);
        BatchSnapshot event = snapshotBatch(
            config, SimEngine::Event, lanes, net, data, inputs);
        BatchSnapshot threaded = snapshotBatch(
            config, SimEngine::ThreadedLanes, lanes, net, data,
            inputs);
        ASSERT_TRUE(batchSnapshotsEqual(legacy, event))
            << "seed " << seed << " lanes " << lanes << " occupied "
            << occupied << " (event)";
        ASSERT_TRUE(batchSnapshotsEqual(legacy, threaded))
            << "seed " << seed << " lanes " << lanes << " occupied "
            << occupied << " (threaded)";
        ASSERT_EQ(threaded.crossLanePackets, 0u) << "seed " << seed;
        ASSERT_GT(legacy.cycles, 0u) << "seed " << seed;
    }
}

TEST(EngineDiff, FuzzPlanCacheOnVsOff)
{
    // The compiled-plan cache must be invisible: a cached compile
    // binds the same store contents and programs as a cold one, so
    // cycles, outputs, stall attribution and energy counts all stay
    // bit-identical with the cache on or off.
    const unsigned seeds = std::max(1u, fuzzSeedCount() / 4);
    for (unsigned seed = 1; seed <= seeds; ++seed) {
        Rng rng(uint64_t(seed) * 0x9e3779b97f4a7c15ull);
        NetworkDesc net = randomNet(rng);
        NeurocubeConfig config = randomConfig(rng, false);
        NetworkData data = NetworkData::randomized(net, seed);
        Tensor input(net.inputMaps(), net.inputHeight(),
                     net.inputWidth());
        Rng input_rng(seed + 2000);
        input.randomize(input_rng);

        NeurocubeConfig cached = config;
        cached.planCache = true;
        NeurocubeConfig cold = config;
        cold.planCache = false;
        RunSnapshot with_cache = snapshotForward(
            cached, SimEngine::Event, net, data, input);
        RunSnapshot without = snapshotForward(
            cold, SimEngine::Event, net, data, input);
        ASSERT_TRUE(snapshotsEqual(without, with_cache))
            << "seed " << seed;
    }
}

/** Give a config live event sinks (a real recorder) with sampling. */
void
addSampledSinks(NeurocubeConfig &config, const std::string &tag,
                uint64_t sample_period)
{
    config.trace.chromeJsonPath = tag + ".trace.json";
    config.trace.timeseriesCsvPath = tag + ".trace.csv";
    config.trace.samplePeriod = sample_period;
}

void
removeSinkFiles(const std::string &tag)
{
    std::remove((tag + ".trace.json").c_str());
    std::remove((tag + ".trace.csv").c_str());
}

TEST(EngineDiff, FuzzForwardWithLiveSampledRecorder)
{
    // The zero-compromise telemetry contract: with a live recorder
    // (real event sinks) in sampled mode, the event engine must stay
    // bit-identical to Legacy-with-tracing in cycles, stall totals
    // and energy counts. ThreadedLanes stages its buckets' events
    // under the recorder and must match too.
    const std::string tag = "engine_diff_sampled";
    const unsigned seeds = std::max(1u, fuzzSeedCount() / 4);
    for (unsigned seed = 1; seed <= seeds; ++seed) {
        Rng rng(uint64_t(seed) * 0xd6e8feb86659fd93ull);
        NetworkDesc net = randomNet(rng);
        NeurocubeConfig config = randomConfig(rng, false);
        addSampledSinks(config, tag, 1 + rng.below(8)); // 1..8
        NetworkData data = NetworkData::randomized(net, seed);
        Tensor input(net.inputMaps(), net.inputHeight(),
                     net.inputWidth());
        Rng input_rng(seed + 3000);
        input.randomize(input_rng);

        RunSnapshot legacy = snapshotForward(config, SimEngine::Legacy,
                                             net, data, input);
        RunSnapshot event = snapshotForward(config, SimEngine::Event,
                                            net, data, input);
        RunSnapshot threaded = snapshotForward(
            config, SimEngine::ThreadedLanes, net, data, input);
        ASSERT_TRUE(snapshotsEqual(legacy, event))
            << "seed " << seed << " (event, sampled recorder)";
        ASSERT_TRUE(snapshotsEqual(legacy, threaded))
            << "seed " << seed << " (threaded, sampled recorder)";
        ASSERT_EQ(threaded.crossLanePackets, 0u) << "seed " << seed;
    }
    removeSinkFiles(tag);
}

TEST(EngineDiff, FuzzBatchWithLiveSampledRecorder)
{
    const std::string tag = "engine_diff_batch_sampled";
    const unsigned seeds = std::max(1u, fuzzSeedCount() / 8);
    for (unsigned seed = 1; seed <= seeds; ++seed) {
        Rng rng(uint64_t(seed) * 0xbf58476d1ce4e5b9ull);
        NetworkDesc net = randomNet(rng);
        NeurocubeConfig config = randomConfig(rng, true);
        addSampledSinks(config, tag, 1 + rng.below(4)); // 1..4
        const unsigned lanes = 1u << rng.below(3);      // 1, 2, 4
        const unsigned occupied = 1 + unsigned(rng.below(lanes));
        NetworkData data = NetworkData::randomized(net, seed);
        std::vector<Tensor> inputs;
        for (unsigned l = 0; l < occupied; ++l) {
            Tensor in(net.inputMaps(), net.inputHeight(),
                      net.inputWidth());
            Rng in_rng(seed * 300 + l);
            in.randomize(in_rng);
            inputs.push_back(std::move(in));
        }

        BatchSnapshot legacy = snapshotBatch(
            config, SimEngine::Legacy, lanes, net, data, inputs);
        BatchSnapshot event = snapshotBatch(
            config, SimEngine::Event, lanes, net, data, inputs);
        BatchSnapshot threaded = snapshotBatch(
            config, SimEngine::ThreadedLanes, lanes, net, data,
            inputs);
        ASSERT_TRUE(batchSnapshotsEqual(legacy, event))
            << "seed " << seed << " lanes " << lanes
            << " (event, sampled recorder)";
        ASSERT_TRUE(batchSnapshotsEqual(legacy, threaded))
            << "seed " << seed << " lanes " << lanes
            << " (threaded, sampled recorder)";
        ASSERT_EQ(threaded.crossLanePackets, 0u) << "seed " << seed;
    }
    removeSinkFiles(tag);
}

TEST(EngineDiff, FuzzTraceOnVsOffCycleInvariance)
{
    // Tracing is observational: a fully-exported sampled session must
    // not change simulated cycles or computed outputs relative to a
    // trace-off run of the same workload on the event engine.
    const std::string tag = "engine_diff_trace_onoff";
    const unsigned seeds = std::max(1u, fuzzSeedCount() / 4);
    for (unsigned seed = 1; seed <= seeds; ++seed) {
        Rng rng(uint64_t(seed) * 0x94d049bb133111ebull);
        NetworkDesc net = randomNet(rng);
        NeurocubeConfig traced = randomConfig(rng, false);
        addSampledSinks(traced, tag, 1 + rng.below(8));
        NeurocubeConfig untraced = traced;
        untraced.trace = TraceConfig{};
        NetworkData data = NetworkData::randomized(net, seed);
        Tensor input(net.inputMaps(), net.inputHeight(),
                     net.inputWidth());
        Rng input_rng(seed + 4000);
        input.randomize(input_rng);

        RunSnapshot off = snapshotForward(untraced, SimEngine::Event,
                                          net, data, input);
        RunSnapshot on = snapshotForward(traced, SimEngine::Event,
                                         net, data, input);
        // The trace-off run carries no metrics/energy registries, so
        // only the simulated quantities are comparable.
        ASSERT_EQ(off.totalCycles, on.totalCycles) << "seed " << seed;
        ASSERT_EQ(off.layerCycles, on.layerCycles) << "seed " << seed;
        ASSERT_EQ(off.outputs.size(), on.outputs.size());
        for (size_t i = 0; i < off.outputs.size(); ++i) {
            ASSERT_TRUE(tensorsEqual(off.outputs[i], on.outputs[i]))
                << "seed " << seed << " layer " << i;
        }
    }
    removeSinkFiles(tag);
}

#if NEUROCUBE_TRACE_ENABLED
TEST(EngineDiff, ActiveEngineUnderLiveRecorder)
{
    const std::string tag = "engine_diff_active";

    // A live sampled recorder leaves the event engine active — no
    // Legacy fallback.
    NeurocubeConfig config;
    config.engine = SimEngine::Event;
    config.trace.enabled = true;
    addSampledSinks(config, tag, 8);
    {
        Neurocube cube(config);
        EXPECT_EQ(cube.activeEngine(), SimEngine::Event);
    }

    // ThreadedLanes stays active under the recorder too: its buckets
    // stage their events and the recorder merges them.
    config.engine = SimEngine::ThreadedLanes;
    {
        Neurocube cube(config);
        EXPECT_EQ(cube.activeEngine(), SimEngine::ThreadedLanes);
    }

    // A counters-only session has no recorder either way.
    NeurocubeConfig counters_only;
    counters_only.engine = SimEngine::ThreadedLanes;
    counters_only.trace.enabled = true;
    {
        Neurocube cube(counters_only);
        EXPECT_EQ(cube.activeEngine(), SimEngine::ThreadedLanes);
    }
    removeSinkFiles(tag);
}
#endif

/** Engine-invariant view of a driver-produced RunResult. */
struct DriverSnapshot
{
    std::vector<Tick> layerCycles;
    std::string metricsJson;
    EnergyCounts energy;
    std::vector<Tensor> states;

    bool
    operator==(const DriverSnapshot &o) const
    {
        if (layerCycles != o.layerCycles
            || metricsJson != o.metricsJson
            || energy.valid != o.energy.valid
            || energy.n != o.energy.n
            || states.size() != o.states.size())
            return false;
        for (size_t i = 0; i < states.size(); ++i) {
            if (!tensorsEqual(states[i], o.states[i]))
                return false;
        }
        return true;
    }
};

NeurocubeConfig
tracedConfig(SimEngine engine)
{
    NeurocubeConfig config;
    config.engine = engine;
#if NEUROCUBE_TRACE_ENABLED
    config.trace.enabled = true;
#endif
    return config;
}

DriverSnapshot
driverSnapshot(const RunResult &run, std::vector<Tensor> states = {})
{
    DriverSnapshot snap;
    for (const LayerResult &l : run.layers)
        snap.layerCycles.push_back(l.cycles);
    snap.metricsJson = run.metricsJson();
    snap.energy = run.energyCounts();
    snap.states = std::move(states);
    return snap;
}

TEST(EngineDiff, RecurrentPathMatches)
{
    // The recurrent driver reuses the pass machinery with per-step
    // reprogramming; the event engine must not perturb it.
    RnnDesc desc;
    desc.inputSize = 10;
    desc.hiddenSize = 16;
    desc.timeSteps = 4;
    Rng rng(31);
    std::vector<Fixed> w(desc.weightCount());
    for (Fixed &v : w)
        v = Fixed::fromDouble(rng.uniform(-0.1, 0.1));
    std::vector<Tensor> inputs;
    for (unsigned t = 0; t < desc.timeSteps; ++t) {
        Tensor x(1, 1, desc.inputSize);
        x.randomize(rng, -1.0, 1.0);
        inputs.push_back(x);
    }

    auto run_with = [&](SimEngine engine) {
        Neurocube cube(tracedConfig(engine));
        std::vector<Tensor> states;
        RunResult run = runRnn(cube, desc, w, inputs, &states);
        return driverSnapshot(run, std::move(states));
    };
    EXPECT_TRUE(run_with(SimEngine::Legacy)
                == run_with(SimEngine::Event));
}

TEST(EngineDiff, TrainingPathMatches)
{
    NetworkDesc net = sceneLabelingNetwork(48, 48);
    NetworkData data = NetworkData::randomized(net, 11);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(12);
    input.randomize(rng);
    TrainingOptions opts;
    opts.includeWeightGradient = true;

    auto run_with = [&](SimEngine engine) {
        Neurocube cube(tracedConfig(engine));
        return driverSnapshot(
            runTrainingIteration(cube, net, data, input, opts));
    };
    EXPECT_TRUE(run_with(SimEngine::Legacy)
                == run_with(SimEngine::Event));
}

} // namespace
} // namespace neurocube
