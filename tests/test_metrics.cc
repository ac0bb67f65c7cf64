/**
 * @file
 * Stall-attribution metrics tests: registry counting and snapshots,
 * the NC_COUNT publishing macro, the top-down bottleneck
 * classifier on hand-built deltas, per-lane node filtering, the phase
 * detector over synthetic CSVs, and two synthetic workloads on the
 * real machine with a known dominant stall (one DRAM-bound, one
 * NoC-bound).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/neurocube.hh"
#include "trace/metrics.hh"
#include "trace/phase_detector.hh"

namespace neurocube
{
namespace
{

/** Shorthand for charging @p n cycles of one class to an instance. */
void
charge(MetricsRegistry &registry, TraceComponent component,
       unsigned instance, StallClass cls, uint64_t n)
{
    registry.add(Counter::stall(component, cls), instance, n);
}

TEST(MetricsRegistry, CountsPerInstanceAndClass)
{
    MetricsRegistry registry;
    registry.configure(2, 2, 2);

    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 10);
    charge(registry, TraceComponent::Pe, 0, StallClass::Idle, 5);
    charge(registry, TraceComponent::Pe, 1, StallClass::StallCache, 3);
    charge(registry, TraceComponent::Vault, 1, StallClass::StallDram,
           7);

    const MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.instances(Counter::stall(TraceComponent::Pe,
                                            StallClass::Busy)),
              2u);
    const StallBreakdown pe0 = snap.stalls(TraceComponent::Pe, 0);
    EXPECT_EQ(pe0[StallClass::Busy], 10u);
    EXPECT_EQ(pe0[StallClass::Idle], 5u);
    EXPECT_EQ(pe0.total(), 15u);
    EXPECT_EQ(snap.stalls(TraceComponent::Pe, 1)[StallClass::StallCache],
              3u);
    EXPECT_EQ(
        snap.stalls(TraceComponent::Vault, 1)[StallClass::StallDram],
        7u);
    // Stall, energy and spatial counters share one array without
    // aliasing: a neighbouring family is untouched.
    EXPECT_EQ(snap.energyCounts()[EnergyEventKind::MacOp], 0u);
    EXPECT_EQ(snap.spatialCounts().totalPeMacOps(), 0u);
}

TEST(MetricsRegistry, OutOfRangeInstanceIsDropped)
{
    MetricsRegistry registry;
    registry.configure(1, 1, 1);
    charge(registry, TraceComponent::Router, 99, StallClass::Busy, 1);
    EXPECT_EQ(registry.snapshot().stalls(TraceComponent::Router, 0)
                  .total(),
              0u);
}

TEST(MetricsRegistry, SnapshotDeltaIsolatesAnInterval)
{
    MetricsRegistry registry;
    registry.configure(1, 1, 1);
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 4);

    MetricsSnapshot before = registry.snapshot();
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 6);
    charge(registry, TraceComponent::Pe, 0, StallClass::StallInject,
           2);

    MetricsSnapshot delta = registry.snapshot().delta(before);
    const StallBreakdown pe = delta.stalls(TraceComponent::Pe, 0);
    EXPECT_EQ(pe[StallClass::Busy], 6u);
    EXPECT_EQ(pe[StallClass::StallInject], 2u);
    EXPECT_EQ(pe.total(), 8u);
}

#if NEUROCUBE_TRACE_ENABLED
TEST(MetricsRegistry, MacroPublishesToProbeRegistry)
{
    // An empty probe: the macro must be a safe no-op.
    const Probe none;
    NC_COUNT(none, Counter::stall(TraceComponent::Pe, StallClass::Busy),
             0, 1);

    MetricsRegistry registry;
    registry.configure(1, 1, 1);
    const Probe probe{nullptr, &registry};
    NC_COUNT(probe, Counter::stall(TraceComponent::Pe, StallClass::Busy),
             0, 1);
    NC_COUNT(probe,
             Counter::stall(TraceComponent::Vault, StallClass::StallDram),
             0, 1);
    NC_COUNT(none, Counter::stall(TraceComponent::Pe, StallClass::Busy),
             0, 1);

    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.stalls(TraceComponent::Pe, 0)[StallClass::Busy], 1u);
    EXPECT_EQ(
        snap.stalls(TraceComponent::Vault, 0)[StallClass::StallDram],
        1u);
}
#endif

/** Sum of a report's machine-level fractions. */
double
fractionSum(const BottleneckReport &report)
{
    double sum = 0.0;
    for (double f : report.fractions)
        sum += f;
    return sum;
}

TEST(BottleneckReport, EmptyDeltaIsInvalid)
{
    MetricsRegistry registry;
    registry.configure(1, 1, 1);
    BottleneckReport report =
        buildBottleneckReport(registry.snapshot());
    EXPECT_FALSE(report.valid);
    EXPECT_EQ(report.countedTicks, 0u);
}

TEST(BottleneckReport, MacBoundDeltaLabelsMac)
{
    MetricsRegistry registry;
    registry.configure(1, 1, 1);
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 80);
    charge(registry, TraceComponent::Pe, 0, StallClass::Idle, 20);
    charge(registry, TraceComponent::Router, 0, StallClass::Busy, 100);
    charge(registry, TraceComponent::Vault, 0, StallClass::Busy, 100);

    BottleneckReport report =
        buildBottleneckReport(registry.snapshot());
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "mac");
    EXPECT_NEAR(report.peBusy, 0.8, 1e-9);
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
    EXPECT_EQ(report.countedTicks, 300u);
}

TEST(BottleneckReport, NocBlockingOutranksInjectAndDram)
{
    MetricsRegistry registry;
    registry.configure(1, 1, 1);
    // PE mostly starved, router heavily blocked, PNG can't inject,
    // vault stalled: head-of-line blocking explains the rest.
    charge(registry, TraceComponent::Pe, 0, StallClass::StallInject,
           90);
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 10);
    charge(registry, TraceComponent::Router, 0,
           StallClass::StallNocCredit, 40);
    charge(registry, TraceComponent::Router, 0, StallClass::Busy, 60);
    charge(registry, TraceComponent::Png, 0, StallClass::StallInject,
           50);
    charge(registry, TraceComponent::Png, 0, StallClass::Busy, 50);
    charge(registry, TraceComponent::Vault, 0, StallClass::StallDram,
           50);
    charge(registry, TraceComponent::Vault, 0, StallClass::Busy, 50);

    BottleneckReport report =
        buildBottleneckReport(registry.snapshot());
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "noc");
    EXPECT_NEAR(report.routerBlocked, 0.4, 1e-9);
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
}

TEST(BottleneckReport, DramBoundDeltaLabelsDram)
{
    MetricsRegistry registry;
    registry.configure(1, 1, 1);
    charge(registry, TraceComponent::Pe, 0, StallClass::StallInject,
           80);
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 20);
    charge(registry, TraceComponent::Router, 0, StallClass::Idle, 100);
    charge(registry, TraceComponent::Png, 0, StallClass::StallDram,
           90);
    charge(registry, TraceComponent::Png, 0, StallClass::Busy, 10);
    charge(registry, TraceComponent::Vault, 0, StallClass::StallDram,
           70);
    charge(registry, TraceComponent::Vault, 0, StallClass::Busy, 30);

    BottleneckReport report =
        buildBottleneckReport(registry.snapshot());
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "dram");
    EXPECT_NEAR(report.dramPressure, 1.0, 1e-9);
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
}

TEST(BottleneckReport, NodeFilterAttributesPerLane)
{
    MetricsRegistry registry;
    registry.configure(2, 2, 2);
    // Node 0 is compute-bound, node 1 is NoC-bound.
    charge(registry, TraceComponent::Pe, 0, StallClass::Busy, 100);
    charge(registry, TraceComponent::Pe, 1, StallClass::StallInject,
           100);
    charge(registry, TraceComponent::Router, 1,
           StallClass::StallNocCredit, 100);

    const std::vector<unsigned> lane0{0};
    const std::vector<unsigned> lane1{1};
    MetricsSnapshot delta = registry.snapshot();

    BottleneckReport r0 =
        buildBottleneckReport(registry.filterToNodes(delta, lane0));
    ASSERT_TRUE(r0.valid);
    EXPECT_STREQ(r0.label, "mac");
    EXPECT_EQ(r0.countedTicks, 100u);

    BottleneckReport r1 =
        buildBottleneckReport(registry.filterToNodes(delta, lane1));
    ASSERT_TRUE(r1.valid);
    EXPECT_STREQ(r1.label, "noc");
    EXPECT_EQ(r1.countedTicks, 200u);
}

// ---------------------------------------------------------------
// Phase detector on synthetic CSVs.
// ---------------------------------------------------------------

/** Config matching the hand-written CSVs below (window 100). */
PhaseDetectorConfig
smallConfig()
{
    PhaseDetectorConfig config;
    config.windowTicks = 100;
    config.numPes = 2;
    config.numPngs = 2;
    config.numRouters = 2;
    config.numVaults = 2;
    return config;
}

constexpr char kCsvHeader[] =
    "window_start,noc_flits_per_cycle,ejected_per_cycle,"
    "mean_eject_latency,pe_util_pct,png_stall_ticks,"
    "noc_blocked_ticks,dram_stall_ticks,dram_bytes_per_cycle\n";

TEST(PhaseDetector, ClassifiesAndMergesWindows)
{
    std::istringstream csv(
        std::string(kCsvHeader)
        // Two compute windows (merge), one dram-bound, one
        // inject-bound, one noc-bound.
        + "0,1,0,0,80,0,0,0,2\n"
          "100,1,0,0,75,0,0,0,2\n"
          "200,0.1,0,0,5,0,0,120,1\n"
          "300,0.1,0,0,5,90,0,0,0\n"
          "400,0.1,0,0,5,0,150,0,0\n");
    auto segments = detectPhases(csv, smallConfig());
    ASSERT_EQ(segments.size(), 4u);
    EXPECT_EQ(segments[0].kind, PhaseKind::Compute);
    EXPECT_EQ(segments[0].startTick, Tick(0));
    EXPECT_EQ(segments[0].endTick, Tick(200));
    EXPECT_EQ(segments[0].windows, 2u);
    EXPECT_EQ(segments[1].kind, PhaseKind::DramBound);
    EXPECT_EQ(segments[2].kind, PhaseKind::InjectBound);
    EXPECT_EQ(segments[3].kind, PhaseKind::NocBound);
    EXPECT_EQ(segments[3].endTick, Tick(500));
}

TEST(PhaseDetector, ReinstatesSkippedWindowsAsQuiescent)
{
    // The exporter skips empty windows; [100, 300) is missing here,
    // as during a parked batch lane or between layers.
    std::istringstream csv(std::string(kCsvHeader)
                           + "0,1,0,0,80,0,0,0,2\n"
                             "300,0.1,0,0,5,0,0,130,1\n");
    auto segments = detectPhases(csv, smallConfig());
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0].kind, PhaseKind::Compute);
    EXPECT_EQ(segments[1].kind, PhaseKind::Quiescent);
    EXPECT_EQ(segments[1].startTick, Tick(100));
    EXPECT_EQ(segments[1].endTick, Tick(300));
    EXPECT_EQ(segments[1].windows, 2u);
    EXPECT_EQ(segments[2].kind, PhaseKind::DramBound);
}

TEST(PhaseDetector, ToleratesColumnReordering)
{
    std::istringstream csv(
        "dram_stall_ticks,window_start,pe_util_pct,png_stall_ticks\n"
        "160,0,5,0\n");
    auto segments = detectPhases(csv, smallConfig());
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].kind, PhaseKind::DramBound);
}

TEST(PhaseDetector, RejectsForeignCsv)
{
    std::istringstream csv("a,b,c\n1,2,3\n");
    EXPECT_TRUE(detectPhases(csv, smallConfig()).empty());
    std::istringstream empty("");
    EXPECT_TRUE(detectPhases(empty, smallConfig()).empty());
}

TEST(PhaseDetector, ReportListsOneLinePerSegment)
{
    std::vector<PhaseSegment> segments = {
        {0, 200, PhaseKind::Compute, 2},
        {200, 300, PhaseKind::DramBound, 1},
    };
    std::string report = phaseReport(segments);
    EXPECT_NE(report.find("compute"), std::string::npos);
    EXPECT_NE(report.find("dram-bound"), std::string::npos);
    EXPECT_EQ(std::count(report.begin(), report.end(), '\n'), 2);
}

#if NEUROCUBE_TRACE_ENABLED
// ---------------------------------------------------------------
// Synthetic workloads with a known dominant stall (acceptance
// criterion: the classifier recognises a DRAM-starved and a
// NoC-saturated machine from the real simulator's counters).
// ---------------------------------------------------------------

/** Run one network with metrics on and return layer 0's report. */
BottleneckReport
runWithMetrics(NeurocubeConfig config, const NetworkDesc &net)
{
    config.trace.enabled = true;

    NetworkData data = NetworkData::randomized(net, 11);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(12);
    input.randomize(rng);

    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    RunResult run = cube.runForward();
    return run.layers.at(0).bottleneck;
}

TEST(SyntheticWorkload, BandwidthStarvedConvIsDramBound)
{
    // Duplicated conv on a machine with ~3% of the HMC's per-vault
    // bandwidth: every component waits on DRAM words.
    NeurocubeConfig config;
    config.dram.peakBandwidthGBps = 0.3;
    config.mapping.duplicateConvHalo = true;

    BottleneckReport report =
        runWithMetrics(config, singleConvNetwork(32, 24, 5, 1));
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "dram");
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
    EXPECT_GE(report.fractions[size_t(StallClass::StallDram)], 0.10);
}

TEST(SyntheticWorkload, PartitionedFcOnShallowMeshIsNocBound)
{
    // Non-duplicated FC layer: every PE gathers operands from every
    // other node, and shallow router FIFOs saturate the mesh while
    // DRAM has bandwidth to spare.
    NeurocubeConfig config;
    config.mapping.duplicateFcInput = false;
    config.noc.bufferDepth = 4;
    config.dram.peakBandwidthGBps = 40.0;

    BottleneckReport report =
        runWithMetrics(config, threeLayerMlp(512, 256, 16));
    ASSERT_TRUE(report.valid);
    EXPECT_STREQ(report.label, "noc");
    EXPECT_NEAR(fractionSum(report), 1.0, 1e-9);
    EXPECT_GE(report.fractions[size_t(StallClass::StallNocCredit)],
              0.05);
}

TEST(SyntheticWorkload, HistogramSummariesArePopulated)
{
    NeurocubeConfig config;
    BottleneckReport report =
        runWithMetrics(config, singleConvNetwork(32, 24, 3, 1));
    ASSERT_TRUE(report.valid);
    // The conv moves real traffic, so every distribution has samples.
    EXPECT_GT(report.nocLatency.count, 0u);
    EXPECT_GT(report.dramQueueResidency.count, 0u);
    EXPECT_GT(report.peCacheOccupancy.count, 0u);
    EXPECT_GT(report.pngOutQueueDepth.count, 0u);
    EXPECT_GE(report.nocLatency.p99, report.nocLatency.p50);
    EXPECT_GE(double(report.nocLatency.max), report.nocLatency.p99);
}

TEST(SyntheticWorkload, MetricsJsonCarriesBottlenecks)
{
    NeurocubeConfig config;
    config.trace.enabled = true;

    NetworkDesc net = singleConvNetwork(32, 24, 3, 1);
    NetworkData data = NetworkData::randomized(net, 11);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(12);
    input.randomize(rng);

    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    RunResult run = cube.runForward();

    std::string json = run.metricsJson();
    EXPECT_NE(json.find("\"bottleneck\": {"), std::string::npos);
    EXPECT_NE(json.find("\"fractions\""), std::string::npos);
    EXPECT_NE(json.find("\"noc_latency\""), std::string::npos);
    EXPECT_EQ(json.find("\"bottleneck\": null"), std::string::npos);
}
#endif // NEUROCUBE_TRACE_ENABLED

TEST(MetricsJson, InvalidReportSerializesAsNull)
{
    RunResult run;
    LayerResult layer;
    layer.name = "conv";
    layer.cycles = 10;
    layer.ops = 100;
    run.layers.push_back(layer);
    std::string json = run.metricsJson();
    EXPECT_NE(json.find("\"bottleneck\": null"), std::string::npos);
}

} // namespace
} // namespace neurocube
