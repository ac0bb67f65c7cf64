/**
 * @file
 * Stall-attribution metrics tests: registry counting and snapshots,
 * the NC_COUNT publishing macro, the top-down bottleneck
 * classifier on hand-built deltas, per-lane node filtering, the phase
 * detector over synthetic windows, and two synthetic workloads on the
 * real machine with a known dominant stall (one DRAM-bound, one
 * NoC-bound).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/neurocube.hh"
#include "trace/energy.hh"
#include "trace/metrics.hh"
#include "trace/phase_detector.hh"
#include "trace/timeseries_exporter.hh"

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
// Phase detection on synthetic windows, segmented by the time-series
// exporter as it writes them.
// ---------------------------------------------------------------

/** The events of one synthetic 100-tick window. */
struct WindowLoad
{
    Tick start = 0;
    unsigned linkFlits = 0;
    /** MACs fired (the MacBusy event's arg, which carries energy). */
    uint32_t macs = 0;
    uint64_t macBusyTicks = 0;
    unsigned pngStallTicks = 0;
    unsigned nocBlockedTicks = 0;
    unsigned dramStallTicks = 0;
    uint64_t dramBits = 0;
};

/** Segments of a run and the energy priced into each window. */
struct WindowedPhases
{
    std::vector<PhaseSegment> segments;
    /** Window start -> joules of the events fed into it. */
    std::map<Tick, double> windowJoules;
};

/**
 * Feed @p windows through a time-series exporter of 100-tick windows
 * on a machine with 2 PEs, 2 routers and 2 vaults, and read its
 * phases. With @p finish false the last window stays open.
 */
WindowedPhases
segmentWindows(const std::vector<WindowLoad> &windows, bool finish = true)
{
    std::ostringstream csv;
    TraceTopology topology;
    topology.numRouters = 2;
    topology.numPes = 2;
    topology.numVaults = 2;
    TimeSeriesCsvExporter exporter(csv, topology, 100);
    WindowedPhases out;
    for (const WindowLoad &w : windows) {
        double pj = 0.0;
        auto emit = [&](TraceComponent component, TraceEventType type,
                        uint32_t arg, uint64_t value) {
            TraceEvent event;
            event.tick = w.start;
            event.component = component;
            event.type = type;
            event.arg = arg;
            event.value = value;
            pj += tracePjOf(event, EnergyPrices{});
            exporter.consume(&event, 1);
        };
        for (unsigned i = 0; i < w.linkFlits; ++i)
            emit(TraceComponent::Router, TraceEventType::LinkFlit, 0, 0);
        if (w.macBusyTicks > 0) {
            emit(TraceComponent::Pe, TraceEventType::MacBusy, w.macs,
                 w.macBusyTicks);
        }
        for (unsigned i = 0; i < w.pngStallTicks; ++i)
            emit(TraceComponent::Png, TraceEventType::PngInjectStall, 0,
                 0);
        for (unsigned i = 0; i < w.nocBlockedTicks; ++i)
            emit(TraceComponent::Router, TraceEventType::FlitBlocked, 0,
                 0);
        for (unsigned i = 0; i < w.dramStallTicks; ++i)
            emit(TraceComponent::Vault, TraceEventType::DramStall, 0, 0);
        if (w.dramBits > 0) {
            emit(TraceComponent::Vault, TraceEventType::DramWord, 0,
                 w.dramBits);
        }
        out.windowJoules[w.start] = pj * 1e-12;
    }
    if (finish)
        exporter.finish();
    out.segments = exporter.phases();
    return out;
}

TEST(PhaseDetector, ClassifiesAndMergesWindows)
{
    // Two compute windows (merge), one dram-bound, one inject-bound,
    // one noc-bound; the last one is still open.
    auto segments = segmentWindows({{0, 100, 0, 160, 0, 0, 0, 1600},
                                    {100, 100, 0, 150, 0, 0, 0, 1600},
                                    {200, 10, 0, 10, 0, 0, 120, 800},
                                    {300, 10, 0, 10, 90, 0, 0, 0},
                                    {400, 10, 0, 10, 0, 150, 0, 0}},
                                   false)
                        .segments;
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
    // The exporter skips empty windows; [100, 300) has no event, as
    // during a parked batch lane or between layers.
    auto segments = segmentWindows({{0, 100, 0, 160, 0, 0, 0, 1600},
                                    {300, 10, 0, 10, 0, 0, 130, 800}})
                        .segments;
    ASSERT_EQ(segments.size(), 3u);
    EXPECT_EQ(segments[0].kind, PhaseKind::Compute);
    EXPECT_EQ(segments[1].kind, PhaseKind::Quiescent);
    EXPECT_EQ(segments[1].startTick, Tick(100));
    EXPECT_EQ(segments[1].endTick, Tick(300));
    EXPECT_EQ(segments[1].windows, 2u);
    EXPECT_EQ(segments[2].kind, PhaseKind::DramBound);
}

TEST(PhaseDetector, SegmentJoulesSumTheirWindows)
{
    // Three compute windows with a gap, then two dram-bound ones.
    WindowedPhases run = segmentWindows({{0, 100, 64, 160, 0, 0, 0, 1600},
                                         {100, 50, 32, 150, 0, 0, 0, 800},
                                         {400, 20, 16, 100, 0, 0, 0, 256},
                                         {500, 10, 0, 10, 0, 0, 120, 800},
                                         {600, 0, 0, 0, 0, 0, 150, 512}});
    ASSERT_EQ(run.segments.size(), 4u);
    EXPECT_EQ(run.segments[1].kind, PhaseKind::Quiescent);
    EXPECT_EQ(run.segments[3].kind, PhaseKind::DramBound);
    for (const PhaseSegment &segment : run.segments) {
        double joules = 0.0;
        for (const auto &[start, window_j] : run.windowJoules) {
            if (start >= segment.startTick && start < segment.endTick)
                joules += window_j;
        }
        EXPECT_DOUBLE_EQ(segment.joules, joules)
            << phaseKindName(segment.kind) << " at "
            << segment.startTick;
    }
    EXPECT_GT(run.segments[0].joules, 0.0);
    EXPECT_EQ(run.segments[1].joules, 0.0);
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
