/**
 * @file
 * Spatial observability tests: the registry's spatial counters,
 * the conservation invariants tying the per-instance heatmap counters
 * to the aggregate statistics the rest of the stack already reports,
 * the observational-only guarantee (cycles identical with the counter
 * registry on and off), roofline attribution sanity, and the
 * byte-determinism of the spatialJson / HTML report exports.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/neurocube.hh"
#include "nn/network.hh"
#include "trace/report.hh"
#include "trace/spatial.hh"

namespace neurocube
{
namespace
{

/** Conv + FC pipeline: DRAM traffic, lateral NoC traffic, MACs. */
NetworkDesc
convFcNet()
{
    NetworkDesc net;
    net.name = "spatial-conv-fc";
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

Tensor
netInput(const NetworkDesc &net, uint64_t seed)
{
    Tensor input(net.inputMaps(), net.inputHeight(), net.inputWidth());
    Rng rng(seed);
    input.randomize(rng);
    return input;
}

NeurocubeConfig
tracedConfig()
{
    NeurocubeConfig config;
    config.trace.enabled = true;
    return config;
}

TEST(SpatialCountersTest, CountsSnapshotsAndDeltas)
{
    MetricsRegistry reg;
    reg.configure(4, 4, 4);
    reg.configureLinks(2, {{0, 1}, {1, 0}});
    reg.add(SpatialCounter::PeMac, 0, 10);
    reg.add(SpatialCounter::PeMac, 0, 5);
    reg.add(SpatialCounter::VaultByte, 3, 256);
    reg.add(SpatialCounter::LinkFlit, 1, 7);
    // Out-of-range instances are dropped, never UB.
    reg.add(SpatialCounter::PeMac, 4, 1000);
    reg.add(SpatialCounter::LinkFlit, 2, 1000);

    const MetricsSnapshot before_all = reg.snapshot();
    SpatialSnapshot before = before_all.spatialCounts();
    EXPECT_EQ(before.totalPeMacOps(), 15u);
    EXPECT_EQ(before.totalVaultBytes(), 256u);
    EXPECT_EQ(before.totalLinkFlits(), 7u);
    EXPECT_TRUE(before.valid());

    reg.add(SpatialCounter::PeMac, 1, 8);
    SpatialSnapshot delta =
        reg.snapshot().delta(before_all).spatialCounts();
    EXPECT_EQ(delta.totalPeMacOps(), 8u);
    EXPECT_EQ(delta.totalVaultBytes(), 0u);

    EXPECT_FALSE(SpatialSnapshot{}.valid());
}

TEST(SpatialCountersTest, FilterToNodesPartitionsSumBack)
{
    MetricsRegistry reg;
    reg.configure(4, 4, 4, {0, 1, 2, 3});
    // Intra-partition links only: {0,1} and {2,3}.
    reg.configureLinks(2, {{0, 1}, {2, 3}});
    for (unsigned i = 0; i < 4; ++i) {
        reg.add(SpatialCounter::PeMac, i, 10 + i);
        reg.add(SpatialCounter::VaultByte, i, 100 + i);
    }
    reg.add(SpatialCounter::LinkFlit, 0, 5);
    reg.add(SpatialCounter::LinkFlit, 1, 9);

    const MetricsSnapshot all = reg.snapshot();
    SpatialSnapshot whole = all.spatialCounts();
    SpatialSnapshot lo = reg.filterToNodes(all, {0, 1}).spatialCounts();
    SpatialSnapshot hi = reg.filterToNodes(all, {2, 3}).spatialCounts();
    // Sizes are kept, entries outside the set are zeroed.
    ASSERT_EQ(lo.peMacOps.size(), whole.peMacOps.size());
    EXPECT_EQ(lo.totalPeMacOps(), 21u);
    EXPECT_EQ(hi.totalPeMacOps(), 25u);
    EXPECT_EQ(lo.totalLinkFlits(), 5u);
    EXPECT_EQ(hi.totalLinkFlits(), 9u);

    SpatialSnapshot sum = lo;
    sum += hi;
    EXPECT_EQ(sum.totalPeMacOps(), whole.totalPeMacOps());
    EXPECT_EQ(sum.totalVaultBytes(), whole.totalVaultBytes());
    EXPECT_EQ(sum.totalLinkFlits(), whole.totalLinkFlits());
}

#if NEUROCUBE_TRACE_ENABLED

TEST(SpatialConservationTest, CountersMatchAggregateStatistics)
{
    NetworkDesc net = convFcNet();
    NeurocubeConfig config = tracedConfig();
    Neurocube cube(config);
    cube.loadNetwork(net, NetworkData::randomized(net, 3));
    cube.setInput(netInput(net, 4));
    RunResult run = cube.runForward();

    ASSERT_NE(cube.metricsRegistry(), nullptr);
    SpatialSnapshot snap =
        cube.metricsRegistry()->snapshot().spatialCounts();
    ASSERT_TRUE(snap.valid());

    // Per-link flits sum to the fabric's aggregate flit counter.
    EXPECT_EQ(snap.totalLinkFlits(), cube.fabric().linkFlits());

    // Per-node injection counters sum to the fabric's aggregates.
    uint64_t lateral = 0, local = 0;
    for (uint64_t v : snap.nodeLateral)
        lateral += v;
    for (uint64_t v : snap.nodeLocal)
        local += v;
    EXPECT_EQ(lateral, cube.fabric().lateralPackets());
    EXPECT_EQ(local, cube.fabric().localPackets());

    // Per-vault bytes are the same traffic the energy counters price.
    EnergyCounts counts = run.energyCounts();
    ASSERT_TRUE(counts.valid);
    EXPECT_EQ(snap.totalVaultBytes() * 8,
              counts[EnergyEventKind::DramBit]);

    // Per-PE MAC occupancy counts every MAC exactly once: the energy
    // registry's MacOp count and the op accounting (2 ops per MAC)
    // agree with it.
    EXPECT_EQ(snap.totalPeMacOps(), counts[EnergyEventKind::MacOp]);
    EXPECT_EQ(snap.totalPeMacOps() * 2, run.totalOps());

    // The per-layer snapshots sum to the whole-run snapshot.
    SpatialSnapshot layers = run.spatialSnapshot();
    EXPECT_EQ(layers.totalLinkFlits(), snap.totalLinkFlits());
    EXPECT_EQ(layers.totalVaultBytes(), snap.totalVaultBytes());
    EXPECT_EQ(layers.totalPeMacOps(), snap.totalPeMacOps());
}

#else // !NEUROCUBE_TRACE_ENABLED

/** Notrace builds: the macro counts nothing and runs stay invalid. */
TEST(SpatialConservationTest, NotraceRunsCarryNoCounts)
{
    MetricsRegistry reg;
    reg.configure(1, 1, 1);
    const Probe probe{nullptr, &reg};
    NC_COUNT(probe, SpatialCounter::PeMac, 0, 5);
    EXPECT_EQ(reg.snapshot().spatialCounts().totalPeMacOps(), 0u);
}

#endif // NEUROCUBE_TRACE_ENABLED

TEST(SpatialConservationTest, ObservationalOnly)
{
    // A traced run (counter registry live at every spatial site) and
    // an untraced one (no registry) simulate the same cycles.
    NetworkDesc net = convFcNet();
    auto run = [&net](bool traced) {
        NeurocubeConfig config;
        config.trace.enabled = traced;
        Neurocube cube(config);
        cube.loadNetwork(net, NetworkData::randomized(net, 3));
        cube.setInput(netInput(net, 4));
        EXPECT_EQ(cube.metricsRegistry() != nullptr,
                  traced && NEUROCUBE_TRACE_ENABLED);
        return cube.runForward();
    };
    const RunResult on = run(true);
    const RunResult off = run(false);
    EXPECT_EQ(on.totalCycles(), off.totalCycles());
    EXPECT_EQ(on.spatialSnapshot().valid(), bool(NEUROCUBE_TRACE_ENABLED));
    EXPECT_FALSE(off.spatialSnapshot().valid());
}

TEST(SpatialRooflineTest, LayerPointsAreUnderTheCeilings)
{
    NetworkDesc net = convFcNet();
    NeurocubeConfig config = tracedConfig();
    Neurocube cube(config);
    cube.loadNetwork(net, NetworkData::randomized(net, 3));
    cube.setInput(netInput(net, 4));
    RunResult run = cube.runForward();

    ASSERT_EQ(run.layers.size(), 2u);
    for (const LayerResult &l : run.layers) {
        const RooflinePoint &p = l.roofline;
        ASSERT_TRUE(p.valid) << l.name;
        EXPECT_GT(p.macPerCycle, 0.0) << l.name;
        EXPECT_LE(p.macPerCycle, p.macCeiling * 1.0001) << l.name;
        EXPECT_GT(p.bytesPerCycle, 0.0) << l.name;
        EXPECT_GT(p.intensity(), 0.0) << l.name;
        EXPECT_TRUE(p.bound == "dram" || p.bound == "eject"
                    || p.bound == "noc" || p.bound == "mac")
            << l.name << ": " << p.bound;
    }
}

TEST(SpatialJsonTest, DeterministicAndGateSafe)
{
    NetworkDesc net = convFcNet();

    auto exportJson = [&net]() {
        Neurocube cube(tracedConfig());
        cube.loadNetwork(net, NetworkData::randomized(net, 3));
        cube.setInput(netInput(net, 4));
        return cube.runForward().spatialJson();
    };
    std::string a = exportJson();
    std::string b = exportJson();
    EXPECT_EQ(a, b);

    EXPECT_NE(a.find("\"aggregate\""), std::string::npos);
    EXPECT_NE(a.find("\"layers\""), std::string::npos);
    EXPECT_NE(a.find("\"links\""), std::string::npos);
    EXPECT_NE(a.find("\"roofline\""), std::string::npos);

    // scripts/bench.sh greps these key names for its baseline gates;
    // the spatial document must never introduce them.
    EXPECT_EQ(a.find("total_cycles"), std::string::npos);
    EXPECT_EQ(a.find("\"served\""), std::string::npos);
    EXPECT_EQ(a.find("wall_ms"), std::string::npos);
}

TEST(ReportTest, RendersSelfContainedDeterministicHtml)
{
    NetworkDesc net = convFcNet();
    Neurocube cube(tracedConfig());
    cube.loadNetwork(net, NetworkData::randomized(net, 3));
    cube.setInput(netInput(net, 4));
    RunResult run = cube.runForward();

    auto render = [&run]() {
        ReportRun section;
        section.name = "unit";
        section.metricsJson = run.metricsJson();
        section.energyJson = run.energyJson();
        section.spatialJson = run.spatialJson();
        return renderRunReport("spatial unit report", {section});
    };
    std::string html = render();
    EXPECT_EQ(html, render());

    EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    EXPECT_NE(html.find("id=\"nc-data\""), std::string::npos);
    EXPECT_NE(html.find("spatial unit report"), std::string::npos);
    // Self-contained: no external fetches of any kind (the SVG
    // namespace URI in createElementNS is an identifier, not a URL).
    EXPECT_EQ(html.find("src="), std::string::npos);
    EXPECT_EQ(html.find("<link"), std::string::npos);
    EXPECT_EQ(html.find("@import"), std::string::npos);
    EXPECT_EQ(html.find("fetch("), std::string::npos);
    EXPECT_EQ(html.find("XMLHttpRequest"), std::string::npos);
}

TEST(ReportTest, EscapesHostileNamesAndTitles)
{
    ReportRun section;
    section.name = "a\"b\\c</script>d";
    std::string html = renderRunReport("<title> & co", {section});
    // The embedded JSON block still parses (no premature close tag),
    // and the title's markup is escaped.
    EXPECT_EQ(html.find("</script>d"), std::string::npos);
    EXPECT_NE(html.find("&lt;title&gt; &amp; co"), std::string::npos);

    // Empty documents render as null sections, not broken JSON.
    EXPECT_NE(html.find("\"manifest\":null"), std::string::npos);
    EXPECT_NE(html.find("\"spatial\":null"), std::string::npos);
}

} // namespace
} // namespace neurocube
