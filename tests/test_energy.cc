/**
 * @file
 * Activity-based energy accounting tests: the energy counters of the
 * registry, the Table II price derivation, the event-stream pricing
 * the exporters use, and the headline cross-validation — on the
 * fig12 workload the activity-based total must agree with the
 * analytic accountEnergy() within a documented tolerance.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/neurocube.hh"
#include "nn/network.hh"
#include "power/activity_energy.hh"
#include "power/energy_model.hh"
#include "trace/energy.hh"

namespace neurocube
{
namespace
{

TEST(EnergyCountsTest, KindNamesAreUniqueAndLabeled)
{
    std::set<std::string> names;
    for (size_t k = 0; k < numEnergyEventKinds; ++k) {
        std::string name = energyEventKindName(EnergyEventKind(k));
        EXPECT_NE(name, "unknown") << "kind " << k;
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate kind name " << name;
    }
    EXPECT_STREQ(energyEventKindName(EnergyEventKind::KindCount),
                 "unknown");
}

TEST(EnergyCountsTest, RegistryCountsSnapshotsAndDeltas)
{
    MetricsRegistry reg;
    reg.configure(4, 4, 4);
    reg.add(EnergyEventKind::MacOp, 0, 10);
    reg.add(EnergyEventKind::MacOp, 0, 5);
    reg.add(EnergyEventKind::DramBit, 3, 256);
    // Out-of-range instances are dropped, never UB.
    reg.add(EnergyEventKind::MacOp, 4, 1000);

    MetricsSnapshot before = reg.snapshot();
    EXPECT_EQ(before.energyCounts()[EnergyEventKind::MacOp], 15u);
    EXPECT_EQ(before.energyCounts()[EnergyEventKind::DramBit], 256u);

    reg.add(EnergyEventKind::MacOp, 1, 7);
    EnergyCounts delta = reg.snapshot().delta(before).energyCounts();
    EXPECT_EQ(delta[EnergyEventKind::MacOp], 7u);
    EXPECT_EQ(delta[EnergyEventKind::DramBit], 0u);
    EXPECT_TRUE(delta.valid);
}

TEST(EnergyCountsTest, FilterToNodesSumsOneLane)
{
    MetricsRegistry reg;
    reg.configure(4, 4, 4);
    reg.add(EnergyEventKind::NocHop, 0, 1);
    reg.add(EnergyEventKind::NocHop, 1, 2);
    reg.add(EnergyEventKind::NocHop, 2, 4);

    const MetricsSnapshot whole = reg.snapshot();
    EXPECT_EQ(reg.filterToNodes(whole, {1, 2})
                  .energyCounts()[EnergyEventKind::NocHop],
              6u);
    EXPECT_EQ(whole.energyCounts()[EnergyEventKind::NocHop], 7u);

    // A snapshot of no registry sums to an invalid record.
    EXPECT_FALSE(MetricsSnapshot{}.energyCounts().valid);
}

/**
 * The EnergyPrices defaults are the 15 nm derivation written out as
 * literals (the trace layer cannot depend on nc_power). They must
 * stay in sync with what ActivityEnergyModel derives from the
 * PowerModel Table I/II seeds.
 */
TEST(EnergyPricesTest, DefaultsMatchThe15nmModel)
{
    EnergyPrices defaults;
    ActivityEnergyModel model{PowerModel(TechNode::Nm15)};
    const EnergyPrices &derived = model.prices();
    EXPECT_EQ(model.node(), TechNode::Nm15);

    auto near = [](double a, double b) {
        EXPECT_NEAR(a, b, 1e-9 * std::max(std::abs(a), 1.0));
    };
    near(defaults.macOpPj, derived.macOpPj);
    near(defaults.cacheAccessPj, derived.cacheAccessPj);
    near(defaults.bufferAccessPj, derived.bufferAccessPj);
    near(defaults.weightRegPj, derived.weightRegPj);
    near(defaults.nocHopPj, derived.nocHopPj);
    near(defaults.nocLinkPj, derived.nocLinkPj);
    near(defaults.pngOpPj, derived.pngOpPj);
    near(defaults.vaultXactPj, derived.vaultXactPj);
    near(defaults.vaultLogicPjPerBit, derived.vaultLogicPjPerBit);
    near(defaults.dramPjPerBit, derived.dramPjPerBit);
}

TEST(ActivityEnergyModelTest, PricesCountsIntoComponents)
{
    ActivityEnergyModel model;
    const EnergyPrices &p = model.prices();

    EnergyCounts counts;
    counts.valid = true;
    counts.n[size_t(EnergyEventKind::MacOp)] = 1000;
    counts.n[size_t(EnergyEventKind::CacheRead)] = 200;
    counts.n[size_t(EnergyEventKind::CacheWrite)] = 300;
    counts.n[size_t(EnergyEventKind::BufferAccess)] = 400;
    counts.n[size_t(EnergyEventKind::WeightRegRead)] = 500;
    counts.n[size_t(EnergyEventKind::NocHop)] = 60;
    counts.n[size_t(EnergyEventKind::NocLink)] = 40;
    counts.n[size_t(EnergyEventKind::PngOp)] = 70;
    counts.n[size_t(EnergyEventKind::VaultXact)] = 8;
    counts.n[size_t(EnergyEventKind::DramBit)] = 4096;

    EnergyBreakdown b = model.price(counts);
    EXPECT_DOUBLE_EQ(b.macJ, 1000 * p.macOpPj * 1e-12);
    EXPECT_DOUBLE_EQ(b.sramJ, (200 + 300) * p.cacheAccessPj * 1e-12);
    EXPECT_DOUBLE_EQ(b.buffersJ,
                     (400 * p.bufferAccessPj + 500 * p.weightRegPj)
                         * 1e-12);
    EXPECT_DOUBLE_EQ(b.nocJ,
                     (60 * p.nocHopPj + 40 * p.nocLinkPj) * 1e-12);
    EXPECT_DOUBLE_EQ(b.pngJ, 70 * p.pngOpPj * 1e-12);
    EXPECT_DOUBLE_EQ(b.vaultLogicJ,
                     (8 * p.vaultXactPj + 4096 * p.vaultLogicPjPerBit)
                         * 1e-12);
    EXPECT_DOUBLE_EQ(b.dramJ, 4096 * p.dramPjPerBit * 1e-12);
    EXPECT_NEAR(b.totalJ(),
                b.macJ + b.sramJ + b.buffersJ + b.nocJ + b.pngJ
                    + b.vaultLogicJ + b.dramJ,
                1e-18);

    // The 28 nm derivation prices the same counts differently.
    ActivityEnergyModel m28{PowerModel(TechNode::Nm28)};
    EXPECT_NE(m28.price(counts).macJ, b.macJ);

    auto views = energyComponents(b);
    double sum = 0.0;
    for (const EnergyComponentView &v : views)
        sum += v.joules;
    EXPECT_NEAR(sum, b.totalJ(), 1e-18);
    EXPECT_STREQ(views[0].name, "mac");
    EXPECT_STREQ(views[6].name, "dram");
}

TEST(TracePricingTest, PricesTheEventStream)
{
    EnergyPrices p;
    TraceEvent ev;
    ev.component = TraceComponent::Pe;
    ev.type = TraceEventType::MacBusy;
    ev.arg = 16;
    EXPECT_DOUBLE_EQ(tracePjOf(ev, p), 16 * p.macOpPj);

    ev.type = TraceEventType::CacheMiss;
    ev.arg = 0;
    ev.value = 12; // entries scanned
    EXPECT_DOUBLE_EQ(tracePjOf(ev, p), 12 * p.cacheAccessPj);

    ev.component = TraceComponent::Router;
    ev.type = TraceEventType::FlitSwitch;
    EXPECT_DOUBLE_EQ(tracePjOf(ev, p), p.nocHopPj);

    ev.component = TraceComponent::Vault;
    ev.type = TraceEventType::DramWord;
    ev.value = 128; // bits in the packed burst
    EXPECT_DOUBLE_EQ(tracePjOf(ev, p),
                     128 * (p.dramPjPerBit + p.vaultLogicPjPerBit)
                         + p.vaultXactPj);

    // Non-energy-bearing events price to zero.
    ev.component = TraceComponent::Sim;
    ev.type = TraceEventType::LaneDone;
    EXPECT_DOUBLE_EQ(tracePjOf(ev, p), 0.0);
}

TEST(EnergyJsonTest, RunWithoutAccountingIsInvalid)
{
    RunResult run;
    run.layers.emplace_back();
    run.layers.back().name = "conv1";
    run.layers.back().cycles = 100;
    EXPECT_FALSE(run.energyCounts().valid);
    EXPECT_NE(run.energyJson().find("\"valid\":false"),
              std::string::npos);
    EnergyComparison cmp =
        compareWithAnalytic(run, PowerModel(TechNode::Nm15));
    EXPECT_EQ(cmp.activityJ, 0.0);
}

#if NEUROCUBE_TRACE_ENABLED

/** The fig12 golden workload with energy accounting enabled. */
RunResult
runFig12WithEnergy()
{
    NetworkDesc net = sceneLabelingNetwork(64, 48);
    NetworkData data = NetworkData::randomized(net, 1);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(2);
    input.randomize(rng);

    NeurocubeConfig config;
    config.trace.enabled = true;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    return cube.runForward();
}

/**
 * The headline cross-validation (ISSUE acceptance criterion): on the
 * fig12 workload, the activity-based energy must agree with the
 * analytic accountEnergy() within the documented tolerance.
 *
 * Documented tolerance:
 *  - DRAM terms: both views price the same measured bits at the same
 *    pJ/bit, so they agree within 0.1% (float accumulation only).
 *  - Total: the ratio activity/analytic is the run's effective
 *    activity factor. It must land in [0.05, 1.30] — well above
 *    zero (the machine did switch) and at most modestly above 1
 *    (associative cache scans may count more SRAM accesses per cycle
 *    than the analytic full-activity integral assumes, but never
 *    30% more on this workload).
 */
TEST(EnergyCrossValidationTest, Fig12ActivityAgreesWithAnalytic)
{
    RunResult run = runFig12WithEnergy();
    ASSERT_FALSE(run.layers.empty());
    for (const LayerResult &l : run.layers) {
        EXPECT_TRUE(l.energy.valid) << l.name;
    }

    EnergyCounts counts = run.energyCounts();
    ASSERT_TRUE(counts.valid);

    // Exact count identities against the simulator's own accounting:
    // one MAC op is two arithmetic ops, and every DRAM bit the layer
    // results report was counted by the vault controllers.
    EXPECT_EQ(counts[EnergyEventKind::MacOp] * 2, run.totalOps());
    uint64_t dram_bits = 0;
    for (const LayerResult &l : run.layers)
        dram_bits += l.dramBits;
    EXPECT_EQ(counts[EnergyEventKind::DramBit], dram_bits);
    EXPECT_GT(counts[EnergyEventKind::CacheRead], 0u);
    EXPECT_GT(counts[EnergyEventKind::NocHop], 0u);
    EXPECT_GT(counts[EnergyEventKind::PngOp], 0u);
    EXPECT_GT(counts[EnergyEventKind::VaultXact], 0u);

    EnergyComparison cmp =
        compareWithAnalytic(run, PowerModel(TechNode::Nm15));
    ASSERT_GT(cmp.activityJ, 0.0);
    ASSERT_GT(cmp.analyticJ, 0.0);

    // DRAM terms price identical bits: 0.1% tolerance.
    EXPECT_NEAR(cmp.activity.dramJ, cmp.analyticDramJ,
                0.001 * cmp.analyticDramJ);

    // Documented total tolerance (see comment above).
    EXPECT_GE(cmp.ratio, 0.05) << "activity " << cmp.activityJ
                               << " J vs analytic " << cmp.analyticJ;
    EXPECT_LE(cmp.ratio, 1.30) << "activity " << cmp.activityJ
                               << " J vs analytic " << cmp.analyticJ;
    RecordProperty("activity_over_analytic", std::to_string(cmp.ratio));
    std::printf("[ info ] activity %.4f mJ / analytic %.4f mJ = "
                "activity factor %.3f\n",
                cmp.activityJ * 1e3, cmp.analyticJ * 1e3, cmp.ratio);
}

TEST(EnergyJsonTest, Fig12JsonCarriesBreakdown)
{
    RunResult run = runFig12WithEnergy();
    std::string json = run.energyJson();
    EXPECT_NE(json.find("\"valid\":true"), std::string::npos);
    EXPECT_NE(json.find("\"total_j\""), std::string::npos);
    EXPECT_NE(json.find("\"gops_per_watt\""), std::string::npos);
    EXPECT_NE(json.find("\"mac\""), std::string::npos);
    EXPECT_NE(json.find("\"dram\""), std::string::npos);
    EXPECT_NE(json.find("\"mac_op\""), std::string::npos);
    EXPECT_NE(json.find("\"layers\""), std::string::npos);
    // One per-layer entry per executed layer.
    size_t entries = 0;
    for (size_t at = json.find("\"counts\""); at != std::string::npos;
         at = json.find("\"counts\"", at + 1))
        ++entries;
    EXPECT_EQ(entries, run.layers.size());
}

#else // !NEUROCUBE_TRACE_ENABLED

/** Notrace builds: the macro counts nothing and runs stay invalid. */
TEST(EnergyCrossValidationTest, NotraceRunsCarryNoCounts)
{
    MetricsRegistry reg;
    reg.configure(1, 1, 1);
    const Probe probe{nullptr, &reg};
    NC_COUNT(probe, EnergyEventKind::MacOp, 0, 5);
    EXPECT_EQ(reg.snapshot().energyCounts()[EnergyEventKind::MacOp], 0u);
}

#endif // NEUROCUBE_TRACE_ENABLED

} // namespace
} // namespace neurocube
