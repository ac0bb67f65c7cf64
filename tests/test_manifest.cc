/**
 * @file
 * Run-manifest and metrics-export tests: the config fingerprint's
 * stability and sensitivity, the manifest identity block, and the
 * two flat export formats (structured JSON, Prometheus textfile) for
 * both forward runs and serving runs.
 */

#include <gtest/gtest.h>

#include <cctype>

#include "core/manifest.hh"
#include "core/neurocube.hh"
#include "serving/server.hh"
#include "serving/slo.hh"

namespace neurocube
{
namespace
{

/** One tiny traced forward run (metrics + energy accounting). */
RunResult
tinyRun()
{
    NetworkDesc net;
    net.name = "manifest-net";
    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.inWidth = 32;
    fc.inHeight = 1;
    fc.inMaps = 1;
    fc.outMaps = 8;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();

    NeurocubeConfig config;
#if NEUROCUBE_TRACE_ENABLED
    config.trace.enabled = true;
#endif
    NetworkData data = NetworkData::randomized(net, 3);
    Tensor input(1, 1, 32);
    Rng rng(4);
    input.randomize(rng);
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    RunResult run = cube.runForward();
    run.wallMs = 12.5;
    return run;
}

TEST(Manifest, EngineNamesAreStable)
{
    EXPECT_STREQ(simEngineName(SimEngine::Legacy), "legacy");
    EXPECT_STREQ(simEngineName(SimEngine::Event), "event");
    EXPECT_STREQ(simEngineName(SimEngine::ThreadedLanes),
                 "threaded_lanes");
}

TEST(Manifest, FingerprintIsStableAndSensitive)
{
    NeurocubeConfig a, b;
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));

    // Architecture-defining fields move the hash...
    b.mapping.weightsInPeMemory = true;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    b = a;
    b.dram = DramParams::ddr3();
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    b = a;
    b.noc.bufferDepth = 4;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    b = a;
    b.batch.lanes = 4;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));

    // ...observational knobs do not: engine choice and tracing never
    // change simulated results, so they stay outside the fingerprint.
    b = a;
    b.engine = SimEngine::Legacy;
    b.trace.enabled = true;
    b.trace.samplePeriod = 64;
    EXPECT_EQ(configFingerprint(a), configFingerprint(b));
}

TEST(Manifest, FingerprintPinsTheBaselineHashes)
{
    // The hashes bench/baselines/BENCH_fig12.json carries for its two
    // machines. The PE and PNG constants are hashed too, so dropping
    // one from the fingerprint fails here, not only at the bench gate.
    NeurocubeConfig config;
    EXPECT_EQ(configFingerprint(config), 0x5cb4e15f4615a783ull);
    config.mapping.duplicateConvHalo = false;
    config.mapping.duplicateFcInput = false;
    EXPECT_EQ(configFingerprint(config), 0x450cb9ed9ba3a923ull);
}

TEST(Manifest, BuildRunManifestFillsTheIdentityBlock)
{
    NeurocubeConfig config;
    RunManifest m =
        buildRunManifest(config, SimEngine::Event, "unit", true);
    EXPECT_EQ(m.name, "unit");
    EXPECT_EQ(m.engine, "event");
    EXPECT_TRUE(m.quick);
    EXPECT_FALSE(m.gitDescribe.empty());
    ASSERT_EQ(m.configHash.size(), 16u);
    for (char c : m.configHash)
        EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)))
            << m.configHash;
}

TEST(Manifest, RunManifestJsonCarriesTheStructuredFields)
{
    RunResult run = tinyRun();
    NeurocubeConfig config;
    RunManifest m =
        buildRunManifest(config, SimEngine::Event, "json-test");
    std::string json = runManifestJson(m, run);

    EXPECT_NE(json.find("\"name\":\"json-test\""), std::string::npos);
    EXPECT_NE(json.find("\"engine\":\"event\""), std::string::npos);
    EXPECT_NE(json.find("\"config_hash\":\"" + m.configHash + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"git_describe\":"), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"wall_ms\":12.5"), std::string::npos);
#if NEUROCUBE_TRACE_ENABLED
    // The traced run carries stall and energy accounting, so both
    // breakdowns are structured objects, not null.
    EXPECT_NE(json.find("\"stalls\":{\"counted_ticks\":"),
              std::string::npos);
    EXPECT_NE(json.find("\"energy\":{\"total_j\":"),
              std::string::npos);
    EXPECT_EQ(json.find("\"stalls\":null"), std::string::npos);
#endif

    // An accounting-free run degrades to explicit nulls.
    RunResult empty;
    std::string bare = runManifestJson(m, empty);
    EXPECT_NE(bare.find("\"stalls\":null"), std::string::npos);
    EXPECT_NE(bare.find("\"energy\":null"), std::string::npos);
}

TEST(Manifest, MetricsTextfileIsPrometheusShaped)
{
    RunResult run = tinyRun();
    NeurocubeConfig config;
    RunManifest m =
        buildRunManifest(config, SimEngine::Event, "prom-test");
    std::string prom = runMetricsTextfile(m, run);

    EXPECT_NE(prom.find("# TYPE neurocube_run_info gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("neurocube_run_info{run=\"prom-test\""),
              std::string::npos);
    EXPECT_NE(prom.find("neurocube_total_cycles{run=\"prom-test\"} "),
              std::string::npos);
    EXPECT_NE(prom.find("neurocube_wall_ms{run=\"prom-test\"} "),
              std::string::npos);
#if NEUROCUBE_TRACE_ENABLED
    EXPECT_NE(
        prom.find(
            "neurocube_stall_ticks{run=\"prom-test\",class=\"busy\"}"),
        std::string::npos);
    EXPECT_NE(prom.find("neurocube_energy_joules{run=\"prom-test\","
                        "component=\"mac\"}"),
              std::string::npos);
#endif
    // Textfile-collector shape: every non-comment line is
    // "name{labels} value" with no leading whitespace.
    std::istringstream lines(prom);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#')
            continue;
        EXPECT_EQ(line.rfind("neurocube_", 0), 0u) << line;
        EXPECT_NE(line.find("} "), std::string::npos) << line;
    }
}

TEST(Manifest, ServingExportsCarryTheIdentityAndReport)
{
    NetworkDesc net;
    net.name = "serve-manifest-net";
    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.inWidth = 32;
    fc.inHeight = 1;
    fc.inMaps = 1;
    fc.outMaps = 8;
    fc.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc);
    net.validate();
    NetworkData data = NetworkData::randomized(net, 5);
    Tensor input(1, 1, 32);
    Rng rng(6);
    input.randomize(rng);

    NeurocubeConfig machine;
    Neurocube cube(machine);
    cube.loadNetwork(net, data);
    ArrivalSchedule arrivals = poissonArrivals(8, 1500.0, 13);
    ServingConfig serving;
    ServingSimulator sim(cube, serving);
    ServingReport report = buildServingReport(sim.run(arrivals, input));
    RunManifest m = buildRunManifest(machine, cube.activeEngine(),
                                     "serve-test");

    std::string json = servingManifestJson(m, report, 3.5);
    EXPECT_NE(json.find("\"name\":\"serve-test\""), std::string::npos);
    EXPECT_NE(json.find("\"config_hash\":\"" + m.configHash + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"wall_ms\":3.5"), std::string::npos);
    EXPECT_NE(json.find("\"report\":{"), std::string::npos);
    EXPECT_NE(json.find("\"total_cycles\": "), std::string::npos);

    std::string prom = servingMetricsTextfile(m, report, 3.5);
    EXPECT_NE(prom.find("neurocube_run_info{run=\"serve-test\""),
              std::string::npos);
    EXPECT_NE(prom.find("neurocube_serve_served{run=\"serve-test\"} "),
              std::string::npos);
    EXPECT_NE(
        prom.find("neurocube_serve_p99_ticks{run=\"serve-test\"} "),
        std::string::npos);
}

} // namespace
} // namespace neurocube
