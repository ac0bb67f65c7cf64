/**
 * @file
 * Serving-at-scale sweep: open-loop Poisson load against the cube's
 * dynamic-batching frontend (src/serving/), across offered loads
 * from well under to well past the machine's batched capacity.
 *
 * For each offered load the sweep reports goodput, tail-latency
 * percentiles (p50/p99/p999), admission-control drop rate,
 * queue-depth statistics, energy per served request, and the
 * dominant stall class — the goodput-vs-offered-load curve whose
 * knee marks the saturation point recorded in EXPERIMENTS.md.
 *
 * The offered loads are calibrated against the machine itself: one
 * batch-of-4 run measures the service capacity, and the sweep offers
 * fixed fractions of it (0.25x .. 1.5x), so quick and full modes
 * both straddle the knee. Everything is seeded and deterministic:
 * two runs of this bench produce bit-identical BENCH_serve.json
 * files, which `bench.sh --compare` checks exactly (not with the 5%
 * cycle tolerance used for the figure benches).
 */

#include "bench_common.hh"
#include "serving/server.hh"
#include "serving/slo.hh"
#include "trace/spatial.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

/** Offered load as fractions of the calibrated 4-lane capacity. */
constexpr double kLoadFactors[] = {0.25, 0.5, 0.75, 1.0, 1.25, 1.5};
constexpr size_t kNumLoads = sizeof(kLoadFactors) / sizeof(double);

/** Small conv + FC pipeline: both batched layer mappings, but short
 *  enough per inference that a sweep serves hundreds of requests. */
NetworkDesc
servingNet()
{
    unsigned w = 20, h = 16;
    if (!quickMode()) {
        w = 32;
        h = 24;
    }
    NetworkDesc net;
    net.name = "serving-conv-fc";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = w;
    conv.inHeight = h;
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

/** Machine config for serving runs (metrics + energy accounting). */
NeurocubeConfig
servingMachine()
{
    NeurocubeConfig config;
#if NEUROCUBE_TRACE_ENABLED
    config.trace.enabled = true;
#endif
    config.engine = engineFromEnv(config.engine);
    return config;
}

size_t
requestCount()
{
    return quickMode() ? 30 : 120;
}

/** Cycles of one full 4-lane batch (the capacity calibration). */
Tick
calibrateBatch4(const NetworkDesc &net, const NetworkData &data,
                const Tensor &input)
{
    NeurocubeConfig config = servingMachine();
    config.batch.lanes = 4;
    Neurocube cube(config);
    cube.loadNetwork(net, data);
    std::vector<Tensor> inputs(4, input);
    return cube.runForwardBatch(inputs).cycles;
}

struct SweepPoint
{
    double factor;
    ServingReport report;
    RunManifest manifest;
    double wallMs = 0.0;
    /** spatialSnapshotJson over the whole serving run (heatmaps for
     *  the HTML report; empty when spatial accounting is off). */
    std::string spatialJson;
};

/** "load_75pct"-style label for one sweep point. */
std::string
pointName(double factor)
{
    return "load_" + std::to_string(int(100.0 * factor)) + "pct";
}

SweepPoint
runPoint(size_t index, Tick batch4, const NetworkDesc &net,
         const NetworkData &data, const Tensor &input)
{
    const double factor = kLoadFactors[index];
    // A full 4-lane batch serves 4 requests in batch4 cycles; an
    // offered load of `factor` times that capacity has mean gap
    // batch4 / (4 * factor).
    const double mean_gap = double(batch4) / (4.0 * factor);
    ArrivalSchedule arrivals =
        poissonArrivals(requestCount(), mean_gap, 1234 + index);

    NeurocubeConfig machine = servingMachine();
    Neurocube cube(machine);
    cube.loadNetwork(net, data);

    ServingConfig serving;
    serving.queueDepth = 12;
    serving.scheduler.maxLanes = 4;
    serving.scheduler.maxWaitTicks = batch4 / 2;
    // Per-request span export rides the trace-export knob: one JSONL
    // spans file per sweep point next to the trace files.
    if (const char *dir = std::getenv("NEUROCUBE_TRACE_EXPORT");
        dir != nullptr && dir[0] != '\0') {
        serving.spansJsonlPath = std::string(dir) + "/"
                               + pointName(factor) + ".spans.jsonl";
    }
    ServingSimulator sim(cube, serving);
    WallTimer timer;
    ServingResult result = sim.run(arrivals, input);
    SweepPoint point{factor, buildServingReport(result),
                     buildRunManifest(machine, cube.activeEngine(),
                                      pointName(factor), quickMode()),
                     timer.elapsedMs(), {}};
    if (result.spatial.valid()) {
        point.spatialJson = spatialSnapshotJson(
            result.spatialTopology, result.spatial, result.makespan);
    }
    return point;
}

/** Prometheus-textfile sibling of BENCH_serve.json (one
 *  neurocube_serve_* gauge block per sweep point). */
void
writeServeProm(const std::vector<SweepPoint> &points)
{
    std::string path = benchOutputPath("BENCH_serve.prom");
    std::ofstream out(path);
    if (!out.is_open()) {
        std::fprintf(stderr, "warning: cannot write bench prom '%s'\n",
                     path.c_str());
        return;
    }
    for (const SweepPoint &p : points)
        out << servingMetricsTextfile(p.manifest, p.report, p.wallMs);
    std::printf("wrote %s\n", path.c_str());
}

void
writeServeJson(const std::vector<SweepPoint> &points, Tick batch4)
{
    std::string path = benchOutputPath("BENCH_serve.json");
    std::ofstream out(path);
    if (!out.is_open()) {
        std::fprintf(stderr, "warning: cannot write bench json '%s'\n",
                     path.c_str());
        return;
    }
    out << "{\n\"quick\": " << (quickMode() ? "true" : "false")
        << ",\n\"calibration\": {\"batch4_cycles\": " << batch4
        << "},\n\"runs\": {\n";
    for (size_t i = 0; i < points.size(); ++i) {
        out << "\"" << pointName(points[i].factor)
            << "\": {\"serving\": "
            << servingReportJson(points[i].report) << "}"
            << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "}\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

/** Self-contained HTML sibling of BENCH_serve.json: one section per
 *  sweep point (serving manifest + spatial heatmaps). Presentation
 *  only — `bench.sh --compare` never reads it. */
void
writeServeHtml(const std::vector<SweepPoint> &points)
{
    std::string path = benchOutputPath("BENCH_serve.html");
    std::ofstream out(path);
    if (!out.is_open()) {
        std::fprintf(stderr, "warning: cannot write bench html '%s'\n",
                     path.c_str());
        return;
    }
    std::vector<ReportRun> report;
    report.reserve(points.size());
    for (const SweepPoint &p : points) {
        ReportRun section;
        section.name = pointName(p.factor);
        section.manifestJson =
            servingManifestJson(p.manifest, p.report, p.wallMs);
        section.spatialJson = p.spatialJson;
        report.push_back(std::move(section));
    }
    out << renderRunReport("Serving sweep: open-loop load", report);
    std::printf("wrote %s\n", path.c_str());
}

void
printFigure()
{
    NetworkDesc net = servingNet();
    NetworkData data = NetworkData::randomized(net, 7);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(8);
    input.randomize(rng);

    std::printf("\n=== Serving sweep: open-loop load vs goodput and "
                "tail latency (%s) ===\n",
                quickMode() ? "quick" : "full");

    const Tick batch4 = calibrateBatch4(net, data, input);
    const double capacity =
        4.0 * referenceClockHz / double(batch4);
    std::printf("calibration: 4-lane batch = %llu cycles -> capacity "
                "%.1f req/s at 5 GHz\n\n",
                (unsigned long long)batch4, capacity);

    std::vector<SweepPoint> points;
    for (size_t i = 0; i < kNumLoads; ++i) {
        SweepPoint point = runPoint(i, batch4, net, data, input);
        char title[64];
        std::snprintf(title, sizeof(title), "offered %.2fx capacity",
                      point.factor);
        printServingPanel(point.report, title);
        points.push_back(point);
    }

    std::printf("\nload  offered(r/s)  goodput(r/s)  p50(Kt)  "
                "p99(Kt)  p999(Kt)  drop%%  stall\n");
    for (const SweepPoint &p : points) {
        const ServingReport &r = p.report;
        std::printf("%.2fx  %12.1f  %12.1f  %7.1f  %7.1f  %8.1f  "
                    "%5.1f  %s\n",
                    p.factor, r.offeredPerSec, r.goodputPerSec,
                    r.p50Ticks / 1e3, r.p99Ticks / 1e3,
                    r.p999Ticks / 1e3, 100.0 * r.dropRate,
                    r.bottleneckLabel);
    }
    // The knee: past saturation, offering more load no longer buys
    // goodput (it only grows the queue, the tail, and the drops).
    double knee = points.back().factor;
    for (size_t i = 0; i + 1 < points.size(); ++i) {
        if (points[i + 1].report.goodputPerSec
            < 1.05 * points[i].report.goodputPerSec) {
            knee = points[i].factor;
            break;
        }
    }
    std::printf("saturation knee: goodput stops growing past ~%.2fx "
                "of the 4-lane capacity\n", knee);

    writeServeJson(points, batch4);
    writeServeProm(points);
    writeServeHtml(points);
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
