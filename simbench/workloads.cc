#include "workloads.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>

#include "core/layer_compiler.hh"
#include "core/neurocube.hh"
#include "nn/reference.hh"
#include "power/activity_energy.hh"
#include "serving/server.hh"
#include "spans.hh"

namespace simbench
{

using namespace neurocube;

namespace
{

/** Simulated ticks per microsecond at the 5 GHz reference clock. */
constexpr double kTicksPerUs = referenceClockHz / 1e6;

// serve_batched uses the network shape, queue bound and batching policy
// of bench/serve_sweep.cc, on a 16x12 input, offered at half the
// calibrated 4-lane capacity: loaded enough to batch and queue, light
// enough that p50 and p95 vary little from seed to seed (at 0.75x the
// p95 of 200 requests spreads by over 10% across seeds).
constexpr size_t kServeRequests = 200;
constexpr double kServeLoad = 0.5;
constexpr size_t kServeQueueDepth = 12;
constexpr unsigned kServeMaxLanes = 4;

/** Warm compiles timed per traced repetition (median reported). */
constexpr int kWarmCompiles = 5;

/** Machine set-ups timed per repetition (mean reported). */
constexpr int kSetups = 25;

constexpr const char *kLayerKinds[] = {"conv", "pool", "fc"};

NetworkDesc
sceneNet()
{
    return sceneLabelingNetwork(80, 60);
}

NetworkDesc
ddr3Net()
{
    return singleConvNetwork(160, 120, 7, 2);
}

NetworkDesc
servingNet()
{
    NetworkDesc net;
    net.name = "serving-conv-fc";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = 16;
    conv.inHeight = 12;
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

/**
 * The machine the bench binaries run: a trace session with the
 * metrics, energy and spatial registries and no event sinks, so every
 * instrumentation site stays on the measured path.
 */
NeurocubeConfig
hmcMachine()
{
    NeurocubeConfig config;
    config.trace.enabled = true;
    return config;
}

NeurocubeConfig
ddr3Machine()
{
    NeurocubeConfig config = hmcMachine();
    config.dram = DramParams::ddr3();
    return config;
}

const Workload kWorkloads[] = {
    {"infer_dense", WorkloadKind::Layers, sceneNet, hmcMachine},
    {"ddr3_noc", WorkloadKind::Layers, ddr3Net, ddr3Machine},
    {"serve_batched", WorkloadKind::Serving, servingNet, hmcMachine},
};

/** Independent seed for one input stream of a workload seed. */
uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    return Rng(seed ^ (stream * 0x9e3779b97f4a7c15ull)).next();
}

double
seconds(int64_t ns)
{
    return double(ns) * 1e-9;
}

const char *
kindName(LayerType type)
{
    switch (type) {
      case LayerType::Conv2D:
        return "conv";
      case LayerType::Pool:
        return "pool";
      case LayerType::FullyConnected:
        return "fc";
    }
    return "other";
}

/** Count one gathered output against its reference. */
void
checkOutput(RepRecord &rec, Tensor output, const Tensor &expected,
            bool corrupt)
{
    if (corrupt && !output.flat().empty()) {
        Fixed &v = output.flat()[0];
        v = Fixed::fromRaw(int16_t(v.raw() ^ 1));
    }
    ++rec.attempted;
    if (!(output == expected))
        ++rec.failed;
}

/**
 * Turn on the program's time-series export with only Sim events: the
 * per-executed-tick EngineSkip aggregates (and serving events), none
 * of the per-component events.
 */
void
enableSkipExport(NeurocubeConfig &config, const std::string &csvPath)
{
    config.trace.timeseriesCsvPath = csvPath;
    config.trace.componentMask = 1u << unsigned(TraceComponent::Sim);
}

/** Sum of the skipped_ticks column of an exported time series. */
double
sumSkippedTicks(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    if (!std::getline(in, line))
        return -1.0;
    int column = -1;
    {
        std::istringstream header(line);
        std::string name;
        for (int i = 0; std::getline(header, name, ','); ++i) {
            if (name == "skipped_ticks")
                column = i;
        }
    }
    if (column < 0)
        return -1.0;
    double total = 0.0;
    while (std::getline(in, line)) {
        std::istringstream row(line);
        std::string cell;
        for (int i = 0; std::getline(row, cell, ','); ++i) {
            if (i == column) {
                total += std::stod(cell);
                break;
            }
        }
    }
    return total;
}

/** Per-statistic sum and maximum over every component instance. */
struct StatTotals
{
    std::map<std::string, double> sum;
    std::map<std::string, double> max;
};

/**
 * Fold the machine's stats dump by statistic, dropping the root group
 * and instance numbers: "neurocube.vault3.reads" counts toward
 * "vault.reads". Printed at 17 digits so counts stay exact.
 */
StatTotals
statTotals(StatGroup &root)
{
    std::ostringstream dump;
    dump.precision(17);
    root.dump(dump);

    StatTotals totals;
    std::istringstream lines(dump.str());
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string path;
        double value = 0.0;
        if (!(fields >> path >> value))
            continue;
        std::vector<std::string> parts;
        std::istringstream segments(path);
        std::string part;
        while (std::getline(segments, part, '.'))
            parts.push_back(part);
        std::string key;
        for (size_t i = 1; i < parts.size(); ++i) {
            std::string p = parts[i];
            if (i + 1 < parts.size()) {
                while (!p.empty() && std::isdigit((unsigned char)p.back()))
                    p.pop_back();
            }
            key += (key.empty() ? "" : ".") + p;
        }
        totals.sum[key] += value;
        auto it = totals.max.find(key);
        if (it == totals.max.end() || value > it->second)
            totals.max[key] = value;
    }
    return totals;
}

double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/** Work counts of the memory, NoC, PE, PNG and power layers. */
void
addMachineCounters(RepRecord &rec, Neurocube &cube,
                   const BottleneckReport &b, const EnergyCounts &energy)
{
    StatTotals t = statTotals(cube.stats());
    auto &s = rec.sim;

    const double row_hits = t.sum["vault.rowHits"];
    const double row_misses = t.sum["vault.rowMisses"];
    const double busy = t.sum["vault.busyTicks"];
    const double stall = t.sum["vault.stallTicks"];
    const double ch_ticks = busy + stall + t.sum["vault.idleTicks"];
    s["dram.reads"] = t.sum["vault.reads"];
    s["dram.writes"] = t.sum["vault.writes"];
    s["dram.row_hit_ratio"] = ratio(row_hits, row_hits + row_misses);
    s["dram.busy_frac"] = ratio(busy, ch_ticks);
    s["dram.stall_frac"] = ratio(stall, ch_ticks);
    s["dram.queue_residency_p99"] = t.max["vault.queueResidency.p99"];

    const double lateral = double(cube.fabric().lateralPackets());
    const double local = double(cube.fabric().localPackets());
    s["noc.flits_ejected"] = t.sum["noc.ejected"];
    s["noc.link_flits"] = t.sum["noc.linkFlits"];
    s["noc.lateral_fraction"] = ratio(lateral, lateral + local);
    s["noc.blocked_frac"] = b.routerBlocked;
    s["noc.latency_p99"] = t.max["noc.latency.p99"];

    s["pe.mac_ops"] = t.sum["pe.macOps"];
    s["pe.busy_frac"] = b.peBusy;
    s["pe.inject_stall_frac"] =
        b.componentFractions[size_t(TraceComponent::Pe)]
                            [size_t(StallClass::StallInject)];
    s["pe.cache_overflows"] = double(cube.totalCacheOverflows());

    s["png.issued"] = t.sum["png.issued"];
    s["png.inject_stall_frac"] = b.pngInjectStall;
    s["png.out_queue_p99"] = t.max["png.outQueueDepth.p99"];

    const EnergyBreakdown e = ActivityEnergyModel().price(energy);
    s["power.energy_uj.mac"] = e.macJ * 1e6;
    s["power.energy_uj.sram"] = e.sramJ * 1e6;
    s["power.energy_uj.noc"] = e.nocJ * 1e6;
    s["power.energy_uj.vault_logic"] = e.vaultLogicJ * 1e6;
    s["power.energy_uj.dram"] = e.dramJ * 1e6;

    const double hits = double(cube.compiler().planCacheHits());
    const double lookups = hits + double(cube.compiler().planCacheMisses());
    s["core.plan_cache_lookups"] = lookups;
    s["core.plan_cache_hit_ratio"] = ratio(hits, lookups);
}

/** Components one full-machine pass accounts every tick. */
double
componentsPerTick(const NeurocubeConfig &config)
{
    // PNGs and channels, PEs, and the fabric as one component.
    return 2.0 * config.dram.numChannels + config.numPes + 1.0;
}

/**
 * Executed versus skipped component-ticks. Every component of a pass
 * is accounted from the pass start to its end, either ticked or
 * replayed in bulk, so the base is pass ticks times components.
 */
void
addSkipCounters(RepRecord &rec, double componentTicks,
                const std::string &csvPath)
{
    const double skipped = sumSkippedTicks(csvPath);
    rec.sim["core.component_ticks"] = componentTicks;
    rec.sim["core.skipped_component_ticks"] = skipped;
    rec.sim["core.executed_ticks"] = componentTicks - skipped;
    rec.sim["core.skip_ratio"] = ratio(skipped, componentTicks);
}

/**
 * Time LayerCompiler::compile on every layer of the workload: once on
 * a fresh compiler (plan built), then repeatedly (plan cache hits).
 */
void
addCompileTimes(RepRecord &rec, const Workload &workload,
                const WorkloadInputs &in, SpanRecorder *spans)
{
    NeurocubeConfig config = workload.machine();
    config.trace = TraceConfig{};
    Neurocube cube(config);
    std::vector<BackingStore *> stores;
    for (unsigned ch = 0; ch < config.dram.numChannels; ++ch)
        stores.push_back(&cube.channel(ch).store());
    LayerCompiler compiler(config);

    auto compileAll = [&](const char *name) {
        ScopedSpan span(spans, name);
        const int64_t start = nowNs();
        for (size_t i = 0; i < in.net.layers.size(); ++i) {
            const Tensor &input = i == 0 ? in.input : in.reference[i - 1];
            compiler.compile(in.net.layers[i], in.data.weights[i], input,
                             stores);
        }
        return double(nowNs() - start) * 1e-6;
    };
    rec.host["core.compile_cold_ms"] = compileAll("compile.cold");
    std::vector<double> warm;
    for (int r = 0; r < kWarmCompiles; ++r)
        warm.push_back(compileAll("compile.warm"));
    rec.host["core.compile_warm_ms"] = median(warm);
}

/** Spans written out, and their self time summed by span name. */
void
finishSpans(RepRecord &rec, const SpanRecorder &spans,
            const std::string &outPrefix)
{
    const std::vector<int64_t> self = spans.selfNs();
    for (size_t i = 0; i < self.size(); ++i)
        rec.host["span_self_s." + spans.spans()[i].name] += seconds(self[i]);
    spans.writeJsonl(outPrefix + ".spans.jsonl");
}

/**
 * Set the machine up kSetups times, tearing the previous one down
 * outside the timed region; returns the mean set-up seconds. One
 * set-up takes well under a millisecond, so the sum over all of them
 * is timed rather than each one. The last set-up is the one the
 * repetition runs on.
 */
double
timeSetups(const std::function<void()> &teardown,
           const std::function<void()> &setup, SpanRecorder *spans)
{
    int64_t total = 0;
    for (int i = 0; i < kSetups; ++i) {
        teardown();
        const int64_t start = nowNs();
        {
            ScopedSpan span(spans, "setup");
            setup();
        }
        total += nowNs() - start;
    }
    return seconds(total) / kSetups;
}

/** runLayer over every layer, one span per layer. */
std::vector<LayerResult>
runLayerLoop(Neurocube &cube, const NetworkDesc &net, SpanRecorder *spans)
{
    std::vector<LayerResult> layers;
    ScopedSpan span(spans, "run");
    for (size_t i = 0; i < net.layers.size(); ++i) {
        ScopedSpan layer(spans, "layer." + net.layers[i].name);
        layers.push_back(cube.runLayer(i));
    }
    return layers;
}

/**
 * runLayer host time by layer kind, from the "layer.*" spans (in
 * layer order) of one runLayerLoop.
 */
void
addLayerKindTimes(RepRecord &rec, const SpanRecorder &spans,
                  const NetworkDesc &net,
                  const std::vector<LayerResult> &layers)
{
    std::map<std::string, double> kind_s, kind_cycles;
    size_t layer = 0;
    for (const Span &span : spans.spans()) {
        if (span.name.rfind("layer.", 0) != 0)
            continue;
        const char *kind = kindName(net.layers[layer].type);
        kind_s[kind] += seconds(span.durationNs());
        kind_cycles[kind] += double(layers[layer].cycles);
        ++layer;
    }
    for (const char *kind : kLayerKinds) {
        rec.host[std::string("core.run_layer_s.") + kind] = kind_s[kind];
        rec.host[std::string("core.host_ns_per_cycle.") + kind] =
            ratio(kind_s[kind] * 1e9, kind_cycles[kind]);
    }
}

RepRecord
runLayers(const Workload &workload, const WorkloadInputs &in,
          const RepOptions &opt)
{
    RepRecord rec;
    std::unique_ptr<SpanRecorder> recorder;
    if (opt.traced)
        recorder = std::make_unique<SpanRecorder>();
    SpanRecorder *spans = recorder.get();

    NeurocubeConfig config = workload.machine();
    const std::string csv = opt.outPrefix + ".timeseries.csv";
    if (opt.traced)
        enableSkipExport(config, csv);

    std::vector<LayerResult> layers;
    {
        std::optional<Neurocube> cube;
        rec.host["setup_s"] = timeSetups(
            [&] { cube.reset(); },
            [&] {
                cube.emplace(config);
                cube->loadNetwork(in.net, in.data);
                cube->setInput(in.input);
            },
            spans);

        MetricsRegistry *metrics =
            opt.traced ? cube->metricsRegistry() : nullptr;
        MetricsSnapshot before;
        if (metrics)
            before = metrics->snapshot();

        const int64_t start = nowNs();
        layers = runLayerLoop(*cube, in.net, spans);
        const double run_s = seconds(nowNs() - start);

        for (size_t i = 0; i < layers.size(); ++i) {
            checkOutput(rec, cube->layerOutput(i), in.reference[i],
                        opt.corruptOutput && i == 0);
        }

        Tick cycles = 0;
        EnergyCounts energy;
        for (const LayerResult &l : layers) {
            cycles += l.cycles;
            energy += l.energy;
        }
        rec.host["run_s"] = run_s;
        rec.sim["sim_busy_cycles"] = double(cycles);
        rec.sim["sim_cycles"] = double(cycles);
        rec.sim["sim_energy_uj"] =
            ActivityEnergyModel().price(energy).totalJ() * 1e6;
        // One inference is one request, served back to back.
        rec.sim["serve_p50_us"] = double(cycles) / kTicksPerUs;
        rec.sim["serve_p95_us"] = double(cycles) / kTicksPerUs;
        rec.sim["serve_goodput_rps"] = referenceClockHz / double(cycles);

        if (opt.traced) {
            BottleneckReport b;
            if (metrics)
                b = buildBottleneckReport(metrics->snapshot().delta(before));
            addMachineCounters(rec, *cube, b, energy);
        }
    } // the trace session flushes the time-series CSV here

    if (!opt.traced)
        return rec;

    addLayerKindTimes(rec, *spans, in.net, layers);
    double component_ticks = 0.0;
    for (const LayerResult &l : layers) {
        component_ticks +=
            double(l.cycles - l.passes * config.configTicksPerPass)
            * componentsPerTick(config);
    }
    addSkipCounters(rec, component_ticks, csv);
    addCompileTimes(rec, workload, in, spans);

    // The serving layer and the batch loop do not run here.
    rec.host["core.batch_s"] = 0.0;
    rec.host["serving.self_s"] = 0.0;
    for (const char *name :
         {"serving.batches", "serving.mean_lanes_per_batch",
          "serving.queue_depth_p95", "serving.dropped", "serving.offered"})
        rec.sim[name] = 0.0;

    finishSpans(rec, *spans, opt.outPrefix);
    return rec;
}

/** Nearest-rank percentile of sorted values. */
double
nearestRank(const std::vector<Tick> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = size_t(std::ceil(p * double(sorted.size())));
    return double(sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1]);
}

/**
 * Re-run the served batch sequence (lane count and size of every
 * batch, from the request records) through setBatchLanes and
 * runForwardBatch, timing the core batch loop without the serving
 * frontend around it.
 */
void
replayBatches(RepRecord &rec, const Workload &workload,
              const WorkloadInputs &in, const ServingResult &res,
              SpanRecorder *spans, const RepOptions &opt)
{
    std::vector<std::vector<uint64_t>> ids(res.batches);
    std::vector<unsigned> lanes(res.batches, 0);
    for (const RequestRecord &r : res.requests) {
        if (r.dropped)
            continue;
        ids[r.batch - 1].push_back(r.id);
        lanes[r.batch - 1] = r.lanes;
    }

    NeurocubeConfig config = workload.machine();
    const std::string csv = opt.outPrefix + ".timeseries.csv";
    enableSkipExport(config, csv);
    double component_ticks = 0.0;
    int64_t batch_ns = 0;
    {
        Neurocube cube(config);
        cube.loadNetwork(in.net, in.data);
        ScopedSpan replay(spans, "replay");
        const size_t last = in.net.layers.size() - 1;
        for (size_t b = 0; b < ids.size(); ++b) {
            const int64_t start = nowNs();
            BatchRunResult batch;
            {
                ScopedSpan span(spans, "batch", ids[b]);
                cube.setBatchLanes(lanes[b]);
                batch = cube.runForwardBatch(
                    std::vector<Tensor>(ids[b].size(), in.input));
            }
            batch_ns += nowNs() - start;

            for (unsigned l = 0; l < ids[b].size(); ++l) {
                checkOutput(rec, cube.batchLayerOutput(l, last),
                            in.reference.back(), false);
            }
            Tick passes = 0;
            for (const LayerResult &layer : batch.lanes.front().layers)
                passes += layer.passes;
            component_ticks +=
                double(batch.cycles - passes * config.configTicksPerPass)
                * componentsPerTick(config);
        }
    }
    rec.host["core.batch_s"] = seconds(batch_ns);
    addSkipCounters(rec, component_ticks, csv);
}

RepRecord
runServing(const Workload &workload, const WorkloadInputs &in,
           const RepOptions &opt)
{
    RepRecord rec;
    std::unique_ptr<SpanRecorder> recorder;
    if (opt.traced)
        recorder = std::make_unique<SpanRecorder>();
    SpanRecorder *spans = recorder.get();

    NeurocubeConfig config = workload.machine();
    ServingConfig serving;
    serving.queueDepth = kServeQueueDepth;
    serving.scheduler.maxLanes = kServeMaxLanes;
    serving.scheduler.maxWaitTicks = in.batch4 / 2;
    if (opt.traced) {
        // Same program trace as the replay below, so that
        // serving.self_s compares like with like.
        enableSkipExport(config, opt.outPrefix + ".serve.timeseries.csv");
        serving.spansJsonlPath = opt.outPrefix + ".requests.jsonl";
    }

    ServingResult res;
    double run_s = 0.0;
    {
        std::optional<Neurocube> cube;
        std::optional<ServingSimulator> sim;
        rec.host["setup_s"] = timeSetups(
            [&] {
                sim.reset();
                cube.reset();
            },
            [&] {
                cube.emplace(config);
                cube->loadNetwork(in.net, in.data);
                cube->setInput(in.input);
                sim.emplace(*cube, serving);
            },
            spans);
        const int64_t start = nowNs();
        {
            ScopedSpan span(spans, "serve");
            res = sim->run(in.arrivals, in.input);
        }
        run_s = seconds(nowNs() - start);
        rec.host["run_s"] = run_s;
        rec.sim["sim_busy_cycles"] = double(res.busyCycles);

        // Only the last batch's lane outputs survive the run.
        const size_t last = in.net.layers.size() - 1;
        const unsigned last_lanes = unsigned(std::count_if(
            res.requests.begin(), res.requests.end(),
            [&](const RequestRecord &r) { return r.batch == res.batches; }));
        for (unsigned l = 0; l < last_lanes; ++l) {
            checkOutput(rec, cube->batchLayerOutput(l, last),
                        in.reference.back(), opt.corruptOutput && l == 0);
        }
        // Every offered request must be served or dropped.
        ++rec.attempted;
        if (res.served + res.dropped != in.arrivals.count())
            ++rec.failed;

        if (opt.traced)
            addMachineCounters(rec, *cube, res.bottleneck, res.energy);
    }

    std::vector<Tick> latencies;
    for (const RequestRecord &r : res.requests) {
        if (!r.dropped)
            latencies.push_back(r.latency());
    }
    std::sort(latencies.begin(), latencies.end());
    rec.sim["sim_cycles"] = double(res.makespan);
    rec.sim["sim_energy_uj"] =
        ActivityEnergyModel().price(res.energy).totalJ() * 1e6;
    rec.sim["serve_p50_us"] = nearestRank(latencies, 0.50) / kTicksPerUs;
    rec.sim["serve_p95_us"] = nearestRank(latencies, 0.95) / kTicksPerUs;
    rec.sim["serve_goodput_rps"] =
        ratio(double(res.served) * referenceClockHz, double(res.makespan));

    if (!opt.traced)
        return rec;

    replayBatches(rec, workload, in, res, spans, opt);
    addCompileTimes(rec, workload, in, spans);
    {
        // Layers run inside runForwardBatch, out of the spans' reach:
        // time them in one unbatched inference of the served network.
        Neurocube cube(workload.machine());
        cube.loadNetwork(in.net, in.data);
        cube.setInput(in.input);
        const std::vector<LayerResult> layers =
            runLayerLoop(cube, in.net, spans);
        for (size_t i = 0; i < layers.size(); ++i)
            checkOutput(rec, cube.layerOutput(i), in.reference[i], false);
        addLayerKindTimes(rec, *spans, in.net, layers);
    }
    rec.host["serving.self_s"] = run_s - rec.host["core.batch_s"];
    double lanes = 0.0;
    std::vector<bool> seen(res.batches, false);
    for (const RequestRecord &r : res.requests) {
        if (!r.dropped && !seen[r.batch - 1]) {
            seen[r.batch - 1] = true;
            lanes += r.lanes;
        }
    }
    rec.sim["serving.batches"] = double(res.batches);
    rec.sim["serving.mean_lanes_per_batch"] =
        ratio(lanes, double(res.batches));
    rec.sim["serving.queue_depth_p95"] = res.queueDepth.percentile(95.0);
    rec.sim["serving.dropped"] = double(res.dropped);
    rec.sim["serving.offered"] = double(in.arrivals.count());

    finishSpans(rec, *spans, opt.outPrefix);
    return rec;
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::string
workloadNames()
{
    std::string names;
    for (const Workload &w : kWorkloads)
        names += (names.empty() ? "" : "|") + std::string(w.name);
    return names;
}

WorkloadInputs
makeInputs(const Workload &workload, uint64_t seed)
{
    WorkloadInputs in;
    in.net = workload.network();
    in.data = NetworkData::randomized(in.net, subSeed(seed, 0));
    in.input = Tensor(in.net.inputMaps(), in.net.inputHeight(),
                      in.net.inputWidth());
    Rng rng(subSeed(seed, 1));
    in.input.randomize(rng);
    in.reference = referenceForward(in.net, in.data, in.input);

    if (workload.kind == WorkloadKind::Serving) {
        NeurocubeConfig config = workload.machine();
        config.batch.lanes = kServeMaxLanes;
        Neurocube cube(config);
        cube.loadNetwork(in.net, in.data);
        in.batch4 = cube.runForwardBatch(
                            std::vector<Tensor>(kServeMaxLanes, in.input))
                        .cycles;
        // A full batch serves kServeMaxLanes requests in batch4 cycles.
        const double gap =
            double(in.batch4) / (kServeMaxLanes * kServeLoad);
        in.arrivals =
            poissonArrivals(kServeRequests, gap, subSeed(seed, 2));
        // Condition the process on its span: rescaling the gaps to a
        // fixed total keeps them Poisson given the window (uniform
        // spacings) while the offered load is exactly kServeLoad on
        // every seed, so seeds differ only in burstiness. Unscaled, the
        // span of 200 gaps varies by ~7%, and across seeds 301-310 the
        // interquartile spread of makespan and goodput was 8% instead
        // of 0.6%, and of p50 and p95 6-7% instead of 3%.
        const double scale =
            double(kServeRequests) * gap / double(in.arrivals.span());
        for (Tick &t : in.arrivals.ticks)
            t = Tick(std::llround(double(t) * scale));
    }
    return in;
}

RepRecord
runRep(const Workload &workload, const WorkloadInputs &inputs,
       const RepOptions &options)
{
    return workload.kind == WorkloadKind::Layers
               ? runLayers(workload, inputs, options)
               : runServing(workload, inputs, options);
}

} // namespace simbench
