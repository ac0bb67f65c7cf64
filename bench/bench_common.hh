/**
 * @file
 * Shared helpers for the reproduction benches.
 *
 * Every bench binary prints the rows/series of one paper table or
 * figure. Set NEUROCUBE_QUICK=1 in the environment to shrink the
 * workloads (smaller images) for fast iteration; the shipped
 * EXPERIMENTS.md numbers come from full-size runs.
 */

#ifndef NEUROCUBE_BENCH_BENCH_COMMON_HH
#define NEUROCUBE_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "core/manifest.hh"
#include "core/neurocube.hh"
#include "core/results.hh"
#include "nn/network.hh"
#include "power/activity_energy.hh"
#include "trace/metrics.hh"
#include "trace/phase_detector.hh"
#include "trace/report.hh"

namespace neurocube::bench
{

/** True when NEUROCUBE_QUICK=1 requests reduced workloads. */
inline bool
quickMode()
{
    const char *env = std::getenv("NEUROCUBE_QUICK");
    return env != nullptr && env[0] == '1';
}

/**
 * Simulation-engine override from NEUROCUBE_ENGINE=legacy|event|
 * threaded; unset, the machine's default (threaded) runs. Lets the
 * same workload be timed on every engine (EXPERIMENTS.md speedup
 * tables). Cycle counts and energy are engine-invariant; the run
 * manifest records the engine's name, so a run on a non-default
 * engine differs from the committed baselines in that field only.
 */
inline SimEngine
engineFromEnv(SimEngine fallback)
{
    const char *env = std::getenv("NEUROCUBE_ENGINE");
    if (env == nullptr || env[0] == '\0')
        return fallback;
    if (std::strcmp(env, "legacy") == 0)
        return SimEngine::Legacy;
    if (std::strcmp(env, "event") == 0)
        return SimEngine::Event;
    if (std::strcmp(env, "threaded") == 0)
        return SimEngine::ThreadedLanes;
    std::fprintf(stderr,
                 "warning: unknown NEUROCUBE_ENGINE '%s' ignored\n",
                 env);
    return fallback;
}

/**
 * Trace-sampling period from NEUROCUBE_TRACE_SAMPLE=N (record one in
 * N aggregation windows of full-fidelity events; counters are always
 * exact). 1 — full fidelity — when unset or invalid.
 */
inline uint64_t
traceSampleFromEnv()
{
    const char *env = std::getenv("NEUROCUBE_TRACE_SAMPLE");
    if (env == nullptr || env[0] == '\0')
        return 1;
    uint64_t period = std::strtoull(env, nullptr, 10);
    return period > 0 ? period : 1;
}

/**
 * Trace-export override from NEUROCUBE_TRACE_EXPORT=<dir>: give the
 * run a full tracing session writing <dir>/<label>.trace.json and
 * <dir>/<label>.timeseries.csv, sampled per NEUROCUBE_TRACE_SAMPLE.
 * The default threaded engine stays active under the recorder (its
 * buckets stage events for the recorder's merge);
 * scripts/bench.sh --compare uses this to gate the wall-clock
 * overhead of sampled tracing.
 */
inline void
applyTraceExportFromEnv(NeurocubeConfig &cfg, const std::string &label)
{
    const char *dir = std::getenv("NEUROCUBE_TRACE_EXPORT");
    if (dir == nullptr || dir[0] == '\0')
        return;
    cfg.trace.enabled = true;
    cfg.trace.chromeJsonPath =
        std::string(dir) + "/" + label + ".trace.json";
    cfg.trace.timeseriesCsvPath =
        std::string(dir) + "/" + label + ".timeseries.csv";
    cfg.trace.samplePeriod = traceSampleFromEnv();
}

/** Millisecond wall-clock timer for RunResult::wallMs. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Milliseconds since construction. */
    double
    elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Scene-labeling input size for inference benches. */
inline void
inferenceInputSize(unsigned &w, unsigned &h)
{
    if (quickMode()) {
        w = 160;
        h = 120;
    } else {
        w = 320;
        h = 240;
    }
}

/**
 * Run a full forward pass of a network on a machine config.
 *
 * When @p manifest is non-null it is filled with the run's identity
 * block (config hash, git describe, active engine; name left empty
 * for the caller/writeBenchJson to label). NEUROCUBE_TRACE_EXPORT
 * and NEUROCUBE_TRACE_SAMPLE apply here (see applyTraceExportFromEnv).
 * When @p phases_json is non-null and the run exported a time-series
 * CSV, it receives the per-phase energy rollup (phaseEnergyJson) of
 * the phases the CSV exporter segmented.
 */
inline RunResult
runForward(const NeurocubeConfig &config, const NetworkDesc &net,
           uint64_t seed = 1, RunManifest *manifest = nullptr,
           std::string *phases_json = nullptr)
{
    NetworkData data = NetworkData::randomized(net, seed);
    Tensor input(net.inputMaps(), net.inputHeight(),
                 net.inputWidth());
    Rng rng(seed + 1);
    input.randomize(rng);
    NeurocubeConfig cfg = config;
#if NEUROCUBE_TRACE_ENABLED
    // Counters-only trace session (no event sinks): every bench run
    // attributes its cycles so the panels and BENCH_*.json carry
    // bottleneck labels. Observational only — cycle counts match a
    // tracing-off run (tests/test_golden_cycles.cc).
    cfg.trace.enabled = true;
#endif
    // Distinct export filenames for successive runs of one binary.
    static unsigned run_ordinal = 0;
    applyTraceExportFromEnv(
        cfg, "forward" + std::to_string(run_ordinal++));
    cfg.engine = engineFromEnv(cfg.engine);
    Neurocube cube(cfg);
    cube.loadNetwork(net, data);
    cube.setInput(input);
    WallTimer timer;
    RunResult run = cube.runForward();
    run.wallMs = timer.elapsedMs();
    if (manifest != nullptr) {
        *manifest = buildRunManifest(cfg, cube.activeEngine(), "",
                                     quickMode());
    }
    if (phases_json != nullptr) {
        std::vector<PhaseSegment> phases = cube.tracePhases();
        if (!phases.empty())
            *phases_json = phaseEnergyJson(phases, cfg.trace.windowTicks);
    }
    return run;
}

/** Short table-cell annotation for a layer's bottleneck report. */
inline std::string
bottleneckCell(const BottleneckReport &b)
{
    if (!b.valid)
        return "-";
    // The stall class the label blames, for the headline fraction.
    StallClass cls = StallClass::Idle;
    std::string label(b.label);
    if (label == "mac")
        cls = StallClass::Busy;
    else if (label == "cache")
        cls = StallClass::StallCache;
    else if (label == "noc")
        cls = StallClass::StallNocCredit;
    else if (label == "inject")
        cls = StallClass::StallInject;
    else if (label == "dram")
        cls = StallClass::StallDram;
    return label + " "
           + formatDouble(100.0 * b.fractions[size_t(cls)], 0) + "%";
}

/** Print one standard per-layer result block (Fig. 12/13 panels). */
inline void
printLayerPanels(const RunResult &run, const char *title)
{
    std::printf("\n--- %s ---\n", title);
    TextTable table({"layer", "ops (M)", "cycles (K)", "GOPs/s@5GHz",
                     "memory (MB)", "dup overhead (MB)", "lateral %",
                     "bottleneck"});
    bool any_metrics = false;
    for (const LayerResult &l : run.layers) {
        any_metrics = any_metrics || l.bottleneck.valid;
        table.addRow({l.name, formatDouble(double(l.ops) / 1e6, 2),
                      formatDouble(double(l.cycles) / 1e3, 1),
                      formatDouble(l.gopsPerSecond(), 1),
                      formatDouble(double(l.memoryBytes) / (1 << 20),
                                   2),
                      formatDouble(double(l.duplicationBytes)
                                       / (1 << 20),
                                   3),
                      formatDouble(100.0 * l.lateralFraction(), 1),
                      bottleneckCell(l.bottleneck)});
    }
    std::printf("%s", table.str().c_str());
    std::printf("total: %.1f MOp, %.1f Kcycles, %.1f GOPs/s @5GHz "
                "(28nm @300MHz: %.1f GOPs/s)\n",
                double(run.totalOps()) / 1e6,
                double(run.totalCycles()) / 1e3,
                run.gopsPerSecond(), run.gopsPerSecond(0.3));

    if (!any_metrics)
        return;
    std::printf("stall attribution (machine-cycle fractions; each row "
                "sums to 1.0):\n");
    for (const LayerResult &l : run.layers) {
        const BottleneckReport &b = l.bottleneck;
        if (!b.valid)
            continue;
        std::printf("  %-10s", l.name.c_str());
        for (size_t s = 0; s < numStallClasses; ++s) {
            std::printf(" %s=%.3f", stallClassName(StallClass(s)),
                        b.fractions[s]);
        }
        std::printf("\n");
    }
}

/**
 * Print the activity-based energy block for a run: per-component
 * joules, average power, GOPS/W, and the analytic cross-check. Quiet
 * when the run carried no energy accounting (notrace builds).
 */
inline void
printEnergyPanel(const RunResult &run, const char *title)
{
    if (!run.energyCounts().valid)
        return;
    ActivityEnergyModel model;
    EnergyBreakdown b = model.price(run);
    double total_j = b.totalJ();
    double seconds = double(run.totalCycles()) / referenceClockHz;
    std::printf("energy (%s, activity @%s): %.3f mJ, avg %.2f W, "
                "%.1f GOPS/W\n",
                title, techNodeName(model.node()), total_j * 1e3,
                seconds > 0.0 ? total_j / seconds : 0.0,
                total_j > 0.0 ? double(run.totalOps()) / 1e9 / total_j
                              : 0.0);
    std::printf(" ");
    for (const EnergyComponentView &c : energyComponents(b)) {
        std::printf(" %s=%.3fmJ", c.name, c.joules * 1e3);
    }
    std::printf("\n");
    EnergyComparison cmp =
        compareWithAnalytic(run, PowerModel(TechNode::Nm15));
    std::printf("  vs analytic accountEnergy: %.3f mJ "
                "(activity factor %.2f; dram %.3f vs %.3f mJ)\n",
                cmp.analyticJ * 1e3, cmp.ratio,
                cmp.activity.dramJ * 1e3, cmp.analyticDramJ * 1e3);
}

/** Where BENCH_*.json files go (NEUROCUBE_BENCH_DIR or the cwd). */
inline std::string
benchOutputPath(const std::string &filename)
{
    const char *dir = std::getenv("NEUROCUBE_BENCH_DIR");
    if (dir != nullptr && dir[0] != '\0')
        return std::string(dir) + "/" + filename;
    return filename;
}

/** A JSON document without its trailing newlines and spaces. */
inline std::string
trimmed(std::string doc)
{
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' '))
        doc.pop_back();
    return doc;
}

/**
 * One labelled run for writeBenchJson/writeBenchProm. Constructible
 * from the legacy {name, &run} pair (no manifest: the JSON carries
 * "manifest": null and the .prom writer skips the run) or from
 * {name, &run, manifest} where the manifest came out of runForward.
 */
struct NamedRun
{
    NamedRun(std::string run_name, const RunResult *run_result)
        : name(std::move(run_name)), run(run_result)
    {
    }

    NamedRun(std::string run_name, const RunResult *run_result,
             RunManifest run_manifest)
        : name(std::move(run_name)), run(run_result),
          manifest(std::move(run_manifest)), hasManifest(true)
    {
        manifest.name = name;
    }

    std::string name;
    const RunResult *run;
    RunManifest manifest;
    bool hasManifest = false;
    /**
     * Optional phaseEnergyJson document for this run (filled by the
     * caller from runForward's phases_json out-param). Only the HTML
     * report renders it; writeBenchJson/writeBenchProm ignore it.
     */
    std::string phasesJson;
};

/**
 * Write a machine-readable bench result file: one JSON object per
 * named run carrying its per-layer metrics document
 * (RunResult::metricsJson), its activity energy document
 * (RunResult::energyJson), and — when the caller provided one — its
 * run manifest (runManifestJson: config hash, git describe, engine,
 * cycles, stall/energy breakdowns, wall_ms). scripts/bench.sh
 * collects these and `bench.sh --compare` diffs them against
 * bench/baselines/.
 */
inline void
writeBenchJson(const std::string &filename,
               const std::vector<NamedRun> &runs)
{
    std::string path = benchOutputPath(filename);
    std::ofstream out(path);
    if (!out.is_open()) {
        std::fprintf(stderr, "warning: cannot write bench json '%s'\n",
                     path.c_str());
        return;
    }
    out << "{\n\"quick\": " << (quickMode() ? "true" : "false")
        << ",\n\"runs\": {\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        out << jsonString(runs[i].name) << ": {\"wall_ms\": "
            << formatDouble(runs[i].run->wallMs, 1)
            << ",\n\"manifest\": "
            << (runs[i].hasManifest
                    ? runManifestJson(runs[i].manifest, *runs[i].run)
                    : std::string("null"))
            << ",\n\"metrics\": " << trimmed(runs[i].run->metricsJson())
            << ",\n\"energy\": " << trimmed(runs[i].run->energyJson())
            << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "}\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

/**
 * Write the Prometheus-textfile sibling of writeBenchJson: the
 * concatenated runMetricsTextfile dumps of every manifested run,
 * ready for a node-exporter textfile collector directory. Runs
 * without a manifest are skipped.
 */
inline void
writeBenchProm(const std::string &filename,
               const std::vector<NamedRun> &runs)
{
    std::string path = benchOutputPath(filename);
    std::ofstream out(path);
    if (!out.is_open()) {
        std::fprintf(stderr, "warning: cannot write bench prom '%s'\n",
                     path.c_str());
        return;
    }
    for (const NamedRun &r : runs) {
        if (r.hasManifest)
            out << runMetricsTextfile(r.manifest, *r.run);
    }
    std::printf("wrote %s\n", path.c_str());
}

/**
 * Write the self-contained HTML sibling of writeBenchJson: one
 * report (trace/report.hh) with a section per named run — manifest
 * table, roofline scatter, mesh heatmaps, link map, stall/energy
 * bars, phase rollup. Pure presentation over the same documents the
 * JSON writer emits; never read by `bench.sh --compare`.
 */
inline void
writeBenchHtml(const std::string &filename, const std::string &title,
               const std::vector<NamedRun> &runs)
{
    std::string path = benchOutputPath(filename);
    std::ofstream out(path);
    if (!out.is_open()) {
        std::fprintf(stderr, "warning: cannot write bench html '%s'\n",
                     path.c_str());
        return;
    }
    std::vector<ReportRun> report;
    report.reserve(runs.size());
    for (const NamedRun &r : runs) {
        ReportRun section;
        section.name = r.name;
        if (r.hasManifest)
            section.manifestJson = runManifestJson(r.manifest, *r.run);
        section.metricsJson = trimmed(r.run->metricsJson());
        section.energyJson = trimmed(r.run->energyJson());
        section.spatialJson = trimmed(r.run->spatialJson());
        section.phasesJson = r.phasesJson;
        report.push_back(std::move(section));
    }
    out << renderRunReport(title, report);
    std::printf("wrote %s\n", path.c_str());
}

} // namespace neurocube::bench

#endif // NEUROCUBE_BENCH_BENCH_COMMON_HH
