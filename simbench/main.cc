/**
 * @file
 * The simbench program: the Neurocube simulator's benchmark.
 *
 *   simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--out-dir <dir>] [--corrupt-output <0|1>]
 *
 * Repeats one workload until --seconds of host time have passed and
 * prints, as the last line of standard output, one JSON object with
 * the output check and the metrics: the end-to-end metrics with
 * --trace 0, the per-layer metrics of the traced run with --trace 1.
 * Host times are medians over repetitions, scaled to a reference host
 * speed (see speedProbeNs); simulated results must be identical on
 * every repetition.
 *
 * Each repetition runs in a forked child: a simulator panic (abort)
 * then counts as a failed operation instead of ending the benchmark,
 * every repetition starts from the same process image, and the
 * child's peak resident memory is the repetition's own.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace simbench;

/** Where a reported metric comes from. */
enum class Source
{
    /**
     * Median over repetitions of a host-time measurement, scaled to
     * the reference host speed.
     */
    Host,
    /** A simulated result or count, identical across repetitions. */
    Sim,
    /** Computed from other measurements; see main(). */
    Derived,
};

struct MetricDef
{
    const char *name;
    const char *unit;
    Source source;
};

// Simulated times carry "sim_" units: they are modelled at the 5 GHz
// reference clock, not measured on the host.
const MetricDef kEndToEnd[] = {
    {"run_s", "s", Source::Host},
    {"sim_cycles_per_s", "1/s", Source::Derived},
    {"setup_s", "s", Source::Host},
    {"peak_rss_mb", "MB", Source::Derived},
    {"sim_cycles", "cycles", Source::Sim},
    {"sim_energy_uj", "uJ", Source::Sim},
    {"serve_p50_us", "sim_us", Source::Sim},
    {"serve_p95_us", "sim_us", Source::Sim},
    {"serve_goodput_rps", "req/sim_s", Source::Sim},
};

const MetricDef kPerLayer[] = {
    {"core.run_layer_s.conv", "s", Source::Host},
    {"core.run_layer_s.pool", "s", Source::Host},
    {"core.run_layer_s.fc", "s", Source::Host},
    {"core.host_ns_per_cycle.conv", "ns/cycle", Source::Host},
    {"core.host_ns_per_cycle.pool", "ns/cycle", Source::Host},
    {"core.host_ns_per_cycle.fc", "ns/cycle", Source::Host},
    {"core.executed_ticks", "count", Source::Sim},
    {"core.skipped_component_ticks", "count", Source::Sim},
    {"core.component_ticks", "count", Source::Sim},
    {"core.skip_ratio", "ratio", Source::Sim},
    {"core.compile_cold_ms", "ms", Source::Host},
    {"core.compile_warm_ms", "ms", Source::Host},
    {"core.plan_cache_hit_ratio", "ratio", Source::Sim},
    {"core.plan_cache_lookups", "count", Source::Sim},
    {"core.batch_s", "s", Source::Host},
    {"serving.self_s", "s", Source::Host},
    {"serving.batches", "count", Source::Sim},
    {"serving.mean_lanes_per_batch", "lanes", Source::Sim},
    {"serving.queue_depth_p95", "requests", Source::Sim},
    {"serving.dropped", "count", Source::Sim},
    {"serving.offered", "count", Source::Sim},
    {"dram.reads", "count", Source::Sim},
    {"dram.writes", "count", Source::Sim},
    {"dram.row_hit_ratio", "ratio", Source::Sim},
    {"dram.busy_frac", "ratio", Source::Sim},
    {"dram.stall_frac", "ratio", Source::Sim},
    {"dram.queue_residency_p99", "cycles", Source::Sim},
    {"noc.flits_ejected", "count", Source::Sim},
    {"noc.link_flits", "count", Source::Sim},
    {"noc.lateral_fraction", "ratio", Source::Sim},
    {"noc.blocked_frac", "ratio", Source::Sim},
    {"noc.latency_p99", "cycles", Source::Sim},
    {"pe.mac_ops", "count", Source::Sim},
    {"pe.busy_frac", "ratio", Source::Sim},
    {"pe.inject_stall_frac", "ratio", Source::Sim},
    {"pe.cache_overflows", "count", Source::Sim},
    {"png.issued", "count", Source::Sim},
    {"png.inject_stall_frac", "ratio", Source::Sim},
    {"png.out_queue_p99", "packets", Source::Sim},
    {"power.energy_uj.mac", "uJ", Source::Sim},
    {"power.energy_uj.sram", "uJ", Source::Sim},
    {"power.energy_uj.noc", "uJ", Source::Sim},
    {"power.energy_uj.vault_logic", "uJ", Source::Sim},
    {"power.energy_uj.dram", "uJ", Source::Sim},
    {"bench.untraced_run_s", "s", Source::Derived},
    {"bench.traced_run_s", "s", Source::Derived},
    {"bench.trace_overhead_ratio", "ratio", Source::Derived},
    {"bench.host_speed", "ratio", Source::Derived},
};

/** Iterations of one host-speed probe (about 20 ms on a 4-vCPU Xeon VM). */
constexpr uint64_t kProbeIterations = 6'000'000;
/** Probes taken before and again after each repetition. */
constexpr int kProbes = 5;
/** Probe time that defines the reference host all host times are scaled to. */
constexpr double kProbeReferenceNs = 20e6;

volatile uint64_t probeSink;

/**
 * Host time of a fixed integer-throughput loop: four independent
 * xorshift streams. On a shared host, neighbours' load changes how
 * fast this host runs by up to 2x over minutes, and the simulator's
 * host time follows this loop's (a dependent-chain loop or a
 * cache-missing loop tracks it less well). A run's host times are
 * scaled by this loop's speed, measured around each of its
 * repetitions.
 */
int64_t
speedProbeNs()
{
    uint64_t a = 1, b = 2, c = 3, d = 4;
    const int64_t start = nowNs();
    for (uint64_t i = 0; i < kProbeIterations; ++i) {
        a ^= a << 13; a ^= a >> 7; a ^= a << 17;
        b ^= b << 13; b ^= b >> 7; b ^= b << 17;
        c ^= c << 13; c ^= c >> 7; c ^= c << 17;
        d ^= d << 13; d ^= d >> 7; d ^= d << 17;
    }
    probeSink = a + b + c + d;
    return nowNs() - start;
}

/** Append kProbes probe times to @p times. */
void
probeSpeed(std::vector<double> &times)
{
    for (int i = 0; i < kProbes; ++i)
        times.push_back(double(speedProbeNs()));
}

/** Untraced repetitions a --trace 0 run takes at the least. */
constexpr size_t kMinReps = 3;
/** Stop starting repetitions past this much host time (exit < 180 s). */
constexpr double kMaxWallSeconds = 120.0;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string outDir = ".";
    bool corruptOutput = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload <%s> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--corrupt-output <0|1>]\n",
                 why, workloadNames().c_str());
    std::exit(2);
}

bool
parseUnsigned(const char *text, uint64_t &out)
{
    if (*text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return errno == 0 && *end == '\0';
}

bool
parseFlag(const char *text, bool &out)
{
    if (std::strcmp(text, "0") != 0 && std::strcmp(text, "1") != 0)
        return false;
    out = text[0] == '1';
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool seen_seed = false, seen_seconds = false, seen_trace = false;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("missing value after the last option");
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            if (!parseUnsigned(value, args.seed))
                usage("--seed must be an unsigned integer");
            seen_seed = true;
        } else if (key == "--seconds") {
            char *end = nullptr;
            args.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(args.seconds > 0.0)
                || args.seconds > 120.0)
                usage("--seconds must be in (0, 120]");
            seen_seconds = true;
        } else if (key == "--trace") {
            if (!parseFlag(value, args.trace))
                usage("--trace must be 0 or 1");
            seen_trace = true;
        } else if (key == "--out-dir") {
            args.outDir = value;
        } else if (key == "--corrupt-output") {
            if (!parseFlag(value, args.corruptOutput))
                usage("--corrupt-output must be 0 or 1");
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (findWorkload(args.workload) == nullptr)
        usage("unknown or missing --workload");
    if (!seen_seed || !seen_seconds || !seen_trace)
        usage("--seed, --seconds and --trace are required");
    return args;
}

std::string
serialize(const RepRecord &rec)
{
    std::string out;
    char line[512];
    for (const auto &[key, value] : rec.host) {
        std::snprintf(line, sizeof(line), "h %s %.17g\n", key.c_str(), value);
        out += line;
    }
    for (const auto &[key, value] : rec.sim) {
        std::snprintf(line, sizeof(line), "s %s %.17g\n", key.c_str(), value);
        out += line;
    }
    for (double value : rec.probeNs) {
        std::snprintf(line, sizeof(line), "p %.17g\n", value);
        out += line;
    }
    std::snprintf(line, sizeof(line), "a %llu\nf %llu\nend\n",
                  (unsigned long long)rec.attempted,
                  (unsigned long long)rec.failed);
    return out + line;
}

std::optional<RepRecord>
deserialize(const std::string &text)
{
    RepRecord rec;
    std::istringstream in(text);
    std::string tag;
    while (in >> tag) {
        if (tag == "end")
            return rec;
        if (tag == "a") {
            in >> rec.attempted;
        } else if (tag == "f") {
            in >> rec.failed;
        } else if (tag == "p") {
            double value = 0.0;
            in >> value;
            rec.probeNs.push_back(value);
        } else {
            std::string key;
            double value = 0.0;
            in >> key >> value;
            (tag == "h" ? rec.host : rec.sim)[key] = value;
        }
        if (!in)
            return std::nullopt;
    }
    return std::nullopt;
}

/**
 * Run @p body in a forked child and return what it measured, or
 * nullopt when the child died (a simulator panic aborts it).
 */
std::optional<RepRecord>
runIsolated(const std::function<RepRecord()> &body)
{
    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("simbench: pipe");
        std::exit(1);
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("simbench: fork");
        std::exit(1);
    }
    if (pid == 0) {
        close(fds[0]);
        std::vector<double> probes;
        probeSpeed(probes);
        RepRecord rec = body();
        probeSpeed(probes);
        rec.probeNs = std::move(probes);
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        rec.host["peak_rss_mb"] = double(usage.ru_maxrss) / 1024.0;
        const std::string text = serialize(rec);
        size_t done = 0;
        while (done < text.size()) {
            const ssize_t n =
                write(fds[1], text.data() + done, text.size() - done);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                _exit(1);
            done += size_t(n);
        }
        close(fds[1]);
        // _exit: the parent's buffered stdio must not be flushed twice.
        _exit(0);
    }

    close(fds[1]);
    std::string text;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, size_t(n));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "simbench: repetition died (status %d)\n",
                     status);
        return std::nullopt;
    }
    return deserialize(text);
}

/** Median of one host metric over repetitions. */
double
hostMedian(const std::vector<RepRecord> &reps, const std::string &name)
{
    std::vector<double> values;
    for (const RepRecord &r : reps)
        values.push_back(r.host.at(name));
    return median(values);
}

/** The repetitions of one kind and their output-check tally. */
struct RepSet
{
    std::vector<RepRecord> reps;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    add(std::optional<RepRecord> rec)
    {
        if (!rec) {
            // The operation that panicked.
            ++attempted;
            ++failed;
            return;
        }
        attempted += rec->attempted;
        failed += rec->failed;
        if (!reps.empty() && rec->sim != reps.front().sim) {
            std::fprintf(stderr, "simbench: simulated results differ "
                                 "between repetitions of one seed\n");
            failed += rec->attempted;
        }
        reps.push_back(std::move(*rec));
    }
};

void
printTable(const Args &args, const RepSet &untraced, const RepSet &traced,
           double speed)
{
    std::printf("simbench %s seed=%llu: %zu untraced and %zu traced "
                "repetitions\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                untraced.reps.size(), traced.reps.size());
    if (traced.reps.empty())
        return;
    std::printf("traced-run self time by span (median over traced "
                "repetitions, at reference host speed):\n");
    const std::string prefix = "span_self_s.";
    for (const auto &entry : traced.reps.front().host) {
        const std::string &key = entry.first;
        if (key.rfind(prefix, 0) == 0) {
            std::printf("  %-24s %12.6f s\n",
                        key.substr(prefix.size()).c_str(),
                        hostMedian(traced.reps, key) * speed);
        }
    }
    std::printf("spans and program trace written under %s/\n",
                args.outDir.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload &workload = *findWorkload(args.workload);
    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);

    const WorkloadInputs inputs = makeInputs(workload, args.seed);

    RepOptions options;
    options.corruptOutput = args.corruptOutput;
    options.outPrefix = args.outDir + "/" + args.workload + "-seed"
                      + std::to_string(args.seed);

    // With --trace 1, untraced and traced repetitions alternate, so
    // the tracing overhead compares runs made under the same load.
    RepSet untraced, traced;
    const int64_t start = nowNs();
    double longest = 0.0;
    for (size_t rep = 0;; ++rep) {
        options.traced = args.trace && rep % 2 == 1;
        const int64_t rep_start = nowNs();
        std::optional<RepRecord> rec =
            runIsolated([&] { return runRep(workload, inputs, options); });
        if (rec) {
            std::fprintf(stderr,
                         "simbench: rep %zu%s run_s %.4f as measured "
                         "(host speed %.3f)\n",
                         rep, options.traced ? " (traced)" : "",
                         rec->host.at("run_s"),
                         kProbeReferenceNs / median(rec->probeNs));
        }
        (options.traced ? traced : untraced).add(std::move(rec));
        const double elapsed = double(nowNs() - start) * 1e-9;
        longest = std::max(longest, double(nowNs() - rep_start) * 1e-9);
        const bool enough = args.trace
                                ? !untraced.reps.empty() && !traced.reps.empty()
                                : untraced.reps.size() >= kMinReps;
        if ((enough && elapsed >= args.seconds)
            || elapsed + longest > kMaxWallSeconds)
            break;
    }

    const uint64_t attempted = untraced.attempted + traced.attempted;
    const uint64_t failed = untraced.failed + traced.failed;
    const RepSet &main_set = args.trace ? traced : untraced;

    // Every host time is scaled to the reference host speed, measured
    // over the whole run: the host's speed drifts over minutes, and
    // pooling the probes of all repetitions averages out their own
    // noise.
    std::vector<double> probes;
    for (const RepSet *set : {&untraced, &traced}) {
        for (const RepRecord &r : set->reps)
            probes.insert(probes.end(), r.probeNs.begin(), r.probeNs.end());
    }
    const double speed =
        probes.empty() ? 0.0 : kProbeReferenceNs / median(probes);
    auto hostSeconds = [&](const RepSet &set, const std::string &key) {
        return hostMedian(set.reps, key) * speed;
    };

    printTable(args, untraced, traced, speed);
    std::string metrics;
    if (!main_set.reps.empty() && !untraced.reps.empty()) {
        const RepRecord &first = main_set.reps.front();
        const double untraced_run = hostSeconds(untraced, "run_s");
        const std::span<const MetricDef> defs =
            args.trace ? std::span<const MetricDef>(kPerLayer)
                       : std::span<const MetricDef>(kEndToEnd);
        for (const MetricDef &m : defs) {
            double value = 0.0;
            const std::string name = m.name;
            if (m.source == Source::Host) {
                value = hostSeconds(main_set, name);
            } else if (m.source == Source::Sim) {
                value = first.sim.at(name);
            } else if (name == "peak_rss_mb") {
                value = hostMedian(main_set.reps, name);
            } else if (name == "sim_cycles_per_s") {
                value = first.sim.at("sim_busy_cycles")
                      / hostSeconds(main_set, "run_s");
            } else if (name == "bench.host_speed") {
                value = speed;
            } else if (name == "bench.untraced_run_s") {
                value = untraced_run;
            } else if (name == "bench.traced_run_s") {
                value = hostSeconds(traced, "run_s");
            } else {
                value = hostSeconds(traced, "run_s") / untraced_run;
            }
            char entry[256];
            std::snprintf(entry, sizeof(entry),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          metrics.empty() ? "" : ", ", m.name, value, m.unit);
            metrics += entry;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 && attempted > 0 ? "true" : "false",
                (unsigned long long)attempted, (unsigned long long)failed,
                metrics.c_str());
    return metrics.empty() ? 1 : 0;
}
