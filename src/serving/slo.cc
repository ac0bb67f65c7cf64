#include "serving/slo.hh"

#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "power/activity_energy.hh"

namespace neurocube
{

ServingReport
buildServingReport(const ServingResult &result)
{
    ServingReport report;
    report.offered = result.requests.size();
    report.served = result.served;
    report.dropped = result.dropped;
    report.batches = result.batches;
    report.meanBatch = result.batches
                           ? double(result.served)
                                 / double(result.batches)
                           : 0.0;

    if (result.arrivalSpan > 0 && report.offered >= 2) {
        report.offeredPerSec = double(report.offered - 1)
                             / (double(result.arrivalSpan)
                                / referenceClockHz);
    }
    if (result.makespan > 0) {
        report.goodputPerSec =
            double(report.served)
            / (double(result.makespan) / referenceClockHz);
        report.utilization =
            double(result.busyCycles) / double(result.makespan);
    }
    report.dropRate = report.offered
                          ? double(report.dropped)
                                / double(report.offered)
                          : 0.0;

    report.p50Ticks = result.latency.p50();
    report.p99Ticks = result.latency.p99();
    report.p999Ticks = result.latency.p999();
    report.meanTicks = result.latency.mean();
    report.maxTicks = result.latency.max();

    report.meanQueueDepth = result.queueDepth.mean();
    report.maxQueueDepth = result.queueDepth.max();

    report.makespan = result.makespan;
    report.busyCycles = result.busyCycles;

    if (result.energy.valid && result.served > 0) {
        ActivityEnergyModel model;
        report.energyPerRequestJ =
            model.price(result.energy).totalJ()
            / double(result.served);
    }
    if (result.bottleneck.valid)
        report.bottleneckLabel = result.bottleneck.label;
    return report;
}

std::string
servingReportJson(const ServingReport &report)
{
    // %.17g round-trips doubles exactly, keeping the file
    // bit-identical across runs of the same build.
    auto num = [](double value) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return std::string(buf);
    };
    std::ostringstream out;
    out << "{"
        << "\"offered\": " << report.offered
        << ", \"served\": " << report.served
        << ", \"dropped\": " << report.dropped
        << ", \"batches\": " << report.batches
        << ", \"mean_batch\": " << num(report.meanBatch)
        << ", \"offered_per_sec\": " << num(report.offeredPerSec)
        << ", \"goodput_per_sec\": " << num(report.goodputPerSec)
        << ", \"drop_rate\": " << num(report.dropRate)
        << ", \"p50_ticks\": " << num(report.p50Ticks)
        << ", \"p99_ticks\": " << num(report.p99Ticks)
        << ", \"p999_ticks\": " << num(report.p999Ticks)
        << ", \"mean_ticks\": " << num(report.meanTicks)
        << ", \"max_ticks\": " << report.maxTicks
        << ", \"queue_depth_mean\": " << num(report.meanQueueDepth)
        << ", \"queue_depth_max\": " << report.maxQueueDepth
        << ", \"total_cycles\": " << report.makespan
        << ", \"busy_cycles\": " << report.busyCycles
        << ", \"utilization\": " << num(report.utilization)
        << ", \"energy_per_request_j\": "
        << num(report.energyPerRequestJ)
        << ", \"bottleneck\": " << jsonString(report.bottleneckLabel)
        << "}";
    return out.str();
}

std::string
servingManifestJson(const RunManifest &manifest,
                    const ServingReport &report, double wall_ms)
{
    auto num = [](double value) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return std::string(buf);
    };
    std::ostringstream out;
    out << "{\"name\":" << jsonString(manifest.name)
        << ",\"git_describe\":" << jsonString(manifest.gitDescribe)
        << ",\"engine\":" << jsonString(manifest.engine)
        << ",\"config_hash\":" << jsonString(manifest.configHash)
        << ",\"quick\":" << (manifest.quick ? "true" : "false")
        << ",\"wall_ms\":" << num(wall_ms) << ",\"report\":"
        << servingReportJson(report) << "}";
    return out.str();
}

std::string
servingMetricsTextfile(const RunManifest &manifest,
                       const ServingReport &report, double wall_ms)
{
    auto num = [](double value) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return std::string(buf);
    };
    const std::string labels = "{run=\"" + manifest.name + "\"}";
    std::ostringstream os;
    os << "# TYPE neurocube_run_info gauge\n";
    os << "neurocube_run_info{run=\"" << manifest.name
       << "\",engine=\"" << manifest.engine << "\",git=\""
       << manifest.gitDescribe << "\",config=\""
       << manifest.configHash << "\",quick=\""
       << (manifest.quick ? "1" : "0") << "\"} 1\n";

    auto gauge = [&os, &labels](const char *name,
                                const std::string &value) {
        os << "# TYPE " << name << " gauge\n";
        os << name << labels << " " << value << "\n";
    };
    gauge("neurocube_serve_offered", std::to_string(report.offered));
    gauge("neurocube_serve_served", std::to_string(report.served));
    gauge("neurocube_serve_dropped", std::to_string(report.dropped));
    gauge("neurocube_serve_batches", std::to_string(report.batches));
    gauge("neurocube_serve_goodput_per_sec",
          num(report.goodputPerSec));
    gauge("neurocube_serve_drop_rate", num(report.dropRate));
    gauge("neurocube_serve_p50_ticks", num(report.p50Ticks));
    gauge("neurocube_serve_p99_ticks", num(report.p99Ticks));
    gauge("neurocube_serve_p999_ticks", num(report.p999Ticks));
    gauge("neurocube_serve_utilization", num(report.utilization));
    gauge("neurocube_serve_total_cycles",
          std::to_string(report.makespan));
    gauge("neurocube_serve_energy_per_request_joules",
          num(report.energyPerRequestJ));
    gauge("neurocube_serve_wall_ms", num(wall_ms));
    return os.str();
}

void
printServingPanel(const ServingReport &report, const char *title)
{
    std::printf("--- %s ---\n", title);
    std::printf("  offered %llu (%.1f req/s), served %llu "
                "(%.1f req/s), dropped %llu (%.1f%%), "
                "%llu batches (mean %.2f)\n",
                (unsigned long long)report.offered,
                report.offeredPerSec,
                (unsigned long long)report.served,
                report.goodputPerSec,
                (unsigned long long)report.dropped,
                100.0 * report.dropRate,
                (unsigned long long)report.batches,
                report.meanBatch);
    std::printf("  latency (Kticks): p50 %.1f, p99 %.1f, p999 %.1f, "
                "mean %.1f, max %.1f\n",
                report.p50Ticks / 1e3, report.p99Ticks / 1e3,
                report.p999Ticks / 1e3, report.meanTicks / 1e3,
                double(report.maxTicks) / 1e3);
    std::printf("  queue depth: mean %.2f, max %llu; utilization "
                "%.1f%% over %.1f Kcycles\n",
                report.meanQueueDepth,
                (unsigned long long)report.maxQueueDepth,
                100.0 * report.utilization,
                double(report.makespan) / 1e3);
    if (report.energyPerRequestJ >= 0.0) {
        std::printf("  energy/request: %.3f mJ\n",
                    report.energyPerRequestJ * 1e3);
    }
    std::printf("  dominant stall class: %s\n",
                report.bottleneckLabel);
}

} // namespace neurocube
