/**
 * @file
 * Reproduces Table III: recent hardware platforms for neuro-inspired
 * algorithms. Comparator rows are the published numbers the paper
 * quotes; the two Neurocube rows are produced by this repository's
 * cycle simulator (throughput) and power model (compute power),
 * exactly as the paper derives them.
 *
 * Paper anchors: Neurocube 28 nm — 8.0 GOPs/s @ 0.25 W = 31.92
 * GOPs/s/W; 15 nm — 132.4 GOPs/s @ 3.41 W = 38.82 GOPs/s/W; ~4x the
 * GPU's power efficiency while remaining programmable.
 */

#include "bench_common.hh"
#include "power/power_model.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

RunResult
measureInference()
{
    unsigned w, h;
    inferenceInputSize(w, h);
    NetworkDesc net = sceneLabelingNetwork(w, h);
    NeurocubeConfig config;
    return runForward(config, net);
}

void
printTable()
{
    std::printf("\n=== Table III: platforms for neuro-inspired "
                "algorithms ===\n");

    RunResult run = measureInference();
    double gops_15 = run.gopsPerSecond();
    PowerModel m28(TechNode::Nm28), m15(TechNode::Nm15);
    double gops_28 = gops_15 * m28.activityFactor();

    TextTable table({"platform", "prog.", "hardware",
                     "thrpt w/DRAM (GOPs/s)", "thrpt w/o DRAM",
                     "compute power (W)", "GOPs/s/W",
                     "application"});
    auto add_row = [&](const PlatformRow &row) {
        auto fmt = [](double v) {
            return v > 0 ? formatDouble(v, 2) : std::string("-");
        };
        table.addRow({row.paper, row.programmable ? "yes" : "no",
                      row.hardware, fmt(row.throughputWithDram),
                      fmt(row.throughputNoDram),
                      formatDouble(row.computePowerW, 3),
                      formatDouble(row.efficiency(), 2),
                      row.application});
    };

    PlatformRow nc28{"Neurocube (this work)", true, "28nm", 16,
                     gops_28, 0.0, m28.computePowerW(),
                     "Scene labeling, both"};
    PlatformRow nc15{"Neurocube (this work)", true, "15nm", 16,
                     gops_15, 0.0, m15.computePowerW(),
                     "Scene labeling, both"};

    auto rows = publishedPlatforms();
    add_row(rows[0]); // Tegra K1
    add_row(rows[1]); // GTX 780
    add_row(nc28);
    add_row(nc15);
    for (size_t i = 2; i < rows.size(); ++i)
        add_row(rows[i]);
    std::printf("%s", table.str().c_str());

    double gpu_eff = rows[1].efficiency();
    std::printf("\nefficiency vs GPU (GTX 780): %.1fx (paper: ~4x, "
                "while remaining programmable)\n",
                nc15.efficiency() / gpu_eff);
    std::printf("measured Neurocube throughput: %.1f GOPs/s @15nm, "
                "%.1f @28nm (paper: 132.4 / 8.0)%s\n",
                gops_15, gops_28,
                quickMode() ? " [reduced input]" : "");

    // Activity-based efficiency: the table's GOPs/s/W rows divide by
    // the analytic full-activity compute power; the event-counted
    // energy gives the same metric from what the machine actually
    // switched. The same counts are priced at both nodes.
    if (run.energyCounts().valid) {
        double ops = double(run.totalOps());
        for (const PowerModel *m : {&m15, &m28}) {
            ActivityEnergyModel model(*m);
            double joules = model.price(run).totalJ();
            std::printf("activity-based efficiency @%s: %.2f "
                        "GOPs/s/W (analytic table row: %.2f)\n",
                        techNodeName(m->node()),
                        joules > 0.0 ? ops / 1e9 / joules : 0.0,
                        (m == &m15 ? nc15 : nc28).efficiency());
        }
    }

    const std::vector<NamedRun> named = {{"inference", &run}};
    writeBenchJson("BENCH_table3.json", named);
    writeBenchHtml("BENCH_table3.html",
                   "Table III: platform comparison", named);
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
