/**
 * @file
 * Reproduces Table II: per-block dynamic power, area and power
 * density of one Neurocube core in 28 nm CMOS and 15 nm FinFET, the
 * 16-core compute totals, and the HMC logic-die / DRAM-die power
 * derived from published pJ/bit figures with the Section VII
 * activity/technology scaling.
 */

#include <cstdio>

#include "bench_common.hh"
#include "power/energy_model.hh"
#include "power/power_model.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

std::string
sci(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2E", v);
    return buf;
}

void
printTable()
{
    std::printf("\n=== Table II: hardware simulation of a single "
                "Neurocube core ===\n");
    PowerModel m28(TechNode::Nm28), m15(TechNode::Nm15);

    TextTable table({"block", "size (bit)", "freq 28/15 (MHz)",
                     "power 28nm (W)", "power 15nm (W)",
                     "area 28nm (mm^2)", "area 15nm (mm^2)",
                     "dens 28nm", "dens 15nm"});
    const auto &b28 = m28.blocks();
    const auto &b15 = m15.blocks();
    for (size_t i = 0; i < b28.size(); ++i) {
        table.addRow({b28[i].name,
                      b28[i].sizeBits ? formatCount(b28[i].sizeBits)
                                      : "N/A",
                      formatDouble(b28[i].freqMhz, 2) + "/"
                          + formatDouble(b15[i].freqMhz, 0),
                      sci(b28[i].dynamicPowerW),
                      sci(b15[i].dynamicPowerW),
                      formatDouble(b28[i].areaMm2, 4),
                      formatDouble(b15[i].areaMm2, 4),
                      sci(b28[i].powerDensity()),
                      sci(b15[i].powerDensity())});
    }
    table.addRow({"PE Sum", "-", "300/5120", sci(m28.pePowerW()),
                  sci(m15.pePowerW()),
                  formatDouble(m28.peAreaMm2(), 4),
                  formatDouble(m15.peAreaMm2(), 4),
                  sci(m28.pePowerW() / m28.peAreaMm2()),
                  sci(m15.pePowerW() / m15.peAreaMm2())});
    table.addRow({"Compute (16 PE+router)", "-", "300/5120",
                  sci(m28.computePowerW()), sci(m15.computePowerW()),
                  formatDouble(m28.computeAreaMm2(), 4),
                  formatDouble(m15.computeAreaMm2(), 4), "-", "-"});
    table.addRow({"HMC logic die w/o Neurocube", "-", "-",
                  sci(m28.hmcLogicDiePowerW()),
                  sci(m15.hmcLogicDiePowerW()), "-", "-", "-", "-"});
    table.addRow({"All DRAM dies", "-", "-", sci(m28.dramPowerW()),
                  sci(m15.dramPowerW()), "-", "-", "-", "-"});
    std::printf("%s", table.str().c_str());

    std::printf("\npaper anchors: PE sum 1.56E-02 / 2.13E-01 W, "
                "compute 2.49E-01 / 3.41E+00 W, logic die 1.04 / "
                "8.67 W, DRAM 0.568 / 9.47 W; compute area 3.10 / "
                "0.96 mm^2 (fits the 68 mm^2 HMC logic die).\n");

    // Fig. 16 floorplan feasibility.
    std::printf("\nFig. 16 floorplan feasibility:\n");
    for (TechNode node : {TechNode::Nm28, TechNode::Nm15}) {
        PowerModel model(node);
        FloorplanReport fp = buildFloorplan(model);
        std::printf("  %s: PE+router tile %.0f x %.0f um (70%% "
                    "util), 16 cores use %.2f of %.0f mm^2 -> %s\n",
                    techNodeName(node), fp.tile.edgeUm,
                    fp.tile.edgeUm, fp.coresMm2, fp.dieBudgetMm2,
                    fp.fits ? "fits" : "DOES NOT FIT");
    }
    std::printf("  (paper: 513 x 513 um per PE+router tile in "
                "28 nm)\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
