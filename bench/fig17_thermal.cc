/**
 * @file
 * Reproduces Fig. 17: 3D thermal simulation of the Neurocube stack
 * (logic die + 4 DRAM dies, passive heat sink) over the Fig. 16
 * floorplan.
 *
 * Paper anchors: at the 15 nm / 5 GHz operating point the logic die
 * peaks at 349 K and the DRAM dies at 344 K — within the HMC 2.0
 * limits of 383 K (logic) and 378 K (DRAM). At 28 nm the rise is
 * negligible (~1.3 W compute+logic).
 */

#include <cstdio>

#include "bench_common.hh"
#include "power/power_model.hh"
#include "power/thermal.hh"

namespace
{

using namespace neurocube;
using namespace neurocube::bench;

void
printFigure()
{
    std::printf("\n=== Fig. 17: 3D thermal simulation ===\n");
    ThermalParams params;
    ThermalModel model(params);

    TextTable table({"node", "compute (W)", "logic die (W)",
                     "DRAM (W)", "max logic (K)", "max DRAM (K)",
                     "within HMC 2.0 limits?"});
    for (TechNode node : {TechNode::Nm28, TechNode::Nm15}) {
        PowerModel m(node);
        auto map = model.floorplanPowerMap(m.pePowerW(),
                                           m.hmcLogicDiePowerW(), 16);
        ThermalResult r = model.solve(map, m.dramPowerW());
        bool ok = r.maxLogicK < hmcLogicDieLimitK
               && r.maxDramK < hmcDramDieLimitK;
        table.addRow({techNodeName(node),
                      formatDouble(m.computePowerW(), 2),
                      formatDouble(m.hmcLogicDiePowerW(), 2),
                      formatDouble(m.dramPowerW(), 2),
                      formatDouble(r.maxLogicK, 1),
                      formatDouble(r.maxDramK, 1),
                      ok ? "yes" : "NO"});
    }
    std::printf("%s", table.str().c_str());

    // Thermal map of the logic die at the 15 nm point (coarse).
    PowerModel m15(TechNode::Nm15);
    auto map = model.floorplanPowerMap(m15.pePowerW(),
                                       m15.hmcLogicDiePowerW(), 16);
    ThermalResult r = model.solve(map, m15.dramPowerW());
    std::printf("\n15nm logic-die temperature map (K), %ux%u "
                "cells:\n",
                params.gridSize, params.gridSize);
    for (unsigned y = 0; y < params.gridSize; y += 4) {
        for (unsigned x = 0; x < params.gridSize; x += 4) {
            std::printf(" %6.1f",
                        r.logicMapK[y * params.gridSize + x]);
        }
        std::printf("\n");
    }
    std::printf("\npaper anchors: max logic 349 K, max DRAM 344 K "
                "(limits 383 / 378 K)\n");
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
