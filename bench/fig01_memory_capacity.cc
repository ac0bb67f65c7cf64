/**
 * @file
 * Reproduces Fig. 1: required memory for scene labeling as a function
 * of input image size (plus the MNIST MLP point), against the
 * capacity of on-chip SRAM and eDRAM normalized to 1 mm^2.
 *
 * The paper's point: even dense eDRAM cannot hold the working set of
 * realistic image sizes on chip, motivating the in-memory design.
 */

#include <cstdio>
#include <vector>

#include "common/stats.hh"
#include "nn/mapping.hh"
#include "nn/network.hh"

namespace
{

using namespace neurocube;

/** 14 nm SRAM density (ISSCC'15 [11]): ~0.050 um^2/bit. */
constexpr double sramBytesPerMm2 = 1e6 / 0.050 / 8.0;
/** 22 nm eDRAM density (ISSCC'14 [12]): ~0.0174 um^2/bit. */
constexpr double edramBytesPerMm2 = 1e6 / 0.0174 / 8.0;

struct Point
{
    std::string label;
    uint64_t bytes;
};

std::vector<Point>
figurePoints()
{
    std::vector<Point> points;
    for (unsigned scale :
         {64u, 128u, 240u, 320u, 480u, 640u, 960u, 1280u}) {
        unsigned w = scale;
        unsigned h = scale * 3 / 4;
        NetworkDesc net = sceneLabelingNetwork(w, h);
        points.push_back({"scene " + std::to_string(w) + "x"
                              + std::to_string(h),
                          networkUniqueBytes(net.layers)});
    }
    points.push_back(
        {"MNIST MLP", networkUniqueBytes(mnistMlp().layers)});
    return points;
}

void
printFigure()
{
    std::printf("\n=== Fig. 1: required memory vs on-chip capacity "
                "(1 mm^2 normalized) ===\n");
    TextTable table({"workload", "required (MB)", "fits SRAM/mm^2?",
                     "fits eDRAM/mm^2?"});
    for (const Point &p : figurePoints()) {
        double mb = double(p.bytes) / (1 << 20);
        table.addRow({p.label, formatDouble(mb, 2),
                      p.bytes <= uint64_t(sramBytesPerMm2) ? "yes"
                                                           : "no",
                      p.bytes <= uint64_t(edramBytesPerMm2) ? "yes"
                                                            : "no"});
    }
    std::printf("%s", table.str().c_str());
    std::printf("SRAM (14nm): %.2f MB/mm^2, eDRAM (22nm): %.2f "
                "MB/mm^2\n",
                sramBytesPerMm2 / (1 << 20),
                edramBytesPerMm2 / (1 << 20));
    std::printf("Paper takeaway: on-chip memories cannot hold "
                "realistic scene-labeling working sets; a 3D DRAM "
                "stack can.\n");
}

} // namespace

int
main()
{
    printFigure();
    return 0;
}
