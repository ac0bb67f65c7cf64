/**
 * @file
 * Power and area model of the Neurocube logic die (paper Section VII,
 * Table II).
 *
 * The paper synthesizes one PE (16 MACs, PNG/PMC, temporal buffer,
 * weight registers, 2.5 KB SRAM cache) plus a router in 28 nm CMOS
 * and 15 nm FinFET. Lacking those PDKs, this model encodes the
 * published per-block dynamic power and area (Table II) as its
 * technology seed and re-derives every aggregate the paper reports:
 * PE totals, the 16-core compute overhead, and the HMC logic-die and
 * DRAM-die power from the published pJ/bit figures with the
 * activity/technology scaling rules of Section VII.
 */

#ifndef NEUROCUBE_POWER_POWER_MODEL_HH
#define NEUROCUBE_POWER_POWER_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace neurocube
{

/** Synthesis technology node. */
enum class TechNode
{
    Nm28,
    Nm15,
};

/** Name string of a node. */
const char *techNodeName(TechNode node);

/** One block row of Table II. */
struct BlockPower
{
    std::string name;
    /** Storage size in bits (0 where not applicable). */
    uint64_t sizeBits;
    /** Operating frequency in MHz. */
    double freqMhz;
    /** Dynamic power in watts. */
    double dynamicPowerW;
    /** Area in mm^2. */
    double areaMm2;
    /** Instances per PE (16 for the MAC row, 1 otherwise). */
    unsigned count;

    /** Power density in W/mm^2 for one instance. */
    double
    powerDensity() const
    {
        return areaMm2 > 0.0 ? dynamicPowerW / areaMm2 : 0.0;
    }
};

/** The logic-die power/area model at one technology node. */
class PowerModel
{
  public:
    /**
     * @param node technology node
     * @param num_pes PEs on the logic die (paper: 16)
     */
    explicit PowerModel(TechNode node, unsigned num_pes = 16);

    /** The node. */
    TechNode node() const { return node_; }

    /**
     * Effective throughput clock in GHz: the clock at which the
     * compute layer consumes vault data. 5 GHz (the vault I/O rate)
     * in 15 nm; 0.3 GHz in 28 nm, where the PE limits the rate.
     */
    double throughputClockGhz() const;

    /** Per-block rows (Table II body). */
    const std::vector<BlockPower> &blocks() const { return blocks_; }

    /** Dynamic power of one PE + its router, watts. */
    double pePowerW() const;
    /** Area of one PE + its router, mm^2. */
    double peAreaMm2() const;

    /** Compute overhead of the full Neurocube (num_pes cores). */
    double computePowerW() const;
    /** Area of the full compute layer, mm^2. */
    double computeAreaMm2() const;

    /** HMC logic die power without the Neurocube (pJ/bit model). */
    double hmcLogicDiePowerW() const;
    /** All-DRAM-dies power (pJ/bit model). */
    double dramPowerW() const;

    /**
     * Compute efficiency in GOPs/s/W given a measured throughput
     * (the paper's Table III divides by the compute power).
     */
    double
    efficiencyGopsPerWatt(double gops) const
    {
        return gops / computePowerW();
    }

    /** Activity factor relative to the 5 GHz vault I/O clock. */
    double activityFactor() const;

    /** Logic-die access energy at this node, pJ/bit (Table I,
     *  halved by the 15 nm logic energy scaling). */
    double logicDiePjPerBit() const;

    /** DRAM access energy, pJ/bit (technology-independent here). */
    static double dramPjPerBit();

  private:
    TechNode node_;
    unsigned numPes_;
    std::vector<BlockPower> blocks_;
};

/** One comparison row of Table III. */
struct PlatformRow
{
    std::string paper;
    bool programmable;
    std::string hardware;
    unsigned bits;
    /** Throughput in GOPs/s including DRAM (0 = not reported). */
    double throughputWithDram;
    /** Throughput in GOPs/s excluding DRAM (0 = not reported). */
    double throughputNoDram;
    /** Compute power in watts. */
    double computePowerW;
    std::string application;

    /** GOPs/s/W using whichever throughput the paper reported. */
    double
    efficiency() const
    {
        double t = throughputWithDram > 0 ? throughputWithDram
                                          : throughputNoDram;
        return computePowerW > 0 ? t / computePowerW : 0.0;
    }
};

/** The published comparison platforms of Table III (without the
 *  Neurocube rows, which the simulator supplies). */
std::vector<PlatformRow> publishedPlatforms();

} // namespace neurocube

#endif // NEUROCUBE_POWER_POWER_MODEL_HH
