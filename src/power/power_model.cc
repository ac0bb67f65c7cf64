#include "power/power_model.hh"

#include "common/logging.hh"
#include "dram/dram_params.hh"

namespace neurocube
{

const char *
techNodeName(TechNode node)
{
    return node == TechNode::Nm28 ? "28nm" : "15nm";
}

namespace
{

/** HMC logic-die access energy, pJ/bit (Jeddeloh & Keeth 2012). */
constexpr double baseLogicDiePjPerBit = 6.78;
/** HMC DRAM access energy, pJ/bit. */
constexpr double baseDramPjPerBit = 3.7;
/** Logic-die energy scaling from 28 nm to 15 nm (ITRS factors). */
constexpr double logicEnergyScale15 = 0.5;

} // namespace

PowerModel::PowerModel(TechNode node, unsigned num_pes)
    : node_(node), numPes_(num_pes)
{
    // Table II per-block values. MAC rows are per unit (16 per PE).
    if (node == TechNode::Nm28) {
        blocks_ = {
            {"MAC", 16, 18.75, 3.02e-4, 0.0011, 16},
            {"SRAM Cache (2.5KB)", 20480, 300, 2.93e-3, 0.0873, 1},
            {"Temporal Buffer", 512, 300, 2.70e-5, 0.0025, 1},
            {"PMC", 0, 300, 4.17e-4, 0.0081, 1},
            {"Weight Reg", 3600, 300, 1.84e-4, 0.0173, 1},
            {"Router", 36, 300, 7.17e-3, 0.0609, 1},
        };
    } else {
        blocks_ = {
            {"MAC", 16, 320, 9.17e-3, 0.0002, 16},
            {"SRAM Cache (2.5KB)", 20480, 5120, 2.90e-2, 0.0448, 1},
            {"Temporal Buffer", 512, 5120, 2.05e-5, 0.0003, 1},
            {"PMC", 0, 5120, 1.39e-3, 0.0013, 1},
            {"Weight Reg", 3600, 5120, 1.44e-4, 0.0020, 1},
            {"Router", 36, 5120, 3.59e-2, 0.0085, 1},
        };
    }
}

double
PowerModel::throughputClockGhz() const
{
    // The 28 nm PE tops out at 300 MHz, so the vault I/O and NoC run
    // at reduced activity; the 15 nm design keeps up with the 5 GHz
    // vault I/O clock (Section VII).
    return node_ == TechNode::Nm28 ? 0.3
                                   : referenceClockHz / 1e9;
}

double
PowerModel::activityFactor() const
{
    return throughputClockGhz() / (referenceClockHz / 1e9);
}

double
PowerModel::pePowerW() const
{
    double total = 0.0;
    for (const BlockPower &b : blocks_)
        total += b.dynamicPowerW * b.count;
    return total;
}

double
PowerModel::peAreaMm2() const
{
    double total = 0.0;
    for (const BlockPower &b : blocks_)
        total += b.areaMm2 * b.count;
    return total;
}

double
PowerModel::computePowerW() const
{
    return pePowerW() * numPes_;
}

double
PowerModel::computeAreaMm2() const
{
    return peAreaMm2() * numPes_;
}

double
PowerModel::hmcLogicDiePowerW() const
{
    // 6.78 pJ/bit x 32 bit x 16 vaults x 5 GHz = 17.35 W at full
    // activity, scaled by the node's activity factor and the logic
    // energy scaling into 15 nm.
    double full = baseLogicDiePjPerBit * 1e-12 * 32.0 * 16.0
                * referenceClockHz;
    if (node_ == TechNode::Nm28)
        return full * activityFactor();
    return full * logicEnergyScale15;
}

double
PowerModel::dramPowerW() const
{
    double full = baseDramPjPerBit * 1e-12 * 32.0 * 16.0
                * referenceClockHz;
    return full * activityFactor();
}

double
PowerModel::logicDiePjPerBit() const
{
    // 28 nm pays the published HMC figure; the 15 nm design halves
    // the logic-die energy per bit (ITRS scaling, Section VII).
    return node_ == TechNode::Nm28
        ? baseLogicDiePjPerBit
        : baseLogicDiePjPerBit * logicEnergyScale15;
}

double
PowerModel::dramPjPerBit()
{
    return baseDramPjPerBit;
}

std::vector<PlatformRow>
publishedPlatforms()
{
    return {
        {"Tegra K1 ('15)", true, "Tegra K1", 0, 76.0, 0.0, 11.0,
         "Scene labeling, inference"},
        {"GTX 780 ('15)", true, "GTX 780", 0, 1781.0, 0.0, 206.8,
         "Scene labeling, inference"},
        {"NeuFlow ('11)", false, "Virtex 6", 16, 0.0, 147.0, 10.0,
         "N/A"},
        {"NeuFlow ASIC ('11)", false, "45nm", 16, 0.0, 1164.0, 5.0,
         "N/A"},
        {"nn-X ('14)", false, "Xilinx ZC706", 16, 227.0, 0.0, 8.0,
         "N/A"},
        {"DaDianNao ('14)", false, "28nm", 16, 0.0, 5580.0, 15.97,
         "MNIST, both"},
        {"Origami ('15)", false, "65nm", 12, 0.0, 203.0, 1.2,
         "Scene labeling, inference"},
        {"Conti ('15)", false, "28nm", 16, 0.0, 2.78, 0.001, "N/A"},
    };
}

} // namespace neurocube
