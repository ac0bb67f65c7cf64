/**
 * @file
 * Activity-based energy model: price raw event counts in joules.
 *
 * The analytic model (energy_model.hh) integrates Table II block
 * power over wall-clock — it assumes every block switches at full
 * activity for the whole run. This model instead prices each
 * *counted* event (the energy counters of the MetricsRegistry,
 * trace/energy.hh and trace/metrics.hh) at a per-event
 * energy derived from the same Table I/II seeds: a block's pJ per
 * event is its dynamic power divided by its clock (one event per
 * cycle at full activity, the synthesis condition behind Table II).
 * The ratio of the two totals is the machine's effective activity
 * factor: well below 1 on idle-heavy runs, and slightly above 1 on
 * cache-bound runs where associative scans count more SRAM accesses
 * per cycle than the one-event-per-cycle synthesis condition assumes
 * (see tests/test_energy.cc for the asserted tolerance and
 * EXPERIMENTS.md for measured numbers). The DRAM terms of both views
 * price the same measured bits and agree almost exactly.
 */

#ifndef NEUROCUBE_POWER_ACTIVITY_ENERGY_HH
#define NEUROCUBE_POWER_ACTIVITY_ENERGY_HH

#include <array>

#include "core/results.hh"
#include "power/power_model.hh"
#include "trace/energy.hh"

namespace neurocube
{

/** Joules attributed to each hardware component class. */
struct EnergyBreakdown
{
    /** MAC array switching energy. */
    double macJ = 0.0;
    /** Operand-cache SRAM reads + writes. */
    double sramJ = 0.0;
    /** Temporal-buffer and weight-register accesses. */
    double buffersJ = 0.0;
    /** Router crossbar hops + link traversals. */
    double nocJ = 0.0;
    /** PNG/PMC transaction energy. */
    double pngJ = 0.0;
    /** HMC logic die: vault-controller transactions + data bits. */
    double vaultLogicJ = 0.0;
    /** DRAM-die access energy. */
    double dramJ = 0.0;

    double
    totalJ() const
    {
        return macJ + sramJ + buffersJ + nocJ + pngJ + vaultLogicJ
             + dramJ;
    }

    EnergyBreakdown &operator+=(const EnergyBreakdown &other);
};

/** Component labels + values of a breakdown, for serializers. */
struct EnergyComponentView
{
    const char *name;
    double joules;
};

/** The seven (name, joules) components of @p breakdown, in order. */
std::array<EnergyComponentView, 7>
energyComponents(const EnergyBreakdown &breakdown);

/**
 * Derives per-event prices from a PowerModel's Table I/II seeds and
 * prices EnergyCounts into joules.
 */
class ActivityEnergyModel
{
  public:
    explicit ActivityEnergyModel(const PowerModel &model);

    /** Default model at the node the cycle simulator times (15 nm,
     *  where every block keeps up with the 5 GHz vault clock). */
    ActivityEnergyModel() : ActivityEnergyModel(PowerModel(TechNode::Nm15)) {}

    /** The derived per-event prices (pJ). */
    const EnergyPrices &prices() const { return prices_; }

    /** The node the prices were derived for. */
    TechNode node() const { return node_; }

    /** Price counted activity into per-component joules. */
    EnergyBreakdown price(const EnergyCounts &counts) const;

    /** Per-layer sum of a run's counted activity, priced. */
    EnergyBreakdown price(const RunResult &run) const;

    /**
     * Static (leakage) power of the compute layer, watts: a
     * node-dependent leakage fraction applied to the synthesized
     * compute power (Table II reports dynamic power only; the
     * fraction models the planar-28 nm vs FinFET-15 nm leakage gap).
     * Reported alongside the activity totals — never folded into
     * price()/totalJ(), so existing dynamic-energy accounting and
     * its tests are unchanged.
     */
    double staticPowerW() const { return staticPowerW_; }

    /** Leakage energy held over @p cycles reference cycles, joules. */
    double staticEnergyJ(Tick cycles) const;

  private:
    TechNode node_;
    EnergyPrices prices_;
    double staticPowerW_ = 0.0;
};

/** Activity-based vs analytic energy for the same run. */
struct EnergyComparison
{
    /** Activity-based per-component breakdown. */
    EnergyBreakdown activity;
    /** Activity-based total, joules. */
    double activityJ = 0.0;
    /** Analytic accountEnergy() total, joules. */
    double analyticJ = 0.0;
    /** Analytic DRAM term alone, joules (should match the activity
     *  dramJ almost exactly — same bits, same pJ/bit). */
    double analyticDramJ = 0.0;
    /** activityJ / analyticJ: the run's effective activity factor. */
    double ratio = 0.0;
};

/**
 * Price a run both ways at one node. Requires the run to carry
 * counted activity (run with trace.enabled and energy accounting
 * on); activityJ is 0 otherwise.
 */
EnergyComparison compareWithAnalytic(const RunResult &run,
                                     const PowerModel &model);

} // namespace neurocube

#endif // NEUROCUBE_POWER_ACTIVITY_ENERGY_HH
