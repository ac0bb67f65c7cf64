/**
 * @file
 * One multiply-accumulate unit (paper Section III-B1).
 *
 * A MAC multiplies a 16-bit Q1.7.8 neuron state by a 16-bit synaptic
 * weight and adds the product into its accumulator; the accumulator
 * feeds back as an input on the next cycle (Fig. 5b). MACs run at
 * f_MAC = f_PE / n_MAC; the PE accounts for that timing collectively,
 * so this class only models the arithmetic state of one unit.
 */

#ifndef NEUROCUBE_PE_MAC_HH
#define NEUROCUBE_PE_MAC_HH

#include "common/fixed_point.hh"

namespace neurocube
{

/** Arithmetic state of a single MAC unit. */
class MacUnit
{
  public:
    /** Accumulate state * weight into the running sum. */
    void
    multiplyAccumulate(Fixed state, Fixed weight)
    {
        acc_.mac(state, weight);
    }

    /** The running sum saturated back to Q1.7.8. */
    Fixed result() const { return acc_.toFixed(); }

    /** The exact wide accumulator (tests). */
    const Accum &accumulator() const { return acc_; }

    /** Reset for the next output neuron. */
    void clear() { acc_.clear(); }

  private:
    Accum acc_;
};

} // namespace neurocube

#endif // NEUROCUBE_PE_MAC_HH
