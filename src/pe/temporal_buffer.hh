/**
 * @file
 * PE temporal buffer (paper Fig. 11).
 *
 * The temporal buffer stages the operands of the operation currently
 * pointed at by the PE's OP-counter: one {state, weight} pair per MAC
 * unit, macsPerPe of them. When every active MAC's pair is present
 * the buffer is flushed into the MACs and the OP-counter advances.
 */

#ifndef NEUROCUBE_PE_TEMPORAL_BUFFER_HH
#define NEUROCUBE_PE_TEMPORAL_BUFFER_HH

#include <array>
#include <cstdint>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace neurocube
{

/** Operand staging for one MAC operation across all MAC units. */
class TemporalBuffer
{
  public:
    /** One MAC's operands (meaningful once both have arrived). */
    struct Slot
    {
        Fixed state{};
        Fixed weight{};
        /** Global output-neuron index this operand belongs to. */
        uint32_t neuron = 0;
        /** Memory channel storing the output neuron. */
        VaultId homeVault = 0;
    };

    /** Deposit a state operand for a MAC slot. */
    void
    putState(MacId mac, Fixed value, uint32_t neuron, VaultId home)
    {
        Slot &slot = at(mac);
        nc_assert(!(hasState_ & bitOf(mac)),
                  "duplicate state operand for MAC %u", unsigned(mac));
        hasState_ |= bitOf(mac);
        slot.state = value;
        slot.neuron = neuron;
        slot.homeVault = home;
    }

    /** Deposit a weight operand for a MAC slot. */
    void
    putWeight(MacId mac, Fixed value, uint32_t neuron, VaultId home)
    {
        Slot &slot = at(mac);
        nc_assert(!(hasWeight_ & bitOf(mac)),
                  "duplicate weight operand for MAC %u", unsigned(mac));
        hasWeight_ |= bitOf(mac);
        slot.weight = value;
        slot.neuron = neuron;
        slot.homeVault = home;
    }

    /** True when slots [0, active) all hold a complete pair. */
    bool
    complete(unsigned active) const
    {
        Mask want = bitOf(active) - 1;
        return (hasState_ & hasWeight_ & want) == want;
    }

    /** Read one slot. */
    const Slot &slot(MacId mac) const { return slots_[mac]; }

    /**
     * Clear all slots for the next operation. Only the presence
     * masks reset: every slot a later flush reads is rewritten by
     * its putState/putWeight first.
     */
    void
    flush()
    {
        hasState_ = 0;
        hasWeight_ = 0;
    }

  private:
    /** Presence bits, one per MAC; wide enough that complete()'s
     *  bitOf(macsPerPe) does not overflow. */
    using Mask = uint32_t;
    static_assert(macsPerPe < 32, "one presence bit per MAC");

    static Mask bitOf(unsigned slot) { return Mask(1) << slot; }

    Slot &
    at(MacId mac)
    {
        nc_assert(mac < macsPerPe, "MAC id %u out of range",
                  unsigned(mac));
        return slots_[mac];
    }

    std::array<Slot, macsPerPe> slots_{};
    /** Slot m holds a state operand iff bit m is set. */
    Mask hasState_ = 0;
    /** Same for weight operands. */
    Mask hasWeight_ = 0;
};

} // namespace neurocube

#endif // NEUROCUBE_PE_TEMPORAL_BUFFER_HH
