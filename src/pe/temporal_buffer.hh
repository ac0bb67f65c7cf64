/**
 * @file
 * PE temporal buffer (paper Fig. 11).
 *
 * The temporal buffer stages the operands of the operation currently
 * pointed at by the PE's OP-counter: one {state, weight} pair per MAC
 * unit. When every active MAC's pair is present the buffer is flushed
 * into the MACs and the OP-counter advances.
 */

#ifndef NEUROCUBE_PE_TEMPORAL_BUFFER_HH
#define NEUROCUBE_PE_TEMPORAL_BUFFER_HH

#include <cstdint>
#include <vector>

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

    /** @param num_macs number of MAC units (slots). */
    explicit TemporalBuffer(unsigned num_macs)
        : slots_(num_macs), hasState_(wordsFor(num_macs)),
          hasWeight_(wordsFor(num_macs))
    {
    }

    /** Deposit a state operand for a MAC slot. */
    void
    putState(MacId mac, Fixed value, uint32_t neuron, VaultId home)
    {
        Slot &slot = at(mac);
        uint64_t &word = hasState_[mac / 64];
        nc_assert(!(word & bitOf(mac)),
                  "duplicate state operand for MAC %u", unsigned(mac));
        word |= bitOf(mac);
        slot.state = value;
        slot.neuron = neuron;
        slot.homeVault = home;
    }

    /** Deposit a weight operand for a MAC slot. */
    void
    putWeight(MacId mac, Fixed value, uint32_t neuron, VaultId home)
    {
        Slot &slot = at(mac);
        uint64_t &word = hasWeight_[mac / 64];
        nc_assert(!(word & bitOf(mac)),
                  "duplicate weight operand for MAC %u", unsigned(mac));
        word |= bitOf(mac);
        slot.weight = value;
        slot.neuron = neuron;
        slot.homeVault = home;
    }

    /**
     * True when slots [0, active) all hold a complete pair: one mask
     * test per 64 slots (a single word at the paper's 16 MACs).
     */
    bool
    complete(unsigned active) const
    {
        unsigned w = 0;
        for (; w < active / 64; ++w) {
            if ((hasState_[w] & hasWeight_[w]) != ~uint64_t(0))
                return false;
        }
        uint64_t want = bitOf(active) - 1; // the remaining low slots
        return (hasState_[w] & hasWeight_[w] & want) == want;
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
        for (uint64_t &word : hasState_)
            word = 0;
        for (uint64_t &word : hasWeight_)
            word = 0;
    }

    /** Number of slots. */
    unsigned size() const { return unsigned(slots_.size()); }

  private:
    /** Mask words for @p slots slots, plus one so that the word
     *  complete() indexes at active == slots always exists. */
    static size_t wordsFor(unsigned slots) { return slots / 64 + 1; }

    static uint64_t
    bitOf(unsigned slot)
    {
        return uint64_t(1) << (slot % 64);
    }

    Slot &
    at(MacId mac)
    {
        nc_assert(mac < slots_.size(), "MAC id %u out of range",
                  unsigned(mac));
        return slots_[mac];
    }

    std::vector<Slot> slots_;
    /** Slot m holds a state operand iff bit m % 64 of word m / 64. */
    std::vector<uint64_t> hasState_;
    /** Same layout for weight operands. */
    std::vector<uint64_t> hasWeight_;
};

} // namespace neurocube

#endif // NEUROCUBE_PE_TEMPORAL_BUFFER_HH
