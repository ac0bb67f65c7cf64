/**
 * @file
 * Generalized PNG address generator.
 *
 * Runs the PNG's three nested counters (paper Fig. 8b: neurons,
 * advancing by macsPerPe; connections; MACs) with the address mapping
 * of Eq. 4-5: for every walked output neuron group, for every
 * connection, for every MAC, it yields the element addresses of the
 * state and weight operands together with the packet routing fields
 * (destination PE, MAC-ID, OP-ID, neuron group).
 *
 * Operand emission order is the hardware's: for one (group,
 * connection) step, the 16 state addresses are generated first and
 * the 16 weight addresses second, producing the burst-aligned 8-word
 * DRAM access pattern of Section VI.
 *
 * Walk entries are coalesced per (destination PE, neuron group) so a
 * vault never emits a later OP-ID before finishing its share of an
 * earlier one for the same group — the ordering invariant the PE's
 * OP-counter sequencing relies on.
 */

#ifndef NEUROCUBE_PNG_ADDRESS_GENERATOR_HH
#define NEUROCUBE_PNG_ADDRESS_GENERATOR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "noc/packet.hh"
#include "png/program.hh"

namespace neurocube
{

/** One element read the PNG wants to issue, with routing metadata. */
struct GeneratedOp
{
    /** Element address in this vault. */
    Addr addr = 0;
    /** State or Weight. */
    PacketKind kind = PacketKind::State;
    /** Destination PE. */
    PeId dst = 0;
    /** Destination MAC slot. */
    MacId mac = 0;
    /** Neuron group at the destination PE. */
    uint32_t group = 0;
    /** Operation index (connection number). */
    OpId opId = 0;
    /** Global output-neuron index (y * outMapWidth + x). */
    uint32_t neuron = 0;
    /** Memory channel storing the output neuron (write-back home). */
    VaultId homeVault = 0;
};

/** Iterates a PngProgram, yielding operand reads one at a time. */
class AddressGenerator
{
  public:
    /**
     * Connections batched per emission phase: the generator emits the
     * state operands of this many consecutive connections, then their
     * weights, which lengthens the sequential DRAM runs of each
     * stream and keeps state/weight row ping-pong off the critical
     * path (DESIGN.md 5b item 4).
     */
    static constexpr unsigned connBlockSize = 16;

    /** Load the layer's program for this vault. */
    void configure(const PngProgram &program);

    /** True when every operand has been yielded. */
    bool done() const { return done_; }

    /**
     * Produce the next operand read.
     *
     * @param op receives the generated operand
     * @retval true op is valid
     * @retval false generation is complete
     */
    bool next(GeneratedOp &op);

    /** Total operand reads yielded so far. */
    uint64_t generated() const { return generated_; }

    /** Output plane currently being generated (plane loop state). */
    unsigned currentPlane() const { return plane_; }

    /** MAC operations this program will feed (pairs of operands). */
    uint64_t totalPairs() const { return totalPairs_; }

    /** Upper bound on pairs (before ownership filtering). */
    uint64_t
    pairBudget() const
    {
        return uint64_t(walk_.size()) * program_.conns.size()
             * std::max(1u, program_.outPlanes);
    }

  private:
    /** One walked output neuron with precomputed routing. */
    struct Walked
    {
        int32_t x;
        int32_t y;
        PeId dst; // output tile index (groupsPerDst_, coalescing)
        MacId mac;
        uint32_t group;
        uint32_t walkIndex; // original walk position (weight layout)
        /** Mesh node hosting tile dst (peNode relocation). */
        PeId node;
        /** Write-back channel (homeTiles owner, homeNode relocation). */
        VaultId home;
        /** Neuron index within one output plane. */
        uint32_t neuron;
    };

    /** Fill the emission buffer for the next connection block. */
    void fillBuffer();

    /** State-operand address for a walk entry and connection. */
    Addr stateAddr(const Walked &entry, const Conn &conn) const;
    /** Weight-operand address for a walk entry and connection. */
    Addr weightAddr(const Walked &entry, uint32_t conn_index) const;
    /** True when this vault generates (entry, conn). */
    bool owns(const Walked &entry, const Conn &conn) const;

    PngProgram program_;

    std::vector<Walked> walk_;
    /** [begin, end) runs in walk_ sharing one (dst, group). */
    std::vector<std::pair<uint32_t, uint32_t>> chunks_;

    size_t chunk_ = 0;
    uint32_t conn_ = 0;
    /** Current output plane (the FSM's fourth loop). */
    unsigned plane_ = 0;
    /** Per destination PE: neuron groups per output plane. */
    std::vector<uint32_t> groupsPerDst_;
    /** Pre-generated operands of the current connection block. */
    std::vector<GeneratedOp> buffer_;
    size_t bufferPos_ = 0;
    bool done_ = true;

    uint64_t generated_ = 0;
    uint64_t totalPairs_ = 0;
};

} // namespace neurocube

#endif // NEUROCUBE_PNG_ADDRESS_GENERATOR_HH
