/**
 * @file
 * NoC packet format (paper Fig. 11a and Table II).
 *
 * The hardware packet is 36 bits: 16-bit data payload, 4-bit MAC-ID,
 * 4-bit SRC (vault), 4-bit DST (PE) and 8-bit OP-ID. Operand traffic
 * uses two packets per MAC operation (one state, one weight); the
 * write-back packet carries one computed neuron state from a PE back
 * to a PNG. The simulator additionally carries full-precision
 * bookkeeping fields (neuron index, pass, inject tick) that hardware
 * derives from context: the paper notes that SRC plus MAC-ID is
 * sufficient for the PNG to reconstruct the target neuron address.
 */

#ifndef NEUROCUBE_NOC_PACKET_HH
#define NEUROCUBE_NOC_PACKET_HH

#include <cstdint>

#include "common/fixed_point.hh"
#include "common/types.hh"

namespace neurocube
{

/** What the 16-bit payload of a packet means. */
enum class PacketKind : uint8_t
{
    /** An input-neuron state x_k heading to a PE. */
    State,
    /** A synaptic weight w_ik heading to a PE. */
    Weight,
    /** A computed output state y_i heading back to a PNG. */
    WriteBack,
};

/**
 * One single-flit NoC packet. Fields are ordered widest first so the
 * struct packs into 32 bytes: every operand is copied through four
 * rings (PNG out-queue, router input, router output, delivery queue).
 */
struct Packet
{
    /** Simulation bookkeeping: tick at injection (latency stats). */
    Tick injectTick = 0;
    /**
     * Operation sequence number within the current output neuron
     * group. The hardware field is opId % 256 (Section V-A); the
     * simulator keeps full precision so correctness checks do not
     * depend on wraparound being benign.
     */
    OpId opId = 0;
    /** Simulation bookkeeping: output-neuron index for this op. */
    uint32_t neuron = 0;
    /**
     * Simulation bookkeeping: neuron-group index at the destination
     * PE (neurons are processed 16 at a time; hardware recovers the
     * group from in-order generation plus the 8-bit OP-ID).
     */
    uint32_t group = 0;
    /** Source vault (4-bit SRC field). */
    VaultId src = 0;
    /** Destination id: PE for operands, vault/PNG for write-backs. */
    uint16_t dst = 0;
    /** Target MAC within the destination PE (4-bit MAC-ID field). */
    MacId mac = 0;
    /** The 16-bit payload. */
    Fixed data{};
    /**
     * Memory channel that stores this op's output neuron (the
     * write-back destination). Usually the PE's own vault, but with
     * fewer channels than PEs (the DDR3 comparison of Section VI-B)
     * the home channel is a coarser partition.
     */
    VaultId homeVault = 0;
    /** Payload interpretation. */
    PacketKind kind = PacketKind::State;
    /** True when dst names a PNG/memory port, not a PE. */
    bool dstIsMem = false;

    /** The 8-bit OP-ID field value as the hardware would carry it. */
    uint32_t hwOpId() const { return opId % opIdModulus; }

    /** Size of the hardware packet in bits (Table II router width). */
    static constexpr unsigned bits = 36;
};

static_assert(sizeof(Packet) == 32, "Packet grew past 32 bytes");

} // namespace neurocube

#endif // NEUROCUBE_NOC_PACKET_HH
