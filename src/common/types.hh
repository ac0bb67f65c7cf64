/**
 * @file
 * Fundamental simulator-wide scalar types and identifiers.
 */

#ifndef NEUROCUBE_COMMON_TYPES_HH
#define NEUROCUBE_COMMON_TYPES_HH

#include <cstdint>

namespace neurocube
{

/**
 * Simulation time in cycles of the reference clock.
 *
 * The reference clock is the DRAM I/O clock (5 GHz for HMC-Int, paper
 * Section VI); PEs and NoC routers run at the same frequency and MACs
 * at f_PE / n_MAC.
 */
using Tick = uint64_t;

/** Reference clock frequency in Hz (HMC vault I/O clock). One Tick
 *  is one period of this clock. */
constexpr double referenceClockHz = 5.0e9;

/** A byte address within the cube's physical address space. */
using Addr = uint64_t;

/** Identifies one DRAM vault (and its vault controller + PNG). */
using VaultId = uint16_t;

/** Identifies one processing element on the logic die. */
using PeId = uint16_t;

/** Identifies one MAC unit within a PE. */
using MacId = uint16_t;

/**
 * Sequence number of an input within the update of one output neuron
 * (the packet OP-ID). The hardware field is 8 bits wide; values wrap
 * modulo 256 (paper Section V-B).
 */
using OpId = uint32_t;

/** Width of the hardware OP-ID field in bits. */
constexpr unsigned opIdBits = 8;

/** Modulus applied to OP-IDs before they enter a packet. */
constexpr uint32_t opIdModulus = 1u << opIdBits;

/** Width of the hardware MAC-ID field in bits. */
constexpr unsigned macIdBits = 4;

/**
 * MAC units per PE, one per MAC-ID value (paper: 16). It is also the
 * neuron-group size: the PE, the PNG's address generator and the
 * compiler's group-blocked weight layouts all count in groups of it.
 */
constexpr unsigned macsPerPe = 1u << macIdBits;

} // namespace neurocube

#endif // NEUROCUBE_COMMON_TYPES_HH
