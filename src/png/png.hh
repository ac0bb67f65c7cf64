/**
 * @file
 * Programmable neurosequence generator (paper Sections IV-V, Fig. 8a).
 *
 * One PNG sits next to each vault controller. Per pass it:
 *  - generates the operand address stream (AddressGenerator) and
 *    issues element reads to its vault controller;
 *  - encapsulates returning data into 36-bit packets (SRC, DST,
 *    MAC-ID, OP-ID) and injects them into the local router's memory
 *    port;
 *  - receives write-back packets, pushes the accumulated state
 *    through the activation LUT, and writes the result to its vault;
 *  - raises "pass done" once the state of the last owned output
 *    neuron has been received (Fig. 8d's layer-done condition).
 */

#ifndef NEUROCUBE_PNG_PNG_HH
#define NEUROCUBE_PNG_PNG_HH

#include <array>
#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/memory_channel.hh"
#include "noc/fabric.hh"
#include "png/address_generator.hh"
#include "png/lut.hh"
#include "png/program.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** One vault's programmable neurosequence generator. */
class Png
{
  public:
    /** Element reads issued to the vault controller per tick. */
    static constexpr unsigned maxIssuePerTick = 4;
    /** Packets buffered between the vault and the router. */
    static constexpr unsigned outQueueDepth = 16;
    /** Write-back packets absorbed per tick. */
    static constexpr unsigned maxWriteBacksPerTick = 2;

    /**
     * @param id the vault this PNG serves
     * @param channel the vault controller / DRAM channel
     * @param fabric the NoC
     * @param parent stat group parent
     * @param probe the machine's instrumentation
     */
    Png(VaultId id, MemoryChannel &channel, NocFabric &fabric,
        StatGroup *parent, Probe probe = {});

    /** Load a pass program (host writes the configuration regs). */
    void configure(const PngProgram &program);

    /** Advance one reference-clock tick. */
    void tick(Tick now);

    /**
     * First tick after @p now at which tick() could act, given no
     * external input. tickNever when the PNG is disabled or every
     * local move is blocked on an external event (a vault response /
     * freed queue slot, which the channel's serve hook signals, or a
     * delivered write-back, which the fabric's eject hook signals).
     */
    Tick nextEventAfter(Tick now);

    /**
     * Account ticks [from, to) in bulk, replicating what that many
     * provably-no-op tick() calls would have recorded (out-queue
     * depth samples and the stall classification, both constant over
     * the window). @pre nextEventAfter() returned tickNever and no
     * wake event landed inside the window.
     */
    void skipTicks(Tick from, Tick to);

    /**
     * True when the pass is complete from this PNG's perspective:
     * every operand generated and injected, and the write-back for
     * the last owned output neuron received and issued to the vault.
     */
    bool done() const;

    /** Vault index. */
    VaultId id() const { return id_; }

    /** Operand pairs generated so far this pass (2 MAC ops each). */
    uint64_t totalPairs() const { return generator_.totalPairs(); }

    /** Upper bound on this pass's pairs (deadline estimation). */
    uint64_t pairBudget() const { return generator_.pairBudget(); }

    /** The loaded program. */
    const PngProgram &program() const { return program_; }

    /** Output planes the generator may run ahead of write-backs. */
    static constexpr unsigned planeWindow = 4;

    /** Out-queue depth distribution (packets, per enabled tick). */
    const Histogram &
    outQueueDepthHistogram() const
    {
        return histOutQueueDepth_;
    }

  private:
    /** Publish a PngPhase event when the FSM phase/plane changes. */
    void tracePhase(PngFsmPhase phase, unsigned plane);

    VaultId id_;
    MemoryChannel &channel_;
    NocFabric &fabric_;
    Probe probe_;

    /** Last FSM phase published to the trace bus. */
    PngFsmPhase tracePhase_ = PngFsmPhase::Idle;
    /** Last generator plane published to the trace bus. */
    unsigned tracePlane_ = ~0u;

    PngProgram program_;
    AddressGenerator generator_;
    const Lut *lut_;

    /** Reads that may be in flight at once (one per slot). */
    static constexpr size_t maxInFlight = MemoryChannel::queueCapacity;
    static_assert(maxInFlight <= 64, "slot mask is one 64-bit word");
    /** busySlots_ with every slot taken. */
    static constexpr uint64_t allSlots =
        maxInFlight == 64 ? ~uint64_t(0)
                          : (uint64_t(1) << maxInFlight) - 1;

    /**
     * Metadata of the reads in flight, indexed by slot. A read's tag
     * is the slot it occupies, so a response finds its op directly
     * even when the vault controller completes row hits out of order
     * (FR-FCFS). Which free slot a read takes is not observable:
     * tags only travel to the channel and back.
     */
    std::array<GeneratedOp, maxInFlight> inFlight_;
    /** Bit s set while slot s holds a read in flight. */
    uint64_t busySlots_ = 0;
    /** Encapsulated packets awaiting router injection. */
    Ring<Packet> outQueue_;
    uint64_t wbReceived_ = 0;

    /** Write-backs per output plane (0 = no plane throttling). */
    uint64_t perPlaneWb_ = 0;
    /**
     * Cached plane-throttle bound: the generator may issue while
     * currentPlane() < allowedPlane_. Recomputed when wbReceived_
     * changes (the only input that moves within a pass).
     */
    unsigned allowedPlane_ = ~0u;

    /** True while the issue loop has anything it could issue. */
    bool
    canIssue() const
    {
        return !generator_.done()
            && generator_.currentPlane() < allowedPlane_
            && channel_.canAccept() && busySlots_ != allSlots;
    }

    StatGroup statGroup_;
    Stat statIssued_;
    Stat statInjected_;
    Stat statWriteBacks_;
    Stat statInjectStallTicks_;
    /** Packets waiting for router injection, sampled per tick. */
    Histogram histOutQueueDepth_;
};

} // namespace neurocube

#endif // NEUROCUBE_PNG_PNG_HH
