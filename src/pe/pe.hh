/**
 * @file
 * Processing element (paper Section III-B, Fig. 5b, Fig. 11).
 *
 * A PE owns macsPerPe MAC units, a temporal buffer, a sub-banked operand
 * cache and a small shared-weight memory. It is fully data driven:
 * operand packets arrive from the NoC, the OP-counter sequences the
 * inputs of the 16 output neurons being updated in parallel, and when
 * every active MAC's {state, weight} pair for the current operation
 * is staged, the temporal buffer is flushed into the MACs. After the
 * last operation of a neuron group, each MAC's accumulated state is
 * encapsulated into a write-back packet and injected into the NoC.
 */

#ifndef NEUROCUBE_PE_PE_HH
#define NEUROCUBE_PE_PE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/fixed_point.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/fabric.hh"
#include "noc/packet.hh"
#include "pe/mac.hh"
#include "pe/op_cache.hh"
#include "pe/temporal_buffer.hh"

namespace neurocube
{

/** Per-pass configuration the global controller writes into a PE. */
struct PePassConfig
{
    /** PE participates in this pass. */
    bool enabled = false;
    /** Output neurons this PE computes in this pass (all planes). */
    uint32_t numNeurons = 0;
    /** Operations (connected inputs) per output neuron. */
    uint32_t connections = 0;
    /**
     * Output planes computed by this pass (the layer's map loop);
     * group numbering restarts per plane, so the last group of every
     * plane may be partial. numNeurons must equal planes *
     * neuronsPerPlane.
     */
    uint32_t planes = 1;
    /**
     * Weights resident in the PE weight memory, indexed by OP-ID
     * (shared across neurons). When non-empty the PNG streams only
     * states and the PE supplies weights locally — the optimization
     * of Section III-B2 for small kernels. Empty = weights arrive as
     * packets (the default the paper's throughput analysis uses).
     */
    std::vector<Fixed> localWeights;
};

/** One data-driven processing element. */
class Pe
{
  public:
    /** Operand packets accepted from the NoC per tick. */
    static constexpr unsigned acceptPerTick = 4;
    /** Write-back packets injected per tick (PE port width). */
    static constexpr unsigned injectPerTick = 2;
    /** Pending write-backs before neuron-group flushes stall. */
    static constexpr unsigned outboxLimit = 32;
    static_assert(outboxLimit >= macsPerPe,
                  "a neuron group's write-backs must fit the outbox");
    /**
     * Sub-bank entries examined per PE cycle during the OP-advance
     * search. The paper quotes a 16..64-cycle full search for a
     * 64-entry sub-bank; 4 entries/cycle reads that as a banked
     * parallel scan whose 16-cycle worst case is exactly hidden by
     * the MAC execution time. The literal serial scan (1 entry/cycle)
     * is unstable under operand reordering (DESIGN.md 5b item 5).
     */
    static constexpr unsigned searchEntriesPerCycle = 4;

    /**
     * @param id node index (equals the home vault index)
     * @param parent stat group parent
     * @param probe the machine's instrumentation (shared with the
     *        operand cache)
     */
    Pe(PeId id, StatGroup *parent, Probe probe = {});

    /** Load a pass configuration; resets all sequencing state. */
    void configurePass(const PePassConfig &config);

    /**
     * Advance one reference-clock tick.
     *
     * @param now current tick
     * @param fabric NoC used for operand delivery and write-backs
     */
    void tick(Tick now, NocFabric &fabric);

    /**
     * First tick after @p now at which tick() could act, given no
     * external input. tickNever when the PE is disabled, finished, or
     * waiting for operand packets (the fabric's eject hook signals
     * their arrival); a pending MAC/search timer reports the flush
     * tick so the scheduler can jump straight to it.
     */
    Tick nextEventAfter(Tick now, NocFabric &fabric);

    /**
     * Account ticks [from, to) in bulk, replicating what that many
     * provably-no-op tick() calls would have recorded: per-tick cache
     * occupancy samples and the legacy stall classification, which
     * over a frozen state is Busy until macBusyUntil_, then
     * StallCache until nextFlushAt_, then Idle (pass complete) or
     * StallInject (waiting on operands).
     */
    void skipTicks(Tick from, Tick to);

    /** True when the pass's write-backs have all been injected. */
    bool done() const;

    /** True when no operands or write-backs are buffered. */
    bool idle() const;

    /** Node index. */
    PeId id() const { return id_; }

    /** Current OP-counter (tests). */
    OpId opCounter() const { return opCounter_; }

    /** Total MAC operations executed (multiply+accumulate pairs). */
    uint64_t macOps() const { return statMacOps_.count(); }

    /** Operand-cache entries spilled beyond sub-bank capacity. */
    uint64_t cacheOverflows() const { return cache_.overflows(); }

    /** Operand-cache occupancy distribution (entries, per tick). */
    const Histogram &
    cacheOccupancyHistogram() const
    {
        return histCacheOccupancy_;
    }

  private:
    /** MACs active in a group (the last group may be partial). */
    unsigned activeMacs(uint32_t group) const;
    /** Number of neuron groups in this pass. */
    uint32_t numGroups() const;
    /** Stage one operand into the temporal buffer. */
    void stageOperand(const OpCache::Operand &operand);
    /** Stage the parked operands of the current (group, op). */
    void drainCache(Tick now);
    /** Flush the temporal buffer into the MACs. */
    void flush(Tick now);
    /** Emit write-back packets for a completed neuron group. */
    void completeGroup();

    PeId id_;
    Probe probe_;
    PePassConfig pass_;

    StatGroup statGroup_;
    TemporalBuffer temporal_;
    OpCache cache_;
    std::array<MacUnit, macsPerPe> macs_;

    /** Per-MAC neuron ids of the group in flight (for write-backs). */
    std::array<uint32_t, macsPerPe> groupNeurons_{};
    /** Per-MAC home vaults of the group in flight. */
    std::array<VaultId, macsPerPe> groupHomes_{};

    /** Neurons per output plane (cached by configurePass). */
    uint32_t perPlane_ = 0;
    /** Neuron groups per output plane (cached by configurePass). */
    uint32_t groupsPerPlane_ = 0;
    /** Total neuron groups this pass (cached by configurePass). */
    uint32_t totalGroups_ = 0;

    uint32_t group_ = 0;
    OpId opCounter_ = 0;
    /** Earliest tick the next flush may happen (MAC/search timing). */
    Tick nextFlushAt_ = 0;
    /**
     * Tick until which the MAC array is executing the last flush.
     * Distinguishes MAC-busy cycles from sub-bank-search delays:
     * nextFlushAt_ beyond this point is search cost (stall_cache).
     */
    Tick macBusyUntil_ = 0;
    bool passComplete_ = true;

    Ring<Packet> outbox_;

    Stat statMacOps_;
    Stat statFlushes_;
    Stat statGroupsDone_;
    Stat statWriteBacks_;
    Stat statSearchStallTicks_;
    /** Operand-cache entries buffered, sampled once per tick. */
    Histogram histCacheOccupancy_;
};

} // namespace neurocube

#endif // NEUROCUBE_PE_PE_HH
