/**
 * @file
 * Wake-list pass scheduler: the execution engine behind every
 * SimEngine.
 *
 * SimEngine::Legacy runs it in tick-all mode: every component wakes
 * at t + 1, so every component ticks every reference tick. Most of
 * those ticks are provably no-ops (a PE waiting out its 16-tick MAC
 * window, a DDR3 channel pacing a 0.2 words/tick credit, a finished
 * lane idling until the slowest lane catches up). In its default
 * mode the scheduler keeps, per component, the next tick at which
 * its tick() could do anything (wakeAt) and the first tick it has
 * not yet accounted (accounted); a pass executes only the ticks some
 * component is awake for, and each component's skipped stretch is
 * replayed in bulk by its skipTicks() before its next real tick.
 *
 * Invariants that make this bit-exact with tick-all mode (see
 * DESIGN.md "Wake-list scheduler"):
 *  - a component only sleeps when its tick() is a no-op modulo
 *    accounting (nextEventAfter() encodes the proof obligation);
 *  - anything that can un-no-op a sleeping component flows through
 *    one of the WakeSink hooks, which wake it at exactly the tick the
 *    legacy loop would have had it act;
 *  - skipTicks(from, to) replays exactly what (to - from) no-op
 *    tick() calls would have recorded (idle stats, stall classes,
 *    histogram samples, credit/priority aging, stale timestamps);
 *  - executed ticks run in the legacy phase order (PNGs, channels,
 *    fabric, PEs; ascending index within a phase).
 *
 * One PassScheduler drives either the whole machine (Legacy, Event)
 * or one bucket of it: a set of node groups that the pass's traffic
 * never connects to the rest (ThreadedLanes, one scheduler per thread
 * over a NocFabric::LaneView). tests/test_engine_diff.cc fuzzes both
 * against tick-all mode, which never skips and so stays the
 * differential oracle.
 */

#ifndef NEUROCUBE_CORE_ENGINE_HH
#define NEUROCUBE_CORE_ENGINE_HH

#include <vector>

#include "common/types.hh"
#include "common/wake.hh"
#include "noc/fabric.hh"

namespace neurocube
{

class MemoryChannel;
class Pe;
class Png;

/** Event-driven scheduler for one pass over one machine slice. */
class PassScheduler final : public WakeSink
{
  public:
    /** The components one scheduler drives (machine or lane slice). */
    struct Slice
    {
        NocFabric *fabric = nullptr;
        /** Lane slice to tick, or nullptr for the whole fabric. */
        const NocFabric::LaneView *view = nullptr;
        /** Owned channel indices, ascending (global numbering). */
        std::vector<unsigned> channelIds;
        /** Owned channels / their PNGs, parallel to channelIds. */
        std::vector<MemoryChannel *> channels;
        std::vector<Png *> pngs;
        /** Mesh node of each owned channel, parallel to channelIds. */
        std::vector<unsigned> channelNodes;
        /** Owned PE node indices, ascending (global numbering). */
        std::vector<unsigned> peIds;
        std::vector<Pe *> pes;
        /** Mesh size / global channel count (map dimensions). */
        unsigned numNodes = 0;
        unsigned numChannels = 0;
        /** The machine's instrumentation (slot marks, NC_TRACE_SLOT). */
        Probe probe;
    };

    /**
     * What the last step() did that a pass split over several
     * schedulers needs to rebuild the one-scheduler Sim track
     * (Neurocube::runPass): the component-ticks replayed in bulk,
     * the fabric's left out, whether the fabric ticked, and whether
     * a PE injected a packet.
     */
    struct StepReport
    {
        uint64_t componentSkips = 0;
        bool fabricTicked = false;
        bool peInjected = false;
    };

    /**
     * Build the wake lists with every component awake at @p start
     * (the first executed tick always ticks everything) and attach
     * the wake sinks to the slice's channels and fabric nodes. With
     * @p tick_all, step() wakes every component at t + 1 instead of
     * asking nextEventAfter(): nothing ever sleeps, so nothing is
     * skipped and the wake hooks change nothing (SimEngine::Legacy).
     */
    PassScheduler(Slice slice, Tick start, bool tick_all = false);

    /** Detaches the wake sinks. */
    ~PassScheduler() override;

    PassScheduler(const PassScheduler &) = delete;
    PassScheduler &operator=(const PassScheduler &) = delete;

    /**
     * Execute tick @p t: catch up and tick every awake component in
     * the legacy phase order. @p t must be the value minWake()
     * returned (or the construction start tick).
     */
    void step(Tick t);

    /** Earliest wake over every component (tickNever = deadlock). */
    Tick minWake() const;

    /**
     * Account every component up to @p final (exclusive) in bulk —
     * the legacy loop keeps no-op-ticking finished components until
     * the pass's global end.
     */
    void catchupAll(Tick final);

    // WakeSink — called by owned components from inside step().
    void onChannelEnqueue(unsigned ch) override;
    void onChannelServe(unsigned ch) override;
    void onEject(unsigned node, bool to_mem) override;
    void onInject(unsigned node, bool from_mem) override;

    /**
     * Component-ticks bulk-replayed by skipTicks() since the last
     * call, then reset. The fabric counts as a single component that
     * skips only while every router of its slice is empty (the
     * routers it leaves out while awake are not counted). The driving
     * loop turns this into one aggregate TraceEventType::EngineSkip
     * event per executed tick — the skipped window's trace-visible
     * state, synthesized in bulk instead of per-cycle events.
     */
    uint64_t
    takeSkippedTicks()
    {
        const uint64_t fabric = fabricSkipped_;
        return takeStepReport().componentSkips + fabric;
    }

    /**
     * The report of everything since the last take (a step, or a
     * catchupAll), then reset; the fabric's replayed ticks are
     * dropped.
     */
    StepReport
    takeStepReport()
    {
        const StepReport report{skipped_, fabricTicked_, peInjected_};
        skipped_ = 0;
        fabricSkipped_ = 0;
        fabricTicked_ = false;
        peInjected_ = false;
        return report;
    }

  private:
    Slice s_;
    /** Tick-all mode: every component re-wakes at t + 1. */
    const bool tickAll_;

    // Per owned component: next interesting tick / first
    // not-yet-accounted tick. accounted <= wakeAt always.
    std::vector<Tick> pngWake_, pngAcct_;
    std::vector<Tick> chWake_, chAcct_;
    std::vector<Tick> peWake_, peAcct_;
    // The fabric accounts its routers itself (NocFabric::tick); these
    // two only count the ticks the whole slice slept through.
    Tick fabricWake_;
    Tick fabricAcct_;

    /** Global channel index -> owned slot (-1 = not ours). */
    std::vector<int> chSlotOfChannel_;
    /** Mesh node -> owned channel slot (-1 = no channel there). */
    std::vector<int> chSlotOfNode_;
    /** Mesh node -> owned PE slot (-1 = not ours). */
    std::vector<int> peSlotOfNode_;

    /** Tick currently being executed (valid inside step()). */
    Tick cur_ = 0;

    /** Component-ticks skipped since the last take, fabric apart. */
    uint64_t skipped_ = 0;
    uint64_t fabricSkipped_ = 0;
    /** StepReport flags since the last take. */
    bool fabricTicked_ = false;
    bool peInjected_ = false;
};

} // namespace neurocube

#endif // NEUROCUBE_CORE_ENGINE_HH
