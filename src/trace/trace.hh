/**
 * @file
 * Trace event bus and the machine probe: the ring-buffer recorder,
 * the sink interface exporters implement, the session object the
 * Neurocube top level owns, the Probe each component holds, and the
 * three publishing macros (NC_TRACE, NC_TRACE_TICK, NC_COUNT).
 *
 * Publishing is a macro so that a build with -DNEUROCUBE_TRACE=OFF
 * (NEUROCUBE_TRACE_ENABLED == 0) compiles every instrumentation site
 * to nothing — zero code, zero branches. When compiled in, each site
 * costs one load of the probe member it uses and a predictable branch
 * while that half of the probe is null, and one ring-buffer store or
 * one counter increment while it is set.
 *
 * The recorder is a ring drained inline: the simulation loop pushes,
 * and drain() hands contiguous batches to the registered sinks when
 * the ring fills and at finish(), so no recorded event is ever
 * dropped. Outside a fanned-out pass only the simulation thread
 * touches it. While SimEngine::ThreadedLanes steps a pass's node
 * groups on several threads (beginFanOut), each thread stages its
 * events in its own bucket's ring, keyed by the tick and the slot
 * (TraceSlot) that published them, and the merge delivers them to
 * the ring in key order: exactly the stream one scheduler over the
 * whole machine records, whatever the thread timing.
 */

#ifndef NEUROCUBE_TRACE_TRACE_HH
#define NEUROCUBE_TRACE_TRACE_HH

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cache_line.hh"
#include "common/types.hh"
#include "common/wake.hh"
#include "trace/events.hh"
#include "trace/metrics.hh"
#include "trace/phase_detector.hh"
#include "trace/trace_config.hh"

#ifndef NEUROCUBE_TRACE_ENABLED
#define NEUROCUBE_TRACE_ENABLED 1
#endif

namespace neurocube
{

class ChromeTraceExporter;
class TimeSeriesCsvExporter;

/** Consumer of recorded event batches (exporters derive from this). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Consume a batch of events in recording order. Called from
     * TraceRecorder::drain with a contiguous slice of the ring.
     *
     * @param events first event of the batch
     * @param count number of events
     */
    virtual void consume(const TraceEvent *events, size_t count) = 0;

    /** Flush any buffered output; the trace is complete. */
    virtual void finish() {}
};

/**
 * Where in an executed tick an event is published: the pass loop's
 * slots in the order PassScheduler::step and NocFabric::tick visit
 * them. Slots of one kind are numbered by their component: a PNG or a
 * channel by channel, a router switch, an ejection or a PE by node, a
 * link by link index. TickEnd holds the per-tick marks a fanned-out
 * scheduler stages for the Sim track (TraceRecorder::mark).
 */
enum class TraceSlot : uint8_t
{
    Png = 0,
    Channel,
    Switch,
    Link,
    Eject,
    Pe,
    TickEnd,
};

/** An event a fanned-out bucket staged, with its slot. */
struct StagedEvent
{
    TraceEvent event;
    /** TraceSlot << 24 | slot number; (event.tick, slot) orders. */
    uint32_t slot = 0;
};

/**
 * Receives the per-tick marks of a fanned-out pass. Once every
 * component event of tick t is delivered, the merge hands over the
 * marks all buckets staged at t (in no particular order), so the
 * receiver can record the machine-level Sim events of that tick
 * (TraceRecorder::push) before any event of a later tick.
 */
class TraceMarkSink
{
  public:
    virtual ~TraceMarkSink() = default;

    /** The marks of tick @p tick; each event's type says its kind. */
    virtual void tickMarked(Tick tick, const TraceEvent *marks,
                            size_t count) = 0;
};

class TraceRecorder;

/**
 * One fan-out bucket's staging ring: the bucket's thread appends, and
 * the merge, under the recorder's lock, takes events from the front.
 */
class alignas(cacheLineBytes) TraceStage
{
  public:
    explicit TraceStage(size_t capacity) : ring_(capacity) {}

  private:
    friend class TraceRecorder;

    /** Append one event (the bucket's thread). */
    inline void push(TraceRecorder &owner, const TraceEvent &event,
                     uint32_t slot);

    std::vector<StagedEvent> ring_;
    /** Events staged so far (written by the bucket's thread). */
    std::atomic<uint64_t> head_{0};
    /** Events merged so far (written by the merge). */
    std::atomic<uint64_t> tail_{0};
    /**
     * The bucket's current tick: it stages nothing earlier from now
     * on. tickNever once the bucket finished.
     */
    std::atomic<Tick> published_{0};

    // The bucket's thread's own copies.
    /** tail_ as last read (the ring is full only if it looks full). */
    uint64_t tailSeen_ = 0;
    /** Tick, slot and sampling window of the events being staged. */
    Tick now_ = 0;
    uint32_t slot_ = 0;
    bool sampleOpen_ = true;
};

/** Ring buffer delivering events to sinks, drained inline. */
class TraceRecorder
{
  public:
    /**
     * @param capacity ring capacity in events, rounded up to a
     *        power of two (minimum 64)
     */
    explicit TraceRecorder(size_t capacity = size_t(1) << 16);

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Register a sink; not owned, must outlive the recorder. */
    void addSink(TraceSink *sink);

    /** Restrict recording to component classes with a set bit. */
    void setComponentMask(uint32_t mask) { componentMask_ = mask; }

    /**
     * Window sampling (TraceConfig::samplePeriod): only windows with
     * (tick / windowTicks) % period == 0 record events, except for
     * TraceComponent::Sim, which always records so serving spans,
     * lane completions and engine-skip aggregates stay complete.
     * period <= 1 disables sampling.
     *
     * @param windowTicks sampling window length in ticks (>= 1)
     * @param period record 1-in-`period` windows
     */
    void
    setSampling(Tick windowTicks, uint64_t period)
    {
        sampleWindow_ = windowTicks > 0 ? windowTicks : 1;
        samplePeriod_ = period > 0 ? period : 1;
        sampleOpen_ = windowSampled(now_);
    }

    /** Configured sampling period (1 = every window recorded). */
    uint64_t samplePeriod() const { return samplePeriod_; }

    /** True when the window holding `tick` records full fidelity. */
    bool
    windowSampled(Tick tick) const
    {
        return samplePeriod_ <= 1
               || (tick / sampleWindow_) % samplePeriod_ == 0;
    }

    /**
     * Advance the timestamp applied to subsequent events (of the
     * calling thread's bucket while a pass is fanned out).
     */
    void
    setNow(Tick now)
    {
        if (fanOut_) {
            if (TraceStage *stage = stage_) {
                stage->now_ = now;
                stage->sampleOpen_ = windowSampled(now);
                stage->published_.store(now, std::memory_order_release);
                return;
            }
        }
        now_ = now;
        if (samplePeriod_ > 1)
            sampleOpen_ = windowSampled(now);
    }

    /** Timestamp currently applied to recorded events. */
    Tick now() const { return now_; }

    /** Record one event stamped with the current tick. */
    void
    record(TraceComponent component, uint16_t instance,
           TraceEventType type, uint32_t arg = 0, uint64_t value = 0)
    {
        if (!(componentMask_ & (1u << unsigned(component))))
            return;
        TraceStage *stage = fanOut_ ? stage_ : nullptr;
        if (!(stage ? stage->sampleOpen_ : sampleOpen_)
            && component != TraceComponent::Sim)
            return;
        TraceEvent event;
        event.tick = stage ? stage->now_ : now_;
        event.component = component;
        event.type = type;
        event.instance = instance;
        event.arg = arg;
        event.value = value;
        if (stage)
            stage->push(*this, event, stage->slot_);
        else
            push(event);
    }

    /**
     * Append a fully formed event (tests, replay tools, and the
     * TraceMarkSink of a fanned-out pass).
     */
    void push(const TraceEvent &event);

    /** True when events of @p component pass the component mask. */
    bool
    accepts(TraceComponent component) const
    {
        return componentMask_ & (1u << unsigned(component));
    }

    /**
     * Fan the next pass out over @p buckets threads: until
     * endFanOut(), every thread that called stageThread() stages its
     * events in its bucket's ring, and the merge delivers them in
     * (tick, slot) order, handing each tick's marks to @p marks.
     * @p start is the pass's first tick. Called by the thread that
     * owns the recorder, before the bucket threads start.
     */
    void beginFanOut(unsigned buckets, Tick start,
                     TraceMarkSink *marks);

    /** Stage the calling thread's events in bucket @p bucket. */
    void
    stageThread(unsigned bucket)
    {
        stage_ = stages_[bucket].get();
    }

    /** The calling thread's bucket finished: stop staging. */
    void
    finishStage()
    {
        stage_->published_.store(tickNever, std::memory_order_release);
        stage_ = nullptr;
    }

    /**
     * Deliver what the buckets staged and end the fan-out. Called by
     * the owning thread once every bucket thread has finished.
     */
    void endFanOut();

    /** Name the slot the calling thread's bucket publishes from. */
    void
    markSlot(TraceSlot slot, size_t number)
    {
        if (fanOut_) {
            if (TraceStage *stage = stage_)
                stage->slot_ = uint32_t(slot) << 24 | uint32_t(number);
        }
    }

    /**
     * Stage one mark of the calling thread's bucket for the
     * TraceMarkSink, at the end of its current tick. Marks bypass
     * the component mask and sampling: they are no events.
     */
    void
    mark(TraceEventType type, uint16_t instance, uint32_t arg,
         uint64_t value)
    {
        TraceEvent event;
        event.tick = stage_->now_;
        event.type = type;
        event.instance = instance;
        event.arg = arg;
        event.value = value;
        stage_->push(*this, event, uint32_t(TraceSlot::TickEnd) << 24);
    }

    /** Deliver all pending events to the sinks. */
    void drain();

    /** Drain and notify every sink that the trace is complete. */
    void finish();

    /** Events accepted so far (excluding mask and sampling rejects). */
    uint64_t recorded() const { return recorded_; }

    /** Ring capacity in events (power of two). */
    size_t capacity() const { return ring_.size(); }

  private:
    friend class TraceStage;

    /**
     * Make room in a bucket's full ring (its own thread): merge, and
     * wait for slower buckets, or grow the ring when the bucket is
     * the slowest and only its current tick's events are left.
     */
    void makeRoom(TraceStage &stage);
    /**
     * Deliver every staged event below the slowest bucket's current
     * tick, in key order. @pre mergeLock_ held
     */
    void mergeStaged();
    /** Hand the collected marks of markTick_ to the mark sink. */
    void flushMarks();

    /** The calling thread's bucket while a pass is fanned out. */
    static inline thread_local TraceStage *stage_ = nullptr;

    /** Set between beginFanOut() and endFanOut(). */
    bool fanOut_ = false;
    /** Staging rings, kept for reuse; the first activeStages_ live. */
    std::vector<std::unique_ptr<TraceStage>> stages_;
    unsigned activeStages_ = 0;
    /** Serialises merges (and with them the ring and the sinks). */
    std::mutex mergeLock_;
    TraceMarkSink *markSink_ = nullptr;
    /** Marks of the tick markTick_ that the sink has not seen yet. */
    std::vector<TraceEvent> marks_;
    Tick markTick_ = 0;

    std::vector<TraceEvent> ring_;
    size_t mask_;
    /** Total events pushed. */
    uint64_t head_ = 0;
    /** Total events delivered. */
    uint64_t tail_ = 0;

    Tick now_ = 0;
    uint32_t componentMask_ = ~uint32_t(0);
    uint64_t recorded_ = 0;

    /** Window sampling (setSampling); open == current window records. */
    Tick sampleWindow_ = 1024;
    uint64_t samplePeriod_ = 1;
    bool sampleOpen_ = true;

    std::vector<TraceSink *> sinks_;
};

void
TraceStage::push(TraceRecorder &owner, const TraceEvent &event,
                 uint32_t slot)
{
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tailSeen_ == ring_.size()) {
        tailSeen_ = tail_.load(std::memory_order_acquire);
        if (head - tailSeen_ == ring_.size()) {
            owner.makeRoom(*this);
            tailSeen_ = tail_.load(std::memory_order_acquire);
        }
    }
    ring_[head & (ring_.size() - 1)] = {event, slot};
    head_.store(head + 1, std::memory_order_release);
}

/**
 * One machine's instrumentation, handed to each component when it is
 * built and held by value: the machine's event recorder (null while
 * no sink is configured) and its counter registry (null while tracing
 * is off). A default Probe publishes nothing. Two machines never
 * share a probe, so their events and counts never mix.
 */
struct Probe
{
    TraceRecorder *recorder = nullptr;
    MetricsRegistry *registry = nullptr;
};

/** Shape of the machine being traced (exporter track layout). */
struct TraceTopology
{
    /** Mesh routers (== nodes). */
    unsigned numRouters = 16;
    /** Processing elements. */
    unsigned numPes = 16;
    /** Vaults / memory channels (== PNGs). */
    unsigned numVaults = 16;
    /**
     * Node -> batch lane assignment (empty = unbatched). When set,
     * exporters prefix per-node track names with "laneN." so each
     * vault group reads as its own machine.
     */
    std::vector<uint16_t> laneOf;
    /**
     * Vault ordinal -> hosting mesh node (empty = identity). PNG
     * trace events carry the hosting node as their instance id, so
     * exporters need this to fold them back onto vault tracks when
     * channels are scarcer than nodes (DDR3/HBM placements).
     */
    std::vector<uint16_t> vaultNode;
};

/**
 * One tracing session: the counter registry, plus the recorder and
 * the exporters selected by a TraceConfig. Owned by the Neurocube top
 * level when config.trace.enabled is set, and handed to its
 * components as a Probe; any number of sessions can exist at once.
 *
 * The registry always exists and is sized from the topology (the
 * NocFabric adds its links). The recorder and its ring exist only
 * when the config names at least one sink, so a counters-only session
 * (no output paths) leaves every NC_TRACE site at a null check.
 *
 * At destruction, when both the Chrome JSON and the timeseries CSV
 * exports are configured, the phases the CSV exporter segmented are
 * written into the Chrome trace as a top-level "phases" annotation
 * track.
 */
class TraceSession
{
  public:
    /**
     * @param config output selection and knobs
     * @param topology machine shape for exporter track layout
     */
    TraceSession(const TraceConfig &config,
                 const TraceTopology &topology);

    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** The probe the machine's components publish through. */
    Probe probe() { return {recorder_.get(), &registry_}; }

    /**
     * The phases the time-series CSV exporter has segmented so far,
     * the still-open window included; empty without a CSV export.
     * Delivers the recorder's pending events first. Leaves every
     * export byte-identical.
     */
    std::vector<PhaseSegment> phases();

  private:
    MetricsRegistry registry_;
    /** Event recorder, or nullptr when no sink is configured. */
    std::unique_ptr<TraceRecorder> recorder_;
    std::vector<std::unique_ptr<TraceSink>> sinks_;
    /** File streams backing the exporters (destroyed after sinks). */
    std::vector<std::unique_ptr<std::ofstream>> streams_;

    /** Non-owning views of the exporters, for the phase feedback. */
    ChromeTraceExporter *chrome_ = nullptr;
    TimeSeriesCsvExporter *csv_ = nullptr;
};

} // namespace neurocube

/**
 * Call `target->member(...)` when @p target is set. With
 * NEUROCUBE_TRACE=OFF the `if constexpr` discards the call: it is
 * still type-checked, so variables used only by a site stay "used",
 * but it is never evaluated and no code is generated for it.
 */
#define NC_PROBE_CALL_(target, ...) \
    do { \
        if constexpr (NEUROCUBE_TRACE_ENABLED) { \
            if (auto *nc_probe_target_ = (target)) \
                nc_probe_target_->__VA_ARGS__; \
        } \
    } while (0)

/**
 * Publish one trace event to a probe's recorder:
 * NC_TRACE(probe, component, instance, type[, arg[, value]]).
 */
#define NC_TRACE(probe, component, instance, type, ...) \
    NC_PROBE_CALL_((probe).recorder, \
                   record((component), uint16_t(instance), \
                          (type) __VA_OPT__(, ) __VA_ARGS__))

/** Stamp the tick applied to a probe's subsequent NC_TRACE events. */
#define NC_TRACE_TICK(probe, now) \
    NC_PROBE_CALL_((probe).recorder, setNow(now))

/**
 * Name the slot (TraceSlot, number) the following NC_TRACE events of
 * an executed tick come from: NC_TRACE_SLOT(probe, slot, number).
 */
#define NC_TRACE_SLOT(probe, slot, number) \
    NC_PROBE_CALL_((probe).recorder, markSlot((slot), (number)))

/**
 * Count @p amount units of one counter at one instance in a probe's
 * registry: NC_COUNT(probe, counter, instance, amount), where counter
 * is an EnergyEventKind, a SpatialCounter, or Counter::stall(...).
 */
#define NC_COUNT(probe, counter, instance, amount) \
    NC_PROBE_CALL_((probe).registry, \
                   add((counter), unsigned(instance), \
                       uint64_t(amount)))

#endif // NEUROCUBE_TRACE_TRACE_HH
