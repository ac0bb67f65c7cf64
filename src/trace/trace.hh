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
 * dropped. Only the simulation thread touches it, which is why
 * ThreadedLanes demotes to Event while a recorder is live.
 */

#ifndef NEUROCUBE_TRACE_TRACE_HH
#define NEUROCUBE_TRACE_TRACE_HH

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/types.hh"
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

    /** Advance the timestamp applied to subsequent events. */
    void
    setNow(Tick now)
    {
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
        if (!sampleOpen_ && component != TraceComponent::Sim)
            return;
        TraceEvent event;
        event.tick = now_;
        event.component = component;
        event.type = type;
        event.instance = instance;
        event.arg = arg;
        event.value = value;
        push(event);
    }

    /** Append a fully formed event (tests, replay tools). */
    void push(const TraceEvent &event);

    /** Deliver all pending events to the sinks. */
    void drain();

    /** Drain and notify every sink that the trace is complete. */
    void finish();

    /** Events accepted so far (excluding mask and sampling rejects). */
    uint64_t recorded() const { return recorded_; }

    /** Ring capacity in events (power of two). */
    size_t capacity() const { return ring_.size(); }

  private:
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
 * Count @p amount units of one counter at one instance in a probe's
 * registry: NC_COUNT(probe, counter, instance, amount), where counter
 * is an EnergyEventKind, a SpatialCounter, or Counter::stall(...).
 */
#define NC_COUNT(probe, counter, instance, amount) \
    NC_PROBE_CALL_((probe).registry, \
                   add((counter), unsigned(instance), \
                       uint64_t(amount)))

#endif // NEUROCUBE_TRACE_TRACE_HH
