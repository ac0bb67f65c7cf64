/**
 * @file
 * Trace event bus: the NC_TRACE publishing macro, the lock-free
 * ring-buffer recorder, the sink interface exporters implement, and
 * the session object the Neurocube top level owns.
 *
 * Publishing is a macro so that a build with -DNEUROCUBE_TRACE=OFF
 * (NEUROCUBE_TRACE_ENABLED == 0) compiles every instrumentation site
 * to nothing — zero code, zero branches. When compiled in, each site
 * costs one load of the active-recorder pointer and a predictable
 * branch while tracing is off, and one ring-buffer store while on.
 *
 * The recorder is a single-producer/single-consumer ring: the
 * simulation loop produces, drain() consumes and hands contiguous
 * batches to the registered sinks. By default draining happens inline
 * (same thread) when the ring fills and at finish(); with
 * startConsumerThread() a dedicated consumer drains continuously
 * instead — used for live streaming (TraceConfig::streamPath), where
 * a viewer should see events while the run is in flight. The index
 * protocol is the standard acquire/release SPSC one either way, and
 * no event is ever dropped inside the recording window: with a
 * running consumer a full ring makes the producer wait for space
 * rather than drain inline (sinks stay single-threaded).
 */

#ifndef NEUROCUBE_TRACE_TRACE_HH
#define NEUROCUBE_TRACE_TRACE_HH

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "trace/events.hh"
#include "trace/trace_config.hh"

#ifndef NEUROCUBE_TRACE_ENABLED
#define NEUROCUBE_TRACE_ENABLED 1
#endif

namespace neurocube
{

class ChromeTraceExporter;
class EnergyRegistry;
class MetricsRegistry;
class SpatialRegistry;
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

/** Lock-free SPSC ring buffer delivering events to sinks. */
class TraceRecorder
{
  public:
    /**
     * @param capacity ring capacity in events, rounded up to a
     *        power of two (minimum 64)
     */
    explicit TraceRecorder(size_t capacity = size_t(1) << 16);

    ~TraceRecorder();

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Register a sink; not owned, must outlive the recorder. */
    void addSink(TraceSink *sink);

    /** Restrict recording to ticks in [start, end). */
    void setWindow(Tick start, Tick end);

    /** Restrict recording to component classes with a set bit. */
    void setComponentMask(uint32_t mask) { componentMask_ = mask; }

    /**
     * Window sampling (TraceConfig::samplePeriod): only windows with
     * (tick / windowTicks) % period == 0 record events, except for
     * component classes with a set bit in exemptMask which always
     * record. period <= 1 disables sampling.
     *
     * @param windowTicks sampling window length in ticks (>= 1)
     * @param period record 1-in-`period` windows
     * @param exemptMask component classes that bypass sampling
     *        (default: TraceComponent::Sim, so serving spans, lane
     *        completions, and engine-skip aggregates stay complete)
     */
    void
    setSampling(Tick windowTicks, uint64_t period,
                uint32_t exemptMask =
                    1u << unsigned(TraceComponent::Sim))
    {
        sampleWindow_ = windowTicks > 0 ? windowTicks : 1;
        samplePeriod_ = period > 0 ? period : 1;
        sampleExempt_ = exemptMask;
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
        if (now_ < startTick_ || now_ >= endTick_)
            return;
        if (!(componentMask_ & (1u << unsigned(component))))
            return;
        if (!sampleOpen_
            && !(sampleExempt_ & (1u << unsigned(component))))
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

    /**
     * Deliver all pending events to the sinks. Producer-side calls
     * are only legal while no consumer thread runs; the consumer
     * thread calls this itself.
     */
    void drain();

    /**
     * Drain and notify every sink that the trace is complete. Stops
     * the consumer thread first when one is running.
     */
    void finish();

    /**
     * Start the dedicated consumer thread. From now on sinks run on
     * that thread and a full ring makes the producer wait instead of
     * draining inline. No-op when already running.
     */
    void startConsumerThread();

    /**
     * Stop and join the consumer thread, then drain whatever is
     * left inline. No-op when not running.
     */
    void stopConsumerThread();

    /** True while the dedicated consumer thread runs. */
    bool
    consumerRunning() const
    {
        return consumerRun_.load(std::memory_order_acquire);
    }

    /** Events accepted so far (excluding window/mask rejects). */
    uint64_t recorded() const { return recorded_; }

    /** Ring capacity in events (power of two). */
    size_t capacity() const { return ring_.size(); }

    /** Events currently buffered and not yet delivered. */
    size_t
    pending() const
    {
        return size_t(head_.load(std::memory_order_relaxed)
                      - tail_.load(std::memory_order_relaxed));
    }

  private:
    std::vector<TraceEvent> ring_;
    size_t mask_;
    /** Producer index (total events pushed). */
    std::atomic<uint64_t> head_{0};
    /** Consumer index (total events delivered). */
    std::atomic<uint64_t> tail_{0};

    Tick now_ = 0;
    Tick startTick_ = 0;
    Tick endTick_ = ~Tick(0);
    uint32_t componentMask_ = ~uint32_t(0);
    uint64_t recorded_ = 0;

    /** Window sampling (setSampling); open == current window records. */
    Tick sampleWindow_ = 1024;
    uint64_t samplePeriod_ = 1;
    uint32_t sampleExempt_ = 1u << unsigned(TraceComponent::Sim);
    bool sampleOpen_ = true;

    std::vector<TraceSink *> sinks_;

    /** Dedicated consumer (live streaming); joinable while running. */
    std::thread consumer_;
    std::atomic<bool> consumerRun_{false};
};

namespace trace
{

namespace detail
{
/** Storage behind activeRecorder() (do not touch directly). */
extern TraceRecorder *g_activeRecorder;
} // namespace detail

/**
 * The process-wide active recorder NC_TRACE publishes to, or nullptr
 * while tracing is off. A single slot (rather than per-cube plumbing
 * through every constructor) keeps the instrumentation sites to one
 * expression; it is only installed/removed between runs, never while
 * components are ticking. The ring is single-producer, so the
 * threaded-lane engine demotes itself to the (single-threaded) Event
 * loop whenever a recorder is live — lane workers only ever read a
 * stable nullptr here. Inline so NC_TRACE sites reduce to one load +
 * branch.
 */
inline TraceRecorder *
activeRecorder()
{
    return detail::g_activeRecorder;
}

/** Install (or, with nullptr, remove) the active recorder. */
void setActiveRecorder(TraceRecorder *recorder);

} // namespace trace

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
 * One tracing session: the recorder plus the exporters selected by a
 * TraceConfig, activated on construction and finished/deactivated on
 * destruction. Owned by the Neurocube top level when config.trace
 * .enabled is set; only one session can be active at a time.
 *
 * Also owns the stall-attribution MetricsRegistry (when
 * config.metrics is set) and the activity EnergyRegistry (when
 * config.energy is set, in NEUROCUBE_TRACE=ON builds only) and
 * installs both as the process-wide active registries for
 * NC_METRIC_CYCLE / NC_ENERGY_EVENT. The event recorder is activated
 * only when at least one sink exists, so a counters-only session (no
 * output paths) costs nothing at NC_TRACE sites. When
 * config.streamPath is set, a consumer thread drains the ring into
 * the binary live stream continuously.
 *
 * At destruction, when both the Chrome JSON and the timeseries CSV
 * exports are configured, the finished CSV is re-read through
 * detectPhases() and the resulting segments are written into the
 * Chrome trace as a top-level "phases" annotation track.
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

    /** The session's recorder. */
    TraceRecorder &recorder() { return recorder_; }

    /** The session's metrics registry, or nullptr (metrics off). */
    MetricsRegistry *metrics() { return metrics_.get(); }

    /** The session's spatial registry, or nullptr (spatial off). */
    SpatialRegistry *spatial() { return spatial_.get(); }

    /** The session's energy registry, or nullptr (energy off, or
     *  tracing compiled out). */
    EnergyRegistry *energy() { return energy_.get(); }

  private:
    TraceRecorder recorder_;
    std::unique_ptr<MetricsRegistry> metrics_;
    std::unique_ptr<SpatialRegistry> spatial_;
    std::unique_ptr<EnergyRegistry> energy_;
    std::vector<std::unique_ptr<TraceSink>> sinks_;
    /** File streams backing the exporters (destroyed after sinks). */
    std::vector<std::unique_ptr<std::ofstream>> streams_;

    /** Non-owning views of the exporters, for the phase feedback. */
    ChromeTraceExporter *chrome_ = nullptr;
    TimeSeriesCsvExporter *csv_ = nullptr;
    /** Inputs the phase feedback needs after the run. */
    std::string csvPath_;
    Tick windowTicks_ = 1024;
    TraceTopology topology_;
};

} // namespace neurocube

#if NEUROCUBE_TRACE_ENABLED

/**
 * Publish one trace event: NC_TRACE(component, instance, type[, arg
 * [, value]]). Compiles to a null-check while tracing is inactive.
 */
#define NC_TRACE(component, instance, type, ...) \
    do { \
        if (::neurocube::TraceRecorder *nc_trace_r_ = \
                ::neurocube::trace::activeRecorder()) { \
            nc_trace_r_->record((component), \
                                uint16_t(instance), \
                                (type) __VA_OPT__(,) __VA_ARGS__); \
        } \
    } while (0)

/** Stamp the tick applied to subsequent NC_TRACE events. */
#define NC_TRACE_TICK(now) \
    do { \
        if (::neurocube::TraceRecorder *nc_trace_r_ = \
                ::neurocube::trace::activeRecorder()) { \
            nc_trace_r_->setNow(now); \
        } \
    } while (0)

#else

namespace neurocube::trace::detail
{
/** Marks macro arguments as used in NEUROCUBE_TRACE=OFF builds. */
template <typename... Args>
inline void
ignore(Args &&...)
{
}
} // namespace neurocube::trace::detail

// The arguments sit behind `if (false)`: never evaluated, no code
// generated, but variables referenced only by NC_TRACE stay "used".
#define NC_TRACE(component, instance, type, ...) \
    do { \
        if (false) { \
            ::neurocube::trace::detail::ignore( \
                (component), (instance), \
                (type)__VA_OPT__(, ) __VA_ARGS__); \
        } \
    } while (0)

#define NC_TRACE_TICK(now) \
    do { \
        if (false) { \
            ::neurocube::trace::detail::ignore(now); \
        } \
    } while (0)

#endif // NEUROCUBE_TRACE_ENABLED

#endif // NEUROCUBE_TRACE_TRACE_HH
