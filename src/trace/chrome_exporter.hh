/**
 * @file
 * Chrome-trace / Perfetto JSON exporter.
 *
 * Writes the Trace Event Format understood by chrome://tracing and
 * https://ui.perfetto.dev: one "process" per component instance
 * (router3, pe5, vault2, ...) named through metadata events, so each
 * component gets its own track group.
 *
 * Event mapping:
 *  - MAC bursts and PNG FSM phases become duration ("X") slices;
 *  - rare events (cache overflows, row activations, search stalls)
 *    become instants ("i");
 *  - high-frequency events (flit movement, queue depths, DRAM words)
 *    are aggregated into counter ("C") tracks sampled once per
 *    window, keeping the JSON loadable even for long runs. One tick
 *    is exported as one microsecond of trace time.
 */

#ifndef NEUROCUBE_TRACE_CHROME_EXPORTER_HH
#define NEUROCUBE_TRACE_CHROME_EXPORTER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/phase_detector.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** Streams recorded events as Chrome trace JSON. */
class ChromeTraceExporter : public TraceSink
{
  public:
    /**
     * @param os destination stream (kept open until finish())
     * @param topology machine shape (track pre-registration)
     * @param windowTicks counter-track sampling period
     */
    ChromeTraceExporter(std::ostream &os,
                        const TraceTopology &topology,
                        Tick windowTicks);

    void consume(const TraceEvent *events, size_t count) override;
    void finish() override;

    /**
     * Write detected run phases as a top-level "phases" annotation
     * track: one named slice per segment. Call after the run's
     * events are consumed and before finish() (the TraceSession
     * destructor does this with the segments the time-series
     * exporter found).
     */
    void emitPhases(const std::vector<PhaseSegment> &segments);

    /** Synthetic pid of a component instance's track. */
    static uint32_t trackPid(TraceComponent component,
                             uint16_t instance);

    /** Pid of the top-level phase annotation track. */
    static constexpr uint32_t phasesPid = 5000;

    /** Pid of the serving request-span track (one slice per served
     *  request, from arrival to completion). */
    static constexpr uint32_t requestsPid = 5001;

  private:
    /** How a counter series combines events within one window. */
    enum class AggMode
    {
        /** Sampled level: export the last value seen. */
        Last,
        /** Event count/volume: export the sum. */
        Sum,
        /** Export the mean of the recorded values. */
        Mean,
    };

    /** One counter series between window flushes. */
    struct CounterAgg
    {
        AggMode mode = AggMode::Last;
        double value = 0.0;
        uint64_t samples = 0;
        bool dirty = false;
    };

    void handle(const TraceEvent &event);
    void bumpCounter(uint32_t pid, const std::string &name,
                     AggMode mode, double value);
    /** Emit dirty counters for the window starting at windowStart_. */
    void flushWindow();
    /** Advance the window so it contains @p tick. */
    void advanceWindow(Tick tick);

    void emitPrelude();
    void emitMeta(uint32_t pid, const std::string &name);
    void emitComma();
    void emitCounter(uint32_t pid, const std::string &name, Tick ts,
                     double value);
    void emitInstant(uint32_t pid, const char *name, Tick ts,
                     uint64_t value);
    void emitSlice(uint32_t pid, const char *name, Tick ts, Tick dur,
                   const std::string &args);

    std::ostream &os_;
    TraceTopology topology_;
    Tick window_;
    Tick windowStart_ = 0;
    Tick lastTick_ = 0;
    bool firstEvent_ = true;
    /** Energy priced into the current window, pJ. */
    double windowPj_ = 0.0;
    /** True once any event carried energy (enables the power.W
     *  track, which then reports 0 in quiet windows). */
    bool sawEnergy_ = false;

    std::map<std::pair<uint32_t, std::string>, CounterAgg> counters_;

    /** Open PNG FSM phase slice per vault instance. */
    struct OpenPhase
    {
        bool open = false;
        PngFsmPhase phase = PngFsmPhase::Idle;
        Tick since = 0;
        uint64_t plane = 0;
    };
    std::vector<OpenPhase> pngPhase_;
    /** Mesh node -> vault ordinal (kNoVault = node hosts none). PNG
     *  events carry the hosting node as their instance. */
    static constexpr uint16_t kNoVault = 0xffff;
    std::vector<uint16_t> vaultOf_;
};

} // namespace neurocube

#endif // NEUROCUBE_TRACE_CHROME_EXPORTER_HH
