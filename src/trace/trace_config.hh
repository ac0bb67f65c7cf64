/**
 * @file
 * Runtime configuration of the trace subsystem.
 *
 * Kept free of heavy includes so core/config.hh can embed it. The
 * compile-time switch is separate: building with -DNEUROCUBE_TRACE=OFF
 * removes every instrumentation site (the NC_TRACE and NC_COUNT
 * macros expand to nothing), in which case this struct is inert.
 */

#ifndef NEUROCUBE_TRACE_TRACE_CONFIG_HH
#define NEUROCUBE_TRACE_TRACE_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace neurocube
{

/** Enable/output knobs for one tracing session. */
struct TraceConfig
{
    /**
     * Master runtime switch. true creates the machine's counter
     * registry (stall attribution, activity energy and spatial
     * counters), which per-layer bottleneck, energy and spatial
     * results need; the event recorder is created only when an
     * output path below is set as well. false = neither.
     */
    bool enabled = false;

    /** Chrome/Perfetto JSON output path; empty = no JSON export. */
    std::string chromeJsonPath;

    /** Windowed time-series CSV output path; empty = no CSV export. */
    std::string timeseriesCsvPath;

    /**
     * Aggregation window, in reference ticks, for the CSV exporter
     * and for the counter tracks of the Chrome exporter.
     */
    Tick windowTicks = 1024;

    /**
     * Per-component-class enable bits (1 << TraceComponent). The
     * default traces everything; clear bits to cut trace volume.
     */
    uint32_t componentMask = ~uint32_t(0);

    /**
     * Window sampling: record full-fidelity component events only in
     * 1-in-N aggregation windows (window w is sampled when
     * w % samplePeriod == 0, with w = tick / windowTicks). 1 = record
     * every window. Sampling only thins the *event* stream — the
     * stall-attribution and energy counters always see every cycle,
     * so metricsJson/energyJson are identical at any sample rate.
     * TraceComponent::Sim events (lane completions, engine-skip
     * aggregates, serving request spans) are exempt so per-request
     * spans and run summaries stay complete in sampled traces; a
     * side effect is that duration-style slices of other components
     * (PngPhase, MacBusy) can lose an endpoint at window boundaries.
     */
    uint64_t samplePeriod = 1;
};

} // namespace neurocube

#endif // NEUROCUBE_TRACE_TRACE_CONFIG_HH
