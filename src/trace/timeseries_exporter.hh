/**
 * @file
 * Windowed time-series CSV exporter.
 *
 * Aggregates the event stream into fixed windows of windowTicks
 * reference cycles and writes one row per window with the headline
 * utilization metrics of the machine: NoC flits per cycle, packets
 * ejected per cycle and their mean latency, MAC-array utilization,
 * PNG inject-stall ticks, router head-of-line blocked ticks, DRAM
 * bytes per cycle, and per-vault byte counts. Ready for plotting with
 * any spreadsheet/pandas/gnuplot. Each window it writes also goes
 * through the phase detector (trace/phase_detector.hh), so the
 * exporter segments the run into bottleneck phases as it goes.
 */

#ifndef NEUROCUBE_TRACE_TIMESERIES_EXPORTER_HH
#define NEUROCUBE_TRACE_TIMESERIES_EXPORTER_HH

#include <cstdint>
#include <vector>

#include "trace/phase_detector.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** Streams recorded events as a windowed utilization CSV. */
class TimeSeriesCsvExporter : public TraceSink
{
  public:
    /**
     * @param os destination stream (kept open until finish())
     * @param topology machine shape (per-vault columns and the PE,
     *        router and vault counts that scale the phase signals)
     * @param windowTicks aggregation window in reference ticks
     */
    TimeSeriesCsvExporter(std::ostream &os,
                          const TraceTopology &topology,
                          Tick windowTicks);

    void consume(const TraceEvent *events, size_t count) override;
    void finish() override;

    /**
     * The run's phases so far: the written windows, segmented, plus
     * the window still open. The open window is classified but not
     * flushed, so calling this mid-run leaves the CSV unchanged.
     */
    std::vector<PhaseSegment> phases() const;

  private:
    void handle(const TraceEvent &event);
    /** PE MAC utilization of the current window, percent. */
    double peUtilPct() const;
    /** DRAM bits moved in the current window, all vaults. */
    uint64_t windowBits() const;
    /** Phase kind of the current window. */
    PhaseKind windowKind() const;
    /** Write the current window's row (if it saw any event). */
    void flushWindow();
    void advanceWindow(Tick tick);
    void resetAccumulators();

    std::ostream &os_;
    TraceTopology topology_;
    Tick window_;
    Tick windowStart_ = 0;
    bool sawEvent_ = false;

    // Per-window accumulators.
    double windowPj_ = 0.0;
    uint64_t linkFlits_ = 0;
    uint64_t ejected_ = 0;
    uint64_t ejectLatencySum_ = 0;
    uint64_t macBusyTicks_ = 0;
    uint64_t pngStallTicks_ = 0;
    uint64_t nocBlockedTicks_ = 0;
    uint64_t dramStallTicks_ = 0;
    std::vector<uint64_t> vaultBits_;
    /** Request-queue depth at window end (level, carried across
     *  windows rather than reset — the queue persists). */
    uint64_t serveQueueDepth_ = 0;
    /** Component-ticks the wake-list engine bulk-skipped. */
    uint64_t skippedTicks_ = 0;

    /** Phases of the windows written so far. */
    std::vector<PhaseSegment> phases_;
};

} // namespace neurocube

#endif // NEUROCUBE_TRACE_TIMESERIES_EXPORTER_HH
