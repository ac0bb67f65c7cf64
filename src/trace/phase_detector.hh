/**
 * @file
 * Windowed phase detection.
 *
 * Segments a run into execution phases, one aggregation window at a
 * time: compute-bound stretches (high PE utilization), inject-bound
 * stretches (PNG packets ready but the router memory port full),
 * DRAM-bound stretches (channels stalled on activation/bandwidth),
 * NoC-bound stretches (head-of-line blocking inside routers), and
 * quiescent gaps (windows without a single event). Adjacent windows
 * of the same kind merge into one segment, so a typical layer reads
 * as a handful of phases instead of thousands of windows. The
 * time-series exporter (trace/timeseries_exporter.hh) feeds this
 * with the windows it writes as CSV rows.
 */

#ifndef NEUROCUBE_TRACE_PHASE_DETECTOR_HH
#define NEUROCUBE_TRACE_PHASE_DETECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace neurocube
{

/** What dominated one stretch of the run. */
enum class PhaseKind : uint8_t
{
    /** No events at all (between layers, parked lanes). */
    Quiescent = 0,
    /** PE MAC arrays busy above the utilization threshold. */
    Compute,
    /** PNG injection stalls dominate. */
    InjectBound,
    /** DRAM service stalls dominate. */
    DramBound,
    /** Router head-of-line blocking dominates. */
    NocBound,
};

/** Short label of a phase kind ("compute", "dram-bound", ...). */
const char *phaseKindName(PhaseKind kind);

/** One detected phase covering [startTick, endTick). */
struct PhaseSegment
{
    Tick startTick = 0;
    Tick endTick = 0;
    PhaseKind kind = PhaseKind::Quiescent;
    /** Aggregation windows merged into this segment. */
    unsigned windows = 0;
    /** Energy the event stream priced into its windows, joules. */
    double joules = 0.0;
};

/**
 * Classify one window from its signals.
 *
 * @param peUtilPct PE MAC utilization, percent
 * @param nocFrac router blocked ticks per router-tick
 * @param injectFrac PNG inject-stall ticks per PNG-tick
 * @param dramFrac DRAM stall ticks per vault-tick
 * @param activity flits plus DRAM bytes per cycle (> 0: not idle)
 */
PhaseKind classifyWindow(double peUtilPct, double nocFrac,
                         double injectFrac, double dramFrac,
                         double activity);

/**
 * Append the window [start, start + window) to time-ordered
 * segments, merging it into the last one when that has the same kind
 * and ends at @p start. Windows skipped since the last segment
 * (nothing happened in them) are reinstated as quiescent first, so
 * the segments stay contiguous.
 */
void appendPhaseWindow(std::vector<PhaseSegment> &segments, Tick start,
                       Tick window, PhaseKind kind, double joules);

/**
 * Serialize a phase-energy rollup as a JSON document:
 * {"window_ticks": N, "segments": [{"kind", "start", "end",
 * "ticks", "windows", "joules", "avg_power_w"}, ...]}, where
 * avg_power_w is the segment's joules over its span at the reference
 * clock. Deterministic (fixed field order, jsonNumber numbers).
 */
std::string phaseEnergyJson(const std::vector<PhaseSegment> &segments,
                            Tick windowTicks);

} // namespace neurocube

#endif // NEUROCUBE_TRACE_PHASE_DETECTOR_HH
