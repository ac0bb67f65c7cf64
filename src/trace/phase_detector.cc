#include "trace/phase_detector.hh"

#include <sstream>

#include "common/json.hh"

namespace neurocube
{

namespace
{

/** PE utilization (%) at or above which a window is compute-bound. */
constexpr double computeUtilPct = 45.0;

/**
 * Per-instance stall fraction below which a stall signal is noise; a
 * window where every signal is below this (and PE utilization is
 * negligible) is quiescent.
 */
constexpr double stallFloor = 0.05;

/** Merge @p next into the last segment when they abut and agree. */
void
mergeOrPush(std::vector<PhaseSegment> &segments, const PhaseSegment &next)
{
    if (!segments.empty() && segments.back().kind == next.kind
        && segments.back().endTick == next.startTick) {
        PhaseSegment &last = segments.back();
        last.endTick = next.endTick;
        last.windows += next.windows;
        last.joules += next.joules;
        return;
    }
    segments.push_back(next);
}

} // namespace

const char *
phaseKindName(PhaseKind kind)
{
    switch (kind) {
      case PhaseKind::Quiescent:
        return "quiescent";
      case PhaseKind::Compute:
        return "compute";
      case PhaseKind::InjectBound:
        return "inject-bound";
      case PhaseKind::DramBound:
        return "dram-bound";
      case PhaseKind::NocBound:
        return "noc-bound";
    }
    return "?";
}

PhaseKind
classifyWindow(double peUtilPct, double nocFrac, double injectFrac,
               double dramFrac, double activity)
{
    if (peUtilPct >= computeUtilPct)
        return PhaseKind::Compute;

    // Pick the dominant stall signal; ties resolve in top-down
    // order (NoC blocking explains downstream injection stalls,
    // which in turn mask DRAM behaviour).
    double best = nocFrac;
    PhaseKind kind = PhaseKind::NocBound;
    if (injectFrac > best) {
        best = injectFrac;
        kind = PhaseKind::InjectBound;
    }
    if (dramFrac > best) {
        best = dramFrac;
        kind = PhaseKind::DramBound;
    }
    if (best >= stallFloor)
        return kind;

    // No stall signal above the noise floor: the machine is either
    // doing (light) compute or nothing at all.
    if (peUtilPct > 100.0 * stallFloor || activity > 0.0)
        return PhaseKind::Compute;
    return PhaseKind::Quiescent;
}

void
appendPhaseWindow(std::vector<PhaseSegment> &segments, Tick start,
                  Tick window, PhaseKind kind, double joules)
{
    if (!segments.empty() && segments.back().endTick < start) {
        const Tick gapStart = segments.back().endTick;
        mergeOrPush(segments,
                    {gapStart, start, PhaseKind::Quiescent,
                     unsigned((start - gapStart) / window), 0.0});
    }
    mergeOrPush(segments, {start, start + window, kind, 1, joules});
}

std::string
phaseEnergyJson(const std::vector<PhaseSegment> &segments,
                Tick windowTicks)
{
    std::ostringstream os;
    os << "{\"window_ticks\": " << windowTicks << ", \"segments\": [";
    for (size_t i = 0; i < segments.size(); ++i) {
        const PhaseSegment &s = segments[i];
        const Tick ticks = s.endTick - s.startTick;
        const double avgPowerW =
            ticks > 0 ? s.joules / (double(ticks) / referenceClockHz)
                      : 0.0;
        os << (i ? ", " : "") << "{\"kind\": \"" << phaseKindName(s.kind)
           << "\", \"start\": " << s.startTick << ", \"end\": "
           << s.endTick << ", \"ticks\": " << ticks
           << ", \"windows\": " << s.windows
           << ", \"joules\": " << jsonNumber(s.joules)
           << ", \"avg_power_w\": " << jsonNumber(avgPowerW) << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace neurocube
