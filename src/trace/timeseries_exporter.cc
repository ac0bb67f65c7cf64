#include "trace/timeseries_exporter.hh"

#include <ostream>

#include "common/logging.hh"
#include "trace/energy.hh"

namespace neurocube
{

namespace
{

/** The avg_power_w column prices the event stream at 15 nm. */
const EnergyPrices tracePrices{};

} // namespace

TimeSeriesCsvExporter::TimeSeriesCsvExporter(
    std::ostream &os, const TraceTopology &topology, Tick windowTicks)
    : os_(os), topology_(topology),
      window_(windowTicks > 0 ? windowTicks : 1),
      vaultBits_(topology.numVaults, 0)
{
    os_ << "window_start,noc_flits_per_cycle,ejected_per_cycle,"
           "mean_eject_latency,pe_util_pct,png_stall_ticks,"
           "noc_blocked_ticks,dram_stall_ticks,dram_bytes_per_cycle,"
           "avg_power_w,serve_queue_depth,skipped_ticks";
    for (unsigned v = 0; v < topology_.numVaults; ++v)
        os_ << ",vault" << v << "_bytes";
    os_ << "\n";
}

void
TimeSeriesCsvExporter::resetAccumulators()
{
    windowPj_ = 0.0;
    linkFlits_ = 0;
    ejected_ = 0;
    ejectLatencySum_ = 0;
    macBusyTicks_ = 0;
    pngStallTicks_ = 0;
    nocBlockedTicks_ = 0;
    dramStallTicks_ = 0;
    skippedTicks_ = 0;
    vaultBits_.assign(topology_.numVaults, 0);
    sawEvent_ = false;
}

double
TimeSeriesCsvExporter::peUtilPct() const
{
    const double pe_ticks = double(window_) * double(topology_.numPes);
    return pe_ticks > 0.0 ? 100.0 * double(macBusyTicks_) / pe_ticks
                          : 0.0;
}

uint64_t
TimeSeriesCsvExporter::windowBits() const
{
    uint64_t total_bits = 0;
    for (uint64_t bits : vaultBits_)
        total_bits += bits;
    return total_bits;
}

PhaseKind
TimeSeriesCsvExporter::windowKind() const
{
    const double w = double(window_);
    // Stall ticks per instance-tick of the stalling component.
    auto fraction = [w](uint64_t ticks, unsigned instances) {
        return instances ? double(ticks) / (w * double(instances))
                         : 0.0;
    };
    return classifyWindow(
        peUtilPct(), fraction(nocBlockedTicks_, topology_.numRouters),
        fraction(pngStallTicks_, topology_.numVaults),
        fraction(dramStallTicks_, topology_.numVaults),
        double(linkFlits_) / w + double(windowBits()) / 8.0 / w);
}

void
TimeSeriesCsvExporter::flushWindow()
{
    if (!sawEvent_)
        return;

    const double w = double(window_);
    const double mean_latency =
        ejected_ ? double(ejectLatencySum_) / double(ejected_) : 0.0;

    os_ << windowStart_ << ',' << double(linkFlits_) / w << ','
        << double(ejected_) / w << ',' << mean_latency << ','
        << peUtilPct() << ',' << pngStallTicks_ << ','
        << nocBlockedTicks_ << ',' << dramStallTicks_ << ','
        << double(windowBits()) / 8.0 / w << ','
        << windowPj_ * 1e-12 * referenceClockHz / w << ','
        << serveQueueDepth_ << ',' << skippedTicks_;
    for (uint64_t bits : vaultBits_)
        os_ << ',' << bits / 8;
    os_ << "\n";

    appendPhaseWindow(phases_, windowStart_, window_, windowKind(),
                      windowPj_ * 1e-12);
    resetAccumulators();
}

std::vector<PhaseSegment>
TimeSeriesCsvExporter::phases() const
{
    std::vector<PhaseSegment> segments = phases_;
    if (sawEvent_) {
        appendPhaseWindow(segments, windowStart_, window_, windowKind(),
                          windowPj_ * 1e-12);
    }
    return segments;
}

void
TimeSeriesCsvExporter::advanceWindow(Tick tick)
{
    if (tick < windowStart_ + window_)
        return;
    flushWindow();
    windowStart_ = tick - (tick % window_);
}

void
TimeSeriesCsvExporter::handle(const TraceEvent &event)
{
    advanceWindow(event.tick);
    windowPj_ += tracePjOf(event, tracePrices);
    switch (event.type) {
      case TraceEventType::LinkFlit:
        ++linkFlits_;
        break;
      case TraceEventType::PacketEject:
        ++ejected_;
        ejectLatencySum_ += event.value;
        break;
      case TraceEventType::MacBusy:
        // Flushes within one PE never overlap (the next flush waits
        // macsPerPe ticks), so summing durations gives PE-busy ticks.
        macBusyTicks_ += event.value;
        break;
      case TraceEventType::PngInjectStall:
        ++pngStallTicks_;
        break;
      case TraceEventType::FlitBlocked:
        ++nocBlockedTicks_;
        break;
      case TraceEventType::DramStall:
        ++dramStallTicks_;
        break;
      case TraceEventType::DramWord:
        if (event.instance < vaultBits_.size())
            vaultBits_[event.instance] += event.value;
        break;
      case TraceEventType::ServeQueueDepth:
        serveQueueDepth_ = event.value;
        break;
      case TraceEventType::EngineSkip:
        skippedTicks_ += event.value;
        break;
      default:
        break;
    }
    sawEvent_ = true;
}

void
TimeSeriesCsvExporter::consume(const TraceEvent *events, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        handle(events[i]);
}

void
TimeSeriesCsvExporter::finish()
{
    flushWindow();
    os_.flush();
}

} // namespace neurocube
