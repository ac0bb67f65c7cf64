#include "trace/chrome_exporter.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "trace/energy.hh"

namespace neurocube
{

namespace
{

/** Pid bases keeping component classes grouped in the Perfetto UI. */
constexpr uint32_t pidBase[] = {
    1,    // Sim
    1000, // Router
    2000, // Pe
    3000, // Png
    4000, // Vault
};

/** The power.W track prices the event stream at 15 nm. */
const EnergyPrices tracePrices{};

} // namespace

uint32_t
ChromeTraceExporter::trackPid(TraceComponent component,
                              uint16_t instance)
{
    return pidBase[unsigned(component)] + instance;
}

ChromeTraceExporter::ChromeTraceExporter(std::ostream &os,
                                         const TraceTopology &topology,
                                         Tick windowTicks)
    : os_(os), topology_(topology),
      window_(windowTicks > 0 ? windowTicks : 1),
      pngPhase_(topology.numVaults)
{
    // PNG events are keyed by hosting node; fold them back onto the
    // vault-ordinal tracks (identity placement when unspecified).
    vaultOf_.assign(std::max<size_t>(topology_.numRouters,
                                     topology_.numVaults),
                    kNoVault);
    for (unsigned v = 0; v < topology_.numVaults; ++v) {
        unsigned node = v < topology_.vaultNode.size()
                            ? topology_.vaultNode[v]
                            : v;
        if (node >= vaultOf_.size())
            vaultOf_.resize(node + 1, kNoVault);
        vaultOf_[node] = uint16_t(v);
    }
    emitPrelude();
}

void
ChromeTraceExporter::emitPrelude()
{
    os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    // Batched runs prefix per-node tracks with their lane so each
    // vault group reads as its own machine in the viewer.
    auto lane = [&](unsigned node) {
        return node < topology_.laneOf.size()
                   ? "lane" + std::to_string(topology_.laneOf[node])
                         + "."
                   : std::string();
    };
    emitMeta(trackPid(TraceComponent::Sim, 0), "sim");
    emitMeta(phasesPid, "phases");
    emitMeta(requestsPid, "requests");
    for (unsigned i = 0; i < topology_.numRouters; ++i) {
        emitMeta(trackPid(TraceComponent::Router, uint16_t(i)),
                 lane(i) + "router" + std::to_string(i));
    }
    for (unsigned i = 0; i < topology_.numPes; ++i) {
        emitMeta(trackPid(TraceComponent::Pe, uint16_t(i)),
                 lane(i) + "pe" + std::to_string(i));
    }
    for (unsigned i = 0; i < topology_.numVaults; ++i) {
        unsigned node = i < topology_.vaultNode.size()
                            ? topology_.vaultNode[i]
                            : i;
        emitMeta(trackPid(TraceComponent::Png, uint16_t(i)),
                 lane(node) + "png" + std::to_string(i));
        emitMeta(trackPid(TraceComponent::Vault, uint16_t(i)),
                 lane(node) + "vault" + std::to_string(i));
    }
}

void
ChromeTraceExporter::emitComma()
{
    if (!firstEvent_)
        os_ << ",\n";
    firstEvent_ = false;
}

void
ChromeTraceExporter::emitMeta(uint32_t pid, const std::string &name)
{
    emitComma();
    os_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"args\":{\"name\":\"" << name << "\"}}";
}

void
ChromeTraceExporter::emitCounter(uint32_t pid, const std::string &name,
                                 Tick ts, double value)
{
    emitComma();
    os_ << "{\"name\":" << jsonString(name) << ",\"ph\":\"C\",\"ts\":"
        << ts << ",\"pid\":" << pid
        << ",\"args\":{\"value\":" << jsonNumber(value) << "}}";
}

void
ChromeTraceExporter::emitInstant(uint32_t pid, const char *name,
                                 Tick ts, uint64_t value)
{
    emitComma();
    os_ << "{\"name\":\"" << name << "\",\"ph\":\"i\",\"ts\":" << ts
        << ",\"pid\":" << pid << ",\"tid\":0,\"s\":\"t\""
        << ",\"args\":{\"value\":" << value << "}}";
}

void
ChromeTraceExporter::emitSlice(uint32_t pid, const char *name, Tick ts,
                               Tick dur, const std::string &args)
{
    emitComma();
    os_ << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"ts\":" << ts
        << ",\"dur\":" << dur << ",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{" << args << "}}";
}

void
ChromeTraceExporter::bumpCounter(uint32_t pid, const std::string &name,
                                 AggMode mode, double value)
{
    CounterAgg &agg = counters_[{pid, name}];
    agg.mode = mode;
    switch (mode) {
      case AggMode::Last:
        agg.value = value;
        break;
      case AggMode::Sum:
        agg.value += value;
        break;
      case AggMode::Mean:
        agg.value += value;
        break;
    }
    ++agg.samples;
    agg.dirty = true;
}

void
ChromeTraceExporter::flushWindow()
{
    if (sawEnergy_) {
        // Window energy over window wall-clock: pJ x 1e-12 / (ticks
        // / refclock). An estimate from the event stream — exact
        // per-layer numbers come from the registry counters.
        double watts =
            windowPj_ * 1e-12 * referenceClockHz / double(window_);
        emitCounter(trackPid(TraceComponent::Sim, 0), "power.W",
                    windowStart_, watts);
        windowPj_ = 0.0;
    }
    for (auto &[key, agg] : counters_) {
        if (!agg.dirty)
            continue;
        double value = agg.value;
        if (agg.mode == AggMode::Mean && agg.samples > 0)
            value /= double(agg.samples);
        emitCounter(key.first, key.second, windowStart_, value);
        agg.dirty = false;
        agg.samples = 0;
        if (agg.mode != AggMode::Last)
            agg.value = 0.0;
    }
}

void
ChromeTraceExporter::advanceWindow(Tick tick)
{
    if (tick < windowStart_ + window_)
        return;
    flushWindow();
    windowStart_ = tick - (tick % window_);
}

void
ChromeTraceExporter::handle(const TraceEvent &event)
{
    advanceWindow(event.tick);
    lastTick_ = std::max(lastTick_, event.tick);

    double pj = tracePjOf(event, tracePrices);
    if (pj > 0.0) {
        windowPj_ += pj;
        sawEnergy_ = true;
    }

    uint32_t pid = trackPid(event.component, event.instance);
    if (event.component == TraceComponent::Png) {
        nc_assert(event.instance < vaultOf_.size()
                      && vaultOf_[event.instance] != kNoVault,
                  "PNG event from non-vault node %u", event.instance);
        pid = trackPid(TraceComponent::Png, vaultOf_[event.instance]);
    }
    switch (event.type) {
      case TraceEventType::FlitEnqueue:
        bumpCounter(pid, "inQ.p" + std::to_string(event.arg),
                    AggMode::Last, double(event.value));
        break;
      case TraceEventType::FlitSwitch:
        bumpCounter(pid, "outQ.p" + std::to_string(event.arg),
                    AggMode::Last, double(event.value));
        break;
      case TraceEventType::FlitBlocked:
        bumpCounter(pid, "blocked/win", AggMode::Sum, 1.0);
        break;
      case TraceEventType::LinkFlit:
        bumpCounter(pid, "linkFlits/win", AggMode::Sum, 1.0);
        break;
      case TraceEventType::PacketEject:
        bumpCounter(pid, "ejected/win", AggMode::Sum, 1.0);
        bumpCounter(pid, "ejectLatency", AggMode::Mean,
                    double(event.value));
        break;
      case TraceEventType::MacBusy:
        emitSlice(pid, "macBurst", event.tick, event.value,
                  "\"activeMacs\":" + std::to_string(event.arg));
        break;
      case TraceEventType::CacheHit:
        bumpCounter(pid, "cacheHits/win", AggMode::Sum, 1.0);
        break;
      case TraceEventType::CacheMiss:
        bumpCounter(pid, "cacheMisses/win", AggMode::Sum, 1.0);
        break;
      case TraceEventType::CacheInsert:
        bumpCounter(pid, "opCacheEntries", AggMode::Last,
                    double(event.value));
        break;
      case TraceEventType::CacheOverflow:
        emitInstant(pid, "cacheOverflow", event.tick, event.value);
        break;
      case TraceEventType::WriteBackOut:
        bumpCounter(pid, "outbox", AggMode::Last,
                    double(event.value));
        break;
      case TraceEventType::SearchStall:
        emitInstant(pid, "searchStall", event.tick, event.value);
        break;
      case TraceEventType::PngPhase: {
        OpenPhase &open = pngPhase_[vaultOf_[event.instance]];
        if (open.open && event.tick > open.since) {
            emitSlice(pid, pngFsmPhaseName(open.phase), open.since,
                      event.tick - open.since,
                      "\"plane\":" + std::to_string(open.plane));
        }
        open.open = true;
        open.phase = PngFsmPhase(event.arg);
        open.since = event.tick;
        open.plane = event.value;
        break;
      }
      case TraceEventType::PngInjectStall:
        bumpCounter(pid, "injectStalls/win", AggMode::Sum, 1.0);
        break;
      case TraceEventType::PngIssue:
        bumpCounter(pid, "issued/win", AggMode::Sum,
                    double(event.value));
        break;
      case TraceEventType::LaneDone: {
        // One slice per (lane, pass) on the sim track: the lane's
        // active span within the shared cycle loop.
        std::string name = "lane" + std::to_string(event.instance);
        emitSlice(trackPid(TraceComponent::Sim, 0), name.c_str(),
                  event.tick - event.value, event.value,
                  "\"pass\":" + std::to_string(event.arg));
        break;
      }
      case TraceEventType::ServeQueueDepth:
        bumpCounter(trackPid(TraceComponent::Sim, 0), "serveQueue",
                    AggMode::Last, double(event.value));
        if (ServeQueueEvent(event.arg) == ServeQueueEvent::Drop) {
            bumpCounter(trackPid(TraceComponent::Sim, 0),
                        "serveDrops/win", AggMode::Sum, 1.0);
        }
        break;
      case TraceEventType::ServeRequestDone: {
        if (event.value == 0) {
            emitInstant(requestsPid, "reqDrop", event.tick,
                        event.arg);
            break;
        }
        // One span per request from arrival to completion. Requests
        // overlap while batched, so spread them over a few rows.
        emitComma();
        os_ << "{\"name\":\"req" << event.arg
            << "\",\"ph\":\"X\",\"ts\":" << (event.tick - event.value)
            << ",\"dur\":" << event.value << ",\"pid\":" << requestsPid
            << ",\"tid\":" << (event.arg % 8)
            << ",\"args\":{\"latency\":" << event.value << "}}";
        break;
      }
      case TraceEventType::ServeRequestDispatch:
        // Queue-wait slice on the request's row, nested under the
        // arrival-to-completion span ServeRequestDone will emit.
        if (event.value > 0) {
            emitComma();
            os_ << "{\"name\":\"wait\",\"ph\":\"X\",\"ts\":"
                << (event.tick - event.value)
                << ",\"dur\":" << event.value
                << ",\"pid\":" << requestsPid
                << ",\"tid\":" << (event.arg % 8)
                << ",\"args\":{\"req\":" << event.arg << "}}";
        }
        bumpCounter(trackPid(TraceComponent::Sim, 0), "serveWait",
                    AggMode::Mean, double(event.value));
        break;
      case TraceEventType::EngineSkip:
        // Bulk-skipped component-ticks, summed per window across
        // lanes: the wake-list engine's fast-forward visible as a
        // counter instead of per-cycle events.
        bumpCounter(trackPid(TraceComponent::Sim, 0),
                    "skippedTicks/win", AggMode::Sum,
                    double(event.value));
        break;
      case TraceEventType::DramQueueDepth:
        bumpCounter(pid, event.arg ? "writeQ" : "readQ",
                    AggMode::Last, double(event.value));
        break;
      case TraceEventType::DramWord:
        bumpCounter(pid, "bits/win", AggMode::Sum,
                    double(event.value));
        break;
      case TraceEventType::DramRowActivate:
        bumpCounter(pid, "rowActivates/win", AggMode::Sum, 1.0);
        break;
      case TraceEventType::DramStall:
        bumpCounter(pid, "stallTicks/win", AggMode::Sum, 1.0);
        break;
      case TraceEventType::EventTypeCount:
        nc_panic("invalid trace event type");
        break;
    }
}

void
ChromeTraceExporter::consume(const TraceEvent *events, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        handle(events[i]);
}

void
ChromeTraceExporter::emitPhases(const std::vector<PhaseSegment> &segments)
{
    for (const PhaseSegment &segment : segments) {
        if (segment.endTick <= segment.startTick)
            continue;
        emitSlice(phasesPid, phaseKindName(segment.kind),
                  segment.startTick,
                  segment.endTick - segment.startTick,
                  "\"windows\":" + std::to_string(segment.windows));
    }
}

void
ChromeTraceExporter::finish()
{
    // Close PNG phase slices still open at the end of the trace.
    for (size_t v = 0; v < pngPhase_.size(); ++v) {
        OpenPhase &open = pngPhase_[v];
        if (open.open && lastTick_ > open.since) {
            emitSlice(trackPid(TraceComponent::Png, uint16_t(v)),
                      pngFsmPhaseName(open.phase), open.since,
                      lastTick_ - open.since,
                      "\"plane\":" + std::to_string(open.plane));
        }
        open.open = false;
    }
    flushWindow();
    os_ << "\n]}\n";
    os_.flush();
}

} // namespace neurocube
