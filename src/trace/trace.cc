#include "trace/trace.hh"

#include <algorithm>
#include <fstream>

#include "common/logging.hh"
#include "trace/chrome_exporter.hh"
#include "trace/timeseries_exporter.hh"

namespace neurocube
{

const char *
traceComponentName(TraceComponent component)
{
    switch (component) {
      case TraceComponent::Sim:
        return "sim";
      case TraceComponent::Router:
        return "router";
      case TraceComponent::Pe:
        return "pe";
      case TraceComponent::Png:
        return "png";
      case TraceComponent::Vault:
        return "vault";
      case TraceComponent::ComponentCount:
        break;
    }
    return "?";
}

const char *
traceEventTypeName(TraceEventType type)
{
    switch (type) {
      case TraceEventType::FlitEnqueue:
        return "flitEnqueue";
      case TraceEventType::FlitSwitch:
        return "flitSwitch";
      case TraceEventType::FlitBlocked:
        return "flitBlocked";
      case TraceEventType::LinkFlit:
        return "linkFlit";
      case TraceEventType::PacketEject:
        return "packetEject";
      case TraceEventType::MacBusy:
        return "macBusy";
      case TraceEventType::CacheHit:
        return "cacheHit";
      case TraceEventType::CacheMiss:
        return "cacheMiss";
      case TraceEventType::CacheInsert:
        return "cacheInsert";
      case TraceEventType::CacheOverflow:
        return "cacheOverflow";
      case TraceEventType::WriteBackOut:
        return "writeBackOut";
      case TraceEventType::SearchStall:
        return "searchStall";
      case TraceEventType::PngPhase:
        return "pngPhase";
      case TraceEventType::PngInjectStall:
        return "pngInjectStall";
      case TraceEventType::PngIssue:
        return "pngIssue";
      case TraceEventType::LaneDone:
        return "laneDone";
      case TraceEventType::DramQueueDepth:
        return "dramQueueDepth";
      case TraceEventType::DramWord:
        return "dramWord";
      case TraceEventType::DramRowActivate:
        return "dramRowActivate";
      case TraceEventType::DramStall:
        return "dramStall";
      case TraceEventType::ServeQueueDepth:
        return "serveQueueDepth";
      case TraceEventType::ServeRequestDone:
        return "serveRequestDone";
      case TraceEventType::ServeRequestDispatch:
        return "serveRequestDispatch";
      case TraceEventType::EngineSkip:
        return "engineSkip";
      case TraceEventType::EventTypeCount:
        break;
    }
    return "?";
}

const char *
serveQueueEventName(ServeQueueEvent event)
{
    switch (event) {
      case ServeQueueEvent::Arrive:
        return "arrive";
      case ServeQueueEvent::Dispatch:
        return "dispatch";
      case ServeQueueEvent::Drop:
        return "drop";
    }
    return "?";
}

const char *
pngFsmPhaseName(PngFsmPhase phase)
{
    switch (phase) {
      case PngFsmPhase::Idle:
        return "idle";
      case PngFsmPhase::Configured:
        return "configured";
      case PngFsmPhase::Generating:
        return "generating";
      case PngFsmPhase::Draining:
        return "draining";
      case PngFsmPhase::Done:
        return "done";
    }
    return "?";
}

namespace
{

size_t
roundUpPow2(size_t value)
{
    size_t pow2 = 64;
    while (pow2 < value)
        pow2 <<= 1;
    return pow2;
}

} // namespace

TraceRecorder::TraceRecorder(size_t capacity)
    : ring_(roundUpPow2(capacity)), mask_(ring_.size() - 1)
{
}

void
TraceRecorder::addSink(TraceSink *sink)
{
    nc_assert(sink != nullptr, "null trace sink");
    sinks_.push_back(sink);
}

void
TraceRecorder::push(const TraceEvent &event)
{
    if (head_ - tail_ == ring_.size())
        drain();
    ring_[head_ & mask_] = event;
    ++head_;
    ++recorded_;
}

void
TraceRecorder::drain()
{
    while (tail_ != head_) {
        size_t begin = size_t(tail_ & mask_);
        // Largest contiguous slice: up to the wrap point.
        size_t count = size_t(std::min<uint64_t>(
            head_ - tail_, ring_.size() - begin));
        for (TraceSink *sink : sinks_)
            sink->consume(&ring_[begin], count);
        tail_ += count;
    }
}

void
TraceRecorder::finish()
{
    drain();
    for (TraceSink *sink : sinks_)
        sink->finish();
}

TraceSession::TraceSession(const TraceConfig &config,
                           const TraceTopology &topology)
{
    // PNG instances publish their node index (the mesh node the
    // channel attaches to), so they are sized like the node-indexed
    // components; vault channels publish the channel index. The NoC
    // fabric (built after the session) adds its link list.
    registry_.configure(topology.numRouters, topology.numPes,
                        topology.numVaults, topology.vaultNode);

    auto open = [&](const std::string &path) -> std::ostream & {
        auto stream = std::make_unique<std::ofstream>(path);
        if (!stream->is_open())
            nc_fatal("cannot open trace output '%s'", path.c_str());
        streams_.push_back(std::move(stream));
        return *streams_.back();
    };

    if (!config.chromeJsonPath.empty()) {
        auto chrome = std::make_unique<ChromeTraceExporter>(
            open(config.chromeJsonPath), topology, config.windowTicks);
        chrome_ = chrome.get();
        sinks_.push_back(std::move(chrome));
    }
    if (!config.timeseriesCsvPath.empty()) {
        auto csv = std::make_unique<TimeSeriesCsvExporter>(
            open(config.timeseriesCsvPath), topology,
            config.windowTicks);
        csv_ = csv.get();
        sinks_.push_back(std::move(csv));
    }

    // Only pay for event recording when someone consumes the events;
    // a counters-only session leaves NC_TRACE sites at a null check.
    if (sinks_.empty())
        return;
    recorder_ = std::make_unique<TraceRecorder>();
    recorder_->setComponentMask(config.componentMask);
    recorder_->setSampling(config.windowTicks, config.samplePeriod);
    for (auto &sink : sinks_)
        recorder_->addSink(sink.get());
}

TraceSession::~TraceSession()
{
    if (!recorder_)
        return;
    // Phase feedback: the segments go into the Chrome trace as the
    // top-level "phases" track before its footer goes out.
    if (chrome_ != nullptr && csv_ != nullptr)
        chrome_->emitPhases(phases());
    recorder_->finish();
}

std::vector<PhaseSegment>
TraceSession::phases()
{
    if (csv_ == nullptr)
        return {};
    recorder_->drain();
    return csv_->phases();
}

} // namespace neurocube
