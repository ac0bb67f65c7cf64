#include "trace/trace.hh"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/logging.hh"
#include "trace/chrome_exporter.hh"
#include "trace/energy.hh"
#include "trace/metrics.hh"
#include "trace/phase_detector.hh"
#include "trace/spatial.hh"
#include "trace/stream_exporter.hh"
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

namespace trace
{

namespace detail
{

/** The process-wide recorder slot NC_TRACE loads. */
TraceRecorder *g_activeRecorder = nullptr;

} // namespace detail

void
setActiveRecorder(TraceRecorder *recorder)
{
    detail::g_activeRecorder = recorder;
}

} // namespace trace

TraceRecorder::TraceRecorder(size_t capacity)
    : ring_(roundUpPow2(capacity)), mask_(ring_.size() - 1)
{
}

TraceRecorder::~TraceRecorder()
{
    stopConsumerThread();
}

void
TraceRecorder::addSink(TraceSink *sink)
{
    nc_assert(sink != nullptr, "null trace sink");
    sinks_.push_back(sink);
}

void
TraceRecorder::setWindow(Tick start, Tick end)
{
    nc_assert(start <= end, "inverted trace window");
    startTick_ = start;
    endTick_ = end;
}

void
TraceRecorder::push(const TraceEvent &event)
{
    uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail == ring_.size()) {
        if (consumerRunning()) {
            // Ring full: wait for the consumer to free a slot so
            // nothing is lost and sinks stay single-threaded. The
            // consumer always makes progress (it never blocks on
            // the producer), so the wait is bounded.
            do {
                std::this_thread::yield();
                tail = tail_.load(std::memory_order_acquire);
            } while (head - tail == ring_.size()
                     && consumerRunning());
        }
        if (head - tail == ring_.size()) {
            // No consumer (or it stopped mid-wait): drain inline.
            drain();
        }
    }
    ring_[head & mask_] = event;
    head_.store(head + 1, std::memory_order_release);
    ++recorded_;
}

void
TraceRecorder::drain()
{
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t head = head_.load(std::memory_order_acquire);
    while (tail != head) {
        size_t begin = size_t(tail & mask_);
        // Largest contiguous slice: up to the wrap point.
        size_t count = size_t(std::min<uint64_t>(
            head - tail, ring_.size() - begin));
        for (TraceSink *sink : sinks_)
            sink->consume(&ring_[begin], count);
        tail += count;
        tail_.store(tail, std::memory_order_release);
    }
}

void
TraceRecorder::finish()
{
    stopConsumerThread();
    drain();
    for (TraceSink *sink : sinks_)
        sink->finish();
}

void
TraceRecorder::startConsumerThread()
{
    if (consumerRunning())
        return;
    consumerRun_.store(true, std::memory_order_release);
    consumer_ = std::thread([this] {
        while (consumerRun_.load(std::memory_order_acquire)) {
            drain();
            if (pending() == 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            }
        }
    });
}

void
TraceRecorder::stopConsumerThread()
{
    if (!consumer_.joinable())
        return;
    consumerRun_.store(false, std::memory_order_release);
    consumer_.join();
    // Anything pushed after the consumer's last drain.
    drain();
}

TraceSession::TraceSession(const TraceConfig &config,
                           const TraceTopology &topology)
    : recorder_(config.ringCapacity)
{
    recorder_.setWindow(config.startTick, config.endTick);
    recorder_.setComponentMask(config.componentMask);
    recorder_.setSampling(config.windowTicks, config.samplePeriod);
    // Kept for the destructor's phase feedback (the exporters clamp
    // a zero window to 1; match them so detectPhases sees the same
    // window size the CSV was written with).
    windowTicks_ = config.windowTicks > 0 ? config.windowTicks : 1;
    topology_ = topology;

    auto open = [&](const std::string &path) -> std::ostream & {
        auto stream = std::make_unique<std::ofstream>(path);
        if (!stream->is_open())
            nc_fatal("cannot open trace output '%s'", path.c_str());
        streams_.push_back(std::move(stream));
        return *streams_.back();
    };

    if (!config.chromeJsonPath.empty()) {
        auto chrome = std::make_unique<ChromeTraceExporter>(
            open(config.chromeJsonPath), topology,
            config.windowTicks, config.energyPrices);
        chrome_ = chrome.get();
        sinks_.push_back(std::move(chrome));
    }
    if (!config.timeseriesCsvPath.empty()) {
        auto csv = std::make_unique<TimeSeriesCsvExporter>(
            open(config.timeseriesCsvPath), topology,
            config.windowTicks, config.energyPrices);
        csv_ = csv.get();
        csvPath_ = config.timeseriesCsvPath;
        sinks_.push_back(std::move(csv));
    }
    const bool streaming = !config.streamPath.empty();
    if (streaming) {
        // Binary ostream; works for regular files and named pipes.
        auto stream = std::make_unique<std::ofstream>(
            config.streamPath, std::ios::binary);
        if (!stream->is_open()) {
            nc_fatal("cannot open trace stream '%s'",
                     config.streamPath.c_str());
        }
        streams_.push_back(std::move(stream));
        sinks_.push_back(std::make_unique<TraceStreamWriter>(
            *streams_.back(), topology));
    }
    for (auto &sink : sinks_)
        recorder_.addSink(sink.get());

    if (config.metrics) {
        metrics_ = std::make_unique<MetricsRegistry>();
        // PNG instances publish their node index (the mesh node the
        // channel attaches to), so size them like the node-indexed
        // components; vault channels publish the channel index.
        metrics_->configure(topology.numRouters, topology.numPes,
                            topology.numRouters, topology.numVaults);
        if (metrics::activeRegistry() != nullptr)
            nc_warn("a metrics registry is already active; replacing");
        metrics::setActiveRegistry(metrics_.get());
    }

    if (config.spatial) {
        spatial_ = std::make_unique<SpatialRegistry>();
        // Node/vault/PE extents come from the topology; the NoC
        // fabric (built after the session) publishes its link list
        // through SpatialRegistry::configureLinks.
        spatial_->configure(topology.numRouters, topology.numVaults,
                            topology.numPes, topology.vaultNode);
        if (spatial::activeRegistry() != nullptr)
            nc_warn("a spatial registry is already active; replacing");
        spatial::setActiveRegistry(spatial_.get());
    }

#if NEUROCUBE_TRACE_ENABLED
    if (config.energy) {
        energy_ = std::make_unique<EnergyRegistry>();
        // One node-indexed instance space covers every publisher
        // (PEs, routers, PNGs, and vault channels all carry their
        // mesh-node / channel index).
        energy_->configure(std::max(
            {topology.numRouters, topology.numPes, topology.numVaults}));
        if (energy::activeRegistry() != nullptr)
            nc_warn("an energy registry is already active; replacing");
        energy::setActiveRegistry(energy_.get());
    }
#endif

    // Only pay for event recording when someone consumes the events;
    // a metrics-only session leaves NC_TRACE sites at a null-check.
    if (!sinks_.empty()) {
        if (trace::activeRecorder() != nullptr) {
            nc_warn(
                "a trace session is already active; replacing it");
        }
        trace::setActiveRecorder(&recorder_);
    }

    // Liveness is the point of the stream: drain on a dedicated
    // thread instead of waiting for ring pressure or finish().
    if (streaming)
        recorder_.startConsumerThread();
}

TraceSession::~TraceSession()
{
    // Phase feedback: when both exporters ran, finish the CSV first,
    // segment it, and write the segments into the Chrome trace as the
    // top-level "phases" track before the JSON footer goes out.
    // (recorder_.finish() below calls every sink's finish(); the CSV
    // exporter's is idempotent, so finishing it early is safe.)
    if (chrome_ != nullptr && csv_ != nullptr) {
        recorder_.stopConsumerThread();
        recorder_.drain();
        csv_->finish();
        std::ifstream csv(csvPath_);
        if (csv.is_open()) {
            PhaseDetectorConfig detector;
            detector.windowTicks = windowTicks_;
            detector.numPes = topology_.numPes;
            detector.numPngs = topology_.numVaults;
            detector.numRouters = topology_.numRouters;
            detector.numVaults = topology_.numVaults;
            chrome_->emitPhases(detectPhases(csv, detector));
        }
    }
    recorder_.finish();
    if (trace::activeRecorder() == &recorder_)
        trace::setActiveRecorder(nullptr);
    if (metrics_ && metrics::activeRegistry() == metrics_.get())
        metrics::setActiveRegistry(nullptr);
    if (spatial_ && spatial::activeRegistry() == spatial_.get())
        spatial::setActiveRegistry(nullptr);
    if (energy_ && energy::activeRegistry() == energy_.get())
        energy::setActiveRegistry(nullptr);
}

} // namespace neurocube
