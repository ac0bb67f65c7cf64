#include "trace/trace.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

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

void
TraceRecorder::beginFanOut(unsigned buckets, Tick start,
                           TraceMarkSink *marks)
{
    // A stage holds a few thousand ticks of one bucket's events; a
    // bucket that outruns the slowest one waits for it (makeRoom).
    constexpr size_t stage_capacity = size_t(1) << 13;
    while (stages_.size() < buckets)
        stages_.push_back(std::make_unique<TraceStage>(stage_capacity));
    for (unsigned b = 0; b < buckets; ++b) {
        TraceStage &stage = *stages_[b];
        stage.head_.store(0, std::memory_order_relaxed);
        stage.tail_.store(0, std::memory_order_relaxed);
        stage.published_.store(start, std::memory_order_relaxed);
        stage.tailSeen_ = 0;
        stage.now_ = start;
        stage.slot_ = 0;
        stage.sampleOpen_ = windowSampled(start);
    }
    activeStages_ = buckets;
    markSink_ = marks;
    marks_.clear();
    fanOut_ = true;
}

void
TraceRecorder::endFanOut()
{
    {
        std::lock_guard<std::mutex> lock(mergeLock_);
        mergeStaged();
    }
    for (unsigned b = 0; b < activeStages_; ++b) {
        const TraceStage &stage = *stages_[b];
        nc_assert(stage.head_.load(std::memory_order_relaxed)
                      == stage.tail_.load(std::memory_order_relaxed),
                  "bucket %u still staging at the end of a fan-out", b);
    }
    fanOut_ = false;
    activeStages_ = 0;
    markSink_ = nullptr;
}

void
TraceRecorder::makeRoom(TraceStage &stage)
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mergeLock_);
            mergeStaged();
            const uint64_t head = stage.head_.load(std::memory_order_relaxed);
            const uint64_t tail = stage.tail_.load(std::memory_order_relaxed);
            if (head - tail < stage.ring_.size())
                return;
            // Everything below the slowest bucket's tick is merged. If
            // that is this bucket's own tick, the ring holds only that
            // tick's events, which no other bucket can release: grow.
            bool slowest = true;
            for (unsigned b = 0; b < activeStages_; ++b) {
                slowest = slowest
                    && stages_[b]->published_.load(std::memory_order_acquire)
                           >= stage.now_;
            }
            if (slowest) {
                const size_t size = stage.ring_.size();
                std::vector<StagedEvent> grown(2 * size);
                for (uint64_t i = tail; i != head; ++i)
                    grown[i & (2 * size - 1)] = stage.ring_[i & (size - 1)];
                stage.ring_ = std::move(grown);
                return;
            }
        }
        // A slower bucket holds the merge back: sleep, so this thread
        // does not take a core from it while it catches up.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

void
TraceRecorder::mergeStaged()
{
    // No bucket can still stage an event below the slowest bucket's
    // current tick. Read every bucket's tick before its staged count,
    // so everything below the bound is already counted.
    const unsigned n = activeStages_;
    Tick bound = tickNever;
    for (unsigned b = 0; b < n; ++b) {
        bound = std::min(bound, stages_[b]->published_.load(
                                    std::memory_order_acquire));
    }
    std::vector<uint64_t> next(n), end(n);
    for (unsigned b = 0; b < n; ++b) {
        next[b] = stages_[b]->tail_.load(std::memory_order_relaxed);
        end[b] = stages_[b]->head_.load(std::memory_order_acquire);
    }
    auto at = [&](unsigned b) -> const StagedEvent & {
        const std::vector<StagedEvent> &ring = stages_[b]->ring_;
        return ring[next[b] & (ring.size() - 1)];
    };
    auto before = [](const StagedEvent &a, const StagedEvent &b) {
        return a.event.tick != b.event.tick ? a.event.tick < b.event.tick
                                            : a.slot < b.slot;
    };
    for (;;) {
        // The bucket with the smallest key, and the runner-up.
        unsigned best = n, second = n;
        for (unsigned b = 0; b < n; ++b) {
            if (next[b] == end[b])
                continue;
            if (best == n || before(at(b), at(best))) {
                second = best;
                best = b;
            } else if (second == n || before(at(b), at(second))) {
                second = b;
            }
        }
        if (best == n || at(best).event.tick >= bound)
            break;
        // Deliver the best bucket's run until the runner-up's key.
        do {
            const StagedEvent &staged = at(best);
            if (!marks_.empty() && staged.event.tick != markTick_)
                flushMarks();
            if (staged.slot >> 24 == uint32_t(TraceSlot::TickEnd)) {
                markTick_ = staged.event.tick;
                marks_.push_back(staged.event);
            } else {
                push(staged.event);
            }
            ++next[best];
        } while (next[best] != end[best] && at(best).event.tick < bound
                 && (second == n || before(at(best), at(second))));
    }
    for (unsigned b = 0; b < n; ++b)
        stages_[b]->tail_.store(next[b], std::memory_order_release);
    // Every mark of a tick below the bound is in.
    if (!marks_.empty() && markTick_ < bound)
        flushMarks();
}

void
TraceRecorder::flushMarks()
{
    markSink_->tickMarked(markTick_, marks_.data(), marks_.size());
    marks_.clear();
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
