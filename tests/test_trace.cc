/**
 * @file
 * Trace subsystem tests: recorder ring behaviour (wraparound,
 * ordering, mask filtering, sampling), the NC_TRACE publishing macro,
 * Chrome-JSON well-formedness (re-parsed with a standalone JSON
 * parser), an end-to-end run of the machine with tracing enabled
 * producing loadable JSON and CSV files, and several traced machines
 * in one process keeping their events and counters apart.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/manifest.hh"
#include "core/neurocube.hh"
#include "serving/slo.hh"
#include "trace/chrome_exporter.hh"
#include "trace/energy.hh"
#include "trace/phase_detector.hh"
#include "trace/timeseries_exporter.hh"
#include "trace/trace.hh"

namespace neurocube
{
namespace
{

/** Sink that stores every delivered event. */
struct CollectingSink : TraceSink
{
    std::vector<TraceEvent> events;
    bool finished = false;

    void
    consume(const TraceEvent *batch, size_t count) override
    {
        events.insert(events.end(), batch, batch + count);
    }

    void finish() override { finished = true; }
};

/**
 * Minimal recursive-descent JSON validator (RFC 8259 grammar, no
 * value tree built). Counts the elements of a top-level
 * "traceEvents" array so tests can assert the trace is non-trivial.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(std::string text)
        : text_(std::move(text)), p_(text_.c_str()),
          end_(p_ + text_.size())
    {
    }

    /** True when the whole input is one well-formed JSON value. */
    bool
    parse()
    {
        bool ok = value(0);
        skipWs();
        return ok && p_ == end_;
    }

    /** Elements in the top-level "traceEvents" array. */
    size_t traceEvents() const { return traceEvents_; }

  private:
    static constexpr int maxDepth = 64;

    void
    skipWs()
    {
        while (p_ != end_
               && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n'
                   || *p_ == '\r')) {
            ++p_;
        }
    }

    bool
    literal(const char *word)
    {
        for (; *word; ++word, ++p_) {
            if (p_ == end_ || *p_ != *word)
                return false;
        }
        return true;
    }

    bool
    string(std::string *out = nullptr)
    {
        if (p_ == end_ || *p_ != '"')
            return false;
        ++p_;
        while (p_ != end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ == end_)
                    return false;
                switch (*p_) {
                  case '"': case '\\': case '/': case 'b':
                  case 'f': case 'n': case 'r': case 't':
                    ++p_;
                    break;
                  case 'u':
                    ++p_;
                    for (int i = 0; i < 4; ++i, ++p_) {
                        if (p_ == end_ || !isxdigit(uint8_t(*p_)))
                            return false;
                    }
                    break;
                  default:
                    return false;
                }
            } else {
                if (out)
                    out->push_back(*p_);
                ++p_;
            }
        }
        if (p_ == end_)
            return false;
        ++p_; // closing quote
        return true;
    }

    bool
    number()
    {
        if (p_ != end_ && *p_ == '-')
            ++p_;
        if (p_ == end_ || !isdigit(uint8_t(*p_)))
            return false;
        while (p_ != end_ && isdigit(uint8_t(*p_)))
            ++p_;
        if (p_ != end_ && *p_ == '.') {
            ++p_;
            if (p_ == end_ || !isdigit(uint8_t(*p_)))
                return false;
            while (p_ != end_ && isdigit(uint8_t(*p_)))
                ++p_;
        }
        if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
            ++p_;
            if (p_ != end_ && (*p_ == '+' || *p_ == '-'))
                ++p_;
            if (p_ == end_ || !isdigit(uint8_t(*p_)))
                return false;
            while (p_ != end_ && isdigit(uint8_t(*p_)))
                ++p_;
        }
        return true;
    }

    bool
    array(int depth, size_t *count)
    {
        ++p_; // '['
        skipWs();
        size_t n = 0;
        if (p_ != end_ && *p_ == ']') {
            ++p_;
        } else {
            while (true) {
                if (!value(depth + 1))
                    return false;
                ++n;
                skipWs();
                if (p_ != end_ && *p_ == ',') {
                    ++p_;
                    skipWs();
                    continue;
                }
                if (p_ == end_ || *p_ != ']')
                    return false;
                ++p_;
                break;
            }
        }
        if (count)
            *count = n;
        return true;
    }

    bool
    object(int depth)
    {
        ++p_; // '{'
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!string(&key))
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':')
                return false;
            ++p_;
            skipWs();
            if (depth == 0 && key == "traceEvents" && p_ != end_
                && *p_ == '[') {
                size_t n = 0;
                if (!array(depth + 1, &n))
                    return false;
                traceEvents_ = n;
            } else if (!value(depth + 1)) {
                return false;
            }
            skipWs();
            if (p_ != end_ && *p_ == ',') {
                ++p_;
                continue;
            }
            if (p_ == end_ || *p_ != '}')
                return false;
            ++p_;
            return true;
        }
    }

    bool
    value(int depth)
    {
        if (depth > maxDepth)
            return false;
        skipWs();
        if (p_ == end_)
            return false;
        switch (*p_) {
          case '{':
            return object(depth);
          case '[':
            return array(depth, nullptr);
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    std::string text_;
    const char *p_;
    const char *end_;
    size_t traceEvents_ = 0;
};

TEST(JsonChecker, AcceptsAndRejects)
{
    EXPECT_TRUE(JsonChecker("{}").parse());
    EXPECT_TRUE(JsonChecker("[1, -2.5e3, \"a\\nb\", true, null]")
                    .parse());
    EXPECT_TRUE(JsonChecker("{\"a\":{\"b\":[{},[]]}}").parse());
    EXPECT_FALSE(JsonChecker("{").parse());
    EXPECT_FALSE(JsonChecker("[1,]").parse());
    EXPECT_FALSE(JsonChecker("{\"a\":}").parse());
    EXPECT_FALSE(JsonChecker("01a").parse());
    EXPECT_FALSE(JsonChecker("{} {}").parse());
    JsonChecker counted("{\"traceEvents\":[{},{},{}]}");
    EXPECT_TRUE(counted.parse());
    EXPECT_EQ(counted.traceEvents(), 3u);
}

TEST(TraceRecorder, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(TraceRecorder(100).capacity(), 128u);
    EXPECT_EQ(TraceRecorder(256).capacity(), 256u);
    EXPECT_EQ(TraceRecorder(1).capacity(), 64u);
}

TEST(TraceRecorder, WraparoundKeepsEveryEventInOrder)
{
    TraceRecorder recorder(64);
    CollectingSink sink;
    recorder.addSink(&sink);

    constexpr uint64_t total = 1000; // ~15x the ring capacity
    for (uint64_t i = 0; i < total; ++i) {
        recorder.setNow(Tick(i));
        recorder.record(TraceComponent::Router, uint16_t(i % 16),
                        TraceEventType::FlitEnqueue, uint32_t(i), i);
    }
    recorder.finish();

    EXPECT_EQ(recorder.recorded(), total);
    ASSERT_EQ(sink.events.size(), total);
    EXPECT_TRUE(sink.finished);
    for (uint64_t i = 0; i < total; ++i) {
        EXPECT_EQ(sink.events[i].tick, Tick(i));
        EXPECT_EQ(sink.events[i].value, i);
        EXPECT_EQ(sink.events[i].instance, uint16_t(i % 16));
    }
}

TEST(TraceRecorder, ComponentMaskFilter)
{
    TraceRecorder masked(64);
    CollectingSink pe_only;
    masked.addSink(&pe_only);
    masked.setComponentMask(1u << unsigned(TraceComponent::Pe));
    masked.record(TraceComponent::Router, 0,
                  TraceEventType::FlitEnqueue);
    masked.record(TraceComponent::Pe, 1, TraceEventType::MacBusy);
    masked.record(TraceComponent::Vault, 2,
                  TraceEventType::DramWord);
    masked.finish();
    ASSERT_EQ(pe_only.events.size(), 1u);
    EXPECT_EQ(pe_only.events[0].component, TraceComponent::Pe);
}

TEST(TraceRecorder, WindowSamplingThinsNonExemptComponents)
{
    TraceRecorder recorder(256);
    CollectingSink sink;
    recorder.addSink(&sink);
    // 10-tick windows, record 1 in 3: the windows starting at ticks
    // 0, 30 and 60 are sampled; everything else is dropped at the
    // recording site — except the Sim component, which is exempt by
    // default so run-structure markers and spans survive sampling.
    recorder.setSampling(10, 3);
    EXPECT_EQ(recorder.samplePeriod(), 3u);
    EXPECT_TRUE(recorder.windowSampled(0));
    EXPECT_TRUE(recorder.windowSampled(9));
    EXPECT_FALSE(recorder.windowSampled(10));
    EXPECT_FALSE(recorder.windowSampled(29));
    EXPECT_TRUE(recorder.windowSampled(30));

    for (Tick t = 0; t < 90; ++t) {
        recorder.setNow(t);
        recorder.record(TraceComponent::Pe, 0, TraceEventType::MacBusy,
                        0, t);
        recorder.record(TraceComponent::Sim, 0,
                        TraceEventType::LaneDone, 0, t);
    }
    recorder.finish();

    size_t pe = 0, sim = 0;
    for (const TraceEvent &e : sink.events) {
        if (e.component == TraceComponent::Pe)
            ++pe;
        else if (e.component == TraceComponent::Sim)
            ++sim;
    }
    EXPECT_EQ(pe, 30u);  // 3 sampled windows x 10 ticks
    EXPECT_EQ(sim, 90u); // exempt: full fidelity
}

TEST(TraceRecorder, SamplePeriodOneRecordsEverything)
{
    TraceRecorder recorder(256);
    CollectingSink sink;
    recorder.addSink(&sink);
    recorder.setSampling(10, 1);
    for (Tick t = 0; t < 50; ++t) {
        recorder.setNow(t);
        recorder.record(TraceComponent::Router, 0,
                        TraceEventType::FlitEnqueue, 0, t);
    }
    recorder.finish();
    EXPECT_EQ(sink.events.size(), 50u);
}

#if NEUROCUBE_TRACE_ENABLED
TEST(TraceRecorder, MacroPublishesToProbeRecorder)
{
    // An empty probe: the macro must be a safe no-op.
    const Probe none;
    NC_TRACE(none, TraceComponent::Pe, 0, TraceEventType::MacBusy, 1, 2);

    TraceRecorder recorder(64);
    CollectingSink sink;
    recorder.addSink(&sink);
    const Probe probe{&recorder, nullptr};
    NC_TRACE_TICK(probe, Tick(42));
    NC_TRACE(probe, TraceComponent::Pe, 7, TraceEventType::MacBusy, 3,
             16);
    NC_TRACE(none, TraceComponent::Pe, 0, TraceEventType::MacBusy, 1, 2);
    recorder.finish();

    ASSERT_EQ(sink.events.size(), 1u);
    EXPECT_EQ(sink.events[0].tick, Tick(42));
    EXPECT_EQ(sink.events[0].instance, 7u);
    EXPECT_EQ(sink.events[0].arg, 3u);
    EXPECT_EQ(sink.events[0].value, 16u);
}
#endif

/** Push one synthetic event through a recorder into @p sink. */
void
feed(TraceSink &sink, Tick tick, TraceComponent component,
     uint16_t instance, TraceEventType type, uint32_t arg,
     uint64_t value)
{
    TraceEvent event;
    event.tick = tick;
    event.component = component;
    event.type = type;
    event.instance = instance;
    event.arg = arg;
    event.value = value;
    sink.consume(&event, 1);
}

TEST(ChromeExporter, EmitsWellFormedJson)
{
    std::ostringstream os;
    TraceTopology topology;
    topology.numRouters = 4;
    topology.numPes = 4;
    topology.numVaults = 4;
    ChromeTraceExporter exporter(os, topology, 16);

    for (Tick t = 0; t < 100; ++t) {
        feed(exporter, t, TraceComponent::Router, uint16_t(t % 4),
             TraceEventType::FlitEnqueue, 0, t % 3);
        if (t % 16 == 0) {
            feed(exporter, t, TraceComponent::Pe, 1,
                 TraceEventType::MacBusy, 12, 16);
            feed(exporter, t, TraceComponent::Vault, 2,
                 TraceEventType::DramRowActivate, 1, t);
        }
        if (t == 10 || t == 60) {
            feed(exporter, t, TraceComponent::Png, 3,
                 TraceEventType::PngPhase,
                 uint32_t(t == 10 ? PngFsmPhase::Generating
                                  : PngFsmPhase::Done),
                 0);
        }
    }
    exporter.finish();

    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.parse()) << os.str().substr(0, 400);
    EXPECT_GT(checker.traceEvents(), 20u);
}

TEST(ChromeExporter, TrackPidsAreDisjointPerComponent)
{
    EXPECT_EQ(ChromeTraceExporter::trackPid(TraceComponent::Router, 3),
              1003u);
    EXPECT_EQ(ChromeTraceExporter::trackPid(TraceComponent::Pe, 15),
              2015u);
    EXPECT_EQ(ChromeTraceExporter::trackPid(TraceComponent::Png, 0),
              3000u);
    EXPECT_EQ(ChromeTraceExporter::trackPid(TraceComponent::Vault, 9),
              4009u);
}

TEST(TimeSeriesExporter, OneRowPerActiveWindow)
{
    std::ostringstream os;
    TraceTopology topology;
    topology.numVaults = 2;
    TimeSeriesCsvExporter exporter(os, topology, 10);

    feed(exporter, 1, TraceComponent::Router, 0,
         TraceEventType::LinkFlit, 1, 0);
    feed(exporter, 25, TraceComponent::Vault, 1,
         TraceEventType::DramWord, 0, 128);
    exporter.finish();

    std::istringstream rows(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(rows, line));
    EXPECT_EQ(line.substr(0, 12), "window_start");
    size_t data_rows = 0;
    while (std::getline(rows, line))
        ++data_rows;
    // Window [0,10) and window [20,30): the empty middle window is
    // skipped.
    EXPECT_EQ(data_rows, 2u);
}

/** Parse the window_start values of every CSV data row. */
std::vector<Tick>
windowStarts(const std::string &csv)
{
    std::istringstream rows(csv);
    std::string line;
    std::vector<Tick> starts;
    std::getline(rows, line); // header
    while (std::getline(rows, line)) {
        starts.push_back(
            Tick(std::strtoull(line.c_str(), nullptr, 10)));
    }
    return starts;
}

TEST(TimeSeriesExporter, WindowBoundaryAtLayerEnd)
{
    // A layer whose last event lands exactly on a window boundary:
    // tick 10 must open window [10,20), not extend [0,10), and the
    // final partial window must still be flushed by finish().
    std::ostringstream os;
    TraceTopology topology;
    TimeSeriesCsvExporter exporter(os, topology, 10);

    feed(exporter, 9, TraceComponent::Router, 0,
         TraceEventType::LinkFlit, 1, 0);
    feed(exporter, 10, TraceComponent::Router, 0,
         TraceEventType::LinkFlit, 1, 0);
    exporter.finish();

    std::vector<Tick> starts = windowStarts(os.str());
    ASSERT_EQ(starts.size(), 2u);
    EXPECT_EQ(starts[0], Tick(0));
    EXPECT_EQ(starts[1], Tick(10));
}

TEST(TimeSeriesExporter, QuiescentLaneWindowsAreSkippedNotZeroFilled)
{
    // A lane that finishes early goes quiet for many windows; the
    // exporter must emit no rows for the gap (the phase detector
    // reinstates it as a quiescent segment) and resume with a clean
    // accumulator, not values carried over from before the gap.
    std::ostringstream os;
    TraceTopology topology;
    TimeSeriesCsvExporter exporter(os, topology, 10);

    feed(exporter, 0, TraceComponent::Router, 0,
         TraceEventType::LinkFlit, 1, 0);
    feed(exporter, 5, TraceComponent::Router, 0,
         TraceEventType::LinkFlit, 1, 0);
    // 9 empty windows, then one late event.
    feed(exporter, 104, TraceComponent::Router, 0,
         TraceEventType::LinkFlit, 1, 0);
    exporter.finish();

    std::string csv = os.str();
    std::vector<Tick> starts = windowStarts(csv);
    ASSERT_EQ(starts.size(), 2u);
    EXPECT_EQ(starts[0], Tick(0));
    EXPECT_EQ(starts[1], Tick(100));

    // The resumed window counts only its own flit (0.1 flits/cycle),
    // not the two from before the gap.
    std::istringstream rows(csv);
    std::string line;
    std::getline(rows, line);
    std::getline(rows, line);
    std::getline(rows, line);
    EXPECT_EQ(line.substr(0, 8), "100,0.1,");
}

TEST(TimeSeriesExporter, EmitsWindowAveragePower)
{
    std::ostringstream os;
    TraceTopology topology;
    topology.numVaults = 1;
    TimeSeriesCsvExporter exporter(os, topology, 10);

    // One packed DRAM word of 128 bits in window [0,10).
    feed(exporter, 1, TraceComponent::Vault, 0,
         TraceEventType::DramWord, 0, 128);
    exporter.finish();

    std::istringstream rows(os.str());
    std::string header, row;
    ASSERT_TRUE(std::getline(rows, header));
    ASSERT_TRUE(std::getline(rows, row));

    // Locate the avg_power_w column by name (robust to layout).
    auto split = [](const std::string &line) {
        std::vector<std::string> fields;
        std::istringstream ss(line);
        std::string f;
        while (std::getline(ss, f, ','))
            fields.push_back(f);
        return fields;
    };
    std::vector<std::string> names = split(header);
    std::vector<std::string> values = split(row);
    ASSERT_EQ(names.size(), values.size());
    auto it = std::find(names.begin(), names.end(), "avg_power_w");
    ASSERT_NE(it, names.end());
    double watts =
        std::strtod(values[size_t(it - names.begin())].c_str(),
                    nullptr);

    // 128 bits pay the DRAM + logic-die tolls plus one transaction;
    // averaged over the 10-tick window at the 5 GHz reference clock.
    EnergyPrices p;
    double expect_pj =
        128.0 * (p.dramPjPerBit + p.vaultLogicPjPerBit)
        + p.vaultXactPj;
    EXPECT_NEAR(watts, expect_pj * 1e-12 * referenceClockHz / 10.0,
                1e-6);
    EXPECT_GT(watts, 0.0);
}

TEST(ChromeExporter, EmitsPowerCounterTrack)
{
    std::ostringstream os;
    TraceTopology topology;
    topology.numPes = 4;
    ChromeTraceExporter exporter(os, topology, 16);

    // Energy-bearing activity in window [0,16), then an event in a
    // later window to flush it.
    feed(exporter, 2, TraceComponent::Pe, 0, TraceEventType::MacBusy,
         16, 16);
    feed(exporter, 40, TraceComponent::Pe, 0, TraceEventType::MacBusy,
         8, 8);
    exporter.finish();

    std::string json = os.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.parse()) << json.substr(0, 400);
    EXPECT_NE(json.find("power.W"), std::string::npos);
}

TEST(ChromeExporter, LargeWindowCountsAreExact)
{
    // A window that skipped 1,624,616 ticks (quick fig12 has one)
    // must not be rounded to six significant digits.
    std::ostringstream os;
    TraceTopology topology;
    ChromeTraceExporter exporter(os, topology, 1u << 21);
    feed(exporter, 1624617, TraceComponent::Sim, 0,
         TraceEventType::EngineSkip, 0, 1624616);
    exporter.finish();

    const std::string json = os.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.parse()) << json.substr(0, 400);
    EXPECT_NE(json.find("{\"name\":\"skippedTicks/win\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"value\":1624616}"), std::string::npos) << json;
    EXPECT_EQ(json.find("e+06"), std::string::npos) << json;
}

TEST(ChromeExporter, NoPowerTrackWithoutEnergyBearingEvents)
{
    std::ostringstream os;
    TraceTopology topology;
    ChromeTraceExporter exporter(os, topology, 16);
    // Queue-depth samples carry no energy: no power.W counter.
    feed(exporter, 1, TraceComponent::Vault, 0,
         TraceEventType::DramQueueDepth, 0, 3);
    feed(exporter, 40, TraceComponent::Vault, 0,
         TraceEventType::DramQueueDepth, 0, 1);
    exporter.finish();
    EXPECT_EQ(os.str().find("power.W"), std::string::npos);
}

TEST(ChromeExporter, EmitsPhaseAnnotationTrack)
{
    std::ostringstream os;
    TraceTopology topology;
    ChromeTraceExporter exporter(os, topology, 16);
    feed(exporter, 1, TraceComponent::Router, 0,
         TraceEventType::FlitSwitch, 0, 0);

    std::vector<PhaseSegment> segments;
    segments.push_back({0, 64, PhaseKind::Compute, 4});
    segments.push_back({64, 128, PhaseKind::DramBound, 4});
    segments.push_back({128, 128, PhaseKind::Quiescent, 0}); // empty
    exporter.emitPhases(segments);
    exporter.finish();

    std::string json = os.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.parse()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);
    EXPECT_NE(json.find("\"compute\""), std::string::npos);
    EXPECT_NE(json.find("\"dram-bound\""), std::string::npos);
    EXPECT_NE(json.find("\"windows\":4"), std::string::npos);
    // The empty segment is skipped.
    EXPECT_EQ(json.find("\"quiescent\""), std::string::npos);
}

/**
 * Load one 20x16, 3x3 conv from 2 to 4 maps, named @p name, on
 * @p cube and return its input (seeds 7/8).
 */
Tensor
loadTinyConv(Neurocube &cube, const std::string &name = "conv")
{
    NetworkDesc net;
    net.name = "trace-test";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = name;
    conv.inWidth = 20;
    conv.inHeight = 16;
    conv.inMaps = 2;
    conv.outMaps = 4;
    conv.kernel = 3;
    conv.channelwise = true;
    conv.activation = ActivationKind::Tanh;
    net.layers.push_back(conv);
    net.validate();

    Tensor input(conv.inMaps, conv.inHeight, conv.inWidth);
    Rng rng(8);
    input.randomize(rng);
    cube.loadNetwork(net, NetworkData::randomized(net, 7));
    return input;
}

/** Run the tiny conv on @p cube. */
RunResult
runTinyConv(Neurocube &cube)
{
    cube.setInput(loadTinyConv(cube));
    return cube.runForward();
}

/** One tiny conv layer on the real machine with tracing on. */
TEST(TraceIntegration, MachineEmitsLoadableTraceFiles)
{
    const std::string json_path = "test_trace_out.json";
    const std::string csv_path = "test_trace_out.csv";

    {
        NeurocubeConfig config;
        config.trace.enabled = true;
        config.trace.chromeJsonPath = json_path;
        config.trace.timeseriesCsvPath = csv_path;
        config.trace.windowTicks = 64;
        Neurocube cube(config);
        runTinyConv(cube);
        // The session flushes when the cube is destroyed.
    }

#if NEUROCUBE_TRACE_ENABLED
    std::ifstream json_in(json_path);
    ASSERT_TRUE(json_in.good());
    std::stringstream json_text;
    json_text << json_in.rdbuf();
    JsonChecker checker(json_text.str());
    EXPECT_TRUE(checker.parse());
    EXPECT_GT(checker.traceEvents(), 100u);
    // The machine's activity produced a power-over-time counter
    // track, and the session fed the detected phases back in as an
    // annotation track on teardown.
    EXPECT_NE(json_text.str().find("power.W"), std::string::npos);
    EXPECT_NE(json_text.str().find("\"phases\""), std::string::npos);

    std::ifstream csv_in(csv_path);
    ASSERT_TRUE(csv_in.good());
    std::string header;
    ASSERT_TRUE(std::getline(csv_in, header));
    EXPECT_NE(header.find("pe_util_pct"), std::string::npos);
    EXPECT_NE(header.find("avg_power_w"), std::string::npos);
    EXPECT_NE(header.find("vault15_bytes"), std::string::npos);
    size_t rows = 0;
    std::string line;
    while (std::getline(csv_in, line)) {
        ++rows;
        // Every row must have the same field count as the header.
        EXPECT_EQ(std::count(line.begin(), line.end(), ','),
                  std::count(header.begin(), header.end(), ','))
            << line;
    }
    EXPECT_GT(rows, 2u);
#endif

    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
}

TEST(JsonExport, EveryDocumentEscapesAHostileName)
{
    const std::string hostile = "a\"b\\c";
    const std::string quoted = "\"a\\\"b\\\\c\"";
    NeurocubeConfig config;
    config.trace.enabled = true;
    Neurocube cube(config);
    cube.setInput(loadTinyConv(cube, hostile));
    const RunResult run = cube.runForward();
    RunManifest manifest;
    manifest.name = hostile;
    manifest.gitDescribe = hostile;
    manifest.engine = hostile;
    manifest.configHash = hostile;

    const std::pair<const char *, std::string> documents[] = {
        {"metricsJson", run.metricsJson()},
        {"spatialJson", run.spatialJson()},
        {"energyJson", run.energyJson()},
        {"runManifestJson", runManifestJson(manifest, run)},
        {"servingManifestJson",
         servingManifestJson(manifest, ServingReport{}, 1.0)},
    };
    for (const auto &[name, json] : documents) {
        JsonChecker checker(json);
        EXPECT_TRUE(checker.parse()) << name << ": " << json;
        EXPECT_NE(json.find(quoted), std::string::npos) << name;
    }
}

#if NEUROCUBE_TRACE_ENABLED
/** A file's contents, after which the file is removed. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
}

/** One traced run of a tiny conv machine; returns {json, csv}. */
std::pair<std::string, std::string>
sampledRunExports(uint64_t sample_period, const char *tag)
{
    const std::string json_path =
        std::string(tag) + ".sampled.json";
    const std::string csv_path = std::string(tag) + ".sampled.csv";
    {
        NeurocubeConfig config;
        config.trace.enabled = true;
        config.trace.chromeJsonPath = json_path;
        config.trace.timeseriesCsvPath = csv_path;
        config.trace.windowTicks = 64;
        config.trace.samplePeriod = sample_period;
        Neurocube cube(config);
        runTinyConv(cube);
    }
    return {slurp(json_path), slurp(csv_path)};
}

TEST(TraceIntegration, SampledExportsAreDeterministic)
{
    // Same workload + same sample period twice: the exports must be
    // byte-identical (sampling is a pure function of the tick, never
    // of wall clock or ring pressure).
    auto first = sampledRunExports(3, "test_trace_det_a");
    auto second = sampledRunExports(3, "test_trace_det_b");
    ASSERT_FALSE(first.first.empty());
    ASSERT_FALSE(first.second.empty());
    EXPECT_EQ(first.first, second.first);   // chrome JSON
    EXPECT_EQ(first.second, second.second); // timeseries CSV

    // And the sampled stream is a genuine subset: fewer trace events
    // than the full-fidelity run of the same workload.
    auto full = sampledRunExports(1, "test_trace_det_full");
    JsonChecker sampled_json(first.first);
    JsonChecker full_json(full.first);
    ASSERT_TRUE(sampled_json.parse());
    ASSERT_TRUE(full_json.parse());
    EXPECT_LT(sampled_json.traceEvents(), full_json.traceEvents());
}

/** One slice of a Chrome trace's "phases" track. */
struct ChromePhase
{
    std::string kind;
    Tick start = 0;
    Tick duration = 0;
    unsigned windows = 0;
};

/** The "phases" track slices of a Chrome trace, in file order. */
std::vector<ChromePhase>
chromePhases(const std::string &json)
{
    const std::string pid = "\"pid\":"
        + std::to_string(ChromeTraceExporter::phasesPid) + ",";
    auto field = [](const std::string &line, const std::string &key) {
        return std::strtoull(
            line.c_str() + line.find("\"" + key + "\":") + key.size() + 3,
            nullptr, 10);
    };
    std::vector<ChromePhase> phases;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find(pid) == std::string::npos
            || line.find("\"ph\":\"X\"") == std::string::npos) {
            continue;
        }
        const size_t name = line.find("\"name\":\"") + 8;
        phases.push_back({line.substr(name, line.find('"', name) - name),
                          Tick(field(line, "ts")),
                          Tick(field(line, "dur")),
                          unsigned(field(line, "windows"))});
    }
    return phases;
}

TEST(TraceIntegration, PhaseAccessorMatchesTheChromePhasesTrack)
{
    struct Exports
    {
        std::string json;
        std::string csv;
        std::vector<PhaseSegment> midRun;
        std::vector<PhaseSegment> atEnd;
    };
    // Two inferences on one traced machine; with @p ask the phases are
    // read between them and again before the machine is torn down.
    auto traced = [](Tick window, bool ask, const std::string &tag) {
        Exports out;
        {
            NeurocubeConfig config;
            config.trace.enabled = true;
            config.trace.chromeJsonPath = tag + ".json";
            config.trace.timeseriesCsvPath = tag + ".csv";
            config.trace.windowTicks = window;
            Neurocube cube(config);
            runTinyConv(cube);
            if (ask)
                out.midRun = cube.tracePhases();
            runTinyConv(cube);
            if (ask)
                out.atEnd = cube.tracePhases();
        }
        out.json = slurp(tag + ".json");
        out.csv = slurp(tag + ".csv");
        return out;
    };
    // 64-tick windows give many segments; with 1024-tick windows the
    // window open at the mid-run read also takes the second run's
    // first events, so a read that flushed it would split its row.
    for (Tick window : {Tick(64), Tick(1024)}) {
        SCOPED_TRACE(window);
        const Exports plain =
            traced(window, false, "test_trace_phases_plain");
        const Exports asked =
            traced(window, true, "test_trace_phases_asked");

        // Reading the phases moves no exported byte.
        ASSERT_FALSE(plain.csv.empty());
        EXPECT_EQ(asked.csv, plain.csv);
        EXPECT_EQ(asked.json, plain.json);

        // The segments read before teardown are the "phases" track.
        ASSERT_FALSE(asked.midRun.empty());
        ASSERT_FALSE(asked.atEnd.empty());
        EXPECT_LT(asked.midRun.back().startTick,
                  asked.atEnd.back().endTick);
        const std::vector<ChromePhase> track = chromePhases(asked.json);
        ASSERT_EQ(track.size(), asked.atEnd.size());
        for (size_t i = 0; i < track.size(); ++i) {
            const PhaseSegment &segment = asked.atEnd[i];
            EXPECT_EQ(track[i].kind, phaseKindName(segment.kind)) << i;
            EXPECT_EQ(track[i].start, segment.startTick) << i;
            EXPECT_EQ(track[i].duration,
                      segment.endTick - segment.startTick)
                << i;
            EXPECT_EQ(track[i].windows, segment.windows) << i;
        }
    }
}

/** The counter-derived exports of one run. */
struct CounterExports
{
    std::string metrics;
    std::string energy;
    std::string spatial;

    explicit CounterExports(const RunResult &run)
        : metrics(run.metricsJson()), energy(run.energyJson()),
          spatial(run.spatialJson())
    {
    }

    bool operator==(const CounterExports &) const = default;
};

TEST(TraceIsolation, TracedMachinesKeepTheirOwnCounters)
{
    NeurocubeConfig traced;
    traced.trace.enabled = true;
    const CounterExports solo = [&] {
        Neurocube cube(traced);
        return CounterExports(runTinyConv(cube));
    }();
    // The solo run really counted: a valid bottleneck, energy and
    // spatial counters.
    EXPECT_EQ(solo.metrics.find("\"bottleneck\": null"),
              std::string::npos);
    EXPECT_NE(solo.energy.find("\"valid\":true"), std::string::npos);
    EXPECT_EQ(solo.spatial.find("\"pe_mac_sum\": 0"),
              std::string::npos);

    // Two traced machines alive at once, run one after the other.
    {
        Neurocube first(traced);
        Neurocube second(traced);
        EXPECT_TRUE(CounterExports(runTinyConv(first)) == solo);
        EXPECT_TRUE(CounterExports(runTinyConv(second)) == solo);
    }
    // A second machine built and destroyed before the first runs.
    {
        Neurocube first(traced);
        {
            Neurocube second(traced);
        }
        EXPECT_TRUE(CounterExports(runTinyConv(first)) == solo);
    }
}

TEST(TraceIsolation, CountersOnlyThreadedMachineBesideAChromeSink)
{
    const std::string path = "test_trace_idle_neighbour.json";
    NeurocubeConfig chrome;
    chrome.trace.enabled = true;
    chrome.trace.chromeJsonPath = path;
    const std::string idle_alone = [&] {
        {
            Neurocube idle(chrome);
        }
        return slurp(path);
    }();
    ASSERT_FALSE(idle_alone.empty());

    // A counters-only batch machine on ThreadedLanes: its lane
    // workers run while the neighbour's recorder is live.
    NeurocubeConfig counters;
    counters.engine = SimEngine::ThreadedLanes;
    counters.trace.enabled = true;
    counters.batch.lanes = 2;
    auto run_batch = [](Neurocube &cube) {
        const Tensor x = loadTinyConv(cube);
        std::vector<CounterExports> lanes;
        for (const RunResult &lane : cube.runForwardBatch({x, x}).lanes)
            lanes.emplace_back(lane);
        return lanes;
    };
    const std::vector<CounterExports> busy_alone = [&] {
        Neurocube busy(counters);
        return run_batch(busy);
    }();

    {
        Neurocube idle(chrome);
        Neurocube busy(counters);
        EXPECT_EQ(busy.activeEngine(), SimEngine::ThreadedLanes);
        EXPECT_TRUE(run_batch(busy) == busy_alone);
    }
    // The idle machine recorded nothing of its neighbour's run.
    EXPECT_EQ(slurp(path), idle_alone);
}

#endif

} // namespace
} // namespace neurocube
