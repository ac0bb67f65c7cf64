#include "core/neurocube.hh"

#include <algorithm>
#include <numeric>
#include <optional>
#include <thread>

#include <sched.h>

#include "common/logging.hh"
#include "core/analytic_model.hh"

namespace neurocube
{

namespace
{

/**
 * Place one measured layer on the machine roofline: achieved rates
 * from the layer's own counters, ceilings and bound attribution from
 * the analytic model. Pure arithmetic over already-measured values —
 * never perturbs the simulation.
 */
RooflinePoint
rooflinePoint(const LayerDesc &layer, const NeurocubeConfig &config,
              const LayerResult &r)
{
    RooflinePoint p;
    if (r.cycles == 0)
        return p;
    RooflineCeilings roof = rooflineCeilings(config);
    p.valid = true;
    p.macPerCycle = double(r.ops / 2) / double(r.cycles);
    p.macCeiling = roof.macsPerCycle;
    p.bytesPerCycle = double(r.dramBits / 8) / double(r.cycles);
    p.bytesCeiling = roof.dramBytesPerCycle;
    p.bound = analyticLayerEstimate(layer, config).boundLabel();
    return p;
}

/** Five-number summary of a histogram for the bottleneck report. */
HistogramSummary
summarize(const Histogram &h)
{
    return {h.count(), h.mean(), h.p50(), h.p99(), h.max()};
}

/** Monotone per-lane counters the layer probe differences. */
struct LaneCounts
{
    uint64_t macs = 0;
    uint64_t bits = 0;
    uint64_t lateral = 0;
    uint64_t local = 0;
};

/** StepReport flags in the arg of a bucket's EngineSkip mark. */
constexpr uint32_t markFabricTicked = 1;
constexpr uint32_t markPeInjected = 2;

/**
 * The Sim track of a pass split over several schedulers, rebuilt from
 * their per-tick marks as one scheduler over the whole machine
 * records it. At every executed tick, EngineSkip carries the
 * schedulers' replayed component-ticks plus the machine fabric's: the
 * machine fabric ticks exactly when some scheduler's fabric does, and
 * a PE injection on a tick it did not tick credits it up to the next
 * tick (PassScheduler::onInject). LaneDone fires when a lane's last
 * part is done, in lane order.
 */
class MachineSimTrack final : public TraceMarkSink
{
  public:
    /**
     * @param parts_left per lane, the parts that report LaneDone
     *        (0: the lane records none)
     */
    MachineSimTrack(TraceRecorder &recorder, Tick start,
                    std::vector<unsigned> parts_left)
        : recorder_(recorder), start_(start), fabricAcct_(start),
          partsLeft_(std::move(parts_left))
    {
    }

    void
    tickMarked(Tick t, const TraceEvent *marks, size_t count) override
    {
        uint64_t skipped = 0;
        bool fabric = false;
        bool pe_injected = false;
        finished_.clear();
        for (size_t i = 0; i < count; ++i) {
            const TraceEvent &m = marks[i];
            if (m.type == TraceEventType::LaneDone) {
                if (--partsLeft_[m.instance] == 0)
                    finished_.push_back(m.instance);
                continue;
            }
            skipped += m.value;
            fabric = fabric || (m.arg & markFabricTicked);
            pe_injected = pe_injected || (m.arg & markPeInjected);
        }
        if (fabric || pe_injected) {
            const Tick to = fabric ? t : t + 1;
            if (fabricAcct_ < to)
                skipped += to - fabricAcct_;
            fabricAcct_ = t + 1;
        }
        if (skipped > 0)
            record(t, TraceEventType::EngineSkip, 0, skipped);
        std::sort(finished_.begin(), finished_.end());
        for (unsigned lane : finished_)
            record(t, TraceEventType::LaneDone, lane, t + 1 - start_);
    }

    /** The machine fabric's ticks replayed by the end-of-pass catch-up. */
    uint64_t
    catchUp(Tick final)
    {
        const uint64_t skipped =
            fabricAcct_ < final ? final - fabricAcct_ : 0;
        fabricAcct_ = std::max(fabricAcct_, final);
        return skipped;
    }

  private:
    void
    record(Tick t, TraceEventType type, unsigned instance, uint64_t value)
    {
        if (!recorder_.accepts(TraceComponent::Sim))
            return;
        TraceEvent event;
        event.tick = t;
        event.component = TraceComponent::Sim;
        event.type = type;
        event.instance = uint16_t(instance);
        event.value = value;
        recorder_.push(event);
    }

    TraceRecorder &recorder_;
    const Tick start_;
    Tick fabricAcct_;
    std::vector<unsigned> partsLeft_;
    /** Lanes whose last part finished at the tick being rebuilt. */
    std::vector<unsigned> finished_;
};

/**
 * CPUs this process may run on. std::thread::hardware_concurrency()
 * goes through glibc's get_nprocs, which measured 0.3 MB more peak
 * RSS per process; the affinity mask is one system call and honours
 * a cpuset too.
 */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return unsigned(std::max(1, CPU_COUNT(&set)));
}

/** Position of mesh node @p node along a Z-order curve over the grid. */
uint64_t
zOrder(unsigned node, unsigned width)
{
    const unsigned x = node % width;
    const unsigned y = node / width;
    uint64_t code = 0;
    for (unsigned bit = 0; bit < 16; ++bit) {
        code |= uint64_t((x >> bit) & 1) << (2 * bit);
        code |= uint64_t((y >> bit) & 1) << (2 * bit + 1);
    }
    return code;
}

} // namespace

Neurocube::Neurocube(const NeurocubeConfig &config)
    : config_(config), statGroup_(nullptr, "neurocube"),
      compiler_(config),
      statPasses_(&statGroup_, "passes", "PNG passes executed"),
      statLayerCycles_(&statGroup_, "cycles",
                       "total reference-clock cycles simulated")
{
    config_.noc.numNodes = config_.numPes;

    const std::vector<unsigned> mem_nodes = config_.resolvedMemoryNodes();

    if (config_.batch.lanes > 1)
        buildBatchLanes();

    if (config_.trace.enabled) {
#if NEUROCUBE_TRACE_ENABLED
        TraceTopology topology;
        topology.numRouters = config_.numPes;
        topology.numPes = config_.numPes;
        topology.numVaults = config_.dram.numChannels;
        topology.vaultNode.assign(mem_nodes.begin(),
                                  mem_nodes.end());
        if (!lanePartition_.empty()) {
            topology.laneOf.assign(config_.numPes, 0);
            for (const LaneSpec &lane : lanePartition_) {
                for (unsigned node : lane.nodes)
                    topology.laneOf[node] = uint16_t(lane.index);
            }
        }
        traceSession_ =
            std::make_unique<TraceSession>(config_.trace, topology);
        probe_ = traceSession_->probe();
#else
        nc_warn("tracing requested but compiled out "
                "(rebuild with -DNEUROCUBE_TRACE=ON)");
#endif
    }

    fabric_ = std::make_unique<NocFabric>(config_.noc, &statGroup_,
                                          probe_);

    for (unsigned ch = 0; ch < config_.dram.numChannels; ++ch) {
        channels_.push_back(std::make_unique<MemoryChannel>(
            config_.dram, &statGroup_,
            "vault" + std::to_string(ch), uint16_t(ch), probe_));
        pngs_.push_back(std::make_unique<Png>(
            VaultId(mem_nodes[ch]), *channels_[ch], *fabric_,
            &statGroup_, probe_));
    }
    for (unsigned p = 0; p < config_.numPes; ++p) {
        pes_.push_back(
            std::make_unique<Pe>(PeId(p), &statGroup_, probe_));
    }
}

void
Neurocube::loadNetwork(const NetworkDesc &net, const NetworkData &data)
{
    net.validate();
    nc_assert(data.weights.size() == net.layers.size(),
              "parameter blocks (%zu) != layers (%zu)",
              data.weights.size(), net.layers.size());
    net_ = net;
    data_ = data;
    activations_.assign(net.layers.size(), Tensor());
}

void
Neurocube::setInput(const Tensor &input)
{
    nc_assert(!net_.layers.empty(), "setInput before loadNetwork");
    const LayerDesc &first = net_.layers.front();
    nc_assert(input.maps() == first.inMaps
                  && input.height() == first.inHeight
                  && input.width() == first.inWidth,
              "input tensor %ux%ux%u does not match network input "
              "%ux%ux%u", input.maps(), input.height(), input.width(),
              first.inMaps, first.inHeight, first.inWidth);
    input_ = input;
}

std::vector<PhaseSegment>
Neurocube::tracePhases()
{
    return traceSession_ ? traceSession_->phases()
                         : std::vector<PhaseSegment>{};
}

SpatialTopology
Neurocube::spatialTopology() const
{
    return probe_.registry ? probe_.registry->topology()
                           : SpatialTopology{};
}

Neurocube::Lane
Neurocube::machineLane() const
{
    Lane lane;
    lane.nodes.resize(pes_.size());
    std::iota(lane.nodes.begin(), lane.nodes.end(), 0u);
    lane.channels.resize(channels_.size());
    std::iota(lane.channels.begin(), lane.channels.end(), 0u);
    return lane;
}

PassScheduler::Slice
Neurocube::slice(const Lane &lane, const NocFabric::LaneView *view)
{
    PassScheduler::Slice s;
    s.fabric = fabric_.get();
    s.view = view;
    s.numNodes = config_.numPes;
    s.numChannels = unsigned(channels_.size());
    s.probe = probe_;
    s.channelIds = lane.channels;
    for (unsigned ch : lane.channels) {
        s.channels.push_back(channels_[ch].get());
        s.pngs.push_back(pngs_[ch].get());
        s.channelNodes.push_back(unsigned(pngs_[ch]->id()));
    }
    s.peIds = lane.nodes;
    for (unsigned node : lane.nodes)
        s.pes.push_back(pes_[node].get());
    return s;
}

std::vector<Neurocube::Bucket>
Neurocube::passBuckets(const std::vector<Lane> &lanes,
                       const std::vector<CompiledLayer> &compiled) const
{
    const unsigned active = unsigned(compiled.size());
    const unsigned n = config_.numPes;

    // The groups: each active lane's traffic groups, and each node of
    // a parked lane alone. A group's weight is its PNGs' pair budget.
    struct Group
    {
        uint64_t weight = 0;
        unsigned bucket = 0;
    };
    std::vector<Group> groups;
    std::vector<unsigned> group_of(n);
    std::vector<unsigned> group_of_root(n, ~0u);
    for (unsigned l = 0; l < lanes.size(); ++l) {
        const std::vector<unsigned> *roots =
            l < active ? &compiled[l].plan->nodeGroups(*fabric_)
                       : nullptr;
        for (unsigned node : lanes[l].nodes) {
            unsigned &g = group_of_root[roots ? (*roots)[node] : node];
            if (g == ~0u) {
                g = unsigned(groups.size());
                groups.emplace_back();
            }
            group_of[node] = g;
        }
    }
    unsigned weighted = 0;
    for (const auto &png : pngs_) {
        Group &g = groups[group_of[png->id()]];
        weighted += g.weight == 0 && png->pairBudget() > 0;
        g.weight += png->pairBudget();
    }
    // One bucket per thread, at most one per weighted group; Legacy
    // and Event pack everything into one.
    const unsigned threads =
        config_.engine == SimEngine::ThreadedLanes
            ? std::max(1u, std::min(weighted, usableCpus()))
            : 1u;

    // Each node's home bucket follows a Z-order curve over the mesh,
    // so a node stays on the same thread from pass to pass while the
    // grouping allows (the quadrants of a 4x4 mesh on 4 threads,
    // batched into 1, 2 or 4 lanes alike). A group goes home with its
    // last node along the curve.
    unsigned width = 1;
    while (width * width < n)
        ++width;
    std::vector<unsigned> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
        return zOrder(a, width) < zOrder(b, width);
    });
    for (unsigned r = 0; r < n; ++r)
        groups[group_of[order[r]]].bucket = r * threads / n;
    std::vector<uint64_t> load(threads, 0);
    for (const Group &g : groups)
        load[g.bucket] += g.weight;
    // Balance the buckets by weight: move a group from the heaviest
    // bucket it can leave to the lightest one, while that lowers the
    // pair's larger load.
    for (;;) {
        const auto lo = std::min_element(load.begin(), load.end());
        Group *move = nullptr;
        for (Group &g : groups) {
            if (g.weight == 0 || load[g.bucket] <= *lo + g.weight)
                continue;
            if (move == nullptr || load[g.bucket] > load[move->bucket]
                || (load[g.bucket] == load[move->bucket]
                    && g.weight > move->weight))
                move = &g;
        }
        if (move == nullptr)
            break;
        load[move->bucket] -= move->weight;
        move->bucket = unsigned(lo - load.begin());
        *lo += move->weight;
    }

    std::vector<Bucket> buckets(threads);
    for (unsigned node = 0; node < n; ++node)
        buckets[groups[group_of[node]].bucket].slice.nodes.push_back(node);
    for (unsigned ch = 0; ch < pngs_.size(); ++ch) {
        const unsigned node = unsigned(pngs_[ch]->id());
        buckets[groups[group_of[node]].bucket].slice.channels.push_back(ch);
    }
    for (Bucket &bucket : buckets) {
        for (unsigned l = 0; l < active; ++l) {
            Bucket::Part part{l, {lanes[l].spec, {}, {}}};
            for (unsigned node : bucket.slice.nodes) {
                if (std::binary_search(lanes[l].nodes.begin(),
                                       lanes[l].nodes.end(), node))
                    part.members.nodes.push_back(node);
            }
            for (unsigned ch : bucket.slice.channels) {
                if (std::binary_search(lanes[l].channels.begin(),
                                       lanes[l].channels.end(), ch))
                    part.members.channels.push_back(ch);
            }
            if (!part.members.nodes.empty()
                || !part.members.channels.empty())
                bucket.parts.push_back(std::move(part));
        }
    }
    std::erase_if(buckets, [](const Bucket &b) {
        return b.slice.nodes.empty() && b.slice.channels.empty();
    });
    return buckets;
}

bool
Neurocube::laneDone(const Lane &lane) const
{
    // Over the machine lane this is "every PNG and PE done, every
    // channel idle, the fabric idle": NocFabric::idle() means every
    // node is quiescent.
    for (unsigned ch : lane.channels) {
        if (!pngs_[ch]->done() || !channels_[ch]->idle())
            return false;
    }
    for (unsigned node : lane.nodes) {
        if (!pes_[node]->done() || !fabric_->nodeQuiescent(node))
            return false;
    }
    return true;
}

std::vector<Tick>
Neurocube::runPass(const std::vector<Lane> &lanes,
                   const std::vector<CompiledLayer> &compiled)
{
    // The host writes every PNG's configuration registers, then
    // releases them (Sec. II-C). Events stamped here (PNG Configured
    // phases) carry the tick after the configuration window.
    now_ += config_.configTicksPerPass;
    NC_TRACE_TICK(probe_, now_);
    const unsigned active = unsigned(compiled.size());
    for (unsigned l = 0; l < lanes.size(); ++l) {
        // Active lanes get their programs, idle lanes are parked on
        // disabled ones.
        const Lane &lane = lanes[l];
        for (unsigned i = 0; i < lane.channels.size(); ++i) {
            pngs_[lane.channels[i]]->configure(
                l < active ? compiled[l].programs()[i] : PngProgram{});
        }
        for (unsigned i = 0; i < lane.nodes.size(); ++i) {
            pes_[lane.nodes[i]]->configurePass(
                l < active ? compiled[l].peConfig(i) : PePassConfig{});
        }
    }

    // Safety net: a pass can never legitimately exceed this budget
    // (every operand pair needs at least one DRAM word somewhere).
    uint64_t pairs = 0;
    for (const auto &png : pngs_)
        pairs += png->pairBudget();
    const Tick start = now_;
    const Tick deadline = start + 10000 + 400 * pairs;

    // Legacy and Event step one scheduler over the whole machine.
    // ThreadedLanes cuts the pass into buckets that no packet and no
    // router connects, each with its own scheduler over its fabric
    // slice on its own thread. Buckets touch disjoint per-node state,
    // the fabric's counts included.
    std::vector<Bucket> buckets = passBuckets(lanes, compiled);
    const bool fan_out = buckets.size() > 1;
    // A live recorder stages each bucket's events for the merge, and
    // the machine's Sim track is rebuilt from the buckets' marks.
    TraceRecorder *recorder = fan_out ? probe_.recorder : nullptr;
    std::optional<MachineSimTrack> sim;
    if (fan_out) {
        std::vector<std::vector<unsigned>> partition;
        for (const Bucket &bucket : buckets)
            partition.push_back(bucket.slice.nodes);
        if (partition != bucketNodes_) {
            bucketViews_ = fabric_->buildLaneViews(partition);
            bucketNodes_ = std::move(partition);
        }
    }
    // Arm the fabric's lane checker with one cell per (lane, bucket):
    // it counts any packet that leaves its lane or its bucket.
    if (lanes.size() * buckets.size() > 1) {
        std::vector<uint16_t> cells(config_.numPes);
        for (unsigned l = 0; l < lanes.size(); ++l) {
            for (unsigned node : lanes[l].nodes)
                cells[node] = uint16_t(l);
        }
        for (unsigned b = 0; b < buckets.size(); ++b) {
            for (unsigned node : buckets[b].slice.nodes)
                cells[node] = uint16_t(cells[node] + b * lanes.size());
        }
        fabric_->setLaneMap(std::move(cells));
    }
    if (recorder != nullptr) {
        std::vector<unsigned> parts_left(lanes.size(), 0);
        for (const Bucket &bucket : buckets) {
            for (const Bucket::Part &part : bucket.parts)
                parts_left[part.lane] += lanes[part.lane].spec != nullptr;
        }
        sim.emplace(*recorder, start, std::move(parts_left));
        recorder->beginFanOut(unsigned(buckets.size()), start, &*sim);
    }
    std::vector<std::unique_ptr<PassScheduler>> scheds;
    for (unsigned b = 0; b < buckets.size(); ++b) {
        scheds.push_back(std::make_unique<PassScheduler>(
            slice(buckets[b].slice, fan_out ? &bucketViews_[b] : nullptr),
            start, config_.engine == SimEngine::Legacy));
    }

    // The pass loop: step one bucket's scheduler until each of its
    // parts is done, stamping the tick after the part's last action.
    auto drive = [&](unsigned b) {
        PassScheduler &sched = *scheds[b];
        if (recorder != nullptr)
            recorder->stageThread(b);
        size_t remaining = buckets[b].parts.size();
        for (Tick t = start;;) {
            // Stamp executed ticks only: a skipped tick is one no
            // component would have recorded an event at (the sleep
            // conditions guarantee it), so the stream matches the
            // tick-all mode's every-tick stamping bit for bit.
            NC_TRACE_TICK(probe_, t);
            sched.step(t);
            if (recorder != nullptr) {
                const PassScheduler::StepReport r = sched.takeStepReport();
                const uint32_t flags =
                    (r.fabricTicked ? markFabricTicked : 0)
                    | (r.peInjected ? markPeInjected : 0);
                if (r.componentSkips > 0 || flags != 0) {
                    recorder->mark(TraceEventType::EngineSkip, 0, flags,
                                   r.componentSkips);
                }
            } else if (uint64_t skipped = sched.takeSkippedTicks()) {
                NC_TRACE(probe_, TraceComponent::Sim, 0,
                         TraceEventType::EngineSkip, 0, skipped);
            }
            // Done-ness only changes through actions at executed
            // ticks, so checking after each one finds every part's
            // end exactly.
            const Tick stamp = t + 1;
            for (Bucket::Part &part : buckets[b].parts) {
                if (part.done != 0 || !laneDone(part.members))
                    continue;
                part.done = stamp;
                --remaining;
                if (lanes[part.lane].spec == nullptr)
                    continue;
                if (recorder != nullptr) {
                    recorder->mark(TraceEventType::LaneDone,
                                   uint16_t(part.lane), 0, 0);
                } else {
                    NC_TRACE(probe_, TraceComponent::Sim, part.lane,
                             TraceEventType::LaneDone, 0, stamp - start);
                }
            }
            if (stamp >= deadline) {
                nc_panic("pass deadlock: %zu lane parts pending after "
                         "%llu ticks (%llu operand pairs)", remaining,
                         (unsigned long long)(stamp - start),
                         (unsigned long long)pairs);
            }
            if (remaining == 0)
                break;
            Tick next = sched.minWake();
            if (next == tickNever || next >= deadline) {
                // Tick-all mode would no-op-tick its way to the
                // deadline and panic there; report it now.
                nc_panic("pass deadlock: %zu lane parts pending, all "
                         "components asleep at tick %llu (%llu "
                         "operand pairs)", remaining,
                         (unsigned long long)(stamp - start),
                         (unsigned long long)pairs);
            }
            t = next;
        }
        // A done part holds no wake (a vault serving a done PNG
        // leaves it asleep), so no component of a finished bucket
        // acts again this pass: one scheduler over the whole machine
        // executes no tick for it either.
        nc_assert(config_.engine == SimEngine::Legacy
                      || sched.minWake() == tickNever,
                  "finished bucket %u still holds a wake", b);
        if (recorder != nullptr)
            recorder->finishStage();
    };
    // The calling thread runs the first bucket, threads spawned for
    // the pass the others.
    std::vector<std::thread> workers;
    for (unsigned b = 1; b < buckets.size(); ++b)
        workers.emplace_back(drive, b);
    drive(0);
    for (std::thread &w : workers)
        w.join();
    if (recorder != nullptr)
        recorder->endFanOut();

    // A lane is done when its last part is. Every component stays
    // accounted until the pass's global end, when the slowest lane
    // is done; the catch-up is one EngineSkip event.
    std::vector<Tick> done(active, 0);
    for (const Bucket &bucket : buckets) {
        for (const Bucket::Part &part : bucket.parts)
            done[part.lane] = std::max(done[part.lane], part.done);
    }
    const Tick final = *std::max_element(done.begin(), done.end());
    NC_TRACE_TICK(probe_, final);
    uint64_t skipped = 0;
    for (auto &sched : scheds) {
        sched->catchupAll(final);
        skipped += recorder != nullptr
                       ? sched->takeStepReport().componentSkips
                       : sched->takeSkippedTicks();
    }
    if (recorder != nullptr)
        skipped += sim->catchUp(final);
    if (skipped > 0) {
        NC_TRACE(probe_, TraceComponent::Sim, 0,
                 TraceEventType::EngineSkip, 0, skipped);
    }
    fabric_->setLaneMap({});
    fabric_->refreshStats();
    now_ = final;
    statPasses_ += 1;
    std::vector<Tick> cycles(active);
    for (unsigned l = 0; l < active; ++l)
        cycles[l] = config_.configTicksPerPass + (done[l] - start);
    return cycles;
}

std::vector<LayerResult>
Neurocube::runLayerOnLanes(const LayerDesc &layer,
                           const std::vector<Lane> &lanes,
                           const std::vector<CompiledLayer> &compiled)
{
    const unsigned active = unsigned(compiled.size());

    // Layer probe, before the pass: per-lane counters, and one
    // snapshot of the machine's counter registry that the pass turns
    // into the layer's delta.
    auto counts = [&](const Lane &lane) {
        LaneCounts c;
        for (unsigned node : lane.nodes) {
            c.macs += pes_[node]->macOps();
            c.lateral += fabric_->nodeLateralPackets(node);
            c.local += fabric_->nodeLocalPackets(node);
        }
        for (unsigned ch : lane.channels)
            c.bits += channels_[ch]->bitsTransferred();
        return c;
    };
    std::vector<LaneCounts> before(active);
    for (unsigned l = 0; l < active; ++l)
        before[l] = counts(lanes[l]);
    MetricsRegistry *registry = probe_.registry;
    MetricsSnapshot delta;
    if (registry)
        delta = registry->snapshot();

    const Tick layer_start = now_;
    const std::vector<Tick> cycles = runPass(lanes, compiled);
    statLayerCycles_ += now_ - layer_start;

    if (registry)
        delta = registry->snapshot().delta(delta);

    // Layer probe, after: each lane's share of the delta becomes its
    // LayerResult. The machine lane reads the delta unfiltered; a
    // batch lane filters it to its nodes, which select its routers,
    // PEs and PNGs, and (batching requires the identity vault
    // attachment) its channels.
    std::vector<LayerResult> results(active);
    for (unsigned l = 0; l < active; ++l) {
        const Lane &lane = lanes[l];
        const LaneCounts after = counts(lane);
        LayerResult &r = results[l];
        r.name = layer.name.empty() ? layerTypeName(layer.type)
                                    : layer.name;
        r.passes = 1;
        r.cycles = cycles[l];
        r.ops = 2 * (after.macs - before[l].macs);
        r.dramBits = after.bits - before[l].bits;
        r.lateralPackets = after.lateral - before[l].lateral;
        r.localPackets = after.local - before[l].local;

        LayerFootprint fp = layerFootprint(
            layer, config_.mapping, unsigned(lane.channels.size()));
        r.memoryBytes = fp.totalBytes();
        r.duplicationBytes = fp.duplicationBytes;

        if (registry) {
            const MetricsSnapshot lane_delta =
                lane.spec ? registry->filterToNodes(delta, lane.nodes)
                          : delta;
            r.bottleneck = buildBottleneckReport(lane_delta);
            fillHistogramSummaries(r.bottleneck, lane);
            r.energy = lane_delta.energyCounts();
            r.spatial = lane_delta.spatialCounts();
        }
        // The lane owns its share of the PEs and vault channels, so
        // its ceilings come from a machine shrunk to the lane.
        NeurocubeConfig lane_cfg = config_;
        lane_cfg.numPes = unsigned(lane.nodes.size());
        lane_cfg.dram.numChannels = unsigned(lane.channels.size());
        r.roofline = rooflinePoint(layer, lane_cfg, r);
    }
    return results;
}

void
Neurocube::fillHistogramSummaries(BottleneckReport &report,
                                  const Lane &lane)
{
    // Free-standing aggregation targets (never registered/dumped).
    Histogram dram(nullptr, "", "");
    Histogram pe_cache(nullptr, "", "");
    Histogram png_queue(nullptr, "", "");
    Histogram noc_latency(nullptr, "", "");
    for (unsigned ch : lane.channels) {
        dram.merge(channels_[ch]->queueResidencyHistogram());
        png_queue.merge(pngs_[ch]->outQueueDepthHistogram());
    }
    // A packet's latency counts at the node that ejects it, and a
    // batch lane's packets stay inside its nodes; the machine lane
    // holds every node.
    for (unsigned node : lane.nodes) {
        pe_cache.merge(pes_[node]->cacheOccupancyHistogram());
        noc_latency.merge(fabric_->nodeLatencyHistogram(node));
    }
    report.nocLatency = summarize(noc_latency);
    report.dramQueueResidency = summarize(dram);
    report.peCacheOccupancy = summarize(pe_cache);
    report.pngOutQueueDepth = summarize(png_queue);
}

LayerResult
Neurocube::runSingleLayer(const LayerDesc &layer,
                          const std::vector<Fixed> &weights,
                          const Tensor &input, Tensor *output)
{
    const std::vector<Lane> lanes{machineLane()};
    std::vector<BackingStore *> stores;
    for (unsigned ch : lanes[0].channels)
        stores.push_back(&channels_[ch]->store());
    std::vector<CompiledLayer> compiled;
    compiled.push_back(compiler_.compile(layer, weights, input, stores));
    LayerResult result = runLayerOnLanes(layer, lanes, compiled)[0];
    if (output)
        *output = compiler_.gather(compiled[0], stores);
    return result;
}

LayerResult
Neurocube::runLayer(size_t index)
{
    nc_assert(index < net_.layers.size(), "layer index %zu out of %zu",
              index, net_.layers.size());
    const Tensor &input = index == 0 ? input_ : activations_[index - 1];
    nc_assert(input.size() > 0,
              "layer %zu input missing (run earlier layers first)",
              index);
    Tensor output;
    LayerResult result = runSingleLayer(
        net_.layers[index], data_.weights[index], input, &output);
    activations_[index] = std::move(output);
    return result;
}

RunResult
Neurocube::runForward()
{
    RunResult run;
    run.spatialTopology = spatialTopology();
    for (size_t i = 0; i < net_.layers.size(); ++i)
        run.layers.push_back(runLayer(i));
    return run;
}

const Tensor &
Neurocube::layerOutput(size_t index) const
{
    nc_assert(index < activations_.size(), "no such layer %zu", index);
    return activations_[index];
}

void
Neurocube::buildBatchLanes()
{
    const unsigned lanes = std::max(1u, config_.batch.lanes);
    if (lanes > 1) {
        // Lane compilation addresses channel i through mesh node i, so
        // batching needs the HMC-style identity attachment: one vault
        // under every PE, which the even placement then gives.
        nc_assert(config_.dram.numChannels == config_.numPes,
                  "batch lanes need one memory channel per PE "
                  "(%u channels, %u PEs)",
                  config_.dram.numChannels, config_.numPes);
    }
    lanePartition_ = buildLanePartition(config_.numPes, lanes);
}

void
Neurocube::setBatchLanes(unsigned lanes)
{
    nc_assert(lanes >= 1, "batch needs at least one lane");
    if (lanes == config_.batch.lanes && !lanePartition_.empty())
        return;
    nc_assert(fabric_->idle(),
              "setBatchLanes with packets in flight");
    config_.batch.lanes = lanes;
    // Drop state tied to the old partition: gathered lane outputs
    // and the partition itself (rebuilt below against the new lane
    // count). The fabric's lane checker holds nothing between passes:
    // runPass arms it with each pass's lanes and clears it after.
    lanePartition_.clear();
    batchActivations_.clear();
    // The old partition's lane-keyed plans are unreachable now.
    compiler_.invalidatePlanCache();
    buildBatchLanes();
}

void
Neurocube::advanceIdleTo(Tick when)
{
    if (when <= now_)
        return;
    nc_assert(fabric_->idle(), "advanceIdleTo with packets in flight");
    for (const auto &channel : channels_) {
        nc_assert(channel->idle(),
                  "advanceIdleTo with DRAM work pending");
    }
    now_ = when;
}

BatchRunResult
Neurocube::runForwardBatch(const std::vector<Tensor> &inputs)
{
    nc_assert(!net_.layers.empty(), "runForwardBatch before loadNetwork");
    if (lanePartition_.empty())
        buildBatchLanes();
    // Batching requires the identity vault attachment (channel i at
    // node i, asserted by buildBatchLanes), so a lane's nodes are its
    // channels too.
    std::vector<Lane> lanes;
    for (const LaneSpec &spec : lanePartition_)
        lanes.push_back({&spec, spec.nodes, spec.nodes});
    nc_assert(!inputs.empty() && inputs.size() <= lanes.size(),
              "batch of %zu inputs on %zu lanes", inputs.size(),
              lanes.size());
    const unsigned active = unsigned(inputs.size());

    const LayerDesc &first = net_.layers.front();
    for (const Tensor &in : inputs) {
        nc_assert(in.maps() == first.inMaps
                      && in.height() == first.inHeight
                      && in.width() == first.inWidth,
                  "batch input %ux%ux%u does not match network input "
                  "%ux%ux%u", in.maps(), in.height(), in.width(),
                  first.inMaps, first.inHeight, first.inWidth);
    }

    batchActivations_.assign(lanes.size(), {});
    for (unsigned l = 0; l < active; ++l)
        batchActivations_[l].assign(net_.layers.size(), Tensor());

    BatchRunResult result;
    result.lanes.assign(active, RunResult{});
    const SpatialTopology spatial_topo = spatialTopology();
    for (unsigned l = 0; l < active; ++l)
        result.lanes[l].spatialTopology = spatial_topo;

    const Tick batch_start = now_;

    for (size_t li = 0; li < net_.layers.size(); ++li) {
        const LayerDesc &layer = net_.layers[li];

        // Compile the layer once per active lane, each against its own
        // vault group's stores and input.
        std::vector<CompiledLayer> compiled(active);
        std::vector<std::vector<BackingStore *>> lane_stores(active);
        for (unsigned l = 0; l < active; ++l) {
            for (unsigned ch : lanes[l].channels)
                lane_stores[l].push_back(&channels_[ch]->store());
            const Tensor &in =
                li == 0 ? inputs[l] : batchActivations_[l][li - 1];
            compiled[l] = compiler_.compile(layer, data_.weights[li],
                                            in, lane_stores[l],
                                            lanes[l].spec);
        }
        std::vector<LayerResult> lr =
            runLayerOnLanes(layer, lanes, compiled);
        for (unsigned l = 0; l < active; ++l) {
            result.lanes[l].layers.push_back(std::move(lr[l]));
            batchActivations_[l][li] =
                compiler_.gather(compiled[l], lane_stores[l]);
        }
    }

    result.cycles = now_ - batch_start;
    return result;
}

const Tensor &
Neurocube::batchLayerOutput(unsigned lane, size_t index) const
{
    nc_assert(lane < batchActivations_.size()
                  && index < batchActivations_[lane].size(),
              "no batch output for lane %u layer %zu", lane, index);
    return batchActivations_[lane][index];
}

} // namespace neurocube
