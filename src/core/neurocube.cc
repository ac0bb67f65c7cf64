#include "core/neurocube.hh"

#include <algorithm>
#include <numeric>
#include <thread>

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

} // namespace

Neurocube::Neurocube(const NeurocubeConfig &config)
    : config_(config), statGroup_(nullptr, "neurocube"),
      compiler_(config),
      statPasses_(&statGroup_, "passes", "PNG passes executed"),
      statLayerCycles_(&statGroup_, "cycles",
                       "total reference-clock cycles simulated")
{
    config_.noc.numNodes = config_.numPes;

    std::vector<unsigned> mem_nodes = config_.resolvedMemoryNodes();
    nc_assert(mem_nodes.size() == config_.dram.numChannels,
              "memoryNodes size %zu != channel count %u",
              mem_nodes.size(), config_.dram.numChannels);
    for (unsigned node : mem_nodes) {
        nc_assert(node < config_.numPes,
                  "memory node %u outside the mesh", node);
    }

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

SimEngine
Neurocube::activeEngine() const
{
    // The recorder ring is single-threaded; lane workers would race
    // on it. The single-threaded event loop emits the same stream
    // (skipped ticks are exactly the ticks no component records at),
    // so tracing costs the thread fan-out only.
    if (probe_.recorder != nullptr
        && config_.engine == SimEngine::ThreadedLanes)
        return SimEngine::Event;
    return config_.engine;
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

const std::vector<NocFabric::LaneView> &
Neurocube::laneViews()
{
    if (laneViews_.empty() && !lanePartition_.empty()) {
        std::vector<std::vector<unsigned>> partition;
        partition.reserve(lanePartition_.size());
        for (const LaneSpec &lane : lanePartition_)
            partition.push_back(lane.nodes);
        laneViews_ = fabric_->buildLaneViews(partition);
    }
    return laneViews_;
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

    // The pass loop: step one scheduler until lanes [first, last)
    // are done, stamping each lane's end tick into done[].
    std::vector<Tick> done(active, 0);
    auto drive = [&](PassScheduler &sched, unsigned first,
                     unsigned last) {
        unsigned remaining = last - first;
        for (Tick t = start;;) {
            // Stamp executed ticks only: a skipped tick is one no
            // component would have recorded an event at (the sleep
            // conditions guarantee it), so the stream matches the
            // tick-all mode's every-tick stamping bit for bit.
            NC_TRACE_TICK(probe_, t);
            sched.step(t);
            if (uint64_t skipped = sched.takeSkippedTicks())
                NC_TRACE(probe_, TraceComponent::Sim, 0,
                         TraceEventType::EngineSkip, 0, skipped);
            // Done-ness only changes through actions at executed
            // ticks, so checking after each one finds every lane's
            // end exactly.
            const Tick stamp = t + 1;
            for (unsigned l = first; l < last; ++l) {
                if (done[l] == 0 && laneDone(lanes[l])) {
                    done[l] = stamp;
                    --remaining;
                    if (lanes[l].spec != nullptr)
                        NC_TRACE(probe_, TraceComponent::Sim, l,
                                 TraceEventType::LaneDone, 0,
                                 stamp - start);
                }
            }
            if (stamp >= deadline) {
                nc_panic("pass deadlock: %u lanes pending after %llu "
                         "ticks (%llu operand pairs)", remaining,
                         (unsigned long long)(stamp - start),
                         (unsigned long long)pairs);
            }
            if (remaining == 0)
                return;
            Tick next = sched.minWake();
            if (next == tickNever || next >= deadline) {
                // Tick-all mode would no-op-tick its way to the
                // deadline and panic there; report it now.
                nc_panic("pass deadlock: %u lanes pending, all "
                         "components asleep at tick %llu (%llu "
                         "operand pairs)", remaining,
                         (unsigned long long)(stamp - start),
                         (unsigned long long)pairs);
            }
            t = next;
        }
    };

    // Legacy and Event run one scheduler over the whole machine.
    // ThreadedLanes gives each lane of a batch its own scheduler over
    // its fabric slice and worker thread. Parked lanes get one too:
    // they never step, but the catch-up below accounts their idle
    // components in bulk. The lanes touch disjoint per-node state
    // (the lane checker asserts no packet crosses lanes); shared
    // fabric aggregates detour through per-node scratch meanwhile.
    const SimEngine engine = activeEngine();
    const bool fan_out = engine == SimEngine::ThreadedLanes
                      && lanes.front().spec != nullptr;
    std::vector<std::unique_ptr<PassScheduler>> scheds;
    if (fan_out) {
        fabric_->setLaneStatsMode(true);
        for (unsigned l = 0; l < lanes.size(); ++l) {
            scheds.push_back(std::make_unique<PassScheduler>(
                slice(lanes[l], &laneViews()[l]), start));
        }
        std::vector<std::thread> workers;
        for (unsigned l = 1; l < active; ++l)
            workers.emplace_back([&, l] { drive(*scheds[l], l, l + 1); });
        drive(*scheds[0], 0, 1);
        for (std::thread &w : workers)
            w.join();
    } else {
        scheds.push_back(std::make_unique<PassScheduler>(
            slice(machineLane(), nullptr), start,
            engine == SimEngine::Legacy));
        drive(*scheds[0], 0, active);
    }

    // Every component stays accounted until the pass's global end,
    // when the slowest lane is done.
    const Tick final = *std::max_element(done.begin(), done.end());
    NC_TRACE_TICK(probe_, final);
    for (auto &sched : scheds) {
        sched->catchupAll(final);
        if (uint64_t skipped = sched->takeSkippedTicks())
            NC_TRACE(probe_, TraceComponent::Sim, 0,
                     TraceEventType::EngineSkip, 0, skipped);
    }
    if (fan_out) {
        fabric_->foldLaneStats();
        fabric_->setLaneStatsMode(false);
    }
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
    report.nocLatency = summarize(fabric_->latencyHistogram());

    // Free-standing aggregation targets (never registered/dumped).
    Histogram dram(nullptr, "", "");
    Histogram pe_cache(nullptr, "", "");
    Histogram png_queue(nullptr, "", "");
    for (unsigned ch : lane.channels) {
        dram.merge(channels_[ch]->queueResidencyHistogram());
        png_queue.merge(pngs_[ch]->outQueueDepthHistogram());
    }
    for (unsigned node : lane.nodes)
        pe_cache.merge(pes_[node]->cacheOccupancyHistogram());
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
        // batching needs the HMC-style identity attachment (one vault
        // under every PE).
        nc_assert(config_.dram.numChannels == config_.numPes,
                  "batch lanes need one memory channel per PE "
                  "(%u channels, %u PEs)",
                  config_.dram.numChannels, config_.numPes);
        std::vector<unsigned> mem_nodes = config_.resolvedMemoryNodes();
        for (unsigned ch = 0; ch < mem_nodes.size(); ++ch) {
            nc_assert(mem_nodes[ch] == ch,
                      "batch lanes need identity channel attachment "
                      "(channel %u at node %u)", ch, mem_nodes[ch]);
        }
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
    // count). The fabric lane map is per-run — runForwardBatch arms
    // it on entry and clears it on exit.
    lanePartition_.clear();
    laneViews_.clear();
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

    // Arm the fabric's lane checker: with >1 lane, any packet that
    // leaves its vault group is counted as a violation.
    if (lanes.size() > 1) {
        std::vector<uint16_t> lane_of(config_.numPes, 0);
        for (const LaneSpec &lane : lanePartition_) {
            for (unsigned node : lane.nodes)
                lane_of[node] = uint16_t(lane.index);
        }
        fabric_->setLaneMap(std::move(lane_of));
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
    fabric_->setLaneMap({});
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
