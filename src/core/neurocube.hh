/**
 * @file
 * The Neurocube machine: 16 vaults + PNGs, a NoC, and 16 PEs on the
 * logic die of an HMC (paper Fig. 5), with the host-side global
 * controller that programs it layer by layer.
 *
 * Execution model (Section II-C): the host lays a layer's data out in
 * the cube, writes every PNG's configuration registers, and releases
 * the configuration-enable signal; execution is then fully data
 * driven until the PNGs report layer-done. The simulator advances all
 * components on the shared 5 GHz reference clock and gathers the
 * functional outputs so they can be compared bit-for-bit with the
 * sequential reference model.
 */

#ifndef NEUROCUBE_CORE_NEUROCUBE_HH
#define NEUROCUBE_CORE_NEUROCUBE_HH

#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/engine.hh"
#include "core/layer_compiler.hh"
#include "core/results.hh"
#include "dram/memory_channel.hh"
#include "nn/network.hh"
#include "nn/reference.hh"
#include "noc/fabric.hh"
#include "pe/pe.hh"
#include "png/png.hh"
#include "trace/trace.hh"

namespace neurocube
{

/** One simulated Neurocube instance. */
class Neurocube
{
  public:
    explicit Neurocube(const NeurocubeConfig &config);

    /** Load a network and its parameters. */
    void loadNetwork(const NetworkDesc &net, const NetworkData &data);

    /** Set the input activations for the next forward run. */
    void setInput(const Tensor &input);

    /**
     * Execute one layer on the machine (its one pass).
     *
     * @param index layer index within the loaded network
     * @return cycle and traffic statistics for the layer
     */
    LayerResult runLayer(size_t index);

    /** Execute every layer in order. */
    RunResult runForward();

    /**
     * Execute the loaded network for several independent inputs
     * concurrently, one per batch lane (config().batch.lanes vault
     * groups). Every lane runs the same layer/pass sequence inside
     * one shared cycle loop; completion is detected per lane, so each
     * lane's LayerResult carries its own cycle count while the
     * aggregate reflects the slowest lane. Outputs are gathered per
     * lane and are bit-exact with a sequential runForward of the same
     * input.
     *
     * @param inputs one input tensor per lane (1 <= n <= lanes;
     *        trailing lanes idle when fewer inputs than lanes)
     */
    BatchRunResult runForwardBatch(const std::vector<Tensor> &inputs);

    /** Gathered output of a layer for one batch lane. */
    const Tensor &batchLayerOutput(unsigned lane, size_t index) const;

    /** The lane partition used by runForwardBatch. */
    const std::vector<LaneSpec> &lanePartition() const
    {
        return lanePartition_;
    }

    /**
     * Reconfigure the number of batch lanes for subsequent
     * runForwardBatch calls (the serving scheduler resizes online as
     * queue depth shifts). Rebuilds the lane partition, revalidates
     * the batching preconditions, and drops the gathered outputs of
     * earlier batch runs. Only legal between runs, when the machine
     * is quiescent; per-lane tracks in an already-open trace session
     * keep the lane prefixes of the construction-time partition.
     */
    void setBatchLanes(unsigned lanes);

    /** The layer compiler (plan-cache statistics). */
    const LayerCompiler &compiler() const { return compiler_; }

    /**
     * Fast-forward the simulation clock to @p when without ticking
     * any component. Only legal while the machine is idle (between
     * runs): with nothing in flight, skipping the gap is equivalent
     * to simulating it. Lets an open-loop driver keep request
     * arrival timestamps and machine time in one clock domain.
     * A @p when earlier than now() is a no-op.
     */
    void advanceIdleTo(Tick when);

    /**
     * Execute an ad-hoc layer outside the loaded network (used by
     * the training sequencer and the parameter sweeps).
     *
     * @param layer descriptor
     * @param weights flat weight block
     * @param input input activations
     * @param output receives the gathered output (may be nullptr)
     */
    LayerResult runSingleLayer(const LayerDesc &layer,
                               const std::vector<Fixed> &weights,
                               const Tensor &input,
                               Tensor *output = nullptr);

    /** Gathered output activations of an executed layer. */
    const Tensor &layerOutput(size_t index) const;

    /** The machine configuration. */
    const NeurocubeConfig &config() const { return config_; }

    /** Root of the statistics hierarchy. */
    StatGroup &stats() { return statGroup_; }

    /** The NoC (tests and experiments). */
    NocFabric &fabric() { return *fabric_; }

    /** One memory channel (tests and experiments). */
    MemoryChannel &channel(unsigned ch) { return *channels_[ch]; }

    /** Current simulation time in reference ticks. */
    Tick now() const { return now_; }

    /**
     * This machine's instrumentation: its event recorder (null
     * without a trace sink) and its counter registry (null without a
     * trace session).
     */
    Probe probe() const { return probe_; }

    /**
     * The machine's stall, energy and spatial counters, or nullptr
     * (tracing off or compiled out).
     */
    MetricsRegistry *metricsRegistry() { return probe_.registry; }

    /**
     * The run's phases so far, as the time-series CSV export
     * segments them (trace/phase_detector.hh): the still-open window
     * is counted but not flushed, so the CSV and the Chrome trace
     * come out byte-identical whether or not this is called. At the
     * end of a run these are the segments the session writes into
     * the Chrome "phases" track. Empty without a CSV export.
     */
    std::vector<PhaseSegment> tracePhases();

    /**
     * The machine shape the spatial counters describe (mesh width,
     * links, vault hosting), or an empty topology when the machine
     * has no counter registry.
     */
    SpatialTopology spatialTopology() const;

    /** Total operand-cache spills beyond sub-bank capacity. */
    uint64_t
    totalCacheOverflows() const
    {
        uint64_t total = 0;
        for (const auto &pe : pes_)
            total += pe->cacheOverflows();
        return total;
    }

    /**
     * The engine the next pass will run on: config().engine, with or
     * without a live event recorder (a fanned-out pass stages its
     * events per thread and merges them, see TraceRecorder).
     */
    SimEngine activeEngine() const { return config_.engine; }

  private:
    /**
     * One vault group the pass loop runs. An unbatched run is a
     * single lane over every PE node and every channel, whatever the
     * channel attachment (DDR3's included); a batch is one lane per
     * LaneSpec of lanePartition_.
     */
    struct Lane
    {
        /** The batch vault group, or nullptr for the whole machine. */
        const LaneSpec *spec = nullptr;
        /** PE and router nodes, ascending. */
        std::vector<unsigned> nodes;
        /** Memory channels and their PNGs, ascending. */
        std::vector<unsigned> channels;
    };

    /**
     * One scheduler's share of a pass: the nodes and channels it
     * steps, and for each active lane among them that lane's share
     * (a part), whose done tick the scheduler finds.
     */
    struct Bucket
    {
        struct Part
        {
            /** Index into the pass's lanes (an active lane). */
            unsigned lane = 0;
            /** The lane's nodes and channels in this bucket. */
            Lane members;
            /** Tick after the part's last action (0: not yet). */
            Tick done = 0;
        };
        Lane slice;
        std::vector<Part> parts;
    };

    /** The single lane of an unbatched run. */
    Lane machineLane() const;
    /**
     * Cut a configured pass into buckets. Legacy and Event run one
     * bucket over the whole machine. ThreadedLanes cuts each active
     * lane into the node groups its compiled traffic never connects
     * (LayerPlan::nodeGroups) and packs them into at most
     * min(groups, CPUs the process may use) buckets, one per thread,
     * each within one lane while there are threads enough.
     */
    std::vector<Bucket>
    passBuckets(const std::vector<Lane> &lanes,
                const std::vector<CompiledLayer> &compiled) const;
    /**
     * Run every pass of one layer on @p lanes and read the layer's
     * statistics off, one LayerResult per compiled lane. compiled[l]
     * is lane l's program; lanes past compiled.size() are parked.
     */
    std::vector<LayerResult>
    runLayerOnLanes(const LayerDesc &layer,
                    const std::vector<Lane> &lanes,
                    const std::vector<CompiledLayer> &compiled);
    /**
     * Configure and run the layer's pass until every compiled lane is
     * done.
     *
     * @return each compiled lane's cycles, configuration included
     */
    std::vector<Tick> runPass(const std::vector<Lane> &lanes,
                              const std::vector<CompiledLayer> &compiled);
    /** Scheduler slice over one lane (@p view nullptr: full fabric). */
    PassScheduler::Slice slice(const Lane &lane,
                               const NocFabric::LaneView *view);
    /**
     * True when one lane's PNGs and PEs are done, its channels idle
     * and its nodes quiescent.
     */
    bool laneDone(const Lane &lane) const;
    /** Validate the batch preconditions and build lanePartition_. */
    void buildBatchLanes();
    /**
     * Fill a report's histogram summaries from one lane's
     * distribution stats (cumulative).
     */
    void fillHistogramSummaries(BottleneckReport &report,
                                const Lane &lane);

    NeurocubeConfig config_;
    StatGroup statGroup_;

    /** Tracing session (config_.trace.enabled only). */
    std::unique_ptr<TraceSession> traceSession_;
    /** The session's probe, or an empty one; every component's copy. */
    Probe probe_;

    std::vector<std::unique_ptr<MemoryChannel>> channels_;
    std::unique_ptr<NocFabric> fabric_;
    std::vector<std::unique_ptr<Png>> pngs_;
    std::vector<std::unique_ptr<Pe>> pes_;
    LayerCompiler compiler_;

    NetworkDesc net_;
    NetworkData data_;
    Tensor input_;
    std::vector<Tensor> activations_;

    /** Vault groups for batched execution (batch.lanes entries). */
    std::vector<LaneSpec> lanePartition_;
    /** The last fanned-out pass's bucket nodes and fabric views. */
    std::vector<std::vector<unsigned>> bucketNodes_;
    std::vector<NocFabric::LaneView> bucketViews_;
    /** Per lane, per layer: gathered outputs of the last batch run. */
    std::vector<std::vector<Tensor>> batchActivations_;

    Tick now_ = 0;

    Stat statPasses_;
    Stat statLayerCycles_;
};

} // namespace neurocube

#endif // NEUROCUBE_CORE_NEUROCUBE_HH
