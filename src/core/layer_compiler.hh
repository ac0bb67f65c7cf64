/**
 * @file
 * The layer program compiler: the host-side software that maps one
 * layer onto the cube (paper Section IV-C).
 *
 * Given a layer descriptor, its weights, the current activations and
 * the mapping policy, the compiler:
 *  1. lays the data structures out in each channel's physical address
 *     space (input planes with any duplicated halo, the weight
 *     partition and zeroed output planes);
 *  2. emits one PngProgram per channel and one PePassConfig per PE.
 *
 * Pass structure: the host programs each layer once (paper Section
 * IV-C), so every layer runs as a single pass.
 *  - Conv2D / Pool: the program's plane loop repeats the neuron walk
 *    for every output map (PngProgram::outPlanes); a full Conv2D
 *    connects each output neuron to the k*k neighbourhood of every
 *    input map.
 *  - FullyConnected: one plane, every input element connected.
 *
 * Compilation is split into two stages:
 *  - the structural *plan* (connection lists, channel address
 *    layouts, tile placement, PNG programs, PE pass shapes) is a
 *    pure function of the layer descriptor, the lane partition and
 *    the machine configuration, and is memoized in a plan cache;
 *  - per-run *binding* writes the actual weight and activation
 *    values into the channel stores at the plan's addresses and
 *    slices the PE-resident weight payload.
 * Steady-state serving and batched training therefore pay only the
 * binding cost after the first batch of a given shape.
 */

#ifndef NEUROCUBE_CORE_LAYER_COMPILER_HH
#define NEUROCUBE_CORE_LAYER_COMPILER_HH

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "dram/backing_store.hh"
#include "nn/layer.hh"
#include "nn/mapping.hh"
#include "nn/tensor.hh"
#include "noc/fabric.hh"
#include "pe/pe.hh"
#include "png/program.hh"

namespace neurocube
{

/**
 * The structural half of a compiled layer: everything that depends
 * only on (LayerDesc, lane partition, machine config) and none of
 * the weight/activation values. Immutable once built and shared
 * between runs through the compiler's plan cache.
 */
struct LayerPlan
{
    LayerDesc desc;
    LayerMapping mapping;
    /** The layer's one pass: one program per memory channel. */
    std::vector<PngProgram> programs;
    /**
     * One configuration per PE, *without* the localWeights payload
     * (attached per run by CompiledLayer::peConfig — the payload is
     * the same for every PE).
     */
    std::vector<PePassConfig> peConfigs;
    /** Per channel: where the layer's outputs live (for gathering). */
    std::vector<PlaneStorage> outputStorage;
    /** Output map rectangle (1 x N for FC). */
    Rect outRect;

    /** Address layout of one channel's data structures. */
    struct ChannelLayout
    {
        PlaneStorage input;
        Region weights;
        PlaneStorage output;
    };
    std::vector<ChannelLayout> channels;

    /**
     * FC partitioned mode only: per channel, the flat input columns
     * (plane-major) the channel owns — the column order of its
     * weight slice, kept so binding need not re-derive it.
     */
    std::vector<std::vector<uint64_t>> fcOwnedCols;

    /**
     * The PE weight memory holds the layer's whole weight block
     * (weightsInPeMemory mode, shared kernels); the PE indexes it per
     * output plane. False when weights stream as packets.
     */
    bool peWeightMemory = false;

    /**
     * Mesh node -> lowest node of its traffic group
     * (trafficGroups(*this, fabric)), computed on the first call and
     * cached with the plan.
     */
    const std::vector<unsigned> &nodeGroups(const NocFabric &fabric) const;

  private:
    mutable std::once_flag groupsOnce_;
    mutable std::vector<unsigned> groups_;
};

/**
 * The node groups a plan's traffic never connects, by union-find over
 * the mesh nodes:
 *  - each enabled program joins its PNG's node with the PE node of
 *    every outTiles tile its walk overlaps (operands);
 *  - each non-empty PE tile joins its node with the home node of
 *    every homeTiles tile it overlaps (write-backs);
 *  - each such pair joins every router on its route
 *    (NocFabric::routeRouters).
 * A memory channel goes with its PNG's node. Two groups exchange no
 * packet and touch no common router, so schedulers can step them on
 * separate threads.
 *
 * @return mesh node -> lowest node of its group
 */
std::vector<unsigned> trafficGroups(const LayerPlan &plan,
                                    const NocFabric &fabric);

/**
 * A fully compiled layer: a shared structural plan plus this run's
 * PE-resident weight payload. The channel stores were bound (inputs,
 * weights and zeroed outputs written) by LayerCompiler::compile.
 */
struct CompiledLayer
{
    std::shared_ptr<const LayerPlan> plan;
    /** PE weight-memory contents (empty when streaming). */
    std::vector<Fixed> localWeights;

    const LayerDesc &desc() const { return plan->desc; }
    const LayerMapping &mapping() const { return plan->mapping; }
    const std::vector<PngProgram> &programs() const
    {
        return plan->programs;
    }
    const std::vector<PlaneStorage> &outputStorage() const
    {
        return plan->outputStorage;
    }
    const Rect &outRect() const { return plan->outRect; }

    /** PE pass configuration with the weight payload attached. */
    PePassConfig
    peConfig(size_t pe) const
    {
        PePassConfig pc = plan->peConfigs[pe];
        pc.localWeights = localWeights;
        return pc;
    }
};

/** Compiles layers onto a machine configuration. */
class LayerCompiler
{
  public:
    explicit LayerCompiler(const NeurocubeConfig &config);

    /**
     * Map a layer onto the cube: clears the channel stores, writes
     * inputs and weights, and builds the layer's programs. The
     * structural plan is served from the plan cache when an
     * identical (layer, lane) compile was seen before.
     *
     * With a lane, the layer is mapped onto that vault group alone:
     * tile maps span only the lane's channels/PEs, @p stores must be
     * the lane's stores in lane-node order, and the emitted programs
     * carry peNode/homeNode relocations onto the lane's mesh nodes.
     *
     * @param layer descriptor
     * @param weights the layer's flat weight block (reference layout)
     * @param input current activations
     * @param stores one backing store per (lane) memory channel
     * @param lane vault group to map onto (nullptr = whole machine)
     */
    CompiledLayer compile(const LayerDesc &layer,
                          const std::vector<Fixed> &weights,
                          const Tensor &input,
                          std::vector<BackingStore *> &stores,
                          const LaneSpec *lane = nullptr) const;

    /**
     * Read the layer's output activations back out of the stores
     * (the host-side gather between layers).
     */
    Tensor gather(const CompiledLayer &layer,
                  const std::vector<BackingStore *> &stores) const;

    /**
     * Drop every memoized plan. Neurocube::setBatchLanes calls this
     * when the lane partition is rebuilt; plans are keyed by lane
     * node list so stale entries could never be *served* wrongly,
     * but the old partition's plans are dead weight from then on.
     */
    void
    invalidatePlanCache()
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        planCache_.clear();
    }

    /** Compiles served from the plan cache. */
    uint64_t
    planCacheHits() const
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        return hits_;
    }

    /** Compiles that had to build a fresh plan. */
    uint64_t
    planCacheMisses() const
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        return misses_;
    }

  private:
    /** Memoized plan lookup (builds and inserts on miss). */
    std::shared_ptr<const LayerPlan>
    planFor(const LayerDesc &layer, unsigned num_channels,
            unsigned num_pes, const LaneSpec *lane) const;

    /** Build one plan from scratch (the structural compile). */
    std::shared_ptr<const LayerPlan>
    buildPlan(const LayerDesc &layer, unsigned num_channels,
              unsigned num_pes, const LaneSpec *lane) const;

    /** Cache key: exact serialization of every plan input. */
    std::string planKey(const LayerDesc &layer,
                        const LaneSpec *lane) const;

    /**
     * Compute one channel's address layout with a simulated bump
     * allocator (the plan-time mirror of the store's allocate()).
     */
    void planChannel(const LayerDesc &layer, LayerPlan &plan,
                     unsigned channel) const;

    /**
     * Write one channel's values (input activations, weight
     * partition, zeroed outputs) at the plan's addresses.
     */
    void bindChannel(const LayerPlan &plan, unsigned channel,
                     const std::vector<Fixed> &weights,
                     const Tensor &input, BackingStore &store) const;

    NeurocubeConfig config_;

    mutable std::mutex cacheMutex_;
    mutable std::unordered_map<std::string,
                               std::shared_ptr<const LayerPlan>>
        planCache_;
    mutable uint64_t hits_ = 0;
    mutable uint64_t misses_ = 0;
};

} // namespace neurocube

#endif // NEUROCUBE_CORE_LAYER_COMPILER_HH
