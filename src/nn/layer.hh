/**
 * @file
 * Layer descriptors for the networks Neurocube executes.
 *
 * A layer is described by its connectivity — the paper's central
 * observation (Section II-A) is that network classes differ only in
 * the set of neurons connected to each output neuron, while the
 * per-neuron operation is always a weighted sum. Three connectivity
 * classes cover the evaluated workloads:
 *
 *  - Conv2D: k x k spatial neighbourhood, unit stride. In the
 *    paper's programming model each output map reads one input map
 *    and the connection count is the spatial kernel only (the Fig. 9
 *    example programs 49 connections for the 7x7 first layer); this
 *    "channelwise" mode is the default. Full cross-map convolution
 *    (connections = k*k*inMaps, accumulated in one wide sum) is also
 *    supported for functional workloads; a 1x1 full Conv2D is the
 *    per-pixel classifier the scene-labeling network uses as its
 *    "fully connected" layers.
 *  - Pool: 2x2 average pooling, stride 2 (output map m reads input
 *    map m).
 *  - FullyConnected: every output neuron connects to every element of
 *    the flattened input (MLP layers, Fig. 3b).
 *
 * The host programs each layer once: one PNG pass whose plane loop
 * repeats the neuron walk for every output map.
 */

#ifndef NEUROCUBE_NN_LAYER_HH
#define NEUROCUBE_NN_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "png/lut.hh"

namespace neurocube
{

/** Connectivity class of a layer. */
enum class LayerType : uint8_t
{
    Conv2D,
    Pool,
    FullyConnected,
};

/** Name of a layer type. */
const char *layerTypeName(LayerType type);

/** Static description of one layer. */
struct LayerDesc
{
    LayerType type = LayerType::Conv2D;
    /** Optional label used in result tables (e.g. "conv1"). */
    std::string name;

    /** Input geometry. */
    unsigned inWidth = 0;
    unsigned inHeight = 0;
    unsigned inMaps = 1;

    /** Output feature maps. */
    unsigned outMaps = 1;

    /** Spatial kernel (Conv2D and Pool). */
    unsigned kernel = 1;
    /** Input stride (1 for Conv2D, kernel for Pool). */
    unsigned stride = 1;

    /**
     * Conv2D only: true = paper programming mode, where each output
     * map reads one input map (map index outMap % inMaps) and the
     * connection count is kernel*kernel; false = full cross-map
     * convolution, kernel*kernel*inMaps connections per neuron.
     */
    bool channelwise = true;

    /**
     * Conv2D with kernel 1 only: each output neuron has its own
     * weight per connection instead of a shared kernel (weight
     * layout W[(outMap * neurons + neuron) * conns + conn]). This is
     * the gate-product ("elementwise") building block of the LSTM
     * realization: c = f (.) c_prev + i (.) g is one such layer with
     * two connections whose per-neuron weights are the gate vectors
     * the host wrote into the weight region.
     */
    bool perNeuronWeights = false;

    /** Activation applied on write-back. */
    ActivationKind activation = ActivationKind::Identity;

    /** Output width. */
    unsigned outWidth() const;
    /** Output height. */
    unsigned outHeight() const;
    /** Output neurons per output map. */
    uint64_t neuronsPerMap() const;
    /** Connections per output neuron (paper's "# connections"). */
    uint64_t connectionsPerNeuron() const;
    /** Output planes: outMaps, or 1 for the FC output vector. */
    unsigned outPlanes() const;
    /**
     * Multiply + add operations for one execution of the layer
     * (2 ops per MAC operation, the accounting used throughout the
     * paper's GOPs numbers).
     */
    uint64_t totalOps() const;
    /** Total synaptic weights stored for the layer. */
    uint64_t weightCount() const;
    /** Output elements (all maps). */
    uint64_t outputElements() const;
    /** Input elements (all maps). */
    uint64_t inputElements() const;

    /** fatal() unless the descriptor is internally consistent. */
    void validate() const;
};

/**
 * Derive the layer descriptor that consumes this layer's output.
 * Convenience for chaining builders.
 */
LayerDesc nextLayerTemplate(const LayerDesc &layer);

} // namespace neurocube

#endif // NEUROCUBE_NN_LAYER_HH
