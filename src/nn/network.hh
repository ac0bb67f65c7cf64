/**
 * @file
 * Whole-network description, parameter storage and stock builders.
 *
 * Builders cover the paper's workloads: the 7-layer scene-labeling
 * ConvNN (Fig. 9; see DESIGN.md for the reconstruction of the figure
 * parameters from the text), an MNIST-style MLP (Fig. 1), and small
 * synthetic networks for tests and sweeps.
 */

#ifndef NEUROCUBE_NN_NETWORK_HH
#define NEUROCUBE_NN_NETWORK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "nn/layer.hh"
#include "nn/tensor.hh"

namespace neurocube
{

/** A feed-forward network: an ordered list of layer descriptors. */
struct NetworkDesc
{
    std::string name;
    std::vector<LayerDesc> layers;

    /** Input geometry (from the first layer). */
    unsigned inputWidth() const { return layers.front().inWidth; }
    unsigned inputHeight() const { return layers.front().inHeight; }
    unsigned inputMaps() const { return layers.front().inMaps; }

    /** Total multiply+add operations for one forward execution. */
    uint64_t totalOps() const;
    /** fatal() unless layer shapes chain consistently. */
    void validate() const;
};

/**
 * The learned parameters of a network: one flat weight block per
 * layer, laid out exactly as the layer program compiler stores them
 * in the vaults (see WeightIndexer in reference.cc for the layout).
 */
struct NetworkData
{
    std::vector<std::vector<Fixed>> weights;

    /** Allocate per-layer blocks and fill with small random values. */
    static NetworkData randomized(const NetworkDesc &net,
                                  uint64_t seed);
    /** Allocate zero-filled blocks of the right shapes. */
    static NetworkData zeros(const NetworkDesc &net);
};

/**
 * The scene-labeling ConvNN (Fig. 9) for a given input size.
 *
 * Structure: conv7x7 (3->16) -> pool2x2 -> conv7x7 (16->64) ->
 * pool2x2 -> conv7x7 (64->256) -> 1x1 FC classifier (256->64) ->
 * 1x1 FC classifier (64->8). The default 320x240 input reproduces the
 * paper's layer-1 programming example (73,476 neurons = 314x234, 49
 * connections); training uses 64x64.
 *
 * @param width input image width (default 320)
 * @param height input image height (default 240)
 */
NetworkDesc sceneLabelingNetwork(unsigned width = 320,
                                 unsigned height = 240);

/**
 * MNIST-style MLP: 28x28 input -> hidden -> 10 outputs, sigmoid.
 *
 * @param hidden hidden-layer width (default 500)
 */
NetworkDesc mnistMlp(unsigned hidden = 500);

/**
 * A single 2D convolutional layer network (Fig. 14a/b sweeps).
 *
 * @param width input width
 * @param height input height
 * @param kernel spatial kernel size
 * @param maps output feature maps
 */
NetworkDesc singleConvNetwork(unsigned width, unsigned height,
                              unsigned kernel, unsigned maps = 1);

/**
 * A 3-layer fully-connected network (Fig. 14c/d sweeps): input ->
 * hidden -> output.
 *
 * @param input input vector size
 * @param hidden hidden-layer width
 * @param output output vector size
 */
NetworkDesc threeLayerMlp(unsigned input, unsigned hidden,
                          unsigned output);

} // namespace neurocube

#endif // NEUROCUBE_NN_NETWORK_HH
