/**
 * @file
 * Sequential bit-exact reference model.
 *
 * Computes the same Q1.7.8 arithmetic the Neurocube performs — one
 * wide integer accumulation per output neuron, saturation to Q1.7.8,
 * then the LUT activation on write-back — so the cycle-level
 * simulation's memory contents can be compared bit-for-bit.
 *
 * Weight layout contract (shared with the layer program compiler):
 *  - Conv2D channelwise: W[outMap * k*k + c], c row-major (dy, dx).
 *  - Conv2D full: W[(outMap * inMaps + inMap) * k*k + c].
 *  - Pool: W[c], k*k entries (1/(k*k) for average pooling).
 *  - FullyConnected: W[out * N + i], i plane-major over the input
 *    tensor (map, y, x).
 */

#ifndef NEUROCUBE_NN_REFERENCE_HH
#define NEUROCUBE_NN_REFERENCE_HH

#include <vector>

#include "nn/network.hh"
#include "nn/tensor.hh"

namespace neurocube
{

/**
 * Execute one layer sequentially.
 *
 * @param layer descriptor
 * @param weights the layer's flat weight block
 * @param input input tensor (inMaps x inHeight x inWidth)
 * @return output tensor (outMaps x outHeight x outWidth; 1 x 1 x out
 *         for fully connected layers)
 */
Tensor referenceLayer(const LayerDesc &layer,
                      const std::vector<Fixed> &weights,
                      const Tensor &input);

/**
 * Execute the whole network sequentially.
 *
 * @param net network description
 * @param data network parameters
 * @param input input tensor
 * @return the output tensor of every layer, in order
 */
std::vector<Tensor> referenceForward(const NetworkDesc &net,
                                     const NetworkData &data,
                                     const Tensor &input);

} // namespace neurocube

#endif // NEUROCUBE_NN_REFERENCE_HH
