#include "nn/reference.hh"

#include "common/logging.hh"
#include "png/lut.hh"

namespace neurocube
{

namespace
{

/** Channelwise Conv2D / Pool: output map m reads one input map. */
Tensor
referenceChannelwise(const LayerDesc &layer,
                     const std::vector<Fixed> &weights,
                     const Tensor &input)
{
    const unsigned k = layer.kernel;
    const unsigned stride = layer.stride;
    const bool pool = layer.type == LayerType::Pool;
    const Lut &lut = sharedLut(layer.activation);

    Tensor out(layer.outMaps, layer.outHeight(), layer.outWidth());
    for (unsigned om = 0; om < layer.outMaps; ++om) {
        unsigned im = pool ? om : om % layer.inMaps;
        const Fixed *w =
            pool ? weights.data() : weights.data() + size_t(om) * k * k;
        for (unsigned y = 0; y < out.height(); ++y) {
            for (unsigned x = 0; x < out.width(); ++x) {
                Accum acc;
                for (unsigned dy = 0; dy < k; ++dy) {
                    for (unsigned dx = 0; dx < k; ++dx) {
                        acc.mac(input.at(im, y * stride + dy,
                                         x * stride + dx),
                                w[dy * k + dx]);
                    }
                }
                out.at(om, y, x) = lut.apply(acc.toFixed());
            }
        }
    }
    return out;
}

/**
 * Full Conv2D: one wide accumulation over k*k*inMaps connections
 * (fc1's "256 connections" in the Fig. 9 reconstruction).
 */
Tensor
referenceFullConv(const LayerDesc &layer,
                  const std::vector<Fixed> &weights,
                  const Tensor &input)
{
    const unsigned k = layer.kernel;
    const Lut &lut = sharedLut(layer.activation);

    Tensor out(layer.outMaps, layer.outHeight(), layer.outWidth());
    for (unsigned om = 0; om < layer.outMaps; ++om) {
        const Fixed *wbase =
            weights.data() + size_t(om) * layer.inMaps * k * k;
        for (unsigned y = 0; y < out.height(); ++y) {
            for (unsigned x = 0; x < out.width(); ++x) {
                Accum acc;
                for (unsigned im = 0; im < layer.inMaps; ++im) {
                    const Fixed *w = wbase + size_t(im) * k * k;
                    for (unsigned dy = 0; dy < k; ++dy) {
                        for (unsigned dx = 0; dx < k; ++dx) {
                            acc.mac(input.at(im, y + dy, x + dx),
                                    w[dy * k + dx]);
                        }
                    }
                }
                out.at(om, y, x) = lut.apply(acc.toFixed());
            }
        }
    }
    return out;
}

/**
 * 1x1 full Conv2D with per-neuron weights (the LSTM gate-product
 * block): out[om][n] = act(sum_im in[im][n] * W[(om*N + n)*M + im]).
 */
Tensor
referencePerNeuron(const LayerDesc &layer,
                   const std::vector<Fixed> &weights,
                   const Tensor &input)
{
    const Lut &lut = sharedLut(layer.activation);
    const uint64_t neurons = layer.neuronsPerMap();
    const unsigned conns = unsigned(layer.connectionsPerNeuron());

    Tensor out(layer.outMaps, layer.outHeight(), layer.outWidth());
    for (unsigned om = 0; om < layer.outMaps; ++om) {
        for (unsigned y = 0; y < out.height(); ++y) {
            for (unsigned x = 0; x < out.width(); ++x) {
                uint64_t n = uint64_t(y) * out.width() + x;
                const Fixed *w = weights.data()
                    + (uint64_t(om) * neurons + n) * conns;
                Accum acc;
                for (unsigned im = 0; im < layer.inMaps; ++im)
                    acc.mac(input.at(im, y, x), w[im]);
                out.at(om, y, x) = lut.apply(acc.toFixed());
            }
        }
    }
    return out;
}

/** Fully connected layer over the flattened input. */
Tensor
referenceFc(const LayerDesc &layer, const std::vector<Fixed> &weights,
            const Tensor &input)
{
    const Lut &lut = sharedLut(layer.activation);
    const std::vector<Fixed> &flat = input.flat();
    const size_t n = flat.size();
    nc_assert(n == layer.connectionsPerNeuron(),
              "FC input size mismatch: %zu vs %llu", n,
              (unsigned long long)layer.connectionsPerNeuron());

    Tensor out(1, 1, layer.outMaps);
    for (unsigned o = 0; o < layer.outMaps; ++o) {
        Accum acc;
        const Fixed *w = weights.data() + size_t(o) * n;
        for (size_t i = 0; i < n; ++i)
            acc.mac(flat[i], w[i]);
        out.at(0, 0, o) = lut.apply(acc.toFixed());
    }
    return out;
}

} // namespace

Tensor
referenceLayer(const LayerDesc &layer,
               const std::vector<Fixed> &weights, const Tensor &input)
{
    nc_assert(input.maps() == layer.inMaps
                  && input.height() == layer.inHeight
                  && input.width() == layer.inWidth,
              "input tensor %ux%ux%u does not match layer '%s'",
              input.maps(), input.height(), input.width(),
              layer.name.c_str());
    nc_assert(weights.size() == layer.weightCount(),
              "weight block size %zu != %llu for layer '%s'",
              weights.size(), (unsigned long long)layer.weightCount(),
              layer.name.c_str());

    switch (layer.type) {
      case LayerType::Pool:
        return referenceChannelwise(layer, weights, input);
      case LayerType::Conv2D:
        if (layer.perNeuronWeights)
            return referencePerNeuron(layer, weights, input);
        return layer.channelwise
                   ? referenceChannelwise(layer, weights, input)
                   : referenceFullConv(layer, weights, input);
      case LayerType::FullyConnected:
        return referenceFc(layer, weights, input);
    }
    nc_panic("unknown layer type");
    return Tensor();
}

std::vector<Tensor>
referenceForward(const NetworkDesc &net, const NetworkData &data,
                 const Tensor &input)
{
    nc_assert(data.weights.size() == net.layers.size(),
              "parameter count mismatch for network '%s'",
              net.name.c_str());
    std::vector<Tensor> outputs;
    const Tensor *current = &input;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        outputs.push_back(
            referenceLayer(net.layers[i], data.weights[i], *current));
        current = &outputs.back();
    }
    return outputs;
}

} // namespace neurocube
