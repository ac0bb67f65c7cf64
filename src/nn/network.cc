#include "nn/network.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neurocube
{

uint64_t
NetworkDesc::totalOps() const
{
    uint64_t ops = 0;
    for (const LayerDesc &layer : layers)
        ops += layer.totalOps();
    return ops;
}

void
NetworkDesc::validate() const
{
    if (layers.empty())
        nc_fatal("network '%s' has no layers", name.c_str());
    for (size_t i = 0; i < layers.size(); ++i) {
        layers[i].validate();
        if (i == 0)
            continue;
        LayerDesc expect = nextLayerTemplate(layers[i - 1]);
        if (layers[i].inWidth != expect.inWidth
            || layers[i].inHeight != expect.inHeight
            || layers[i].inMaps != expect.inMaps) {
            nc_fatal("network '%s': layer %zu input %ux%ux%u does not "
                     "match layer %zu output %ux%ux%u",
                     name.c_str(), i, layers[i].inMaps,
                     layers[i].inHeight, layers[i].inWidth, i - 1,
                     expect.inMaps, expect.inHeight, expect.inWidth);
        }
    }
}

NetworkData
NetworkData::randomized(const NetworkDesc &net, uint64_t seed)
{
    NetworkData data = zeros(net);
    Rng rng(seed);
    for (size_t i = 0; i < net.layers.size(); ++i) {
        const LayerDesc &layer = net.layers[i];
        if (layer.type == LayerType::Pool) {
            // Average pooling: uniform 1/(k*k) weights.
            Fixed w = Fixed::fromDouble(
                1.0 / double(layer.kernel * layer.kernel));
            for (Fixed &v : data.weights[i])
                v = w;
            continue;
        }
        // Small weights keep Q1.7.8 activations away from saturation
        // for several layers of depth.
        double scale =
            1.0 / double(layer.connectionsPerNeuron() == 0
                             ? 1
                             : layer.connectionsPerNeuron());
        double bound = std::min(0.5, 8.0 * scale);
        for (Fixed &v : data.weights[i])
            v = Fixed::fromDouble(rng.uniform(-bound, bound));
    }
    return data;
}

NetworkData
NetworkData::zeros(const NetworkDesc &net)
{
    NetworkData data;
    data.weights.reserve(net.layers.size());
    for (const LayerDesc &layer : net.layers)
        data.weights.emplace_back(layer.weightCount());
    return data;
}

NetworkDesc
sceneLabelingNetwork(unsigned width, unsigned height)
{
    // Three conv7 + two pool2 stages need ((1+6)*2+6)*2+6 = 46
    // pixels in each dimension to leave at least one output pixel.
    nc_assert(width >= 48 && height >= 48,
              "scene-labeling network needs at least a 48x48 input");
    NetworkDesc net;
    net.name = "scene-labeling";

    LayerDesc conv1;
    conv1.type = LayerType::Conv2D;
    conv1.name = "conv1";
    conv1.inWidth = width;
    conv1.inHeight = height;
    conv1.inMaps = 3;
    conv1.outMaps = 16;
    conv1.kernel = 7;
    conv1.channelwise = true;
    conv1.activation = ActivationKind::Tanh;
    net.layers.push_back(conv1);

    LayerDesc pool1 = nextLayerTemplate(conv1);
    pool1.type = LayerType::Pool;
    pool1.name = "pool1";
    pool1.outMaps = pool1.inMaps;
    pool1.kernel = 2;
    pool1.stride = 2;
    net.layers.push_back(pool1);

    LayerDesc conv2 = nextLayerTemplate(pool1);
    conv2.type = LayerType::Conv2D;
    conv2.name = "conv2";
    conv2.outMaps = 64;
    conv2.kernel = 7;
    conv2.channelwise = true;
    conv2.activation = ActivationKind::Tanh;
    net.layers.push_back(conv2);

    LayerDesc pool2 = nextLayerTemplate(conv2);
    pool2.type = LayerType::Pool;
    pool2.name = "pool2";
    pool2.outMaps = pool2.inMaps;
    pool2.kernel = 2;
    pool2.stride = 2;
    net.layers.push_back(pool2);

    LayerDesc conv3 = nextLayerTemplate(pool2);
    conv3.type = LayerType::Conv2D;
    conv3.name = "conv3";
    conv3.outMaps = 256;
    conv3.kernel = 7;
    conv3.channelwise = true;
    conv3.activation = ActivationKind::Tanh;
    net.layers.push_back(conv3);

    // Per-pixel classifier: 1x1 full convolutions act as the fully
    // connected layers of the scene-labeling network.
    LayerDesc fc1 = nextLayerTemplate(conv3);
    fc1.type = LayerType::Conv2D;
    fc1.name = "fc1";
    fc1.outMaps = 64;
    fc1.kernel = 1;
    fc1.channelwise = false;
    fc1.activation = ActivationKind::Tanh;
    net.layers.push_back(fc1);

    LayerDesc fc2 = nextLayerTemplate(fc1);
    fc2.type = LayerType::Conv2D;
    fc2.name = "fc2";
    fc2.outMaps = 8;
    fc2.kernel = 1;
    fc2.channelwise = false;
    fc2.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc2);

    net.validate();
    return net;
}

NetworkDesc
mnistMlp(unsigned hidden)
{
    NetworkDesc net;
    net.name = "mnist-mlp";

    LayerDesc fc1;
    fc1.type = LayerType::FullyConnected;
    fc1.name = "fc1";
    fc1.inWidth = 28;
    fc1.inHeight = 28;
    fc1.inMaps = 1;
    fc1.outMaps = hidden;
    fc1.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc1);

    LayerDesc fc2 = nextLayerTemplate(fc1);
    fc2.type = LayerType::FullyConnected;
    fc2.name = "fc2";
    fc2.outMaps = 10;
    fc2.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc2);

    net.validate();
    return net;
}

NetworkDesc
singleConvNetwork(unsigned width, unsigned height, unsigned kernel,
                  unsigned maps)
{
    NetworkDesc net;
    net.name = "conv-sweep";
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "conv";
    conv.inWidth = width;
    conv.inHeight = height;
    conv.inMaps = 1;
    conv.outMaps = maps;
    conv.kernel = kernel;
    conv.channelwise = true;
    conv.activation = ActivationKind::Tanh;
    net.layers.push_back(conv);
    net.validate();
    return net;
}

NetworkDesc
threeLayerMlp(unsigned input, unsigned hidden, unsigned output)
{
    NetworkDesc net;
    net.name = "three-layer-mlp";

    LayerDesc fc1;
    fc1.type = LayerType::FullyConnected;
    fc1.name = "hidden";
    fc1.inWidth = input;
    fc1.inHeight = 1;
    fc1.inMaps = 1;
    fc1.outMaps = hidden;
    fc1.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc1);

    LayerDesc fc2 = nextLayerTemplate(fc1);
    fc2.type = LayerType::FullyConnected;
    fc2.name = "output";
    fc2.outMaps = output;
    fc2.activation = ActivationKind::Sigmoid;
    net.layers.push_back(fc2);

    net.validate();
    return net;
}

} // namespace neurocube
