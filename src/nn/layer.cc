#include "nn/layer.hh"

#include "common/logging.hh"

namespace neurocube
{

const char *
layerTypeName(LayerType type)
{
    switch (type) {
      case LayerType::Conv2D:         return "conv";
      case LayerType::Pool:           return "pool";
      case LayerType::FullyConnected: return "fc";
    }
    return "?";
}

unsigned
LayerDesc::outWidth() const
{
    switch (type) {
      case LayerType::Conv2D:
        return inWidth - kernel + 1;
      case LayerType::Pool:
        return inWidth / stride;
      case LayerType::FullyConnected:
        // Output is a 1 x outMaps vector; outMaps carries the size.
        return outMaps;
    }
    return 0;
}

unsigned
LayerDesc::outHeight() const
{
    switch (type) {
      case LayerType::Conv2D:
        return inHeight - kernel + 1;
      case LayerType::Pool:
        return inHeight / stride;
      case LayerType::FullyConnected:
        return 1;
    }
    return 0;
}

uint64_t
LayerDesc::neuronsPerMap() const
{
    if (type == LayerType::FullyConnected)
        return outMaps;
    return uint64_t(outWidth()) * outHeight();
}

uint64_t
LayerDesc::connectionsPerNeuron() const
{
    switch (type) {
      case LayerType::Conv2D:
        // Channelwise passes read one input map (the Fig. 9
        // programming example: 49 connections for a 7x7 kernel);
        // full convolutions connect to the neighbourhood of every
        // input map (256 connections for the 1x1 classifier).
        return channelwise
                   ? uint64_t(kernel) * kernel
                   : uint64_t(kernel) * kernel * inMaps;
      case LayerType::Pool:
        return uint64_t(kernel) * kernel;
      case LayerType::FullyConnected:
        return uint64_t(inWidth) * inHeight * inMaps;
    }
    return 0;
}

unsigned
LayerDesc::outPlanes() const
{
    switch (type) {
      case LayerType::Conv2D:
      case LayerType::Pool:
        return outMaps;
      case LayerType::FullyConnected:
        return 1;
    }
    return 0;
}

uint64_t
LayerDesc::totalOps() const
{
    uint64_t conns = connectionsPerNeuron();
    switch (type) {
      case LayerType::Conv2D:
      case LayerType::Pool:
        return 2 * neuronsPerMap() * conns * outMaps;
      case LayerType::FullyConnected:
        return 2 * neuronsPerMap() * conns;
    }
    return 0;
}

uint64_t
LayerDesc::weightCount() const
{
    switch (type) {
      case LayerType::Conv2D:
        if (perNeuronWeights) {
            return connectionsPerNeuron() * neuronsPerMap()
                 * outMaps;
        }
        if (channelwise)
            return uint64_t(kernel) * kernel * outMaps;
        return uint64_t(kernel) * kernel * inMaps * outMaps;
      case LayerType::Pool:
        return uint64_t(kernel) * kernel;
      case LayerType::FullyConnected:
        return connectionsPerNeuron() * outMaps;
    }
    return 0;
}

uint64_t
LayerDesc::outputElements() const
{
    if (type == LayerType::FullyConnected)
        return outMaps;
    return neuronsPerMap() * outMaps;
}

uint64_t
LayerDesc::inputElements() const
{
    return uint64_t(inWidth) * inHeight * inMaps;
}

void
LayerDesc::validate() const
{
    if (inWidth == 0 || inHeight == 0 || inMaps == 0)
        nc_fatal("layer '%s': empty input geometry", name.c_str());
    if (outMaps == 0)
        nc_fatal("layer '%s': zero output maps", name.c_str());
    switch (type) {
      case LayerType::Conv2D:
        if (kernel == 0 || kernel > inWidth || kernel > inHeight)
            nc_fatal("layer '%s': kernel %u does not fit %ux%u input",
                     name.c_str(), kernel, inWidth, inHeight);
        if (stride != 1)
            nc_fatal("layer '%s': Conv2D requires stride 1",
                     name.c_str());
        if (channelwise && inMaps > outMaps)
            nc_fatal("layer '%s': channelwise conv needs outMaps >= "
                     "inMaps", name.c_str());
        if (perNeuronWeights && (kernel != 1 || channelwise))
            nc_fatal("layer '%s': per-neuron weights require a 1x1 "
                     "full convolution", name.c_str());
        break;
      case LayerType::Pool:
        if (stride != kernel)
            nc_fatal("layer '%s': pooling requires stride == kernel",
                     name.c_str());
        if (inMaps != outMaps)
            nc_fatal("layer '%s': pooling preserves map count",
                     name.c_str());
        break;
      case LayerType::FullyConnected:
        break;
    }
}

LayerDesc
nextLayerTemplate(const LayerDesc &layer)
{
    LayerDesc next;
    next.inWidth = layer.outWidth();
    next.inHeight = layer.outHeight();
    next.inMaps = layer.type == LayerType::FullyConnected
                      ? 1
                      : layer.outMaps;
    if (layer.type == LayerType::FullyConnected) {
        next.inWidth = layer.outMaps;
        next.inHeight = 1;
    }
    return next;
}

} // namespace neurocube
