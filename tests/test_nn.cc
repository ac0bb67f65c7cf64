/**
 * @file
 * Unit tests for layer descriptors, network builders, tensors and the
 * sequential reference model.
 */

#include <gtest/gtest.h>

#include "nn/network.hh"
#include "nn/reference.hh"
#include "nn/tensor.hh"

namespace neurocube
{
namespace
{

TEST(Tensor, ShapeAndIndexing)
{
    Tensor t(2, 3, 4);
    EXPECT_EQ(t.size(), 24u);
    t.at(1, 2, 3) = Fixed::fromDouble(5.0);
    EXPECT_DOUBLE_EQ(t.at(1, 2, 3).toDouble(), 5.0);
    // Plane-major flattening.
    EXPECT_DOUBLE_EQ(t.flat()[1 * 12 + 2 * 4 + 3].toDouble(), 5.0);
}

TEST(Tensor, RandomizeDeterministic)
{
    Rng a(5), b(5);
    Tensor t1(1, 4, 4), t2(1, 4, 4);
    t1.randomize(a);
    t2.randomize(b);
    EXPECT_TRUE(t1 == t2);
}

TEST(LayerDesc, ConvGeometry)
{
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.inWidth = 320;
    conv.inHeight = 240;
    conv.inMaps = 3;
    conv.outMaps = 16;
    conv.kernel = 7;
    EXPECT_EQ(conv.outWidth(), 314u);
    EXPECT_EQ(conv.outHeight(), 234u);
    EXPECT_EQ(conv.neuronsPerMap(), 73476u);
    EXPECT_EQ(conv.connectionsPerNeuron(), 49u);
    EXPECT_EQ(conv.outPlanes(), 16u);
    // 2 ops x 73,476 neurons x 49 connections x 16 maps.
    EXPECT_EQ(conv.totalOps(), 2ull * 73476 * 49 * 16);
}

TEST(LayerDesc, PoolGeometry)
{
    LayerDesc pool;
    pool.type = LayerType::Pool;
    pool.inWidth = 314;
    pool.inHeight = 234;
    pool.inMaps = 16;
    pool.outMaps = 16;
    pool.kernel = 2;
    pool.stride = 2;
    EXPECT_EQ(pool.outWidth(), 157u);
    EXPECT_EQ(pool.outHeight(), 117u);
    EXPECT_EQ(pool.connectionsPerNeuron(), 4u);
}

TEST(LayerDesc, FullConvConnectionsSpanInputMaps)
{
    // The scene-labeling fc1: a 1x1 full convolution over 256 maps
    // is programmed as 64 output planes of 256 connections each.
    LayerDesc fc;
    fc.type = LayerType::Conv2D;
    fc.name = "fc1";
    fc.inWidth = 69;
    fc.inHeight = 49;
    fc.inMaps = 256;
    fc.outMaps = 64;
    fc.kernel = 1;
    fc.channelwise = false;
    EXPECT_EQ(fc.outPlanes(), 64u);
    EXPECT_EQ(fc.connectionsPerNeuron(), 256u);
    uint64_t neurons = 69ull * 49ull;
    EXPECT_EQ(fc.totalOps(), 2 * neurons * 256 * 64);
}

TEST(LayerDesc, FullyConnectedGeometry)
{
    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.inWidth = 28;
    fc.inHeight = 28;
    fc.inMaps = 1;
    fc.outMaps = 500;
    EXPECT_EQ(fc.connectionsPerNeuron(), 784u);
    EXPECT_EQ(fc.neuronsPerMap(), 500u);
    EXPECT_EQ(fc.weightCount(), 784u * 500u);
    EXPECT_EQ(fc.totalOps(), 2ull * 500 * 784);
}

TEST(Network, SceneLabelingMatchesPaperLayer1)
{
    NetworkDesc net = sceneLabelingNetwork();
    ASSERT_EQ(net.layers.size(), 7u);
    const LayerDesc &conv1 = net.layers[0];
    // The Section IV-C programming example: 73,476 neurons (314x234)
    // and 49 connections.
    EXPECT_EQ(conv1.neuronsPerMap(), 73476u);
    EXPECT_EQ(conv1.connectionsPerNeuron(), 49u);
    // Table III: 76,800 input neurons per map (320x240).
    EXPECT_EQ(uint64_t(conv1.inWidth) * conv1.inHeight, 76800u);
}

TEST(Network, SceneLabelingOpsBudget)
{
    // The paper's throughput and frame-rate numbers imply ~0.45 GOP
    // per 320x240 frame (132.4 GOPs/s / 292.14 frames/s). The
    // reconstructed network must land in that band.
    NetworkDesc net = sceneLabelingNetwork();
    double gop = double(net.totalOps()) / 1e9;
    EXPECT_GT(gop, 0.35);
    EXPECT_LT(gop, 0.55);
}

TEST(Network, SceneLabelingChains)
{
    // validate() is called inside the builder; re-run explicitly.
    sceneLabelingNetwork().validate();
    sceneLabelingNetwork(64, 64).validate();
    mnistMlp().validate();
    threeLayerMlp(1024, 2048, 16).validate();
}

TEST(Network, RandomizedDataShapes)
{
    NetworkDesc net = mnistMlp(100);
    NetworkData data = NetworkData::randomized(net, 1);
    ASSERT_EQ(data.weights.size(), 2u);
    EXPECT_EQ(data.weights[0].size(), 784u * 100u);
    EXPECT_EQ(data.weights[1].size(), 100u * 10u);
}

TEST(Reference, ConvComputesWeightedSum)
{
    LayerDesc conv;
    conv.type = LayerType::Conv2D;
    conv.name = "c";
    conv.inWidth = 4;
    conv.inHeight = 4;
    conv.inMaps = 1;
    conv.outMaps = 1;
    conv.kernel = 3;
    conv.channelwise = true;

    Tensor in(1, 4, 4);
    for (unsigned y = 0; y < 4; ++y)
        for (unsigned x = 0; x < 4; ++x)
            in.at(0, y, x) = Fixed::fromDouble(double(y * 4 + x));

    std::vector<Fixed> w(9, Fixed::fromDouble(1.0));
    Tensor out = referenceLayer(conv, w, in);
    ASSERT_EQ(out.width(), 2u);
    ASSERT_EQ(out.height(), 2u);
    // Sum of the 3x3 window anchored at (0,0): 0+1+2+4+5+6+8+9+10.
    EXPECT_DOUBLE_EQ(out.at(0, 0, 0).toDouble(), 45.0);
}

TEST(Reference, PoolAverages)
{
    LayerDesc pool;
    pool.type = LayerType::Pool;
    pool.name = "p";
    pool.inWidth = 4;
    pool.inHeight = 4;
    pool.inMaps = 1;
    pool.outMaps = 1;
    pool.kernel = 2;
    pool.stride = 2;

    Tensor in(1, 4, 4);
    in.at(0, 0, 0) = Fixed::fromDouble(1.0);
    in.at(0, 0, 1) = Fixed::fromDouble(2.0);
    in.at(0, 1, 0) = Fixed::fromDouble(3.0);
    in.at(0, 1, 1) = Fixed::fromDouble(6.0);
    std::vector<Fixed> w(4, Fixed::fromDouble(0.25));
    Tensor out = referenceLayer(pool, w, in);
    EXPECT_DOUBLE_EQ(out.at(0, 0, 0).toDouble(), 3.0);
}

TEST(Reference, FullConvAccumulatesAcrossInputMaps)
{
    LayerDesc fc;
    fc.type = LayerType::Conv2D;
    fc.name = "f";
    fc.inWidth = 2;
    fc.inHeight = 2;
    fc.inMaps = 3;
    fc.outMaps = 2;
    fc.kernel = 1;
    fc.channelwise = false;

    Tensor in(3, 2, 2);
    for (unsigned m = 0; m < 3; ++m)
        in.at(m, 0, 0) = Fixed::fromDouble(double(m + 1));

    // W[(om*3+im)*1]: om0 = {1,1,1}, om1 = {1,2,3}.
    std::vector<Fixed> w = {
        Fixed::fromDouble(1), Fixed::fromDouble(1), Fixed::fromDouble(1),
        Fixed::fromDouble(1), Fixed::fromDouble(2), Fixed::fromDouble(3),
    };
    Tensor out = referenceLayer(fc, w, in);
    EXPECT_DOUBLE_EQ(out.at(0, 0, 0).toDouble(), 6.0);  // 1+2+3
    EXPECT_DOUBLE_EQ(out.at(1, 0, 0).toDouble(), 14.0); // 1+4+9
}

TEST(Reference, FcMatchesManualDotProduct)
{
    LayerDesc fc;
    fc.type = LayerType::FullyConnected;
    fc.name = "fc";
    fc.inWidth = 3;
    fc.inHeight = 1;
    fc.inMaps = 1;
    fc.outMaps = 2;

    Tensor in(1, 1, 3);
    in.at(0, 0, 0) = Fixed::fromDouble(1.0);
    in.at(0, 0, 1) = Fixed::fromDouble(2.0);
    in.at(0, 0, 2) = Fixed::fromDouble(3.0);
    std::vector<Fixed> w = {
        Fixed::fromDouble(1), Fixed::fromDouble(0), Fixed::fromDouble(0),
        Fixed::fromDouble(1), Fixed::fromDouble(1), Fixed::fromDouble(1),
    };
    Tensor out = referenceLayer(fc, w, in);
    EXPECT_DOUBLE_EQ(out.at(0, 0, 0).toDouble(), 1.0);
    EXPECT_DOUBLE_EQ(out.at(0, 0, 1).toDouble(), 6.0);
}

TEST(Reference, ActivationAppliedOnFinalPassOnly)
{
    // With ReLU and an intermediate negative partial sum that a later
    // pass lifts positive, per-pass activation would zero it; the
    // machine only activates on the final pass.
    LayerDesc fc;
    fc.type = LayerType::Conv2D;
    fc.name = "f";
    fc.inWidth = 1;
    fc.inHeight = 1;
    fc.inMaps = 2;
    fc.outMaps = 1;
    fc.kernel = 1;
    fc.channelwise = false;
    fc.activation = ActivationKind::ReLU;

    Tensor in(2, 1, 1);
    in.at(0, 0, 0) = Fixed::fromDouble(-5.0);
    in.at(1, 0, 0) = Fixed::fromDouble(8.0);
    std::vector<Fixed> w = {Fixed::fromDouble(1), Fixed::fromDouble(1)};
    Tensor out = referenceLayer(fc, w, in);
    EXPECT_DOUBLE_EQ(out.at(0, 0, 0).toDouble(), 3.0);
}

TEST(Reference, ForwardChainsLayers)
{
    NetworkDesc net = threeLayerMlp(8, 4, 2);
    NetworkData data = NetworkData::randomized(net, 3);
    Tensor in(1, 1, 8);
    Rng rng(11);
    in.randomize(rng);
    auto outs = referenceForward(net, data, in);
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_EQ(outs[0].width(), 4u);
    EXPECT_EQ(outs[1].width(), 2u);
    // Sigmoid outputs live in (0, 1).
    for (unsigned o = 0; o < 2; ++o) {
        EXPECT_GT(outs[1].at(0, 0, o).toDouble(), 0.0);
        EXPECT_LT(outs[1].at(0, 0, o).toDouble(), 1.0);
    }
}

} // namespace
} // namespace neurocube
