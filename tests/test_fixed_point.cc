/**
 * @file
 * Unit tests for the Q1.7.8 fixed-point arithmetic.
 */

#include <gtest/gtest.h>

#include "common/fixed_point.hh"

namespace neurocube
{
namespace
{

TEST(FixedPoint, ZeroDefault)
{
    Fixed f;
    EXPECT_EQ(f.raw(), 0);
    EXPECT_DOUBLE_EQ(f.toDouble(), 0.0);
}

TEST(FixedPoint, FromDoubleRoundTrip)
{
    for (double v : {0.0, 1.0, -1.0, 0.5, -0.5, 3.25, -3.25, 127.0,
                     -128.0, 0.00390625}) {
        Fixed f = Fixed::fromDouble(v);
        EXPECT_DOUBLE_EQ(f.toDouble(), v) << "value " << v;
    }
}

TEST(FixedPoint, RoundsToNearest)
{
    // 1/512 is half an LSB: rounds away from zero.
    EXPECT_EQ(Fixed::fromDouble(1.0 / 512.0).raw(), 1);
    EXPECT_EQ(Fixed::fromDouble(-1.0 / 512.0).raw(), -1);
    // Just below half an LSB rounds to zero.
    EXPECT_EQ(Fixed::fromDouble(0.0009).raw(), 0);
}

TEST(FixedPoint, SaturatesOnConstruction)
{
    EXPECT_EQ(Fixed::fromDouble(1000.0).raw(), INT16_MAX);
    EXPECT_EQ(Fixed::fromDouble(-1000.0).raw(), INT16_MIN);
}

TEST(FixedPoint, AdditionSaturates)
{
    Fixed big = Fixed::fromDouble(100.0);
    Fixed sum = big + big;
    EXPECT_EQ(sum.raw(), INT16_MAX);
    Fixed neg = Fixed::fromDouble(-100.0);
    EXPECT_EQ((neg + neg).raw(), INT16_MIN);
}

TEST(FixedPoint, MultiplicationExactForPowersOfTwo)
{
    Fixed a = Fixed::fromDouble(0.5);
    Fixed b = Fixed::fromDouble(8.0);
    EXPECT_DOUBLE_EQ((a * b).toDouble(), 4.0);
}

TEST(FixedPoint, MultiplicationTruncates)
{
    // 0.00390625 * 0.5 = 0.001953125, below one LSB: truncates to 0.
    Fixed a = Fixed::fromRaw(1);
    Fixed b = Fixed::fromDouble(0.5);
    EXPECT_EQ((a * b).raw(), 0);
}

TEST(FixedPoint, NegationSaturatesAtMin)
{
    Fixed min = Fixed::fromRaw(INT16_MIN);
    EXPECT_EQ((-min).raw(), INT16_MAX);
}

TEST(FixedPoint, ComparisonOperators)
{
    Fixed a = Fixed::fromDouble(1.0);
    Fixed b = Fixed::fromDouble(2.0);
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(b > a);
    EXPECT_TRUE(a <= a);
    EXPECT_TRUE(a >= a);
    EXPECT_TRUE(a == a);
    EXPECT_FALSE(a == b);
}

TEST(Accum, ExactWideAccumulation)
{
    Accum acc;
    Fixed x = Fixed::fromDouble(100.0);
    Fixed w = Fixed::fromDouble(100.0);
    // 100 * 100 = 10000 overflows Q1.7.8 but not the accumulator.
    acc.mac(x, w);
    EXPECT_DOUBLE_EQ(acc.toDouble(), 10000.0);
    // Extraction saturates.
    EXPECT_EQ(acc.toFixed().raw(), INT16_MAX);
}

TEST(Accum, OrderIndependent)
{
    // Integer accumulation is exactly associative: any order of the
    // same multiply-accumulate set yields identical bits. This is
    // the invariant that lets the distributed machine match the
    // sequential reference bit-for-bit.
    std::vector<std::pair<Fixed, Fixed>> pairs;
    for (int i = 0; i < 100; ++i) {
        pairs.emplace_back(Fixed::fromRaw(int16_t(37 * i - 1000)),
                           Fixed::fromRaw(int16_t(91 * i - 3000)));
    }
    Accum forward, backward;
    for (const auto &[x, w] : pairs)
        forward.mac(x, w);
    for (auto it = pairs.rbegin(); it != pairs.rend(); ++it)
        backward.mac(it->first, it->second);
    EXPECT_EQ(forward, backward);
    EXPECT_EQ(forward.toFixed(), backward.toFixed());
}

TEST(Accum, UnitWeightIsLossless)
{
    // x * 1.0 then >>8 returns the exact x: a unit weight passes a
    // value through a MAC unchanged.
    for (int16_t raw : {int16_t(0), int16_t(1), int16_t(-1),
                        int16_t(12345), int16_t(-32768),
                        int16_t(32767)}) {
        Accum acc;
        acc.mac(Fixed::fromRaw(raw), Fixed::fromDouble(1.0));
        EXPECT_EQ(acc.toFixed().raw(), raw);
    }
}

TEST(Accum, ClearResets)
{
    Accum acc;
    acc.mac(Fixed::fromDouble(3.0), Fixed::fromDouble(4.0));
    acc.clear();
    EXPECT_EQ(acc.raw(), 0);
}

} // namespace
} // namespace neurocube
