/**
 * @file
 * 16-bit Q1.7.8 fixed-point arithmetic used throughout the Neurocube.
 *
 * The paper (Section III-B) represents both neuron states and synaptic
 * weights as 16-bit fixed point with 1 sign bit, 7 integer bits and 8
 * fractional bits. MAC units multiply two Q1.7.8 values into a wide
 * accumulator (Q-format 15.16 product, accumulated at 64 bits) and the
 * accumulated state is saturated back to Q1.7.8 when it is written to
 * a packet or through the activation LUT.
 */

#ifndef NEUROCUBE_COMMON_FIXED_POINT_HH
#define NEUROCUBE_COMMON_FIXED_POINT_HH

#include <cstdint>
#include <ostream>

namespace neurocube
{

/**
 * A saturating Q1.7.8 fixed-point number (16 bits).
 *
 * All arithmetic saturates to [-128, 128 - 2^-8]; overflow never wraps.
 * The raw bit pattern is exactly what travels in a NoC packet payload
 * and what is stored in DRAM, so bit-equality between the cycle-level
 * simulation and the sequential reference model is meaningful.
 */
class Fixed
{
  public:
    /** Number of fractional bits. */
    static constexpr int fracBits = 8;
    /** Scale factor 2^fracBits. */
    static constexpr int32_t scale = 1 << fracBits;
    /** Largest representable raw value. */
    static constexpr int32_t rawMax = INT16_MAX;
    /** Smallest representable raw value. */
    static constexpr int32_t rawMin = INT16_MIN;

    /** Zero-initialized. */
    constexpr Fixed() : raw_(0) {}

    /** Construct from a double, rounding to nearest and saturating. */
    static Fixed
    fromDouble(double value)
    {
        double scaled = value * scale;
        // Round to nearest, ties away from zero, then saturate.
        int64_t raw = static_cast<int64_t>(
            scaled >= 0 ? scaled + 0.5 : scaled - 0.5);
        return fromRaw64(raw);
    }

    /** Construct directly from a raw 16-bit pattern (no saturation). */
    static constexpr Fixed
    fromRaw(int16_t raw)
    {
        Fixed f;
        f.raw_ = raw;
        return f;
    }

    /** Construct from a wide raw value, saturating to 16 bits. */
    static constexpr Fixed
    fromRaw64(int64_t raw)
    {
        if (raw > rawMax)
            raw = rawMax;
        else if (raw < rawMin)
            raw = rawMin;
        return fromRaw(static_cast<int16_t>(raw));
    }

    /** Construct from an integer value (e.g. Fixed(2) == 2.0). */
    explicit constexpr Fixed(int value)
        : raw_(0)
    {
        *this = fromRaw64(static_cast<int64_t>(value) * scale);
    }

    /** The raw 16-bit two's-complement pattern. */
    constexpr int16_t raw() const { return raw_; }

    /** The value as a double. */
    constexpr double
    toDouble() const
    {
        return static_cast<double>(raw_) / scale;
    }

    /** Saturating addition. */
    constexpr Fixed
    operator+(Fixed other) const
    {
        return fromRaw64(static_cast<int64_t>(raw_) + other.raw_);
    }

    /** Saturating subtraction. */
    constexpr Fixed
    operator-(Fixed other) const
    {
        return fromRaw64(static_cast<int64_t>(raw_) - other.raw_);
    }

    /** Saturating multiplication (Q1.7.8 x Q1.7.8 -> Q1.7.8). */
    constexpr Fixed
    operator*(Fixed other) const
    {
        int64_t wide = static_cast<int64_t>(raw_) * other.raw_;
        return fromRaw64(wide >> fracBits);
    }

    /** Unary negation (saturates for the most negative value). */
    constexpr Fixed operator-() const { return fromRaw64(-int64_t(raw_)); }

    constexpr bool operator==(const Fixed &other) const = default;

    constexpr bool operator<(Fixed other) const { return raw_ < other.raw_; }
    constexpr bool operator>(Fixed other) const { return raw_ > other.raw_; }
    constexpr bool operator<=(Fixed other) const { return raw_ <= other.raw_; }
    constexpr bool operator>=(Fixed other) const { return raw_ >= other.raw_; }

  private:
    int16_t raw_;
};

/**
 * Wide MAC accumulator.
 *
 * Products of two Q1.7.8 values are Q2.14.16 (32 significant bits);
 * they are accumulated at 64 bits so a full-length dot product over
 * any realistic layer never overflows. The result saturates to Q1.7.8
 * only when extracted.
 */
class Accum
{
  public:
    constexpr Accum() : raw_(0) {}

    /** Add the product of two fixed-point operands. */
    constexpr void
    mac(Fixed state, Fixed weight)
    {
        raw_ += static_cast<int64_t>(state.raw()) * weight.raw();
    }

    /** Reset to zero. */
    constexpr void clear() { raw_ = 0; }

    /** Raw accumulated value in Q-format with 2*fracBits fraction. */
    constexpr int64_t raw() const { return raw_; }

    /** Saturate back down to a Q1.7.8 value. */
    constexpr Fixed
    toFixed() const
    {
        return Fixed::fromRaw64(raw_ >> Fixed::fracBits);
    }

    /** The accumulated value as a double. */
    constexpr double
    toDouble() const
    {
        return static_cast<double>(raw_) /
            (static_cast<double>(Fixed::scale) * Fixed::scale);
    }

    constexpr bool operator==(const Accum &other) const = default;

  private:
    int64_t raw_;
};

/** Stream a Fixed as its double value. */
inline std::ostream &
operator<<(std::ostream &os, Fixed f)
{
    return os << f.toDouble();
}

} // namespace neurocube

#endif // NEUROCUBE_COMMON_FIXED_POINT_HH
