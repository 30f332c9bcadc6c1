/**
 * @file
 * Unit tests for symmetric integer quantisation.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "sim/rng.hh"
#include "tensor/quant.hh"

using namespace fidelity;

TEST(Quant, RangeConstants)
{
    QuantParams q8 = calibrateAbsMax(1.0, 8);
    EXPECT_EQ(q8.qmax(), 127);
    EXPECT_EQ(q8.qmin(), -128);
    QuantParams q16 = calibrateAbsMax(1.0, 16);
    EXPECT_EQ(q16.qmax(), 32767);
    EXPECT_EQ(q16.qmin(), -32768);
}

TEST(Quant, CalibrationMapsAbsMaxToQmax)
{
    QuantParams qp = calibrateAbsMax(12.7, 8);
    EXPECT_EQ(quantize(12.7f, qp), 127);
    EXPECT_EQ(quantize(-12.7f, qp), -127);
}

TEST(Quant, CalibrateFromValues)
{
    QuantParams qp = calibrate({0.5f, -3.0f, 2.0f}, 8);
    EXPECT_NEAR(qp.scale, 3.0 / 127.0, 1e-12);
}

TEST(Quant, ZeroTensorGetsUsableScale)
{
    QuantParams qp = calibrate({0.0f, 0.0f}, 8);
    EXPECT_GT(qp.scale, 0.0);
    EXPECT_EQ(quantize(0.0f, qp), 0);
}

TEST(Quant, ZeroMapsToZero)
{
    QuantParams qp = calibrateAbsMax(5.0, 16);
    EXPECT_EQ(quantize(0.0f, qp), 0);
    EXPECT_EQ(dequantize(0, qp), 0.0f);
}

TEST(Quant, SaturatesOutOfRange)
{
    QuantParams qp = calibrateAbsMax(1.0, 8);
    EXPECT_EQ(quantize(100.0f, qp), 127);
    EXPECT_EQ(quantize(-100.0f, qp), -128);
}

TEST(Quant, NaNMapsToZero)
{
    // Matches the range checker, which flushes NaN to 0.
    for (int bits : {8, 16})
        for (std::uint32_t nan : {0x7fc00000u, 0xffc01234u, 0x7f800001u})
            EXPECT_EQ(quantize(std::bit_cast<float>(nan),
                               calibrateAbsMax(1.0, bits)),
                      0);
}

TEST(Quant, RoundToNearest)
{
    QuantParams qp = calibrateAbsMax(127.0, 8); // scale = 1
    EXPECT_EQ(quantize(2.4f, qp), 2);
    EXPECT_EQ(quantize(2.6f, qp), 3);
    EXPECT_EQ(quantize(-2.6f, qp), -3);
}

TEST(Quant, RoundsHalfToEven)
{
    // Ties must break toward even codes (lrint under the default FP
    // environment), not away from zero: the SIMD quantizeBatch path
    // reproduces exactly this behaviour.
    QuantParams qp = calibrateAbsMax(127.0, 8); // scale = 1
    EXPECT_EQ(quantize(0.5f, qp), 0);
    EXPECT_EQ(quantize(1.5f, qp), 2);
    EXPECT_EQ(quantize(2.5f, qp), 2);
    EXPECT_EQ(quantize(3.5f, qp), 4);
    EXPECT_EQ(quantize(-0.5f, qp), 0);
    EXPECT_EQ(quantize(-1.5f, qp), -2);
    EXPECT_EQ(quantize(-2.5f, qp), -2);
}

TEST(Quant, RangeHelpersAreConstexpr)
{
    constexpr QuantParams q8{1.0, 8};
    static_assert(q8.qmax() == 127);
    static_assert(q8.qmin() == -128);
    static_assert(clampToRange(1000, q8) == 127);
    static_assert(clampToRange(-1000, q8) == -128);
    static_assert(clampToRange(-5, q8) == -5);
    constexpr QuantParams q16{1.0, 16};
    static_assert(q16.qmax() == 32767);
    static_assert(q16.qmin() == -32768);
    SUCCEED();
}

TEST(Quant, QuantOfDequantIsIdentity)
{
    // Property: every representable code survives dequant->quant.
    QuantParams qp = calibrateAbsMax(3.7, 8);
    for (int q = qp.qmin(); q <= qp.qmax(); ++q)
        EXPECT_EQ(quantize(dequantize(q, qp), qp), q) << "q=" << q;
}

TEST(Quant, Int16QuantOfDequantIsIdentitySampled)
{
    QuantParams qp = calibrateAbsMax(10.0, 16);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        auto q = static_cast<std::int32_t>(
            rng.range(qp.qmin(), qp.qmax()));
        EXPECT_EQ(quantize(dequantize(q, qp), qp), q);
    }
}

TEST(Quant, ErrorBoundedByHalfStep)
{
    QuantParams qp = calibrateAbsMax(2.0, 8);
    Rng rng(8);
    for (int i = 0; i < 2000; ++i) {
        float x = static_cast<float>(rng.uniform(-2.0, 2.0));
        float r = dequantize(quantize(x, qp), qp);
        EXPECT_LE(std::fabs(r - x), qp.scale * 0.5 + 1e-7);
    }
}

TEST(Quant, ClampToRange)
{
    QuantParams qp = calibrateAbsMax(1.0, 8);
    EXPECT_EQ(clampToRange(1000, qp), 127);
    EXPECT_EQ(clampToRange(-1000, qp), -128);
    EXPECT_EQ(clampToRange(5, qp), 5);
}
