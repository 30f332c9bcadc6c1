/**
 * @file
 * Unit tests for the structural layers: pooling, activations,
 * element-wise ops, concat, slice, scale-shift, and softmax.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "nn/activation.hh"
#include "nn/elementwise.hh"
#include "nn/pool.hh"
#include "nn/softmax.hh"

using namespace fidelity;

namespace
{

Tensor
iota(int n, int h, int w, int c)
{
    Tensor t(n, h, w, c);
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(i);
    return t;
}

} // namespace

TEST(Pool, MaxPooling2x2)
{
    Tensor x = iota(1, 4, 4, 1);
    Pool pool("p", Pool::Mode::Max, 2);
    Tensor out = pool.forward(x);
    EXPECT_EQ(out.h(), 2);
    EXPECT_EQ(out.w(), 2);
    EXPECT_EQ(out.at(0, 0, 0, 0), 5.0f);
    EXPECT_EQ(out.at(0, 0, 1, 0), 7.0f);
    EXPECT_EQ(out.at(0, 1, 0, 0), 13.0f);
    EXPECT_EQ(out.at(0, 1, 1, 0), 15.0f);
}

TEST(Pool, AvgPooling2x2)
{
    Tensor x = iota(1, 2, 2, 1);
    Pool pool("p", Pool::Mode::Avg, 2);
    Tensor out = pool.forward(x);
    EXPECT_EQ(out.at(0, 0, 0, 0), 1.5f);
}

TEST(Pool, StrideAndWindowIndependent)
{
    Tensor x = iota(1, 5, 5, 1);
    Pool pool("p", Pool::Mode::Max, 3, /*stride=*/1);
    Tensor out = pool.forward(x);
    EXPECT_EQ(out.h(), 3);
    EXPECT_EQ(out.at(0, 0, 0, 0), 12.0f);
}

TEST(Pool, ChannelsIndependent)
{
    Tensor x(1, 2, 2, 2);
    x.at(0, 0, 0, 0) = 9.0f;
    x.at(0, 1, 1, 1) = 4.0f;
    Pool pool("p", Pool::Mode::Max, 2);
    Tensor out = pool.forward(x);
    EXPECT_EQ(out.at(0, 0, 0, 0), 9.0f);
    EXPECT_EQ(out.at(0, 0, 0, 1), 4.0f);
}

TEST(GlobalAvgPool, Averages)
{
    Tensor x = iota(1, 2, 2, 2);
    GlobalAvgPool gap("g");
    Tensor out = gap.forward(x);
    EXPECT_EQ(out.h(), 1);
    EXPECT_EQ(out.w(), 1);
    // Channel 0 holds 0, 2, 4, 6; channel 1 holds 1, 3, 5, 7.
    EXPECT_EQ(out.at(0, 0, 0, 0), 3.0f);
    EXPECT_EQ(out.at(0, 0, 0, 1), 4.0f);
}

TEST(Activation, ReLU)
{
    Activation act("a", Activation::Func::ReLU);
    EXPECT_EQ(act.apply(2.0f), 2.0f);
    EXPECT_EQ(act.apply(-2.0f), 0.0f);
    EXPECT_EQ(act.apply(0.0f), 0.0f);
}

TEST(Activation, LeakyReLU)
{
    Activation act("a", Activation::Func::LeakyReLU, 0.1f);
    EXPECT_EQ(act.apply(3.0f), 3.0f);
    EXPECT_NEAR(act.apply(-3.0f), -0.3f, 1e-6f);
}

TEST(Activation, Sigmoid)
{
    Activation act("a", Activation::Func::Sigmoid);
    EXPECT_NEAR(act.apply(0.0f), 0.5f, 1e-6f);
    EXPECT_GT(act.apply(10.0f), 0.999f);
    EXPECT_LT(act.apply(-10.0f), 0.001f);
}

TEST(Activation, Tanh)
{
    Activation act("a", Activation::Func::Tanh);
    EXPECT_NEAR(act.apply(0.0f), 0.0f, 1e-6f);
    EXPECT_NEAR(act.apply(100.0f), 1.0f, 1e-6f);
}

TEST(Activation, AppliesElementwise)
{
    Tensor x(1, 1, 1, 3);
    x[0] = -1.0f;
    x[1] = 0.5f;
    x[2] = 2.0f;
    Activation act("a", Activation::Func::ReLU);
    Tensor out = act.forward(x);
    EXPECT_EQ(out[0], 0.0f);
    EXPECT_EQ(out[1], 0.5f);
    EXPECT_EQ(out[2], 2.0f);
}

TEST(Elementwise, AddMulSub)
{
    Tensor a(1, 1, 1, 2), b(1, 1, 1, 2);
    a[0] = 2.0f;
    a[1] = -3.0f;
    b[0] = 4.0f;
    b[1] = 5.0f;
    std::vector<const Tensor *> ins{&a, &b};
    EXPECT_EQ(Elementwise("e", Elementwise::Op::Add).forward(ins)[0],
              6.0f);
    EXPECT_EQ(Elementwise("e", Elementwise::Op::Mul).forward(ins)[1],
              -15.0f);
    EXPECT_EQ(Elementwise("e", Elementwise::Op::Sub).forward(ins)[0],
              -2.0f);
}

TEST(ElementwiseDeath, ShapeMismatch)
{
    Tensor a(1, 1, 1, 2), b(1, 1, 1, 3);
    std::vector<const Tensor *> ins{&a, &b};
    Elementwise e("e", Elementwise::Op::Add);
    EXPECT_DEATH((void)e.forward(ins), "mismatch");
}

TEST(Concat, StacksChannels)
{
    Tensor a = iota(1, 2, 1, 2);
    Tensor b = iota(1, 2, 1, 3);
    ConcatC cat("c");
    std::vector<const Tensor *> ins{&a, &b};
    Tensor out = cat.forward(ins);
    EXPECT_EQ(out.c(), 5);
    EXPECT_EQ(out.at(0, 1, 0, 0), a.at(0, 1, 0, 0));
    EXPECT_EQ(out.at(0, 1, 0, 2), b.at(0, 1, 0, 0));
    EXPECT_EQ(out.at(0, 1, 0, 4), b.at(0, 1, 0, 2));
}

TEST(Slice, ChannelRange)
{
    Tensor x = iota(1, 1, 1, 6);
    Slice s("s", Slice::Axis::C, 2, 3);
    Tensor out = s.forward(x);
    EXPECT_EQ(out.c(), 3);
    EXPECT_EQ(out[0], 2.0f);
    EXPECT_EQ(out[2], 4.0f);
}

TEST(Slice, HeightRange)
{
    Tensor x = iota(1, 4, 1, 2);
    Slice s("s", Slice::Axis::H, 1, 2);
    Tensor out = s.forward(x);
    EXPECT_EQ(out.h(), 2);
    EXPECT_EQ(out.at(0, 0, 0, 0), x.at(0, 1, 0, 0));
    EXPECT_EQ(out.at(0, 1, 0, 1), x.at(0, 2, 0, 1));
}

TEST(SliceDeath, RangeOverflow)
{
    Tensor x = iota(1, 1, 1, 4);
    Slice s("s", Slice::Axis::C, 2, 3);
    std::vector<const Tensor *> ins{&x};
    EXPECT_DEATH((void)s.forward(ins), "exceeds");
}

TEST(ScaleShift, Affine)
{
    Tensor x = iota(1, 1, 1, 3);
    ScaleShift ss("s", 2.0f, 1.0f);
    Tensor out = ss.forward(x);
    EXPECT_EQ(out[0], 1.0f);
    EXPECT_EQ(out[1], 3.0f);
    EXPECT_EQ(out[2], 5.0f);
}

TEST(Softmax, NormalisesPerPosition)
{
    Tensor x(1, 2, 1, 3);
    x.at(0, 0, 0, 0) = 1.0f;
    x.at(0, 0, 0, 1) = 2.0f;
    x.at(0, 0, 0, 2) = 3.0f;
    x.at(0, 1, 0, 0) = -5.0f;
    Softmax sm("sm");
    Tensor out = sm.forward(x);
    for (int h = 0; h < 2; ++h) {
        double sum = 0;
        for (int c = 0; c < 3; ++c)
            sum += out.at(0, h, 0, c);
        EXPECT_NEAR(sum, 1.0, 1e-6);
    }
    EXPECT_GT(out.at(0, 0, 0, 2), out.at(0, 0, 0, 1));
}

TEST(Softmax, BitsMatchTwoPassReference)
{
    // forward() evaluates each exp once and reuses it for the sum and
    // the division; the bits must equal the textbook two-pass form
    // that evaluates it again for the division, NaN and infinities
    // included.
    Tensor x(2, 3, 2, 7);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::sin(0.37f * static_cast<float>(i)) * 9.0f;
    x[5] = std::numeric_limits<float>::quiet_NaN();
    x[20] = std::numeric_limits<float>::infinity();
    x[30] = -std::numeric_limits<float>::infinity();
    Softmax sm("sm");
    Tensor out = sm.forward(x);
    for (std::size_t p = 0; p < x.size(); p += x.c()) {
        float mx = -std::numeric_limits<float>::infinity();
        for (int c = 0; c < x.c(); ++c)
            mx = std::max(mx, x[p + c]);
        double denom = 0.0;
        for (int c = 0; c < x.c(); ++c)
            denom += std::exp(static_cast<double>(x[p + c] - mx));
        for (int c = 0; c < x.c(); ++c) {
            double e = std::exp(static_cast<double>(x[p + c] - mx));
            EXPECT_EQ(std::bit_cast<std::uint32_t>(out[p + c]),
                      std::bit_cast<std::uint32_t>(
                          static_cast<float>(e / denom)))
                << "element " << p + c;
        }
    }
}

TEST(Softmax, StableForLargeLogits)
{
    Tensor x(1, 1, 1, 2);
    x[0] = 1000.0f;
    x[1] = 999.0f;
    Softmax sm("sm");
    Tensor out = sm.forward(x);
    EXPECT_TRUE(std::isfinite(out[0]));
    EXPECT_NEAR(out[0] + out[1], 1.0f, 1e-6f);
    EXPECT_GT(out[0], out[1]);
}

TEST(Softmax, NanPropagates)
{
    Tensor x(1, 1, 1, 3);
    x[1] = std::numeric_limits<float>::quiet_NaN();
    Softmax sm("sm");
    Tensor out = sm.forward(x);
    bool any_nan = false;
    for (std::size_t i = 0; i < out.size(); ++i)
        any_nan = any_nan || std::isnan(out[i]);
    EXPECT_TRUE(any_nan);
}
