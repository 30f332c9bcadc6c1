/**
 * @file
 * Tests of the software fault-injection engine and the naive baseline.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/injector.hh"
#include "core/naive.hh"
#include "sim/stats.hh"
#include "workloads/metrics.hh"
#include "nn/activation.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/network.hh"
#include "nn/softmax.hh"
#include "sim/rng.hh"

using namespace fidelity;

namespace
{

Network
makeClassifier(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("cls");
    NodeId fc1 = net.add(std::make_unique<FC>("fc1", 8, 16,
                                              heWeights(rng, 128, 8),
                                              smallBiases(rng, 16)),
                         0);
    NodeId act = net.add(std::make_unique<Activation>(
                             "relu", Activation::Func::ReLU),
                         fc1);
    NodeId fc2 = net.add(std::make_unique<FC>("fc2", 16, 5,
                                              heWeights(rng, 80, 16),
                                              smallBiases(rng, 5)),
                         act);
    net.add(std::make_unique<Softmax>("sm"), fc2);
    return net;
}

Tensor
makeInput(std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(1, 1, 1, 8);
    for (auto &v : t.data())
        v = static_cast<float>(rng.normal(0, 1));
    return t;
}

} // namespace

TEST(Injector, GoldenOutputIsForwardPass)
{
    Network net = makeClassifier(1);
    Tensor x = makeInput(2);
    Injector inj(net, x, NvdlaConfig{});
    Tensor direct = net.forward(x);
    const Tensor &cached = inj.goldenOutput();
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(cached[i], direct[i]);
}

TEST(Injector, GlobalControlAlwaysFails)
{
    Network net = makeClassifier(1);
    Tensor x = makeInput(2);
    Injector inj(net, x, NvdlaConfig{});
    Rng rng(3);
    auto macs = net.macNodes();
    InjectionRecord rec = inj.inject(macs[0], FFCategory::GlobalControl,
                                     top1Metric(), rng);
    EXPECT_FALSE(rec.masked);
    EXPECT_TRUE(rec.globalFailure);
    EXPECT_EQ(rec.numFaultyNeurons, 0);
}

TEST(Injector, AlwaysTrueMetricMasksNonGlobal)
{
    Network net = makeClassifier(1);
    Tensor x = makeInput(2);
    Injector inj(net, x, NvdlaConfig{});
    Rng rng(4);
    CorrectnessFn always = [](const Tensor &, const Tensor &) {
        return true;
    };
    auto macs = net.macNodes();
    for (int i = 0; i < 20; ++i) {
        InjectionRecord rec =
            inj.inject(macs[0], FFCategory::OutputPsum, always, rng);
        EXPECT_TRUE(rec.masked);
    }
}

TEST(Injector, AlwaysFalseMetricFailsWhenNeuronsChange)
{
    Network net = makeClassifier(1);
    Tensor x = makeInput(2);
    Injector inj(net, x, NvdlaConfig{});
    Rng rng(5);
    CorrectnessFn never = [](const Tensor &, const Tensor &) {
        return false;
    };
    auto macs = net.macNodes();
    int failures = 0;
    for (int i = 0; i < 30; ++i) {
        InjectionRecord rec =
            inj.inject(macs[0], FFCategory::OutputPsum, never, rng);
        if (rec.numFaultyNeurons > 0) {
            EXPECT_FALSE(rec.masked);
        }
        failures += !rec.masked;
    }
    EXPECT_GT(failures, 0);
}

TEST(Injector, RecordsNeuronCountAndDelta)
{
    Network net = makeClassifier(1);
    Tensor x = makeInput(2);
    Injector inj(net, x, NvdlaConfig{});
    Rng rng(6);
    auto macs = net.macNodes();
    bool saw_delta = false;
    for (int i = 0; i < 30; ++i) {
        InjectionRecord rec = inj.inject(
            macs[0], FFCategory::PreBufInput, top1Metric(), rng);
        EXPECT_GE(rec.numFaultyNeurons, 0);
        if (rec.numFaultyNeurons > 0 && rec.maxAbsDelta > 0)
            saw_delta = true;
    }
    EXPECT_TRUE(saw_delta);
}

TEST(Injector, Top1DetectsLabelFlips)
{
    Tensor golden(1, 1, 1, 3);
    golden[0] = 0.2f;
    golden[1] = 0.7f;
    golden[2] = 0.1f;
    Tensor same = golden;
    same[1] = 0.6f;
    Tensor flipped = golden;
    flipped[0] = 0.9f;
    EXPECT_TRUE(top1Match(golden, same));
    EXPECT_FALSE(top1Match(golden, flipped));
}

TEST(Injector, Top1IgnoresNanOffTheWinningPosition)
{
    // A NaN at a position that cannot decide top-1 must not flag the
    // fault: the predicted class is unchanged.
    Tensor golden(1, 1, 1, 3);
    golden[1] = 1.0f;
    Tensor faulty = golden;
    faulty[2] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(top1Match(golden, faulty));
}

TEST(Injector, Top1RejectsNanDisplacingTheWinner)
{
    Tensor golden(1, 1, 1, 3);
    golden[0] = 0.1f;
    golden[1] = 1.0f;
    golden[2] = 0.5f;
    // The winning score turns NaN: its class can no longer win, the
    // prediction moves to class 2 — an application error.
    Tensor faulty = golden;
    faulty[1] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(top1Match(golden, faulty));
}

TEST(Injector, Top1ToleratesGoldenNanAtSameIndex)
{
    // A NaN the golden output already contains is not the fault's
    // doing; matching NaN positions with an unchanged winner pass.
    Tensor golden(1, 1, 1, 3);
    golden[0] = std::numeric_limits<float>::quiet_NaN();
    golden[1] = 1.0f;
    golden[2] = 0.5f;
    Tensor faulty = golden;
    EXPECT_TRUE(top1Match(golden, faulty));
}

TEST(Injector, Top1InfinityOrdersNormally)
{
    Tensor golden(1, 1, 1, 3);
    golden[1] = 1.0f;
    // +inf is a valid, orderable score: it wins top-1 and flips the
    // prediction to class 0.
    Tensor faulty = golden;
    faulty[0] = std::numeric_limits<float>::infinity();
    EXPECT_FALSE(top1Match(golden, faulty));
    // -inf never wins; prediction unchanged.
    Tensor low = golden;
    low[0] = -std::numeric_limits<float>::infinity();
    EXPECT_TRUE(top1Match(golden, low));
}

TEST(Injector, Top1AllNanOutputsCompareEqual)
{
    Tensor golden(1, 1, 1, 2);
    golden[0] = 1.0f;
    golden[1] = 0.0f;
    Tensor all_nan(1, 1, 1, 2);
    all_nan[0] = std::numeric_limits<float>::quiet_NaN();
    all_nan[1] = std::numeric_limits<float>::quiet_NaN();
    // Defined vs undefined prediction: an error.
    EXPECT_FALSE(top1Match(golden, all_nan));
    // Undefined vs undefined: the metric has no basis to differ.
    EXPECT_TRUE(top1Match(all_nan, all_nan));
}

TEST(Injector, BoundValuePreservesNegativeOverflowSign)
{
    const float inf = std::numeric_limits<float>::infinity();
    // Regression: -inf used to saturate to +clamp, silently flipping
    // the sign of negatively overflowed faulty values.
    EXPECT_EQ(boundValue(-inf, 100.0), -100.0f);
    EXPECT_EQ(boundValue(inf, 100.0), 100.0f);
}

TEST(Injector, BoundValueFlushesNanToZero)
{
    EXPECT_EQ(boundValue(std::numeric_limits<float>::quiet_NaN(),
                         100.0),
              0.0f);
}

TEST(Injector, BoundValueSaturatesFiniteValues)
{
    EXPECT_EQ(boundValue(250.0f, 100.0), 100.0f);
    EXPECT_EQ(boundValue(-250.0f, 100.0), -100.0f);
    EXPECT_EQ(boundValue(42.0f, 100.0), 42.0f);
    EXPECT_EQ(boundValue(-42.0f, 100.0), -42.0f);
}

TEST(Injector, DeterministicGivenSeed)
{
    Network net = makeClassifier(1);
    Tensor x = makeInput(2);
    Injector inj(net, x, NvdlaConfig{});
    auto macs = net.macNodes();
    Rng a(9), b(9);
    for (int i = 0; i < 10; ++i) {
        InjectionRecord ra =
            inj.inject(macs[1], FFCategory::OperandWeight,
                       top1Metric(), a);
        InjectionRecord rb =
            inj.inject(macs[1], FFCategory::OperandWeight,
                       top1Metric(), b);
        EXPECT_EQ(ra.masked, rb.masked);
        EXPECT_EQ(ra.numFaultyNeurons, rb.numFaultyNeurons);
        EXPECT_EQ(ra.maxAbsDelta, rb.maxAbsDelta);
    }
}

TEST(Naive, MaskingIsHighForSmallFlips)
{
    Network net = makeClassifier(1);
    Tensor x = makeInput(2);
    Injector inj(net, x, NvdlaConfig{});
    NaiveInjector naive(inj);
    Rng rng(10);
    Proportion masked;
    for (int i = 0; i < 300; ++i)
        masked.add(naive.inject(top1Metric(), rng));
    // The naive single-bit model masks most faults.
    EXPECT_GT(masked.mean(), 0.5);
}

TEST(Naive, FitFormula)
{
    FitParams p;
    p.nff = 8.0 * 1024.0 * 1024.0; // raw total 600
    EXPECT_NEAR(NaiveInjector::naiveFit(p, 0.99), 6.0, 1e-9);
    EXPECT_NEAR(NaiveInjector::naiveFit(p, 1.0), 0.0, 1e-12);
}

TEST(Naive, UnderestimatesAgainstGlobalAwareModel)
{
    // Even a perfect-masking FIdelity estimate keeps the global
    // 11.3% always-failure share, which the naive model misses when
    // its masking probability is high.
    FitParams p;
    LayerFitInput l;
    l.execTime = 1.0;
    for (std::size_t c = 0; c < allFFCategories().size(); ++c)
        l.stats[c].probSwMask = 0.99;
    auto gidx = static_cast<std::size_t>(FFCategory::GlobalControl);
    l.stats[gidx].probSwMask = 0.0;
    FitBreakdown fidelity_fit = acceleratorFit(p, {l});
    double naive_fit = NaiveInjector::naiveFit(p, 0.99);
    EXPECT_GT(fidelity_fit.total() / naive_fit, 5.0);
}
