/**
 * @file
 * Tests of the Table II software fault models.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <thread>

#include "core/fault_models.hh"
#include "nn/conv.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "sim/rng.hh"

using namespace fidelity;

namespace
{

struct Fixture
{
    ConvSpec spec;
    std::unique_ptr<Conv2D> conv;
    Tensor x;
    std::vector<const Tensor *> ins;
    Tensor golden;
    NvdlaConfig cfg;
    FaultModels models{cfg};

    explicit Fixture(Precision p = Precision::FP16)
        : x(1, 6, 6, 8)
    {
        Rng rng(17);
        spec.inC = 8;
        spec.outC = 32;
        spec.kh = 3;
        spec.kw = 3;
        spec.pad = 1;
        conv = std::make_unique<Conv2D>(
            "c", spec, heWeights(rng, 9u * 8 * 32, 72),
            smallBiases(rng, 32));
        for (auto &v : x.data())
            v = static_cast<float>(rng.normal(0, 1));
        ins = {&x};
        conv->setPrecision(Precision::FP32);
        Tensor g = conv->forward(ins);
        conv->calibrate(ins, g);
        conv->setPrecision(p);
        golden = conv->forward(ins);
    }
};

} // namespace

TEST(FaultModels, SharesSumToOne)
{
    double total = 0.0;
    for (FFCategory cat : allFFCategories())
        total += ffCategoryShare(cat);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(FaultModels, CategoryNamesAreDistinct)
{
    std::set<std::string> names;
    for (FFCategory cat : allFFCategories())
        names.insert(ffCategoryName(cat));
    EXPECT_EQ(names.size(), allFFCategories().size());
}

TEST(FaultModels, DatapathPredicate)
{
    EXPECT_TRUE(isDatapathCategory(FFCategory::PreBufInput));
    EXPECT_TRUE(isDatapathCategory(FFCategory::OutputPsum));
    EXPECT_FALSE(isDatapathCategory(FFCategory::LocalControl));
    EXPECT_FALSE(isDatapathCategory(FFCategory::GlobalControl));
}

TEST(FaultModels, GlobalControlIsAlwaysFailure)
{
    Fixture f;
    Rng rng(1);
    FaultApplication app = f.models.apply(
        FFCategory::GlobalControl, *f.conv, f.ins, f.golden, rng);
    EXPECT_TRUE(app.globalFailure);
    EXPECT_FALSE(app.masked());
    EXPECT_TRUE(app.neurons.empty());
}

TEST(FaultModels, OutputPsumIsSingleNeuron)
{
    Fixture f;
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        FaultApplication app = f.models.apply(
            FFCategory::OutputPsum, *f.conv, f.ins, f.golden, rng);
        EXPECT_LE(app.neurons.size(), 1u);
        for (std::size_t k = 0; k < app.neurons.size(); ++k)
            EXPECT_NE(app.values[k], f.golden.at(app.neurons[k]));
    }
}

TEST(FaultModels, OperandInputStaysInOneGroupAndPosition)
{
    Fixture f;
    Rng rng(3);
    int non_masked = 0;
    for (int i = 0; i < 60; ++i) {
        FaultApplication app = f.models.apply(
            FFCategory::OperandInput, *f.conv, f.ins, f.golden, rng);
        if (app.neurons.empty())
            continue;
        non_masked += 1;
        EXPECT_LE(app.neurons.size(),
                  static_cast<std::size_t>(f.cfg.macs()));
        const NeuronIndex &first = app.neurons.front();
        int group = first.c / f.cfg.macs();
        for (const NeuronIndex &n : app.neurons) {
            EXPECT_EQ(n.h, first.h);
            EXPECT_EQ(n.w, first.w);
            EXPECT_EQ(n.c / f.cfg.macs(), group);
        }
    }
    EXPECT_GT(non_masked, 30);
}

TEST(FaultModels, OperandWeightIsBoundedRunInOneChannel)
{
    Fixture f;
    Rng rng(4);
    int non_masked = 0;
    for (int i = 0; i < 60; ++i) {
        FaultApplication app = f.models.apply(
            FFCategory::OperandWeight, *f.conv, f.ins, f.golden, rng);
        if (app.neurons.empty())
            continue;
        non_masked += 1;
        EXPECT_LE(app.neurons.size(), static_cast<std::size_t>(f.cfg.t));
        int chan = app.neurons.front().c;
        for (const NeuronIndex &n : app.neurons)
            EXPECT_EQ(n.c, chan);
    }
    EXPECT_GT(non_masked, 30);
}

TEST(FaultModels, PreBufWeightAffectsOneChannelWidely)
{
    Fixture f;
    Rng rng(5);
    std::size_t biggest = 0;
    for (int i = 0; i < 40; ++i) {
        FaultApplication app = f.models.apply(
            FFCategory::PreBufWeight, *f.conv, f.ins, f.golden, rng);
        if (app.neurons.empty())
            continue;
        int chan = app.neurons.front().c;
        for (const NeuronIndex &n : app.neurons)
            EXPECT_EQ(n.c, chan);
        biggest = std::max(biggest, app.neurons.size());
    }
    // Some weight flip must reach more neurons than the t-bounded
    // operand model ever can.
    EXPECT_GT(biggest, static_cast<std::size_t>(f.cfg.t));
}

TEST(FaultModels, PreBufInputCanSpanManyChannels)
{
    Fixture f;
    Rng rng(6);
    std::size_t biggest = 0;
    for (int i = 0; i < 40; ++i) {
        FaultApplication app = f.models.apply(
            FFCategory::PreBufInput, *f.conv, f.ins, f.golden, rng);
        biggest = std::max(biggest, app.neurons.size());
    }
    // An input value feeds all 32 output channels at its positions.
    EXPECT_GT(biggest, 32u);
}

TEST(FaultModels, LocalControlIsOneRandomNeuron)
{
    Fixture f;
    Rng rng(7);
    for (int i = 0; i < 30; ++i) {
        FaultApplication app = f.models.apply(
            FFCategory::LocalControl, *f.conv, f.ins, f.golden, rng);
        EXPECT_LE(app.neurons.size(), 1u);
    }
}

TEST(FaultModels, ValuesAlwaysDifferFromGolden)
{
    Fixture f;
    Rng rng(8);
    for (FFCategory cat :
         {FFCategory::PreBufInput, FFCategory::PreBufWeight,
          FFCategory::OperandInput, FFCategory::OperandWeight,
          FFCategory::OutputPsum}) {
        for (int i = 0; i < 20; ++i) {
            FaultApplication app =
                f.models.apply(cat, *f.conv, f.ins, f.golden, rng);
            for (std::size_t k = 0; k < app.neurons.size(); ++k) {
                float g = f.golden.at(app.neurons[k]);
                EXPECT_TRUE(app.values[k] != g ||
                            (std::isnan(app.values[k]) !=
                             std::isnan(g)));
            }
        }
    }
}

TEST(FaultModels, MaxAbsDeltaTracksValues)
{
    Fixture f;
    Rng rng(9);
    for (int i = 0; i < 30; ++i) {
        FaultApplication app = f.models.apply(
            FFCategory::OutputPsum, *f.conv, f.ins, f.golden, rng);
        if (app.neurons.empty())
            continue;
        double expect = 0.0;
        for (std::size_t k = 0; k < app.neurons.size(); ++k) {
            float g = f.golden.at(app.neurons[k]);
            double d = std::isfinite(app.values[k])
                ? std::fabs(app.values[k] - g)
                : std::numeric_limits<double>::infinity();
            expect = std::max(expect, d);
        }
        EXPECT_EQ(app.maxAbsDelta, expect);
    }
}

TEST(FaultModels, DeterministicGivenSeed)
{
    Fixture f;
    Rng a(42), b(42);
    for (int i = 0; i < 10; ++i) {
        FaultApplication x = f.models.apply(
            FFCategory::PreBufInput, *f.conv, f.ins, f.golden, a);
        FaultApplication y = f.models.apply(
            FFCategory::PreBufInput, *f.conv, f.ins, f.golden, b);
        ASSERT_EQ(x.neurons.size(), y.neurons.size());
        for (std::size_t k = 0; k < x.neurons.size(); ++k) {
            EXPECT_EQ(x.neurons[k], y.neurons[k]);
            EXPECT_EQ(x.values[k], y.values[k]);
        }
    }
}

TEST(FaultModels, Int8FlipsStayInRepresentableRange)
{
    Fixture f(Precision::INT8);
    Tensor golden8 = f.conv->forward(f.ins);
    Rng rng(10);
    double out_max = f.conv->outputQuant().scale * 127.0;
    for (int i = 0; i < 40; ++i) {
        FaultApplication app = f.models.apply(
            FFCategory::OutputPsum, *f.conv, f.ins, golden8, rng);
        for (float v : app.values) {
            EXPECT_TRUE(std::isfinite(v));
            EXPECT_LE(std::fabs(v), out_max * 1.01 +
                          f.conv->outputQuant().scale * 128.0);
        }
    }
}

TEST(FaultModels, OperandBitsPerPrecision)
{
    EXPECT_EQ(FaultModels::operandBits(Precision::FP16), 16);
    EXPECT_EQ(FaultModels::operandBits(Precision::INT8), 8);
    EXPECT_EQ(FaultModels::operandBits(Precision::INT16), 16);
    EXPECT_EQ(FaultModels::operandBits(Precision::FP32), 32);
}

TEST(FaultModels, FlipStoredOperandIsInvolution)
{
    QuantParams qp = calibrateAbsMax(2.0, 8);
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        float x = static_cast<float>(rng.uniform(-2.0, 2.0));
        int bit = static_cast<int>(rng.below(8));
        float stored =
            dequantize(quantize(x, qp), qp); // what the FF holds
        float once = FaultModels::flipStoredOperand(stored,
                                                    Precision::INT8, qp,
                                                    bit);
        float twice = FaultModels::flipStoredOperand(once,
                                                     Precision::INT8,
                                                     qp, bit);
        EXPECT_EQ(twice, stored);
    }
}

TEST(FaultModels, RandomOutputValueUsesRepresentation)
{
    QuantParams qp = calibrateAbsMax(1.0, 8);
    Rng rng(12);
    for (int i = 0; i < 100; ++i) {
        float v = FaultModels::randomOutputValue(Precision::INT8, qp,
                                                 rng);
        EXPECT_LE(std::fabs(v), 128.0 * qp.scale + 1e-6);
    }
}

TEST(FaultModels, ConcurrentWeightFaultsMatchSerial)
{
    // The weight-substitution vector path takes its scratch from
    // Arena::local() and evalConsumers' thread-local boxes and tensor:
    // threads applying weight faults to one warmed layer at once must
    // each get exactly the serial result (run under TSan in CI).
    for (Precision p : {Precision::FP16, Precision::INT8}) {
        Fixture f(p); // its golden forward warms the layer's packs
        constexpr int kThreads = 4;
        constexpr int kDraws = 16;
        auto run = [&](int t) {
            Rng rng(100 + t);
            std::vector<FaultApplication> apps;
            for (int i = 0; i < kDraws; ++i)
                apps.push_back(f.models.apply(
                    i % 2 ? FFCategory::OperandWeight
                          : FFCategory::PreBufWeight,
                    *f.conv, f.ins, f.golden, rng));
            return apps;
        };
        std::vector<std::vector<FaultApplication>> serial, parallel(
                                                               kThreads);
        for (int t = 0; t < kThreads; ++t)
            serial.push_back(run(t));
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] { parallel[t] = run(t); });
        for (std::thread &th : threads)
            th.join();

        std::size_t neurons = 0;
        for (int t = 0; t < kThreads; ++t) {
            ASSERT_EQ(parallel[t].size(), serial[t].size());
            for (int i = 0; i < kDraws; ++i) {
                const FaultApplication &a = parallel[t][i];
                const FaultApplication &b = serial[t][i];
                ASSERT_EQ(a.neurons.size(), b.neurons.size());
                neurons += a.neurons.size();
                for (std::size_t k = 0; k < a.neurons.size(); ++k) {
                    EXPECT_EQ(a.neurons[k], b.neurons[k]);
                    EXPECT_EQ(std::bit_cast<std::uint32_t>(a.values[k]),
                              std::bit_cast<std::uint32_t>(b.values[k]));
                }
                EXPECT_EQ(a.maxAbsDelta, b.maxAbsDelta);
            }
        }
        EXPECT_GT(neurons, 0u) << precisionName(p);
    }
}
