/**
 * @file
 * Tests of the study's workload networks and validation layers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "workloads/data.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;

namespace
{

class NetworkName : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(NetworkName, BuildsAndRuns)
{
    const std::string &name = GetParam();
    Network net = buildNetwork(name, 7);
    Tensor x = defaultInputFor(name, 9);
    Tensor out = net.forward(x);
    EXPECT_GT(out.size(), 0u);
    EXPECT_FALSE(hasInvalidValues(out));
}

TEST_P(NetworkName, DeterministicForSeed)
{
    const std::string &name = GetParam();
    Network a = buildNetwork(name, 7);
    Network b = buildNetwork(name, 7);
    Tensor x = defaultInputFor(name, 9);
    Tensor oa = a.forward(x);
    Tensor ob = b.forward(x);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t i = 0; i < oa.size(); ++i)
        EXPECT_EQ(oa[i], ob[i]);
}

TEST_P(NetworkName, HasMacLayersToInject)
{
    Network net = buildNetwork(GetParam(), 7);
    EXPECT_GE(net.macNodes().size(), 3u);
}

TEST_P(NetworkName, RunsInEveryPrecision)
{
    const std::string &name = GetParam();
    Tensor x = defaultInputFor(name, 9);
    for (Precision p : {Precision::FP16, Precision::INT16,
                        Precision::INT8}) {
        Network net = buildNetwork(name, 7);
        net.setPrecision(p);
        net.calibrate(x);
        Tensor out = net.forward(x);
        EXPECT_FALSE(hasInvalidValues(out)) << precisionName(p);
    }
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, NetworkName,
                         ::testing::ValuesIn(studyNetworkNames()));

TEST(Models, ClassifiersEmitDistributions)
{
    for (const char *name : {"inception", "resnet", "mobilenet"}) {
        Network net = buildNetwork(name, 7);
        Tensor out = net.forward(defaultInputFor(name, 9));
        EXPECT_EQ(out.c(), 10) << name;
        double sum = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_GE(out[i], 0.0f);
            sum += out[i];
        }
        EXPECT_NEAR(sum, 1.0, 1e-5) << name;
    }
}

TEST(Models, YoloEmitsDetectionGrid)
{
    Network net = buildYolo(7);
    Tensor out = net.forward(defaultInputFor("yolo", 9));
    EXPECT_EQ(out.h(), 8);
    EXPECT_EQ(out.w(), 8);
    EXPECT_EQ(out.c(), 8);
    // The decoder must accept the head's shape.
    (void)decodeDetections(out);
}

TEST(Models, TransformerEmitsPerPositionDistributions)
{
    Network net = buildTransformer(7);
    Tensor out = net.forward(defaultInputFor("transformer", 9));
    EXPECT_EQ(out.h(), 12);
    EXPECT_EQ(out.c(), 24);
    std::vector<int> tokens = decodeTokens(out);
    EXPECT_EQ(tokens.size(), 12u);
}

TEST(Models, LstmEmitsClassDistribution)
{
    Network net = buildLstm(7);
    Tensor out = net.forward(defaultInputFor("rnn", 9));
    EXPECT_EQ(out.c(), 6);
}

TEST(Models, DifferentSeedsDifferentOutputs)
{
    Network a = buildResNet(7);
    Network b = buildResNet(8);
    Tensor x = defaultInputFor("resnet", 9);
    Tensor oa = a.forward(x);
    Tensor ob = b.forward(x);
    bool differ = false;
    for (std::size_t i = 0; i < oa.size(); ++i)
        differ = differ || oa[i] != ob[i];
    EXPECT_TRUE(differ);
}

TEST(Models, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)buildNetwork("alexnet", 1), "unknown network");
}

TEST(Data, ImageInputIsSmooth)
{
    Tensor img = makeImageInput(3, 1, 16, 16, 4);
    // Neighbouring pixels correlate far more than distant ones.
    double near = 0.0, far = 0.0;
    int count = 0;
    for (int c = 0; c < 4; ++c)
        for (int h = 0; h < 15; ++h)
            for (int w = 0; w < 15; ++w) {
                near += std::fabs(img.at(0, h, w, c) -
                                  img.at(0, h, w + 1, c));
                far += std::fabs(img.at(0, h, w, c) -
                                 img.at(0, 15 - h, 15 - w, c));
                count += 1;
            }
    EXPECT_LT(near / count, far / count);
}

TEST(Data, InputsAreDeterministic)
{
    Tensor a = makeImageInput(5, 1, 8, 8, 2);
    Tensor b = makeImageInput(5, 1, 8, 8, 2);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
    Tensor c = makeImageInput(6, 1, 8, 8, 2);
    bool differ = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differ = differ || a[i] != c[i];
    EXPECT_TRUE(differ);
}

TEST(ValidationWorkloads, CoverTableThree)
{
    auto workloads = buildValidationWorkloads(11);
    ASSERT_EQ(workloads.size(), 6u);
    EXPECT_EQ(workloads[0].name, "inception-conv3x3");
    EXPECT_EQ(workloads[3].name, "attention-matmul");
    for (const auto &w : workloads) {
        EXPECT_EQ(w.layer->precision(), Precision::FP16);
        Tensor out = w.layer->forward(w.ins());
        EXPECT_GT(out.size(), 0u);
        EXPECT_FALSE(hasInvalidValues(out));
    }
}

TEST(ValidationWorkloads, SupportIntegerPrecisions)
{
    for (Precision p : {Precision::INT16, Precision::INT8}) {
        auto workloads = buildValidationWorkloads(11, p);
        for (const auto &w : workloads) {
            Tensor out = w.layer->forward(w.ins());
            EXPECT_FALSE(hasInvalidValues(out)) << w.name;
        }
    }
}
