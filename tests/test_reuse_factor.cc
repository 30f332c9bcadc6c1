/**
 * @file
 * Tests of Reuse Factor Analysis (Algorithm 1), the Fig. 2 example
 * descriptors, and the Eyeriss-model cross-check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "accel/eyeriss.hh"
#include "core/ff_descriptors.hh"
#include "core/reuse_factor.hh"
#include "sim/logging.hh"

using namespace fidelity;

namespace
{

std::set<NeuronIndex>
neuronSet(const RFResult &r)
{
    std::set<NeuronIndex> out;
    for (const TimedNeuron &t : r.faultyNeurons)
        out.insert(t.neuron);
    return out;
}

} // namespace

TEST(ReuseFactor, TargetA1HasRfT)
{
    // Fig. 2(a), target a1: t consecutive neurons in one channel.
    const int t = 16;
    RFResult r = analyzeReuseFactor(nvdlaTargetA1(t));
    EXPECT_EQ(r.rf, t);
    for (int y = 0; y < t; ++y) {
        EXPECT_EQ(r.faultyNeurons[y].neuron, (NeuronIndex{0, 0, y, 0}));
        EXPECT_EQ(r.faultyNeurons[y].timestamp, 0);
    }
}

TEST(ReuseFactor, TargetA2HasRfTWithTimestamps)
{
    const int t = 16;
    RFResult r = analyzeReuseFactor(nvdlaTargetA2(t));
    EXPECT_EQ(r.rf, t);
    // Same neuron set as a1, but one per loop timestamp.
    EXPECT_EQ(neuronSet(r), neuronSet(analyzeReuseFactor(
                                nvdlaTargetA1(t))));
    for (int l = 0; l < t; ++l)
        EXPECT_EQ(r.faultyNeurons[l].timestamp, l);
}

TEST(ReuseFactor, TargetA2SamplingGivesOneToT)
{
    // A random injection cycle into the hold register corrupts a
    // suffix of the block: between 1 and t neurons.
    const int t = 16;
    FFDescriptor ff = nvdlaTargetA2(t);
    RFResult r = analyzeReuseFactor(ff);
    Rng rng(3);
    std::set<std::size_t> sizes;
    for (int i = 0; i < 300; ++i) {
        auto sampled = sampleFaultyNeurons(ff, r, rng);
        EXPECT_GE(sampled.size(), 1u);
        EXPECT_LE(sampled.size(), static_cast<std::size_t>(t));
        sizes.insert(sampled.size());
    }
    // All suffix lengths occur.
    EXPECT_EQ(sizes.size(), static_cast<std::size_t>(t));
}

TEST(ReuseFactor, TargetA3HasRfOne)
{
    RFResult r = analyzeReuseFactor(nvdlaTargetA3());
    EXPECT_EQ(r.rf, 1);
}

TEST(ReuseFactor, TargetA4HasRfKSquared)
{
    const int k = 4;
    RFResult r = analyzeReuseFactor(nvdlaTargetA4(k));
    EXPECT_EQ(r.rf, k * k);
    // Same 2-D position, k^2 consecutive channels.
    for (int m = 0; m < k * k; ++m)
        EXPECT_EQ(r.faultyNeurons[m].neuron, (NeuronIndex{0, 0, 0, m}));
}

TEST(ReuseFactor, TargetB1HasRfK)
{
    const int k = 4;
    RFResult r = analyzeReuseFactor(eyerissTargetB1(k));
    EXPECT_EQ(r.rf, k);
    // k consecutive rows of one column.
    for (int i = 0; i < k; ++i) {
        EXPECT_EQ(r.faultyNeurons[i].neuron, (NeuronIndex{0, i, 0, 0}));
        EXPECT_EQ(r.faultyNeurons[i].timestamp, i);
    }
}

TEST(ReuseFactor, TargetB2HasRfKTimesT)
{
    const int k = 4, t = 8;
    RFResult r = analyzeReuseFactor(eyerissTargetB2(k, t));
    EXPECT_EQ(r.rf, k * t);
}

TEST(ReuseFactor, TargetB3HasRfOne)
{
    RFResult r = analyzeReuseFactor(eyerissTargetB3());
    EXPECT_EQ(r.rf, 1);
}

TEST(ReuseFactor, DatapathRfPropertyFour)
{
    // A FF earlier in the weight flow cannot have a smaller RF than a
    // later one: RF(a1) >= RF(a2) >= RF(a3).
    const int t = 16;
    int rf_a1 = analyzeReuseFactor(nvdlaTargetA1(t)).rf;
    int rf_a2 = analyzeReuseFactor(nvdlaTargetA2(t)).rf;
    int rf_a3 = analyzeReuseFactor(nvdlaTargetA3()).rf;
    EXPECT_GE(rf_a1, rf_a2);
    EXPECT_GE(rf_a2, rf_a3);
}

TEST(ReuseFactor, DeduplicatesRepeatedNeurons)
{
    // A unit touching the same neuron on two cycles counts it once.
    FFDescriptor ff;
    ff.ffValueCycles = 1;
    ff.loops.resize(1);
    ComputeUnitUse use;
    use.unit = 0;
    use.neurons = {{NeuronIndex{0, 0, 0, 0}},
                   {NeuronIndex{0, 0, 0, 0}},
                   {NeuronIndex{0, 0, 1, 0}}};
    ff.loops[0].push_back(use);
    RFResult r = analyzeReuseFactor(ff);
    EXPECT_EQ(r.rf, 2);
}

TEST(ReuseFactor, ComposeLocalControlSumsDisjointRfs)
{
    // Sec. III-B3: a valid signal gating several datapath FFs takes
    // the sum of their RFs and the union of their neuron sets.
    auto a4 = nvdlaTargetA4(2); // 4 neurons in channels 0-3
    FFDescriptor shifted = a4;
    for (auto &m : shifted.loops[0])
        for (auto &cyc : m.neurons)
            for (auto &n : cyc)
                n.c += 4; // channels 4-7
    FFDescriptor ctrl = composeLocalControl({a4, shifted});
    RFResult r = analyzeReuseFactor(ctrl);
    EXPECT_EQ(r.rf, 8);
}

TEST(ReuseFactor, ComposeLocalControlUnionsOverlaps)
{
    auto a4 = nvdlaTargetA4(2);
    FFDescriptor ctrl = composeLocalControl({a4, a4});
    EXPECT_EQ(analyzeReuseFactor(ctrl).rf, 4); // overlap collapses
}

TEST(ReuseFactorDeath, LoopsMustMatchValueCycles)
{
    FFDescriptor ff;
    ff.ffValueCycles = 2;
    ff.loops.resize(1);
    EXPECT_DEATH((void)analyzeReuseFactor(ff), "M_l");
}

TEST(ReuseFactor, MalformedDescriptorsAreFatalErrors)
{
    // The same checks in process: under a capture scope each fatal
    // path throws, naming what is wrong with the descriptor.
    ScopedFatalCapture capture;
    FFDescriptor none;
    none.ffValueCycles = 0;
    try {
        (void)analyzeReuseFactor(none);
        ADD_FAILURE() << "FF_value_cycles = 0 was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("FF_value_cycles"),
                  std::string::npos)
            << e.what();
    }
    FFDescriptor short_loops;
    short_loops.ffValueCycles = 3;
    short_loops.loops.resize(2);
    try {
        (void)analyzeReuseFactor(short_loops);
        ADD_FAILURE() << "2 loops for FF_value_cycles = 3 were accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("got 2 loops"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ReuseFactor, EnumNamesAreTheTableIRows)
{
    EXPECT_STREQ(varTypeName(VarType::Input), "Input");
    EXPECT_STREQ(varTypeName(VarType::Weight), "Weight");
    EXPECT_STREQ(varTypeName(VarType::Bias), "Bias");
    EXPECT_STREQ(varTypeName(VarType::PartialSum), "PartialSum");
    EXPECT_STREQ(varTypeName(VarType::Output), "Output");
    EXPECT_STREQ(pipelineStageName(PipelineStage::BeforeBuffer),
                 "BeforeBuffer");
    EXPECT_STREQ(pipelineStageName(PipelineStage::AfterBuffer),
                 "AfterBuffer");
    EXPECT_STREQ(pipelineStageName(PipelineStage::InsideMac), "InsideMac");
    EXPECT_STREQ(pipelineStageName(PipelineStage::AfterMac), "AfterMac");
}

TEST(EyerissModel, WeightNeuronsMatchDescriptor)
{
    const int k = 4;
    EyerissConfig cfg{k, 8};
    EyerissModel model(cfg, 16, 16, 16);
    auto neurons = model.weightFaultNeurons(2, 5, 3);
    ASSERT_EQ(neurons.size(), static_cast<std::size_t>(k));
    RFResult r = analyzeReuseFactor(eyerissTargetB1(k));
    ASSERT_EQ(r.rf, static_cast<int>(neurons.size()));
    // The descriptor's relative offsets shifted to (2, 5, 3) give the
    // model's absolute set.
    for (int i = 0; i < k; ++i) {
        const NeuronIndex &rel = r.faultyNeurons[i].neuron;
        EXPECT_EQ(neurons[i],
                  (NeuronIndex{0, 2 + rel.h, 5 + rel.w, 3 + rel.c}));
    }
}

TEST(EyerissModel, InputNeuronsMatchDescriptor)
{
    const int k = 3, t = 5;
    EyerissConfig cfg{k, t};
    EyerissModel model(cfg, 16, 16, 16);
    auto neurons = model.inputFaultNeurons(1, 15, 2);
    EXPECT_EQ(static_cast<int>(neurons.size()), model.inputRf());
    std::set<NeuronIndex> rel;
    for (const TimedNeuron &tn :
         analyzeReuseFactor(eyerissTargetB2(k, t)).faultyNeurons)
        rel.insert(
            NeuronIndex{0, 1 + tn.neuron.h, 15, 2 + tn.neuron.c});
    std::set<NeuronIndex> abs(neurons.begin(), neurons.end());
    EXPECT_EQ(abs, rel);
}

TEST(EyerissModel, ClipsAtTensorEdges)
{
    EyerissConfig cfg{4, 8};
    EyerissModel model(cfg, 8, 8, 8);
    // Starting at row 6 of an 8-row output clips 4 rows to 2.
    EXPECT_EQ(model.weightFaultNeurons(6, 0, 0).size(), 2u);
    // Channel 6 of 8 clips t = 8 channels to 2.
    EXPECT_EQ(model.inputFaultNeurons(0, 0, 6).size(), 4u * 2u);
}

TEST(EyerissModel, BiasIsSingleNeuron)
{
    EyerissConfig cfg{4, 8};
    EyerissModel model(cfg, 8, 8, 8);
    EXPECT_EQ(model.biasFaultNeurons(3, 3, 3).size(), 1u);
    EXPECT_EQ(model.biasRf(), 1);
}
