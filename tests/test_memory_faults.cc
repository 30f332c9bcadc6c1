/**
 * @file
 * Tests of the memory-error fault models (Sec. III-E): single and
 * multi-word corruptions, validated against the cycle-level engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "accel/nvdla_fi.hh"
#include "core/memory_faults.hh"
#include "nn/conv.hh"
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

    Fixture()
        : x(1, 6, 6, 8)
    {
        Rng rng(23);
        spec.inC = 8;
        spec.outC = 32;
        spec.kh = 3;
        spec.kw = 3;
        spec.pad = 1;
        conv = std::make_unique<Conv2D>(
            "c", spec, heWeights(rng, 9u * 8 * 32, 72),
            smallBiases(rng, 32));
        conv->setPrecision(Precision::FP16);
        for (auto &v : x.data())
            v = static_cast<float>(rng.normal(0, 1));
        ins = {&x};
    }
};

bool
sameValue(float a, float b)
{
    if (std::isnan(a) && std::isnan(b))
        return true;
    return a == b;
}

} // namespace

TEST(MemoryFaults, SingleWeightWordStaysInOneChannel)
{
    Fixture f;
    MemoryFaultModel model(*f.conv, f.ins);
    Rng rng(1);
    for (int i = 0; i < 20; ++i) {
        MemWordFault fault;
        fault.weight = true;
        fault.index = rng.below(static_cast<std::uint32_t>(
            f.conv->weightCount(f.ins)));
        fault.mask = 1u << rng.below(16);
        FaultApplication app = model.applyWord(fault);
        if (app.neurons.empty())
            continue;
        int chan = app.neurons.front().c;
        for (const NeuronIndex &n : app.neurons)
            EXPECT_EQ(n.c, chan);
    }
}

TEST(MemoryFaults, SingleInputWordHitsItsConsumers)
{
    Fixture f;
    MemoryFaultModel model(*f.conv, f.ins);
    MemWordFault fault;
    fault.weight = false;
    fault.index = f.x.offset(0, 3, 3, 2);
    fault.mask = 1u << 15; // sign flip
    FaultApplication app = model.applyWord(fault);
    auto consumers = f.conv->inputConsumers(f.ins, fault.index);
    std::set<NeuronIndex> allowed(consumers.begin(), consumers.end());
    EXPECT_FALSE(app.neurons.empty());
    for (const NeuronIndex &n : app.neurons)
        EXPECT_TRUE(allowed.count(n));
}

TEST(MemoryFaults, MultiWordUnionCoversEachWord)
{
    Fixture f;
    MemoryFaultModel model(*f.conv, f.ins);
    MemWordFault a{false, f.x.offset(0, 1, 1, 0), 1u << 14};
    MemWordFault b{false, f.x.offset(0, 4, 4, 3), 1u << 14};
    FaultApplication both = model.applyWords({a, b});
    FaultApplication only_a = model.applyWord(a);
    FaultApplication only_b = model.applyWord(b);

    std::set<NeuronIndex> got(both.neurons.begin(), both.neurons.end());
    for (const NeuronIndex &n : only_a.neurons)
        EXPECT_TRUE(got.count(n)) << n.str();
    for (const NeuronIndex &n : only_b.neurons)
        EXPECT_TRUE(got.count(n)) << n.str();
}

TEST(MemoryFaults, ChainedSubstitutionOnSharedNeuron)
{
    // Two corrupted input words in the same receptive field: the
    // shared neurons see both corruptions at once.
    Fixture f;
    MemoryFaultModel model(*f.conv, f.ins);
    MemWordFault a{false, f.x.offset(0, 2, 2, 1), 1u << 14};
    MemWordFault b{false, f.x.offset(0, 2, 3, 1), 1u << 14};
    FaultApplication both = model.applyWords({a, b});

    // Compute the expected value of one shared neuron manually.
    OperandSub sa, sb;
    sa.kind = OperandSub::Kind::Input;
    sa.flatIndex = a.index;
    sa.value = model.corruptedValue(a);
    sb = sa;
    sb.flatIndex = b.index;
    sb.value = model.corruptedValue(b);
    sa.next = &sb;

    NeuronIndex shared{0, 2, 2, 5}; // uses both (2,2) and (2,3)
    float expect = f.conv->computeNeuron(f.ins, shared, &sa);
    bool found = false;
    for (std::size_t i = 0; i < both.neurons.size(); ++i) {
        if (both.neurons[i] == shared) {
            found = true;
            EXPECT_TRUE(sameValue(both.values[i], expect));
        }
    }
    EXPECT_TRUE(found);
}

TEST(MemoryFaults, EngineAgreesWithModelAtLoadTime)
{
    // A CBUF word corrupted right when compute starts behaves exactly
    // like the pre-buffer model: same faulty neurons, same values.
    Fixture f;
    EngineLayer el = engineLayerFromConv(*f.conv, f.x);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, el, f.x);
    MemoryFaultModel model(*f.conv, f.ins);

    Rng rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        MemWordFault fault;
        fault.weight = trial % 2 == 0;
        std::size_t limit = fault.weight
            ? f.conv->weightCount(f.ins) : f.x.size();
        fault.index = rng.below(static_cast<std::uint32_t>(limit));
        fault.mask = 1u << rng.below(16);

        MemFault mf;
        mf.weightRegion = fault.weight;
        mf.addr = static_cast<std::int64_t>(fault.index);
        mf.mask = fault.mask;
        mf.cycle = fi.computeStartCycle();
        RtlOutcome rtl = fi.injectMem({mf});
        ASSERT_FALSE(rtl.timeout || rtl.anomaly);

        FaultApplication pred = model.applyWord(fault);
        ASSERT_EQ(rtl.faulty.size(), pred.neurons.size())
            << "trial " << trial;
        std::set<std::size_t> rtl_flats;
        for (const FaultyNeuron &fn : rtl.faulty)
            rtl_flats.insert(fn.flat);
        const Tensor &golden = fi.golden().output;
        for (std::size_t i = 0; i < pred.neurons.size(); ++i) {
            std::size_t flat = golden.offset(
                pred.neurons[i].n, pred.neurons[i].h,
                pred.neurons[i].w, pred.neurons[i].c);
            EXPECT_TRUE(rtl_flats.count(flat));
        }
        // Values also match bitwise.
        for (const FaultyNeuron &fn : rtl.faulty) {
            NeuronIndex n = golden.indexOf(fn.flat);
            bool matched = false;
            for (std::size_t i = 0; i < pred.neurons.size(); ++i)
                if (pred.neurons[i] == n)
                    matched = sameValue(pred.values[i], fn.faulty);
            EXPECT_TRUE(matched) << n.str();
        }
    }
}

TEST(MemoryFaults, EngineLateFaultIsSubsetOfModel)
{
    // A word corrupted mid-compute only affects the reads that happen
    // afterwards: the engine's faulty set is a subset of the model's
    // all-users set, with matching values.
    Fixture f;
    EngineLayer el = engineLayerFromConv(*f.conv, f.x);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, el, f.x);
    MemoryFaultModel model(*f.conv, f.ins);

    Rng rng(9);
    int non_trivial = 0;
    for (int trial = 0; trial < 20; ++trial) {
        MemWordFault fault;
        fault.weight = true;
        fault.index = rng.below(static_cast<std::uint32_t>(
            f.conv->weightCount(f.ins)));
        fault.mask = 1u << 15;

        MemFault mf;
        mf.weightRegion = true;
        mf.addr = static_cast<std::int64_t>(fault.index);
        mf.mask = fault.mask;
        std::uint64_t start = fi.computeStartCycle();
        mf.cycle = start + rng.below(static_cast<std::uint32_t>(
                       fi.goldenCycles() - start));
        RtlOutcome rtl = fi.injectMem({mf});
        ASSERT_FALSE(rtl.timeout || rtl.anomaly);

        FaultApplication pred = model.applyWord(fault);
        std::set<std::size_t> allowed;
        const Tensor &golden = fi.golden().output;
        for (std::size_t i = 0; i < pred.neurons.size(); ++i)
            allowed.insert(golden.offset(
                pred.neurons[i].n, pred.neurons[i].h,
                pred.neurons[i].w, pred.neurons[i].c));
        for (const FaultyNeuron &fn : rtl.faulty) {
            EXPECT_TRUE(allowed.count(fn.flat));
            NeuronIndex n = golden.indexOf(fn.flat);
            for (std::size_t i = 0; i < pred.neurons.size(); ++i)
                if (pred.neurons[i] == n) {
                    EXPECT_TRUE(sameValue(pred.values[i], fn.faulty));
                }
        }
        non_trivial += !rtl.faulty.empty();
    }
    EXPECT_GT(non_trivial, 5);
}
