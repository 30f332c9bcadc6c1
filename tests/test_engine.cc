/**
 * @file
 * Tests of the cycle-level NVDLA-like engine: bit-exact golden
 * equivalence with the nn layers across precisions, timing agreement
 * with the performance model, and the architectural effects of
 * injected faults.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "accel/nvdla_fi.hh"
#include "accel/perf_model.hh"
#include "nn/init.hh"
#include "sim/rng.hh"

using namespace fidelity;

namespace
{

bool
bitEqual(float a, float b)
{
    if (std::isnan(a) && std::isnan(b))
        return true;
    return a == b;
}

struct ConvFixture
{
    ConvSpec spec;
    std::unique_ptr<Conv2D> conv;
    Tensor x;
    std::vector<const Tensor *> ins;

    explicit ConvFixture(Precision p, int in_c = 8, int out_c = 32,
                         int hw = 6)
        : x(1, hw, hw, in_c)
    {
        Rng rng(21);
        spec.inC = in_c;
        spec.outC = out_c;
        spec.kh = 3;
        spec.kw = 3;
        spec.pad = 1;
        std::size_t nw = 9u * in_c * out_c;
        conv = std::make_unique<Conv2D>("c", spec,
                                        heWeights(rng, nw, 9 * in_c),
                                        smallBiases(rng, out_c));
        for (auto &v : x.data())
            v = static_cast<float>(rng.normal(0, 1));
        ins = {&x};
        conv->setPrecision(Precision::FP32);
        Tensor golden = conv->forward(ins);
        conv->calibrate(ins, golden);
        conv->setPrecision(p);
    }
};

class EnginePrecision : public ::testing::TestWithParam<Precision>
{
};

} // namespace

TEST_P(EnginePrecision, ConvGoldenIsBitExact)
{
    ConvFixture f(GetParam());
    Tensor want = f.conv->forward(f.ins);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);
    const Tensor &got = fi.golden().output;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_TRUE(bitEqual(got[i], want[i])) << "i=" << i;
}

TEST_P(EnginePrecision, FcGoldenIsBitExact)
{
    Rng rng(31);
    int in_c = 48, units = 40;
    FC fc("f", in_c, units,
          heWeights(rng, static_cast<std::size_t>(in_c) * units, in_c),
          smallBiases(rng, units));
    Tensor x(1, 3, 1, in_c);
    for (auto &v : x.data())
        v = static_cast<float>(rng.normal(0, 1));
    std::vector<const Tensor *> ins{&x};
    fc.setPrecision(Precision::FP32);
    Tensor g = fc.forward(ins);
    fc.calibrate(ins, g);
    fc.setPrecision(GetParam());

    Tensor want = fc.forward(ins);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromFC(fc, x), x);
    const Tensor &got = fi.golden().output;
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_TRUE(bitEqual(got[i], want[i])) << "i=" << i;
}

TEST_P(EnginePrecision, MatMulGoldenIsBitExact)
{
    Rng rng(41);
    Tensor a(1, 16, 1, 24);
    Tensor b(1, 16, 1, 24);
    for (auto &v : a.data())
        v = static_cast<float>(rng.normal(0, 1));
    for (auto &v : b.data())
        v = static_cast<float>(rng.normal(0, 1));
    MatMulAB mm("mm", /*trans_b=*/true, 24, 0.25f);
    std::vector<const Tensor *> ins{&a, &b};
    mm.setPrecision(Precision::FP32);
    Tensor g = mm.forward(ins);
    mm.calibrate(ins, g);
    mm.setPrecision(GetParam());

    Tensor want = mm.forward(ins);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromMatMul(mm, a, b), a);
    const Tensor &got = fi.golden().output;
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_TRUE(bitEqual(got[i], want[i])) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, EnginePrecision,
                         ::testing::Values(Precision::FP32,
                                           Precision::FP16,
                                           Precision::INT16,
                                           Precision::INT8));

TEST(Engine, PerfModelMatchesCycleCount)
{
    for (int out_c : {16, 32, 24}) {
        ConvFixture f(Precision::FP16, 8, out_c, 6);
        NvdlaConfig cfg;
        EngineLayer el = engineLayerFromConv(*f.conv, f.x);
        NvdlaFi fi(cfg, el, f.x);
        LayerTiming t = estimateTiming(cfg, el);
        EXPECT_EQ(t.totalCycles, fi.goldenCycles()) << "outC=" << out_c;
    }
}

TEST(Engine, PerfModelMatchesMatMulCycleCount)
{
    Rng rng(5);
    Tensor a(1, 10, 1, 12), b(1, 12, 1, 20);
    for (auto &v : a.data())
        v = static_cast<float>(rng.normal(0, 1));
    for (auto &v : b.data())
        v = static_cast<float>(rng.normal(0, 1));
    MatMulAB mm("mm", false, 12);
    std::vector<const Tensor *> ins{&a, &b};
    (void)mm.forward(ins);
    NvdlaConfig cfg;
    EngineLayer el = engineLayerFromMatMul(mm, a, b);
    NvdlaFi fi(cfg, el, a);
    EXPECT_EQ(estimateTiming(cfg, el).totalCycles, fi.goldenCycles());
}

TEST(Engine, TraceCoversEveryCycle)
{
    ConvFixture f(Precision::FP16, 4, 16, 4);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);
    EXPECT_EQ(fi.golden().trace.size(), fi.goldenCycles());
    EXPECT_EQ(fi.golden().trace.front().phase, EnginePhase::FetchW);
}

TEST(Engine, WritebackCyclesAreSet)
{
    ConvFixture f(Precision::FP16, 4, 16, 4);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);
    for (std::uint64_t wb : fi.golden().writebackCycle) {
        EXPECT_GT(wb, 0u);
        EXPECT_LE(wb, fi.goldenCycles());
    }
}

TEST(Engine, PsumFaultAffectsOneNeuron)
{
    ConvFixture f(Precision::FP16);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);

    Rng rng(3);
    int checked = 0;
    while (checked < 20) {
        FaultSite site;
        site.ff = {FFClass::Psum,
                   static_cast<int>(rng.below(cfg.macs() * cfg.t)),
                   static_cast<int>(rng.below(32))};
        site.cycle = 1 + rng.below(static_cast<std::uint32_t>(
                         fi.goldenCycles()));
        RtlOutcome out = fi.inject(site);
        if (out.masked())
            continue;
        EXPECT_EQ(out.faulty.size(), 1u) << site.str();
        checked += 1;
    }
}

TEST(Engine, OperandInputFaultHitsOneChannelGroup)
{
    ConvFixture f(Precision::FP16);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);

    Rng rng(5);
    int checked = 0;
    while (checked < 20) {
        FaultSite site;
        site.ff = {FFClass::OperandInput, 0,
                   static_cast<int>(rng.below(16))};
        site.cycle = 1 + rng.below(static_cast<std::uint32_t>(
                         fi.goldenCycles()));
        RtlOutcome out = fi.inject(site);
        if (out.masked())
            continue;
        // At most k^2 neurons, all at one (n, h, w) position in
        // consecutive channels of one aligned group.
        EXPECT_LE(out.faulty.size(),
                  static_cast<std::size_t>(cfg.macs()));
        const Tensor &o = fi.golden().output;
        NeuronIndex first = o.indexOf(out.faulty.front().flat);
        std::set<int> groups;
        for (const FaultyNeuron &fn : out.faulty) {
            NeuronIndex n = o.indexOf(fn.flat);
            EXPECT_EQ(n.h, first.h);
            EXPECT_EQ(n.w, first.w);
            groups.insert(n.c / cfg.macs());
        }
        EXPECT_EQ(groups.size(), 1u);
        checked += 1;
    }
}

TEST(Engine, WeightHoldFaultStaysInOneChannel)
{
    ConvFixture f(Precision::FP16);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);

    Rng rng(7);
    int checked = 0;
    while (checked < 20) {
        FaultSite site;
        site.ff = {FFClass::WeightHold,
                   static_cast<int>(rng.below(cfg.macs())),
                   static_cast<int>(rng.below(16))};
        site.cycle = 1 + rng.below(static_cast<std::uint32_t>(
                         fi.goldenCycles()));
        RtlOutcome out = fi.inject(site);
        if (out.masked())
            continue;
        EXPECT_LE(out.faulty.size(), static_cast<std::size_t>(cfg.t));
        const Tensor &o = fi.golden().output;
        int chan = o.indexOf(out.faulty.front().flat).c;
        for (const FaultyNeuron &fn : out.faulty)
            EXPECT_EQ(o.indexOf(fn.flat).c, chan);
        checked += 1;
    }
}

TEST(Engine, FetchWeightFaultReachesWholeChannel)
{
    ConvFixture f(Precision::FP16);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);

    // Find a fetch-phase cycle carrying a weight word and flip its
    // sign: every value-changed neuron sits in that weight's channel.
    Rng rng(9);
    int checked = 0;
    while (checked < 10) {
        FaultSite site;
        site.ff = {FFClass::FetchWeight, 0, 15};
        site.cycle = 1 + rng.below(static_cast<std::uint32_t>(
                         f.conv->weightCount(f.ins)));
        const CycleInfo &ci = fi.golden().trace[site.cycle - 1];
        if (ci.phase != EnginePhase::FetchW || ci.fetch < 1)
            continue;
        RtlOutcome out = fi.inject(site);
        if (out.masked())
            continue;
        const Tensor &o = fi.golden().output;
        int chan = o.indexOf(out.faulty.front().flat).c;
        for (const FaultyNeuron &fn : out.faulty)
            EXPECT_EQ(o.indexOf(fn.flat).c, chan);
        // A sign-flipped weight perturbs many positions.
        EXPECT_GT(out.faulty.size(), static_cast<std::size_t>(cfg.t));
        checked += 1;
    }
}

TEST(Engine, GlobalLoopBoundCorruptionTimesOut)
{
    ConvFixture f(Precision::FP16, 4, 16, 4);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);

    // Flip a high bit of the Positions register early: the block loop
    // bound explodes and the run must hit the time-out.
    FaultSite site;
    site.ff = {FFClass::GlobalConfig,
               static_cast<int>(ConfigReg::Positions), 28};
    site.cycle = 2;
    RtlOutcome out = fi.inject(site);
    EXPECT_TRUE(out.timeout);
}

TEST(Engine, GlobalAddressCorruptionScramblesManyNeurons)
{
    ConvFixture f(Precision::FP16);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);

    // Corrupt the output-width register mid-compute: writeback
    // addresses scatter and many neurons differ.
    FaultSite site;
    site.ff = {FFClass::GlobalConfig, static_cast<int>(ConfigReg::OutW),
               2};
    site.cycle = fi.goldenCycles() / 2;
    RtlOutcome out = fi.inject(site);
    EXPECT_FALSE(out.masked());
    if (!out.timeout && !out.anomaly) {
        EXPECT_GT(out.faulty.size(), 8u);
    }
}

TEST(Engine, SampledSitesAreValid)
{
    ConvFixture f(Precision::FP16, 4, 16, 4);
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*f.conv, f.x), f.x);
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        FaultSite s = fi.sampleSite(rng);
        EXPECT_GE(s.cycle, 1u);
        EXPECT_LE(s.cycle, fi.goldenCycles());
        EXPECT_LT(s.ff.bit, fi.engine().ffBits(s.ff.cls));
    }
}

TEST(Engine, InventoryCountsMatchConfig)
{
    ConvFixture f(Precision::FP16, 4, 16, 4);
    NvdlaConfig cfg;
    NvdlaEngine engine(cfg, engineLayerFromConv(*f.conv, f.x));
    auto inv = engine.ffInventory();
    int psums = 0, holds = 0, valids = 0;
    for (const FFRef &ff : inv) {
        psums += ff.cls == FFClass::Psum;
        holds += ff.cls == FFClass::WeightHold;
        valids += ff.cls == FFClass::LocalValid;
    }
    EXPECT_EQ(psums, cfg.macs() * cfg.t);
    EXPECT_EQ(holds, cfg.macs());
    EXPECT_EQ(valids, cfg.macs());
}

TEST(Engine, FaultFreeRunsAreReproducible)
{
    ConvFixture f(Precision::FP16, 4, 16, 4);
    NvdlaConfig cfg;
    NvdlaEngine engine(cfg, engineLayerFromConv(*f.conv, f.x));
    EngineResult a = engine.run(f.x, nullptr);
    EngineResult b = engine.run(f.x, nullptr);
    EXPECT_EQ(a.cycles, b.cycles);
    for (std::size_t i = 0; i < a.output.size(); ++i)
        EXPECT_TRUE(bitEqual(a.output[i], b.output[i]));
}
