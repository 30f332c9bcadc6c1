/**
 * @file
 * Unit and property tests for Conv2D: reference-kernel agreement,
 * consumer queries, single-neuron recomputation, and substitutions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "core/fault_models.hh"
#include "nn/conv.hh"
#include "nn/init.hh"
#include "sim/rng.hh"
#include "tensor/float16.hh"
#include "tensor/quant.hh"

using namespace fidelity;

namespace
{

/** Straightforward reference convolution in double precision. */
Tensor
refConv(const ConvSpec &s, const Tensor &x, const std::vector<float> &w,
        const std::vector<float> &b)
{
    int cpg = s.inC / s.groups;
    int opg = s.outC / s.groups;
    int eff_kh = (s.kh - 1) * s.dilation + 1;
    int eff_kw = (s.kw - 1) * s.dilation + 1;
    int oh_max = (x.h() + 2 * s.pad - eff_kh) / s.stride + 1;
    int ow_max = (x.w() + 2 * s.pad - eff_kw) / s.stride + 1;
    Tensor out(x.n(), oh_max, ow_max, s.outC);
    for (int n = 0; n < x.n(); ++n)
        for (int oh = 0; oh < oh_max; ++oh)
            for (int ow = 0; ow < ow_max; ++ow)
                for (int oc = 0; oc < s.outC; ++oc) {
                    int g = oc / opg;
                    double acc = b.empty() ? 0.0 : b[oc];
                    for (int kh = 0; kh < s.kh; ++kh)
                        for (int kw = 0; kw < s.kw; ++kw)
                            for (int cig = 0; cig < cpg; ++cig) {
                                int ih = oh * s.stride - s.pad +
                                         kh * s.dilation;
                                int iw = ow * s.stride - s.pad +
                                         kw * s.dilation;
                                if (ih < 0 || ih >= x.h() || iw < 0 ||
                                    iw >= x.w())
                                    continue;
                                std::size_t wi =
                                    ((static_cast<std::size_t>(kh) *
                                          s.kw + kw) * cpg + cig) *
                                        s.outC + oc;
                                acc += static_cast<double>(
                                           x.at(n, ih, iw,
                                                g * cpg + cig)) *
                                       w[wi];
                            }
                    out.at(n, oh, ow, oc) = static_cast<float>(acc);
                }
    return out;
}

struct ConvCase
{
    int in_c, out_c, kh, stride, pad, dilation, groups, h, w;
};

class ConvParam : public ::testing::TestWithParam<ConvCase>
{
};

} // namespace

TEST_P(ConvParam, MatchesReferenceKernel)
{
    ConvCase cc = GetParam();
    Rng rng(42);
    ConvSpec spec;
    spec.inC = cc.in_c;
    spec.outC = cc.out_c;
    spec.kh = cc.kh;
    spec.kw = cc.kh;
    spec.stride = cc.stride;
    spec.pad = cc.pad;
    spec.dilation = cc.dilation;
    spec.groups = cc.groups;
    std::size_t nw = static_cast<std::size_t>(spec.kh) * spec.kw *
                     (spec.inC / spec.groups) * spec.outC;
    auto w = heWeights(rng, nw, spec.kh * spec.kw * spec.inC);
    auto b = smallBiases(rng, spec.outC);
    Conv2D conv("c", spec, w, b);

    Tensor x(1, cc.h, cc.w, cc.in_c);
    for (auto &v : x.data())
        v = static_cast<float>(rng.normal(0, 1));
    std::vector<const Tensor *> ins{&x};

    Tensor got = conv.forward(ins);
    Tensor want = refConv(spec, x, w, b);
    ASSERT_TRUE(got.sameShape(want));
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 2e-4f) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParam,
    ::testing::Values(ConvCase{4, 8, 3, 1, 1, 1, 1, 6, 6},
                      ConvCase{4, 8, 3, 2, 1, 1, 1, 8, 8},
                      ConvCase{3, 6, 1, 1, 0, 1, 1, 5, 5},
                      ConvCase{4, 8, 3, 1, 0, 1, 1, 7, 7},
                      ConvCase{4, 8, 3, 1, 2, 2, 1, 9, 9},
                      ConvCase{6, 6, 3, 1, 1, 1, 6, 6, 6},
                      ConvCase{8, 16, 3, 1, 1, 1, 2, 6, 6},
                      ConvCase{4, 8, 5, 1, 2, 1, 1, 8, 8}));

namespace
{

/** Build a standard small conv for the structural tests. */
struct Fixture
{
    ConvSpec spec;
    std::unique_ptr<Conv2D> conv;
    Tensor x;
    std::vector<const Tensor *> ins;

    explicit Fixture(int groups = 1, int stride = 1)
        : x(1, 6, 6, 4)
    {
        Rng rng(7);
        spec.inC = 4;
        spec.outC = 8;
        spec.kh = 3;
        spec.kw = 3;
        spec.pad = 1;
        spec.stride = stride;
        spec.groups = groups;
        std::size_t nw = 9u * (spec.inC / groups) * spec.outC;
        conv = std::make_unique<Conv2D>("c", spec,
                                        heWeights(rng, nw, 36),
                                        smallBiases(rng, 8));
        for (auto &v : x.data())
            v = static_cast<float>(rng.normal(0, 1));
        ins = {&x};
    }
};

} // namespace

TEST(Conv, ComputeNeuronMatchesForward)
{
    Fixture f;
    Tensor out = f.conv->forward(f.ins);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(f.conv->computeNeuron(f.ins, out.indexOf(i), nullptr),
                  out[i]);
    }
}

TEST(Conv, InputConsumersMatchBruteForce)
{
    // Property: the consumer set of an input element equals the set of
    // neurons whose value changes when that element is perturbed.
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    Rng rng(11);
    for (int trial = 0; trial < 12; ++trial) {
        std::size_t elem = rng.below(
            static_cast<std::uint32_t>(f.x.size()));
        auto consumers = f.conv->inputConsumers(f.ins, elem);

        Tensor perturbed = f.x;
        perturbed[elem] += 10.0f;
        std::vector<const Tensor *> pins{&perturbed};
        Tensor out = f.conv->forward(pins);

        std::set<std::size_t> changed;
        for (std::size_t i = 0; i < out.size(); ++i)
            if (out[i] != golden[i])
                changed.insert(i);
        std::set<std::size_t> predicted;
        for (const NeuronIndex &n : consumers)
            predicted.insert(golden.offset(n.n, n.h, n.w, n.c));
        EXPECT_EQ(changed, predicted) << "elem=" << elem;
    }
}

TEST(Conv, WeightConsumersCoverAllChanges)
{
    // weightConsumers over-approximates with padded positions, so the
    // changed set must be a subset confined to one output channel.
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    Rng rng(13);
    for (int trial = 0; trial < 12; ++trial) {
        std::size_t widx = rng.below(static_cast<std::uint32_t>(
            f.conv->weightCount(f.ins)));
        auto consumers = f.conv->weightConsumers(f.ins, widx);
        ASSERT_FALSE(consumers.empty());
        int oc = consumers[0].c;
        for (const NeuronIndex &n : consumers)
            EXPECT_EQ(n.c, oc);

        OperandSub sub;
        sub.kind = OperandSub::Kind::Weight;
        sub.flatIndex = widx;
        sub.value = f.conv->weightAt(f.ins, widx) + 5.0f;
        std::set<std::size_t> predicted;
        for (const NeuronIndex &n : consumers)
            predicted.insert(golden.offset(n.n, n.h, n.w, n.c));
        for (std::size_t i = 0; i < golden.size(); ++i) {
            NeuronIndex n = golden.indexOf(i);
            float y = f.conv->computeNeuron(f.ins, n, &sub);
            if (y != golden[i]) {
                EXPECT_TRUE(predicted.count(i))
                    << "unexpected change at " << n.str();
            }
        }
    }
}

TEST(Conv, InputSubstitutionChangesOnlyThatTerm)
{
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    std::size_t elem = f.x.offset(0, 2, 3, 1);
    auto consumers = f.conv->inputConsumers(f.ins, elem);
    ASSERT_FALSE(consumers.empty());

    OperandSub sub;
    sub.kind = OperandSub::Kind::Input;
    sub.flatIndex = elem;
    sub.value = f.x[elem]; // same value -> no change
    for (const NeuronIndex &n : consumers)
        EXPECT_EQ(f.conv->computeNeuron(f.ins, n, &sub), golden.at(n));

    sub.value = f.x[elem] + 1.0f;
    for (const NeuronIndex &n : consumers)
        EXPECT_NE(f.conv->computeNeuron(f.ins, n, &sub), golden.at(n));
}

TEST(Conv, TermIndexSubstitutionHitsPaddedReads)
{
    // A corner output neuron reads padding; substituting by term index
    // must perturb it even though no input element matches.
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    NeuronIndex corner{0, 0, 0, 0};
    OperandSub sub;
    sub.kind = OperandSub::Kind::Input;
    sub.termIndex = 0; // (ci=0, kh=0, kw=0) reads padding at (0,0)
    sub.value = 100.0f;
    float y = f.conv->computeNeuron(f.ins, corner, &sub);
    EXPECT_NE(y, golden.at(corner));
}

TEST(Conv, PsumFlipBeforeFirstTermPerturbsResult)
{
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    NeuronIndex n{0, 3, 3, 2};
    OperandSub sub;
    sub.kind = OperandSub::Kind::PsumFlip;
    sub.flatIndex = 0;
    sub.bit = 30; // large exponent perturbation of the initial zero
    float y = f.conv->computeNeuron(f.ins, n, &sub);
    EXPECT_NE(y, golden.at(n));
}

TEST(Conv, PsumFlipAfterLastTermFlipsDrainedValue)
{
    Fixture f;
    NeuronIndex n{0, 3, 3, 2};
    int red = f.conv->reductionLength();
    OperandSub sub;
    sub.kind = OperandSub::Kind::PsumFlip;
    sub.flatIndex = static_cast<std::size_t>(red);
    sub.bit = 31; // sign flip of the final accumulator
    float with_flip = f.conv->computeNeuron(f.ins, n, &sub);
    float golden = f.conv->computeNeuron(f.ins, n, nullptr);
    float bias = 0.0f;
    // golden = acc + bias; with_flip = -acc + bias.
    // Their sum is 2 * bias, which is small and positive here.
    bias = (golden + with_flip) / 2.0f;
    EXPECT_NEAR(golden - bias, -(with_flip - bias), 1e-4f);
}

TEST(Conv, BiasSubstitution)
{
    Fixture f;
    NeuronIndex n{0, 2, 2, 5};
    float golden = f.conv->computeNeuron(f.ins, n, nullptr);
    OperandSub sub;
    sub.kind = OperandSub::Kind::Bias;
    sub.value = 0.0f;
    float no_bias = f.conv->computeNeuron(f.ins, n, &sub);
    sub.value = 2.5f;
    float big_bias = f.conv->computeNeuron(f.ins, n, &sub);
    EXPECT_NEAR(big_bias - no_bias, 2.5f, 1e-5f);
    EXPECT_NE(golden, big_bias);
}

TEST(Conv, ReductionLength)
{
    Fixture plain;
    EXPECT_EQ(plain.conv->reductionLength(), 4 * 9);
    Fixture grouped(/*groups=*/4);
    EXPECT_EQ(grouped.conv->reductionLength(), 9);
}

TEST(Conv, OutputShapes)
{
    Fixture s2(/*groups=*/1, /*stride=*/2);
    Tensor out = s2.conv->forward(s2.ins);
    EXPECT_EQ(out.h(), 3);
    EXPECT_EQ(out.w(), 3);
    EXPECT_EQ(out.c(), 8);
}

TEST(Conv, Fp16ModeRoundsThroughHalf)
{
    Fixture f;
    f.conv->setPrecision(Precision::FP16);
    Tensor out = f.conv->forward(f.ins);
    for (std::size_t i = 0; i < out.size(); ++i) {
        float v = out[i];
        EXPECT_EQ(v, halfBitsToFloat(floatToHalfBits(v)));
    }
}

TEST(ConvDeath, RejectsBadGeometry)
{
    ConvSpec spec;
    spec.inC = 4;
    spec.outC = 8;
    spec.groups = 3; // does not divide 4
    EXPECT_DEATH(Conv2D("bad", spec, {}, {}), "groups");
}

TEST(ConvDeath, RejectsWeightCountMismatch)
{
    ConvSpec spec;
    spec.inC = 2;
    spec.outC = 2;
    spec.kh = 1;
    spec.kw = 1;
    EXPECT_DEATH(Conv2D("bad", spec, std::vector<float>(3, 0.0f),
                        std::vector<float>(2, 0.0f)),
                 "expected");
}

namespace
{

/** Single-channel boxes of one output plane: whole planes per sample,
 *  plus a run that starts mid-row and spans rows — the box shapes the
 *  PreBufWeight and OperandWeight models produce. */
std::vector<Region>
planeBoxes(const Tensor &out, int oc)
{
    std::vector<Region> boxes;
    for (int n = 0; n < out.n(); ++n)
        boxes.push_back({n, n + 1, 0, out.h(), 0, out.w(), oc, oc + 1});
    return boxes;
}

std::vector<Region>
runBoxes(const Tensor &out, int oc)
{
    // Tail of row 1 from w = 1, then rows 2..3, then the head of row 4.
    int w = out.w(), last = std::min(out.h(), 5);
    std::vector<Region> boxes{{0, 1, 1, 2, 1, w, oc, oc + 1}};
    if (last > 3)
        boxes.push_back({0, 1, 2, last - 1, 0, w, oc, oc + 1});
    if (last > 4)
        boxes.push_back({0, 1, last - 1, last, 0, (w + 1) / 2, oc,
                         oc + 1});
    return boxes;
}

/** Channel runs at one position, coalesced from a consumer list. */
std::vector<Region>
channelRunBoxes(const std::vector<NeuronIndex> &cons)
{
    std::vector<Region> boxes;
    for (const NeuronIndex &n : cons) {
        if (!boxes.empty()) {
            Region &b = boxes.back();
            if (n.n == b.n0 && n.h == b.h0 && n.w == b.w0 && n.c == b.c1) {
                ++b.c1;
                continue;
            }
        }
        boxes.push_back(Region::of(n));
    }
    return boxes;
}

/**
 * forwardWithSub over `boxes` must equal computeNeuron bit for bit on
 * every box element, and must leave every other element untouched.
 * Returns the number of compared neurons.
 */
std::size_t
expectSubMatches(const Conv2D &conv, const std::vector<const Tensor *> &ins,
                 const OperandSub &sub, const std::vector<Region> &boxes,
                 const std::string &what)
{
    constexpr std::uint32_t kSentinel = 0x7fa5a5a5u; // a NaN payload
    Tensor out = conv.makeOutput(ins);
    for (float &v : out.data())
        v = std::bit_cast<float>(kSentinel);
    EXPECT_TRUE(conv.forwardWithSub(ins, &sub, boxes.data(), boxes.size(),
                                    out))
        << what;
    std::size_t compared = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        NeuronIndex n = out.indexOf(i);
        bool inBox = std::any_of(boxes.begin(), boxes.end(),
                                 [&](const Region &b) {
                                     return b.contains(n);
                                 });
        std::uint32_t got = std::bit_cast<std::uint32_t>(out[i]);
        if (!inBox) {
            EXPECT_EQ(got, kSentinel) << what << " wrote " << n.str();
            continue;
        }
        std::uint32_t want = std::bit_cast<std::uint32_t>(
            conv.computeNeuron(ins, n, &sub));
        EXPECT_EQ(got, want) << what << " at " << n.str();
        ++compared;
    }
    return compared;
}

} // namespace

TEST(Conv, ForwardWithSubMatchesComputeNeuron)
{
    // Differential check of both vector paths of forwardWithSub —
    // channel lanes for input substitutions, position lanes for weight
    // substitutions — against the per-neuron reference, over every bit
    // flip of sampled operands in every precision.  Exponent flips
    // produce Inf/NaN weights (and NaN products with padded zeros);
    // int8 flips of a zero weight reach -128, one past the magnitude
    // the narrow kernels' pack-time overflow proof assumed.
    struct Geo
    {
        const char *name;
        int inC, outC, k, stride, pad, dilation, groups, n, h, w;
    };
    const Geo geos[] = {
        {"3x3", 4, 8, 3, 1, 1, 1, 1, 2, 7, 9},
        {"stride2", 4, 8, 3, 2, 1, 1, 1, 1, 9, 8},
        {"dilation2", 4, 8, 3, 1, 2, 2, 1, 1, 9, 9},
        {"depthwise", 6, 6, 3, 1, 1, 1, 6, 1, 6, 7},
        {"grouped-nopad", 8, 12, 3, 1, 0, 1, 2, 1, 7, 6},
        {"1x1", 5, 9, 1, 1, 0, 1, 1, 1, 5, 5},
    };
    const Precision precs[] = {Precision::FP32, Precision::FP16,
                               Precision::INT16, Precision::INT8};
    std::size_t compared = 0;
    bool hitMinInt8 = false;
    for (const Geo &geo : geos) {
        Rng rng(1234);
        ConvSpec spec;
        spec.inC = geo.inC;
        spec.outC = geo.outC;
        spec.kh = spec.kw = geo.k;
        spec.stride = geo.stride;
        spec.pad = geo.pad;
        spec.dilation = geo.dilation;
        spec.groups = geo.groups;
        std::size_t nw = static_cast<std::size_t>(geo.k) * geo.k *
                         (geo.inC / geo.groups) * geo.outC;
        auto w = heWeights(rng, nw, geo.k * geo.k * geo.inC / geo.groups);
        w[nw / 2] = 0.0f; // an int8 sign-bit flip turns it into -128
        Conv2D conv("c", spec, w, smallBiases(rng, geo.outC));
        Tensor x(geo.n, geo.h, geo.w, geo.inC);
        for (auto &v : x.data())
            v = static_cast<float>(rng.normal(0, 1));
        std::vector<const Tensor *> ins{&x};
        conv.setPrecision(Precision::FP32);
        conv.calibrate(ins, conv.forward(ins));
        const std::size_t widxs[] = {0, nw / 2, nw - 1,
                                     rng.below(static_cast<std::uint32_t>(
                                         nw))};
        const std::size_t xidxs[] = {
            0, x.size() - 1,
            rng.below(static_cast<std::uint32_t>(x.size()))};

        for (Precision p : precs) {
            conv.setPrecision(p);
            Tensor out = conv.forward(ins);
            const int bits = FaultModels::operandBits(p);
            for (std::size_t widx : widxs) {
                int oc = static_cast<int>(widx % geo.outC);
                for (int bit = 0; bit < bits; ++bit) {
                    OperandSub sub;
                    sub.kind = OperandSub::Kind::Weight;
                    sub.flatIndex = widx;
                    sub.value = FaultModels::flipStoredOperand(
                        w[widx], p, conv.weightQuant(), bit);
                    if (p == Precision::INT8 &&
                        quantize(sub.value, conv.weightQuant()) == -128)
                        hitMinInt8 = true;
                    std::string what = std::string(geo.name) + " " +
                                       precisionName(p) + " weight " +
                                       std::to_string(widx) + " bit " +
                                       std::to_string(bit);
                    compared += expectSubMatches(
                        conv, ins, sub, planeBoxes(out, oc), what);
                    compared += expectSubMatches(
                        conv, ins, sub, runBoxes(out, oc), what + " run");
                }
            }
            for (std::size_t xidx : xidxs) {
                auto cons = conv.inputConsumers(ins, xidx);
                if (cons.empty())
                    continue;
                for (int bit = 0; bit < bits; ++bit) {
                    OperandSub sub;
                    sub.kind = OperandSub::Kind::Input;
                    sub.flatIndex = xidx;
                    sub.value = FaultModels::flipStoredOperand(
                        x[xidx], p, conv.inputQuant(), bit);
                    compared += expectSubMatches(
                        conv, ins, sub, channelRunBoxes(cons),
                        std::string(geo.name) + " " + precisionName(p) +
                            " input " + std::to_string(xidx) + " bit " +
                            std::to_string(bit));
                }
            }
        }
    }
    EXPECT_TRUE(hitMinInt8);
    EXPECT_GT(compared, 100000u);
}

TEST(Conv, ForwardWithSubDeclinesOtherChannelsAndChains)
{
    // A box outside the substituted weight's channel, a chained
    // substitution, or a psum flip has no vector path: the caller
    // falls back to computeNeuron.
    Fixture f;
    Tensor out = f.conv->makeOutput(f.ins);
    OperandSub sub;
    sub.kind = OperandSub::Kind::Weight;
    sub.flatIndex = f.conv->weightIndex(1, 1, 0, 3);
    sub.value = 2.0f;
    Region other{0, 1, 0, 2, 0, 2, 2, 3};
    EXPECT_FALSE(f.conv->forwardWithSub(f.ins, &sub, &other, 1, out));
    OperandSub chained = sub;
    chained.next = &sub;
    Region own{0, 1, 0, 2, 0, 2, 3, 4};
    EXPECT_FALSE(f.conv->forwardWithSub(f.ins, &chained, &own, 1, out));
    OperandSub psum;
    psum.kind = OperandSub::Kind::PsumFlip;
    EXPECT_FALSE(f.conv->forwardWithSub(f.ins, &psum, &own, 1, out));
    EXPECT_TRUE(f.conv->forwardWithSub(f.ins, &sub, &own, 1, out));
}
