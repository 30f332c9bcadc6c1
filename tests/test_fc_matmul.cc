/**
 * @file
 * Unit tests for the FC and MatMulAB layers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <string>

#include "core/fault_models.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/matmul.hh"
#include "sim/rng.hh"
#include "tensor/quant.hh"

using namespace fidelity;

namespace
{

Tensor
randomTensor(Rng &rng, int n, int h, int w, int c)
{
    Tensor t(n, h, w, c);
    for (auto &v : t.data())
        v = static_cast<float>(rng.normal(0, 1));
    return t;
}

constexpr Precision kPrecisions[] = {Precision::FP32, Precision::FP16,
                                     Precision::INT16, Precision::INT8};

/** Every output element of a MAC layer's forward() against
 *  computeNeuron, bit for bit. */
void
expectForwardMatchesNeurons(const MacLayer &layer,
                            const std::vector<const Tensor *> &ins,
                            const std::string &what)
{
    Tensor out = layer.forward(ins);
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                  std::bit_cast<std::uint32_t>(layer.computeNeuron(
                      ins, out.indexOf(i), nullptr)))
            << what << " at " << out.indexOf(i).str();
}

/**
 * forwardWithSub over the boxes evalConsumers builds from `cons` must
 * equal computeNeuron bit for bit on every consumer, and must leave
 * every other element untouched.  Returns the compared neurons.
 */
std::size_t
expectSubMatches(const FC &fc, const std::vector<const Tensor *> &ins,
                 const OperandSub &sub, const std::vector<NeuronIndex> &cons,
                 const std::string &what)
{
    constexpr std::uint32_t kSentinel = 0x7fa5a5a5u; // a NaN payload
    Tensor out = fc.makeOutput(ins);
    for (float &v : out.data())
        v = std::bit_cast<float>(kSentinel);
    std::vector<Region> boxes;
    consumerBoxes(cons.data(), cons.size(), out.w(), boxes);
    EXPECT_TRUE(
        fc.forwardWithSub(ins, &sub, boxes.data(), boxes.size(), out))
        << what;
    std::size_t compared = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        NeuronIndex n = out.indexOf(i);
        const bool inBox = std::any_of(
            boxes.begin(), boxes.end(),
            [&](const Region &b) { return b.contains(n); });
        const std::uint32_t got = std::bit_cast<std::uint32_t>(out[i]);
        if (!inBox) {
            EXPECT_EQ(got, kSentinel) << what << " wrote " << n.str();
            continue;
        }
        EXPECT_EQ(got, std::bit_cast<std::uint32_t>(
                           fc.computeNeuron(ins, n, &sub)))
            << what << " at " << n.str();
        ++compared;
    }
    return compared;
}

} // namespace

TEST(FC, MatchesManualDotProduct)
{
    Rng rng(1);
    int in_c = 5, units = 3;
    auto w = heWeights(rng, 15, in_c);
    auto b = smallBiases(rng, units);
    FC fc("f", in_c, units, w, b);
    Tensor x = randomTensor(rng, 1, 1, 1, in_c);
    Tensor out = fc.forward(std::vector<const Tensor *>{&x});
    for (int u = 0; u < units; ++u) {
        double acc = b[u];
        for (int ci = 0; ci < in_c; ++ci)
            acc += static_cast<double>(x[ci]) * w[ci * units + u];
        EXPECT_NEAR(out.at(0, 0, 0, u), acc, 1e-5);
    }
}

TEST(FC, AppliesPositionWise)
{
    Rng rng(2);
    int in_c = 4, units = 6;
    FC fc("f", in_c, units, heWeights(rng, 24, in_c),
          smallBiases(rng, units));
    Tensor x = randomTensor(rng, 1, 3, 2, in_c);
    std::vector<const Tensor *> ins{&x};
    Tensor out = fc.forward(ins);
    EXPECT_EQ(out.h(), 3);
    EXPECT_EQ(out.w(), 2);
    EXPECT_EQ(out.c(), units);

    // Each position independently equals the 1-position result.
    for (int h = 0; h < 3; ++h)
        for (int w = 0; w < 2; ++w) {
            Tensor one(1, 1, 1, in_c);
            for (int c = 0; c < in_c; ++c)
                one[c] = x.at(0, h, w, c);
            Tensor r = fc.forward(std::vector<const Tensor *>{&one});
            for (int u = 0; u < units; ++u)
                EXPECT_EQ(r[u], out.at(0, h, w, u));
        }
}

TEST(FC, ConsumersAreExact)
{
    Rng rng(3);
    int in_c = 4, units = 6;
    FC fc("f", in_c, units, heWeights(rng, 24, in_c), {});
    Tensor x = randomTensor(rng, 1, 2, 1, in_c);
    std::vector<const Tensor *> ins{&x};

    auto in_cons = fc.inputConsumers(ins, x.offset(0, 1, 0, 2));
    EXPECT_EQ(in_cons.size(), static_cast<std::size_t>(units));
    for (const NeuronIndex &n : in_cons) {
        EXPECT_EQ(n.h, 1);
        EXPECT_EQ(n.w, 0);
    }

    std::size_t widx = 2 * units + 4; // (ci=2, u=4)
    auto w_cons = fc.weightConsumers(ins, widx);
    EXPECT_EQ(w_cons.size(), 2u); // one per position
    for (const NeuronIndex &n : w_cons)
        EXPECT_EQ(n.c, 4);
}

TEST(FC, ComputeNeuronMatchesForward)
{
    Rng rng(4);
    FC fc("f", 8, 8, heWeights(rng, 64, 8), smallBiases(rng, 8));
    Tensor x = randomTensor(rng, 1, 2, 2, 8);
    std::vector<const Tensor *> ins{&x};
    Tensor out = fc.forward(ins);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(fc.computeNeuron(ins, out.indexOf(i), nullptr), out[i]);
}

TEST(FC, PsumFlipStepZeroAndLast)
{
    Rng rng(5);
    FC fc("f", 8, 4, heWeights(rng, 32, 8), {});
    Tensor x = randomTensor(rng, 1, 1, 1, 8);
    std::vector<const Tensor *> ins{&x};
    NeuronIndex n{0, 0, 0, 1};
    float golden = fc.computeNeuron(ins, n, nullptr);

    OperandSub sub;
    sub.kind = OperandSub::Kind::PsumFlip;
    sub.bit = 31;
    sub.flatIndex = 8; // after the last term: sign-flip the result
    EXPECT_EQ(fc.computeNeuron(ins, n, &sub), -golden);
}

TEST(MatMul, PlainProduct)
{
    Rng rng(6);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 4, 1, 5);
    MatMulAB mm("mm", /*trans_b=*/false, 4);
    std::vector<const Tensor *> ins{&a, &b};
    Tensor out = mm.forward(ins);
    EXPECT_EQ(out.h(), 3);
    EXPECT_EQ(out.c(), 5);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 5; ++j) {
            double acc = 0;
            for (int k = 0; k < 4; ++k)
                acc += static_cast<double>(a.at(0, i, 0, k)) *
                       b.at(0, k, 0, j);
            EXPECT_NEAR(out.at(0, i, 0, j), acc, 1e-5);
        }
}

TEST(MatMul, TransposedProduct)
{
    Rng rng(7);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", /*trans_b=*/true, 4);
    std::vector<const Tensor *> ins{&a, &b};
    Tensor out = mm.forward(ins);
    EXPECT_EQ(out.c(), 5);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 5; ++j) {
            double acc = 0;
            for (int k = 0; k < 4; ++k)
                acc += static_cast<double>(a.at(0, i, 0, k)) *
                       b.at(0, j, 0, k);
            EXPECT_NEAR(out.at(0, i, 0, j), acc, 1e-5);
        }
}

TEST(MatMul, ScaleApplied)
{
    Rng rng(8);
    Tensor a = randomTensor(rng, 1, 2, 1, 4);
    Tensor b = randomTensor(rng, 1, 2, 1, 4);
    MatMulAB plain("p", true, 4, 1.0f);
    MatMulAB scaled("s", true, 4, 0.5f);
    std::vector<const Tensor *> ins{&a, &b};
    Tensor po = plain.forward(ins);
    Tensor so = scaled.forward(ins);
    for (std::size_t i = 0; i < po.size(); ++i)
        EXPECT_NEAR(so[i], 0.5f * po[i], 1e-6f);
}

TEST(MatMul, InputConsumersAreTheRow)
{
    Rng rng(9);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", true, 4);
    std::vector<const Tensor *> ins{&a, &b};
    auto cons = mm.inputConsumers(ins, a.offset(0, 2, 0, 1));
    EXPECT_EQ(cons.size(), 5u);
    for (const NeuronIndex &n : cons)
        EXPECT_EQ(n.h, 2);
}

TEST(MatMul, WeightConsumersAreTheColumn)
{
    Rng rng(10);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", true, 4);
    std::vector<const Tensor *> ins{&a, &b};
    // B element (j=4, k=2) feeds output column 4.
    auto cons = mm.weightConsumers(ins, b.offset(0, 4, 0, 2));
    EXPECT_EQ(cons.size(), 3u);
    for (const NeuronIndex &n : cons)
        EXPECT_EQ(n.c, 4);
}

TEST(MatMul, WeightSubstitutionChangesColumnOnly)
{
    Rng rng(11);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", true, 4);
    std::vector<const Tensor *> ins{&a, &b};
    Tensor golden = mm.forward(ins);

    OperandSub sub;
    sub.kind = OperandSub::Kind::Weight;
    sub.flatIndex = b.offset(0, 1, 0, 3);
    sub.value = b[sub.flatIndex] + 2.0f;
    for (std::size_t i = 0; i < golden.size(); ++i) {
        NeuronIndex n = golden.indexOf(i);
        float y = mm.computeNeuron(ins, n, &sub);
        if (n.c == 1)
            EXPECT_NE(y, golden[i]);
        else
            EXPECT_EQ(y, golden[i]);
    }
}

TEST(MatMul, WeightCountIsBSize)
{
    Rng rng(12);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", true, 4);
    std::vector<const Tensor *> ins{&a, &b};
    EXPECT_EQ(mm.weightCount(ins), b.size());
    EXPECT_EQ(mm.weightAt(ins, 7), b[7]);
}

TEST(MatMulDeath, ShapeMismatchPanics)
{
    Rng rng(13);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 3); // K mismatch for transB
    MatMulAB mm("mm", true, 4);
    std::vector<const Tensor *> ins{&a, &b};
    EXPECT_DEATH((void)mm.forward(ins), "columns");
}

TEST(MatMul, ReductionLengthIsDeclaredBeforeAnyCall)
{
    // The psum fault model draws its flip step from 0..reductionLength()
    // before the layer has run on this thread (or at all).
    MatMulAB qk("qk", /*trans_b=*/true, 7);
    MatMulAB av("av", /*trans_b=*/false, 12, 0.5f);
    EXPECT_EQ(qk.reductionLength(), 7);
    EXPECT_EQ(av.reductionLength(), 12);
}

TEST(MatMulDeath, DepthMismatchPanics)
{
    // A and B agree with each other but not with the declared depth.
    Rng rng(14);
    Tensor a = randomTensor(rng, 1, 3, 1, 5);
    Tensor b = randomTensor(rng, 1, 2, 1, 5);
    MatMulAB mm("mm", true, 4);
    std::vector<const Tensor *> ins{&a, &b};
    EXPECT_DEATH((void)mm.forward(ins), "reduction depth 4");
}

TEST(MatMulDeath, NonPositiveDepthIsFatal)
{
    EXPECT_DEATH(MatMulAB("mm", true, 0), "must be positive");
    EXPECT_DEATH(MatMulAB("mm", false, -3), "must be positive");
}

TEST(FC, ForwardWithSubMatchesComputeNeuron)
{
    // Differential check of FC's substituted row loop against the
    // per-neuron reference, over every bit flip of sampled operands
    // in every precision, on the consumer lists the fault models use:
    // all consumers (PreBuf), one aligned channel group at a position
    // (OperandInput) and a tail of a t-position block (OperandWeight).
    // Exponent flips produce Inf/NaN operands; an int8 sign flip of a
    // zero weight reaches -128.
    struct Geo
    {
        int inC, units, n, h, w;
    };
    const Geo geos[] = {
        {5, 7, 1, 3, 4}, {32, 24, 1, 12, 1}, {9, 16, 2, 2, 3},
        {1, 3, 1, 1, 1}, {33, 10, 1, 5, 1}};
    constexpr int kGroup = 4, kRun = 5;
    std::size_t compared = 0;
    bool hitMinInt8 = false;
    for (const Geo &geo : geos) {
        Rng rng(77);
        const std::size_t nw = static_cast<std::size_t>(geo.inC) * geo.units;
        auto w = heWeights(rng, nw, geo.inC);
        w[nw / 2] = 0.0f;
        FC fc("f", geo.inC, geo.units, w, smallBiases(rng, geo.units));
        Tensor x = randomTensor(rng, geo.n, geo.h, geo.w, geo.inC);
        std::vector<const Tensor *> ins{&x};
        fc.setPrecision(Precision::FP32);
        fc.calibrate(ins, fc.forward(ins));
        const std::size_t widxs[] = {
            0, nw / 2, nw - 1,
            rng.below(static_cast<std::uint32_t>(nw))};
        const std::size_t xidxs[] = {
            0, x.size() - 1,
            rng.below(static_cast<std::uint32_t>(x.size()))};
        for (Precision p : kPrecisions) {
            fc.setPrecision(p);
            const int bits = FaultModels::operandBits(p);
            const std::string tag = std::to_string(geo.inC) + "x" +
                                    std::to_string(geo.units) + " " +
                                    precisionName(p);
            for (std::size_t widx : widxs) {
                const auto cons = fc.weightConsumers(ins, widx);
                const std::size_t start = cons.size() / 3;
                const std::vector<NeuronIndex> tail(
                    cons.begin() + start,
                    cons.begin() +
                        std::min(cons.size(), start + kRun));
                for (int bit = 0; bit < bits; ++bit) {
                    OperandSub sub;
                    sub.kind = OperandSub::Kind::Weight;
                    sub.flatIndex = widx;
                    sub.value = FaultModels::flipStoredOperand(
                        w[widx], p, fc.weightQuant(), bit);
                    if (p == Precision::INT8 &&
                        quantize(sub.value, fc.weightQuant()) == -128)
                        hitMinInt8 = true;
                    const std::string what = tag + " weight " +
                                             std::to_string(widx) +
                                             " bit " + std::to_string(bit);
                    compared += expectSubMatches(fc, ins, sub, cons, what);
                    compared += expectSubMatches(fc, ins, sub, tail,
                                                 what + " tail");
                }
            }
            for (std::size_t xidx : xidxs) {
                const auto cons = fc.inputConsumers(ins, xidx);
                const int g = (geo.units / 2 / kGroup) * kGroup;
                std::vector<NeuronIndex> group;
                for (const NeuronIndex &n : cons)
                    if (n.c >= g && n.c < g + kGroup)
                        group.push_back(n);
                for (int bit = 0; bit < bits; ++bit) {
                    OperandSub sub;
                    sub.kind = OperandSub::Kind::Input;
                    sub.flatIndex = xidx;
                    sub.value = FaultModels::flipStoredOperand(
                        x[xidx], p, fc.inputQuant(), bit);
                    const std::string what = tag + " input " +
                                             std::to_string(xidx) +
                                             " bit " + std::to_string(bit);
                    compared += expectSubMatches(fc, ins, sub, cons, what);
                    compared += expectSubMatches(fc, ins, sub, group,
                                                 what + " group");
                }
            }
        }
    }
    EXPECT_TRUE(hitMinInt8);
    EXPECT_GT(compared, 20000u);
}

TEST(FC, ForwardWithSubDeclinesOtherKindsAndColumns)
{
    // A psum flip, a chained substitution, a padded-term (termIndex)
    // input substitution, or a box outside the substituted weight's
    // column has no vector path: the caller falls back to
    // computeNeuron.
    Rng rng(21);
    FC fc("f", 6, 5, heWeights(rng, 30, 6), smallBiases(rng, 5));
    Tensor x = randomTensor(rng, 1, 2, 3, 6);
    std::vector<const Tensor *> ins{&x};
    Tensor out = fc.makeOutput(ins);
    OperandSub sub;
    sub.kind = OperandSub::Kind::Weight;
    sub.flatIndex = 2 * 5 + 3; // (ci 2, unit 3)
    sub.value = 2.0f;
    Region other{0, 1, 0, 2, 0, 3, 2, 3};
    Region wide{0, 1, 0, 2, 0, 3, 3, 5};
    Region own{0, 1, 0, 2, 0, 3, 3, 4};
    EXPECT_FALSE(fc.forwardWithSub(ins, &sub, &other, 1, out));
    EXPECT_FALSE(fc.forwardWithSub(ins, &sub, &wide, 1, out));
    OperandSub chained = sub;
    chained.next = &sub;
    EXPECT_FALSE(fc.forwardWithSub(ins, &chained, &own, 1, out));
    OperandSub psum;
    psum.kind = OperandSub::Kind::PsumFlip;
    EXPECT_FALSE(fc.forwardWithSub(ins, &psum, &own, 1, out));
    OperandSub term;
    term.kind = OperandSub::Kind::Input;
    term.termIndex = 1;
    term.value = 3.0f;
    Region pos{0, 1, 1, 2, 2, 3, 0, 5};
    EXPECT_FALSE(fc.forwardWithSub(ins, &term, &pos, 1, out));
    EXPECT_TRUE(fc.forwardWithSub(ins, &sub, &own, 1, out));
    OperandSub in;
    in.kind = OperandSub::Kind::Input;
    in.flatIndex = x.offset(0, 1, 2, 4);
    in.value = -1.0f;
    EXPECT_TRUE(fc.forwardWithSub(ins, &in, &pos, 1, out));
}

TEST(FcMatMul, IntegerForwardMatchesComputeNeuronOddReductions)
{
    // The integer row loop (narrow and wide packs, one requantising
    // writeback per call) against the scalar reference, with odd
    // reductions (the narrow pack's zero-weight pair pad) and column
    // counts that leave partial lane blocks.  forward() runs the
    // in-place width-1 path; forwardRegion over boxes that cut rows or
    // channels runs the gathering one.
    Rng rng(31);
    for (Precision p : {Precision::INT8, Precision::INT16}) {
        for (int red : {1, 7, 33}) {
            const int units = red == 1 ? 3 : 11;
            FC fc("f", red, units,
                  heWeights(rng, static_cast<std::size_t>(red) * units,
                            red),
                  smallBiases(rng, units));
            Tensor x = randomTensor(rng, 1, 3, 5, red);
            std::vector<const Tensor *> fins{&x};
            fc.setPrecision(Precision::FP32);
            fc.calibrate(fins, fc.forward(fins));
            fc.setPrecision(p);
            const std::string what = std::string("fc ") +
                                     precisionName(p) + " red " +
                                     std::to_string(red);
            expectForwardMatchesNeurons(fc, fins, what);

            for (bool transB : {false, true}) {
                Tensor a = randomTensor(rng, 1, 5, 1, red);
                Tensor b = transB ? randomTensor(rng, 1, 9, 1, red)
                                  : randomTensor(rng, 1, red, 1, 9);
                MatMulAB mm("mm", transB, red, 0.37f);
                std::vector<const Tensor *> mins{&a, &b};
                mm.setPrecision(Precision::FP32);
                mm.calibrate(mins, mm.forward(mins));
                mm.setPrecision(p);
                expectForwardMatchesNeurons(
                    mm, mins, "matmul " + what + " transB " +
                                  std::to_string(transB));
            }

            // Region recomputes through the gathering path: a box of
            // partial channels, and full channels over a box whose
            // cells are not one run.
            Tensor golden = fc.forward(fins);
            for (const Region &r : {Region{0, 1, 1, 3, 0, 5, 1, units - 1},
                                    Region{0, 1, 0, 3, 1, 3, 0, units}}) {
                Tensor out = golden;
                for (float &v : x.data())
                    v *= 1.5f;
                fc.forwardRegion(fins, r, out);
                for (std::size_t i = 0; i < out.size(); ++i) {
                    const NeuronIndex n = out.indexOf(i);
                    const float want =
                        r.contains(n) ? fc.computeNeuron(fins, n, nullptr)
                                      : golden[i];
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                              std::bit_cast<std::uint32_t>(want))
                        << what << " region at " << n.str();
                }
            }
        }
    }
}
