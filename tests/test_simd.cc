/**
 * @file
 * Differential suite for the SIMD kernel layer: the vector backends
 * must be bit-identical to the scalar backend everywhere.
 *
 * Covers the batch operand converters over adversarial bit patterns
 * (NaN payloads, infinities, subnormals, signed zeros, RNE ties), the
 * block-compare scans, dense forward passes of conv/FC/matmul across
 * FP32/FP16/INT8/INT16 with odd (non-lane-multiple) shapes and
 * grouped/dilated/strided convolutions, forwardRegion boxes that cut
 * through lane blocks, and the vectorized elementwise/activation
 * paths, under the toggle and under every runtime-dispatchable backend
 * (forced scalar / SSE2 / AVX2 within one binary); whole-campaign
 * equality across backends is test_bit_identity's backend axis.  The
 * narrow integer kernels additionally
 * get direct differential coverage: odd-reduction pair padding, the
 * statically proven int32 chunk bound at its exact overflow edge, and
 * chunk-length invariance of the spilled int64 result.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.hh"
#include "nn/conv.hh"
#include "nn/elementwise.hh"
#include "nn/fc.hh"
#include "nn/lanes.hh"
#include "nn/init.hh"
#include "nn/matmul.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "simd/convert.hh"
#include "simd/pack.hh"
#include "simd/simd.hh"
#include "sim/arena.hh"
#include "sim/rng.hh"
#include "tensor/bitops.hh"
#include "tensor/quant.hh"
#include "test_util.hh"

using namespace fidelity;
using namespace fidelity::test;

namespace
{

/** Restore the global backend toggle when a test scope ends. */
struct SimdToggle
{
    bool saved = simd::enabled();
    ~SimdToggle() { simd::setEnabled(saved); }
};

/** Drop any API-forced backend when a test scope ends, returning to
 *  the env/CPUID selection the process started with. */
struct BackendForce
{
    ~BackendForce() { simd::forceBackend("auto"); }
};

void
setupPrecision(Layer &layer, const std::vector<const Tensor *> &ins,
               Precision p)
{
    layer.setPrecision(p);
    if (p == Precision::INT8 || p == Precision::INT16) {
        Tensor ref = layer.forward(ins);
        layer.calibrate(ins, ref);
    }
}

/** forward() with the toggle on and off; expects bitwise equality. */
Tensor
forwardBothWays(const Layer &layer,
                const std::vector<const Tensor *> &ins)
{
    SimdToggle guard;
    simd::setEnabled(true);
    Tensor vec = layer.forward(ins);
    simd::setEnabled(false);
    Tensor ref = layer.forward(ins);
    EXPECT_TRUE(bitIdentical(vec, ref));
    return vec;
}

constexpr Precision kAllPrecisions[] = {
    Precision::FP32, Precision::FP16, Precision::INT8,
    Precision::INT16};

/** Adversarial float patterns for the converter tests. */
std::vector<float>
adversarialFloats()
{
    auto bits = [](std::uint32_t u) { return std::bit_cast<float>(u); };
    std::vector<float> v{
        0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -0.5f, 65504.0f, -65504.0f,
        65520.0f, 70000.0f, 1e-8f, -1e-8f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        bits(0x7fc00001u),   // NaN, payload bit set
        bits(0xffc01234u),   // negative NaN, payload bits
        bits(0x7f800001u),   // signalling NaN pattern
        bits(0x00000001u),   // smallest subnormal
        bits(0x807fffffu),   // largest negative subnormal
        bits(0x33800000u),   // 2^-24: half-subnormal tie
        bits(0x33800001u),   // just above the tie
        1.00048828125f,      // halfway between half values
        1.0009765625f, 2.5f, -2.5f, 3.5f, -3.5f};
    // Pad to an odd length so vector blocks leave a scalar tail.
    Rng rng(99);
    while (v.size() < 61)
        v.push_back(static_cast<float>(rng.normal(0, 100)));
    return v;
}

} // namespace

TEST(SimdDispatch, TableMatchesReportedBackend)
{
    SimdToggle guard;
    simd::setEnabled(true);
    EXPECT_NE(simd::backendName(), nullptr);
    EXPECT_NE(simd::dispatchMode(), nullptr);
    EXPECT_STREQ(simd::table().name, simd::backendName());
    // The scalar table is compiled unconditionally; fantasy backends
    // and null names must not resolve.
    EXPECT_TRUE(simd::backendAvailable("scalar"));
    EXPECT_FALSE(simd::backendAvailable("vliw9000"));
    EXPECT_FALSE(simd::backendAvailable(nullptr));
#if defined(FIDELITY_SIMD_X86_BASELINE)
    // The x86-64 baseline guarantees the SSE2 table in every binary.
    EXPECT_TRUE(simd::backendAvailable("sse2"));
#endif
}

TEST(SimdDispatch, ForceBackendRoundTrips)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    std::string before = simd::backendName();
    for (const char *n : availableBackends()) {
        EXPECT_TRUE(simd::forceBackend(n)) << n;
        EXPECT_STREQ(simd::backendName(), n);
        EXPECT_STREQ(simd::table().name, n);
        EXPECT_STREQ(simd::dispatchMode(), "forced-api");
    }
    // A failed force leaves the previous choice untouched.
    ASSERT_TRUE(simd::forceBackend("scalar"));
    EXPECT_FALSE(simd::forceBackend("vliw9000"));
    EXPECT_STREQ(simd::backendName(), "scalar");
    // "auto" (or null/empty) restores the startup selection.
    EXPECT_TRUE(simd::forceBackend("auto"));
    EXPECT_EQ(before, simd::backendName());
}

TEST(SimdDispatch, KillSwitchOverridesForce)
{
    SimdToggle toggle;
    BackendForce guard;
    // With the kill switch off, table() hands out the scalar table no
    // matter what is forced; backendName() keeps reporting the backend
    // table() would use with the switch back on.
    for (const char *n : availableBackends()) {
        ASSERT_TRUE(simd::forceBackend(n));
        simd::setEnabled(false);
        EXPECT_STREQ(simd::table().name, "scalar") << n;
        EXPECT_STREQ(simd::backendName(), n);
        simd::setEnabled(true);
        EXPECT_STREQ(simd::table().name, n);
    }
}

TEST(SimdDispatch, ForcedBackendsBitIdenticalForward)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    ConvSpec spec{.inC = 5, .outC = 19, .kh = 3, .kw = 3, .pad = 1};
    int seed = 900;
    for (Precision p : kAllPrecisions) {
        auto conv = makeConv("c", spec, seed);
        Tensor x = randomTensor(seed + 1, 1, 7, 7, spec.inC);
        std::vector<const Tensor *> ins{&x};
        setupPrecision(*conv, ins, p);
        ASSERT_TRUE(simd::forceBackend("scalar"));
        Tensor ref = conv->forward(ins);
        for (const char *n : availableBackends()) {
            ASSERT_TRUE(simd::forceBackend(n));
            EXPECT_TRUE(bitIdentical(conv->forward(ins), ref))
                << "backend " << n;
        }
        seed += 2;
    }
}

TEST(SimdBackend, ToggleRoundTrips)
{
    SimdToggle guard;
    simd::setEnabled(false);
    EXPECT_FALSE(simd::enabled());
    simd::setEnabled(true);
    EXPECT_TRUE(simd::enabled());
}

TEST(SimdBackend, BitDiffScansMatchReference)
{
    auto ref_first = [](const std::vector<float> &a,
                        const std::vector<float> &b) {
        for (std::size_t i = 0; i < a.size(); ++i)
            if (std::bit_cast<std::uint32_t>(a[i]) !=
                std::bit_cast<std::uint32_t>(b[i]))
                return i;
        return a.size();
    };
    auto ref_last = [](const std::vector<float> &a,
                       const std::vector<float> &b) {
        for (std::size_t i = a.size(); i > 0; --i)
            if (std::bit_cast<std::uint32_t>(a[i - 1]) !=
                std::bit_cast<std::uint32_t>(b[i - 1]))
                return i - 1;
        return a.size();
    };
    Rng rng(5);
    for (std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 31u, 40u}) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<float> a(n), b;
            for (auto &v : a)
                v = static_cast<float>(rng.normal(0, 1));
            b = a;
            // Flip a random subset, sometimes none; include the
            // bit-level oddballs numeric comparison would miss.
            for (std::size_t i = 0; i < n; ++i) {
                double r = rng.normal(0, 1);
                if (r > 1.0)
                    b[i] = -b[i];
                else if (r < -1.5)
                    b[i] = b[i] == 0.0f ? -0.0f : b[i];
            }
            if (trial == 0 && n > 0)
                b[n - 1] = std::bit_cast<float>(
                    std::bit_cast<std::uint32_t>(b[n - 1]) ^ 1u);
            EXPECT_EQ(simd::firstBitDiff(a.data(), b.data(), n),
                      ref_first(a, b));
            EXPECT_EQ(simd::lastBitDiff(a.data(), b.data(), n),
                      ref_last(a, b));
        }
    }
    // Signed-zero and NaN-payload changes must count as differences.
    std::vector<float> a{0.0f, std::bit_cast<float>(0x7fc00000u)};
    std::vector<float> b{-0.0f, std::bit_cast<float>(0x7fc00001u)};
    EXPECT_EQ(simd::firstBitDiff(a.data(), b.data(), 2), 0u);
    EXPECT_EQ(simd::lastBitDiff(a.data(), b.data(), 2), 1u);
}

TEST(SimdConvert, RoundToHalfBatchMatchesScalar)
{
    SimdToggle guard;
    std::vector<float> in = adversarialFloats();
    std::vector<float> outVec(in.size()), outRef(in.size());
    simd::setEnabled(true);
    simd::roundToHalfBatch(in.data(), outVec.data(), in.size());
    simd::setEnabled(false);
    simd::roundToHalfBatch(in.data(), outRef.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(outVec[i]),
                  std::bit_cast<std::uint32_t>(roundToHalf(in[i])))
            << "element " << i;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(outVec[i]),
                  std::bit_cast<std::uint32_t>(outRef[i]))
            << "element " << i;
    }
    // In-place operation is part of the contract.
    std::vector<float> inplace = in;
    simd::setEnabled(true);
    simd::roundToHalfBatch(inplace.data(), inplace.data(),
                           inplace.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(inplace[i]),
                  std::bit_cast<std::uint32_t>(outVec[i]));
}

TEST(SimdConvert, QuantizeBatchMatchesScalar)
{
    SimdToggle guard;
    std::vector<float> in = adversarialFloats();
    for (int bits : {8, 16}) {
        for (double absMax : {1.0, 3.7, 1000.0}) {
            QuantParams qp = calibrateAbsMax(absMax, bits);
            std::vector<std::int32_t> outVec(in.size()),
                outRef(in.size());
            simd::setEnabled(true);
            simd::quantizeBatch(in.data(), outVec.data(), in.size(),
                                qp);
            simd::setEnabled(false);
            simd::quantizeBatch(in.data(), outRef.data(), in.size(),
                                qp);
            for (std::size_t i = 0; i < in.size(); ++i) {
                EXPECT_EQ(outVec[i], quantize(in[i], qp))
                    << "bits " << bits << " element " << i;
                EXPECT_EQ(outVec[i], outRef[i]);
                if (std::isnan(in[i])) {
                    EXPECT_EQ(outVec[i], 0) << "NaN element " << i;
                }
            }
        }
    }
}

TEST(SimdConvert, QuantizeBatchRoundsHalfToEven)
{
    // scale = 1 makes the tie points explicit: nearbyint under the
    // default rounding mode takes 0.5 -> 0, 1.5 -> 2, 2.5 -> 2.
    QuantParams qp;
    qp.scale = 1.0;
    qp.bits = 8;
    std::vector<float> in{0.5f, 1.5f, 2.5f, 3.5f, -0.5f, -1.5f, -2.5f,
                          -3.5f, 126.5f, 127.5f};
    std::vector<std::int32_t> expect{0, 2, 2, 4, 0, -2, -2, -4, 126,
                                     127};
    std::vector<std::int32_t> out(in.size());
    SimdToggle guard;
    for (bool on : {true, false}) {
        simd::setEnabled(on);
        simd::quantizeBatch(in.data(), out.data(), in.size(), qp);
        EXPECT_EQ(out, expect) << "simd " << on;
    }
}

TEST(SimdKernels, ConvForwardMatchesScalarAcrossShapes)
{
    const ConvSpec specs[] = {
        {.inC = 3, .outC = 13, .kh = 3, .kw = 3, .pad = 1},
        {.inC = 5, .outC = 9, .kh = 1, .kw = 1, .bias = false},
        {.inC = 8, .outC = 12, .kh = 3, .kw = 3, .stride = 2, .pad = 2,
         .dilation = 2, .groups = 4},
        {.inC = 6, .outC = 6, .kh = 3, .kw = 3, .pad = 1, .groups = 6},
        {.inC = 4, .outC = 17, .kh = 2, .kw = 3, .stride = 2},
    };
    int seed = 300;
    for (const ConvSpec &spec : specs) {
        for (Precision p : kAllPrecisions) {
            auto conv = makeConv("c", spec, seed);
            Tensor x = randomTensor(seed + 1, 2, 7, 9, spec.inC);
            std::vector<const Tensor *> ins{&x};
            setupPrecision(*conv, ins, p);
            Tensor out = forwardBothWays(*conv, ins);
            // Anchor to the canonical definition: a sample of neurons
            // must match computeNeuron exactly.
            for (std::size_t flat = 0; flat < out.size();
                 flat += out.size() / 23 + 1) {
                NeuronIndex idx = out.indexOf(flat);
                EXPECT_EQ(
                    std::bit_cast<std::uint32_t>(out[flat]),
                    std::bit_cast<std::uint32_t>(
                        conv->computeNeuron(ins, idx, nullptr)))
                    << "outC " << spec.outC << " flat " << flat;
            }
            ++seed;
        }
    }
}

TEST(SimdKernels, ConvForwardRegionMatchesAcrossBoxes)
{
    // forward() runs the same region kernel, so every box element is
    // anchored to computeNeuron instead; the injection-lane back end
    // (widths 4 and 8, every lane holding the same input) must then
    // reproduce the width-1 bits in every lane.
    ConvSpec spec{.inC = 6, .outC = 18, .kh = 3, .kw = 3, .pad = 1,
                  .groups = 2};
    for (Precision p : kAllPrecisions) {
        auto conv = makeConv("c", spec, 410);
        Tensor x = randomTensor(411, 1, 8, 8, spec.inC);
        std::vector<const Tensor *> ins{&x};
        setupPrecision(*conv, ins, p);
        Tensor golden = conv->forward(ins);

        // Boxes chosen to slice lane blocks: single channel, a span
        // crossing the block boundary, a cross-group span, full.
        struct Box
        {
            int c0, c1;
        };
        for (const Box &box :
             {Box{0, 1}, Box{3, 11}, Box{7, 18}, Box{0, 18}}) {
            Region r{0, 1, 2, 6, 1, 7, box.c0, box.c1};
            SimdToggle guard;
            for (bool on : {true, false}) {
                simd::setEnabled(on);
                Tensor out = golden;
                // Scribble inside the box to prove it is recomputed.
                for (int h = r.h0; h < r.h1; ++h)
                    for (int w = r.w0; w < r.w1; ++w)
                        for (int c = r.c0; c < r.c1; ++c)
                            out.at(0, h, w, c) = -1234.5f;
                conv->forwardRegion(ins, r, out);
                for (std::size_t flat = 0; flat < out.size(); ++flat) {
                    NeuronIndex idx = out.indexOf(flat);
                    float want = r.contains(idx)
                        ? conv->computeNeuron(ins, idx, nullptr)
                        : golden[flat];
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(out[flat]),
                              std::bit_cast<std::uint32_t>(want))
                        << "box [" << box.c0 << ", " << box.c1
                        << ") flat " << flat << " simd " << on;
                }

                for (int width : {4, 8}) {
                    LanePlane xp, op;
                    xp.reset(width);
                    xp.ensure(x, Region::full(x));
                    xp.markRaw(); // the raw input, like network node 0
                    op.reset(width);
                    op.ensure(golden, r);
                    for (int h = r.h0; h < r.h1; ++h)
                        for (int w = r.w0; w < r.w1; ++w)
                            for (int c = r.c0; c < r.c1; ++c)
                                for (int l = 0; l < width; ++l)
                                    op.lanes(golden.offset(0, h, w, c))[l] =
                                        -1234.5f;
                    LanePlane *xpp = &xp;
                    conv->forwardRegionBatched(ins, &xpp, r, nullptr,
                                               golden, op);
                    for (int h = r.h0; h < r.h1; ++h)
                        for (int w = r.w0; w < r.w1; ++w)
                            for (int c = r.c0; c < r.c1; ++c) {
                                std::size_t flat =
                                    golden.offset(0, h, w, c);
                                for (int l = 0; l < width; ++l)
                                    ASSERT_EQ(
                                        std::bit_cast<std::uint32_t>(
                                            op.lanes(flat)[l]),
                                        std::bit_cast<std::uint32_t>(
                                            out[flat]))
                                        << "width " << width << " lane "
                                        << l << " flat " << flat
                                        << " simd " << on;
                            }
                }
            }
        }
    }
}

TEST(SimdKernels, FcForwardMatchesScalar)
{
    Rng rng(500);
    int inC = 7, units = 19;
    FC fc("fc", inC, units,
          heWeights(rng, static_cast<std::size_t>(inC) * units, inC),
          smallBiases(rng, units));
    Tensor x = randomTensor(501, 2, 3, 1, inC);
    std::vector<const Tensor *> ins{&x};
    for (Precision p : kAllPrecisions) {
        setupPrecision(fc, ins, p);
        Tensor out = forwardBothWays(fc, ins);
        for (std::size_t flat = 0; flat < out.size(); flat += 5) {
            NeuronIndex idx = out.indexOf(flat);
            EXPECT_EQ(std::bit_cast<std::uint32_t>(out[flat]),
                      std::bit_cast<std::uint32_t>(
                          fc.computeNeuron(ins, idx, nullptr)));
        }
    }
}

TEST(SimdKernels, MatMulForwardMatchesScalar)
{
    for (bool transB : {false, true}) {
        MatMulAB mm("mm", transB, 0.125f);
        Tensor a = randomTensor(601, 2, 5, 1, 11);
        Tensor b = transB ? randomTensor(602, 1, 13, 1, 11)
                          : randomTensor(602, 1, 11, 1, 13);
        std::vector<const Tensor *> ins{&a, &b};
        for (Precision p : kAllPrecisions) {
            setupPrecision(mm, ins, p);
            Tensor out = forwardBothWays(mm, ins);
            for (std::size_t flat = 0; flat < out.size(); flat += 7) {
                NeuronIndex idx = out.indexOf(flat);
                EXPECT_EQ(std::bit_cast<std::uint32_t>(out[flat]),
                          std::bit_cast<std::uint32_t>(
                              mm.computeNeuron(ins, idx, nullptr)))
                    << "transB " << transB;
            }
        }
    }
}

TEST(SimdKernels, ElementwiseAndActivationMatchScalar)
{
    // Length 21 leaves a scalar tail after any lane width; the NaN
    // and signed-zero elements exercise the select semantics.
    Tensor a = randomTensor(700, 1, 3, 7, 1);
    Tensor b = randomTensor(701, 1, 3, 7, 1);
    a.data()[0] = std::numeric_limits<float>::quiet_NaN();
    a.data()[1] = -0.0f;
    a.data()[2] = 0.0f;
    b.data()[3] = std::numeric_limits<float>::quiet_NaN();
    std::vector<const Tensor *> ab{&a, &b};
    std::vector<const Tensor *> only_a{&a};

    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<Elementwise>(
        "add", Elementwise::Op::Add));
    layers.push_back(std::make_unique<Elementwise>(
        "mul", Elementwise::Op::Mul));
    layers.push_back(std::make_unique<Elementwise>(
        "sub", Elementwise::Op::Sub));
    layers.push_back(std::make_unique<ScaleShift>("ss", -1.5f, 0.25f));
    layers.push_back(std::make_unique<Activation>(
        "relu", Activation::Func::ReLU));
    layers.push_back(std::make_unique<Activation>(
        "lrelu", Activation::Func::LeakyReLU, 0.1f));
    layers.push_back(std::make_unique<Activation>(
        "sigmoid", Activation::Func::Sigmoid));

    for (auto &layer : layers) {
        bool binary = layer->name() == "add" ||
                      layer->name() == "mul" ||
                      layer->name() == "sub";
        const auto &ins = binary ? ab : only_a;
        for (Precision p : {Precision::FP32, Precision::FP16}) {
            layer->setPrecision(p);
            forwardBothWays(*layer, ins);
        }
    }
}

TEST(SimdNarrow, ChunkPairsBoundary)
{
    // pairBound = 2 * 2^(bits-1) * maxAbsW; the chunk is the largest
    // pair count whose int32 sum provably cannot overflow.
    EXPECT_EQ(simd::narrowChunkPairs(8, 1), 2147483647 / 256);
    EXPECT_EQ(simd::narrowChunkPairs(8, 127), 2147483647 / 32512);
    // Exactly at the int32 edge one pair still fits ...
    EXPECT_EQ(simd::narrowChunkPairs(16, 32767), 1);
    // ... one more magnitude step and even a single pair could wrap
    // (2 * 2^15 * 2^15 = 2^31 > INT32_MAX; this bound also excludes
    // pmaddwd's sole internal wrap case, all four operands -2^15).
    EXPECT_EQ(simd::narrowChunkPairs(16, 32768), 0);
    // All-zero weights overflow nothing: the cap applies.
    EXPECT_EQ(simd::narrowChunkPairs(8, 0), 1 << 28);

    // Eligibility = legal AND long enough to be profitable.
    EXPECT_TRUE(simd::narrowEligible(simd::narrowChunkPairs(8, 127)));
    EXPECT_FALSE(simd::narrowEligible(simd::narrowChunkPairs(16, 32767)));
    EXPECT_FALSE(simd::narrowEligible(0));
    EXPECT_FALSE(simd::narrowEligible(simd::kNarrowMinChunk - 1));
    EXPECT_TRUE(simd::narrowEligible(simd::kNarrowMinChunk));
}

namespace
{

/** Plain int64 reference for the narrow GEMM contract. */
void
refGemmNarrow(const std::int16_t *x, int red, int cols,
              const std::vector<std::int16_t> &w, std::int64_t *acc)
{
    constexpr int L = simd::kNarrowLanes;
    int nblocks = simd::packBlocks(cols, L);
    for (int b = 0; b < nblocks; ++b)
        for (int l = 0; l < L; ++l) {
            int c = b * L + l;
            std::int64_t s = 0;
            if (c < cols)
                for (int k = 0; k < red; ++k)
                    s += static_cast<std::int64_t>(x[k]) *
                         w[static_cast<std::size_t>(k) * cols + c];
            acc[b * L + l] = s;
        }
}

} // namespace

TEST(SimdNarrow, GemmNarrowMatchesInt64ReferenceAcrossBackends)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    Rng rng(910);
    // Odd reductions exercise the zero-weight pair pad; cols = 11
    // leaves a partially filled second lane block.
    for (int red : {1, 7, 8, 128}) {
        for (int cols : {1, 8, 11}) {
            std::vector<std::int16_t> w(
                static_cast<std::size_t>(red) * cols);
            for (auto &v : w)
                v = static_cast<std::int16_t>(
                    static_cast<int>(rng.normal(0, 60)) % 127);
            int redPairs = simd::packPairs(red);
            std::vector<std::int16_t> x(2 * redPairs, 0);
            for (int k = 0; k < red; ++k)
                x[k] = static_cast<std::int16_t>(
                    static_cast<int>(rng.normal(0, 60)) % 128);
            if (red & 1) {
                // The pad operand pairs with a zero weight, so its
                // value must not matter: poison it.
                x[red] = 12345;
            }
            AlignedVec<std::int16_t> packed(
                simd::packNarrowSize(red, cols));
            simd::packNarrow(
                red, cols,
                [&](int k, int c) {
                    return static_cast<std::int32_t>(
                        w[static_cast<std::size_t>(k) * cols + c]);
                },
                packed.data());

            int nblocks = simd::packBlocks(cols, simd::kNarrowLanes);
            std::vector<std::int64_t> ref(
                static_cast<std::size_t>(nblocks) *
                simd::kNarrowLanes);
            refGemmNarrow(x.data(), red, cols, w, ref.data());

            // The spilled int64 result must not depend on the chunk
            // length (chunk invariance) or on the backend.
            for (int chunk : {1, 3, simd::narrowChunkPairs(8, 127)}) {
                for (const char *n : availableBackends()) {
                    ASSERT_TRUE(simd::forceBackend(n));
                    std::vector<std::int64_t> acc(ref.size(), -777);
                    simd::table().gemmNarrow(x.data(), redPairs,
                                             nblocks, packed.data(),
                                             chunk, acc.data());
                    EXPECT_EQ(acc, ref)
                        << "backend " << n << " red " << red
                        << " cols " << cols << " chunk " << chunk;
                }
            }
        }
    }
}

TEST(SimdNarrow, ChunkedSpillExactAtInt32Edge)
{
    // Each pair sum is 2 * 32767 * 32767 = 2147352578 — within 131070
    // of INT32_MAX, so one pair fits int32 exactly and two would wrap.
    // With chunkPairs = 1 every pair must spill into int64; 64 pairs
    // of that magnitude put the total near 1.37e11, far outside int32,
    // so a missed spill or an internal wrap cannot cancel out.
    constexpr int red = 128, cols = 9;
    constexpr std::int16_t kMax = 32767;
    std::vector<std::int16_t> w(
        static_cast<std::size_t>(red) * cols, kMax);
    int redPairs = simd::packPairs(red);
    std::vector<std::int16_t> x(2 * redPairs, kMax);
    // One column alternates signs so cancellation paths are covered.
    for (int k = 0; k < red; ++k)
        w[static_cast<std::size_t>(k) * cols + 4] =
            (k & 1) ? kMax : static_cast<std::int16_t>(-kMax);
    AlignedVec<std::int16_t> packed(simd::packNarrowSize(red, cols));
    simd::packNarrow(
        red, cols,
        [&](int k, int c) {
            return static_cast<std::int32_t>(
                w[static_cast<std::size_t>(k) * cols + c]);
        },
        packed.data());

    int nblocks = simd::packBlocks(cols, simd::kNarrowLanes);
    std::vector<std::int64_t> ref(
        static_cast<std::size_t>(nblocks) * simd::kNarrowLanes);
    refGemmNarrow(x.data(), red, cols, w, ref.data());

    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    for (const char *n : availableBackends()) {
        ASSERT_TRUE(simd::forceBackend(n));
        std::vector<std::int64_t> acc(ref.size(), -777);
        simd::table().gemmNarrow(x.data(), redPairs, nblocks,
                                 packed.data(), 1, acc.data());
        EXPECT_EQ(acc, ref) << "backend " << n;
    }
}

TEST(SimdNarrow, BatchMacNarrowMatchesReference)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    Rng rng(930);
    for (int red : {1, 5, 8, 33}) {
        for (int W : {1, 4, 5, 8}) {
            int redPairs = simd::packPairs(red);
            // Lane-minor operand rows, zero-padded final row when the
            // reduction is odd (contract: the pad weight is zero).
            std::vector<std::int16_t> xg(
                static_cast<std::size_t>(2 * redPairs) * W, 0);
            for (int k = 0; k < red; ++k)
                for (int l = 0; l < W; ++l)
                    xg[static_cast<std::size_t>(k) * W + l] =
                        static_cast<std::int16_t>(
                            static_cast<int>(rng.normal(0, 60)) % 128);
            std::vector<std::int16_t> wv(2 * redPairs, 0);
            for (int k = 0; k < red; ++k)
                wv[k] = static_cast<std::int16_t>(
                    static_cast<int>(rng.normal(0, 60)) % 127);

            std::vector<std::int64_t> ref(W, 0);
            for (int l = 0; l < W; ++l) {
                std::int64_t s = 0;
                for (int k = 0; k < red; ++k)
                    s += static_cast<std::int64_t>(wv[k]) *
                         xg[static_cast<std::size_t>(k) * W + l];
                ref[l] = s;
            }

            for (int chunk : {1, 3, simd::narrowChunkPairs(8, 127)}) {
                for (const char *n : availableBackends()) {
                    ASSERT_TRUE(simd::forceBackend(n));
                    std::vector<std::int64_t> acc(W, -777);
                    simd::table().batchMacNarrow(xg.data(), wv.data(),
                                                 redPairs, 2, chunk, W,
                                                 acc.data());
                    EXPECT_EQ(acc, ref)
                        << "backend " << n << " red " << red << " W "
                        << W << " chunk " << chunk;
                }
            }
        }
    }
}

TEST(SimdKernels, BatchMacColumnsMatchScalar)
{
    // batchMacF32 over 1..8 adjacent columns of one pack block must
    // equal a scalar one-column loop bit for bit on every backend, at
    // lane widths that take the full-width, half-width and scalar
    // paths, and write exactly cols*W results.  Operands mix in NaN,
    // infinities (so Inf*0 and Inf-Inf raise NaN), subnormals and -0.
    // Which payload an add of two NaNs keeps is not part of the
    // contract (the compiler may swap a commutative operand pair), so
    // the only NaN fed in is the one this host raises itself: every
    // NaN in the test then has the same bits.
    volatile float inf = std::numeric_limits<float>::infinity();
    volatile float zero = 0.0f;
    const float hostNaN = inf * zero;
    const float specials[] = {hostNaN,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::bit_cast<float>(0x00000001u),
                              std::bit_cast<float>(0x807fffffu),
                              -0.0f,
                              0.0f,
                              std::numeric_limits<float>::max()};
    constexpr std::size_t kStride = simd::kF32Lanes;
    Rng rng(940);
    // About one special per two (lane, column) chains of 2*red operands,
    // so both clean and special chains are covered at every length.
    double pSpecial = 0.0;
    auto draw = [&] {
        if (rng.uniform() < pSpecial)
            return specials[rng.below(std::size(specials))];
        return static_cast<float>(rng.normal(0, 2));
    };

    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    for (std::size_t red : {1, 37, 144}) {
        pSpecial = 1.0 / (4.0 * red + 4.0);
        for (int W : {1, 2, 3, 4, 5, 8}) {
            std::vector<float> xg(red * W), w(red * kStride);
            for (float &v : xg)
                v = draw();
            for (float &v : w)
                v = draw();
            for (int cols = 1; cols <= simd::kF32Lanes; ++cols) {
                // The block's last `cols` columns, as the conv kernel
                // addresses a span that ends at the block edge.
                const float *col = w.data() + (kStride - cols);
                std::vector<std::uint32_t> ref(cols * W);
                for (int c = 0; c < cols; ++c)
                    for (int l = 0; l < W; ++l) {
                        float a = 0.0f;
                        for (std::size_t k = 0; k < red; ++k) {
                            float prod =
                                xg[k * W + l] * col[k * kStride + c];
                            a += prod;
                        }
                        ref[c * W + l] = std::bit_cast<std::uint32_t>(a);
                    }
                for (const char *n : availableBackends()) {
                    ASSERT_TRUE(simd::forceBackend(n));
                    std::vector<float> acc(cols * W + 1, 1234.5f);
                    simd::table().batchMacF32(xg.data(), col, red,
                                              kStride, cols, W,
                                              acc.data());
                    EXPECT_EQ(acc.back(), 1234.5f)
                        << "backend " << n << " wrote past cols*W";
                    acc.pop_back();
                    std::vector<std::uint32_t> got(acc.size());
                    for (std::size_t i = 0; i < acc.size(); ++i)
                        got[i] = std::bit_cast<std::uint32_t>(acc[i]);
                    EXPECT_EQ(got, ref) << "backend " << n << " red "
                                        << red << " W " << W << " cols "
                                        << cols;
                }
            }
        }
    }
}

TEST(ArenaAlignment, PoolsAndPacksAre64ByteAligned)
{
    static_assert(kBufferAlign == 64);
    static_assert(kBufferAlign >= 32,
                  "AVX2 aligned loads need 32-byte buffers");
    auto aligned = [](const void *p) {
        return reinterpret_cast<std::uintptr_t>(p) % kBufferAlign == 0;
    };
    Arena &a = Arena::local();
    {
        auto f = a.floats(3);
        auto i = a.ints(7);
        auto s = a.shorts(61);
        auto l = a.longs(5);
        EXPECT_TRUE(aligned(f.data()));
        EXPECT_TRUE(aligned(i.data()));
        EXPECT_TRUE(aligned(s.data()));
        EXPECT_TRUE(aligned(l.data()));
    }
    // Reused (pooled) buffers keep the alignment after regrowth.
    {
        auto f = a.floats(1024);
        EXPECT_TRUE(aligned(f.data()));
    }
    // Packed-weight buffers share the allocator.
    AlignedVec<std::int16_t> pack(129);
    AlignedVec<float> packF(33);
    EXPECT_TRUE(aligned(pack.data()));
    EXPECT_TRUE(aligned(packF.data()));
}

TEST(QuantConstexpr, RangesAndClampAreCompileTime)
{
    constexpr QuantParams q8{1.0, 8};
    constexpr QuantParams q16{1.0, 16};
    static_assert(q8.qmax() == 127);
    static_assert(q8.qmin() == -128);
    static_assert(q16.qmax() == 32767);
    static_assert(q16.qmin() == -32768);
    static_assert(clampToRange(1000, q8) == 127);
    static_assert(clampToRange(-1000, q8) == -128);
    static_assert(clampToRange(42, q8) == 42);
    static_assert(clampToRange(40000, q16) == 32767);
    EXPECT_EQ(clampToRange(-40000, q16), -32768);
}
