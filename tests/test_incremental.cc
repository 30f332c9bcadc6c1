/**
 * @file
 * The incremental re-execution engine's correctness contract.
 *
 * Region algebra and windowCone unit tests; brute-force checks that
 * every layer's propagateRegion is conservative (no output the fault
 * can reach escapes the cone); differential tests asserting the engine
 * is bit-identical to Network::forwardFrom across FP32/FP16/INT8 on a
 * multi-branch DAG with grouped/dilated/strided/padded convolutions;
 * the early masking exit; and the per-thread arena.  Campaign-level
 * dense-vs-incremental equality is test_bit_identity's engine axis.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "nn/incremental.hh"
#include "nn/matmul.hh"
#include "nn/region.hh"
#include "nn/softmax.hh"
#include "sim/arena.hh"
#include "test_util.hh"

using namespace fidelity;
using namespace fidelity::test;

TEST(Region, BasicsAndAlgebra)
{
    Region r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.volume(), 0u);

    r.include({0, 2, 3, 1});
    EXPECT_FALSE(r.empty());
    EXPECT_EQ(r.volume(), 1u);
    EXPECT_TRUE(r.contains({0, 2, 3, 1}));
    EXPECT_FALSE(r.contains({0, 2, 3, 2}));
    EXPECT_EQ(r, Region::of({0, 2, 3, 1}));

    r.include({0, 4, 1, 3});
    EXPECT_EQ(r.volume(), 1u * 3 * 3 * 3);
    EXPECT_TRUE(r.contains({0, 3, 2, 2}));

    Region o = Region::of({1, 0, 0, 0});
    o.merge(r);
    EXPECT_TRUE(o.contains({0, 2, 3, 1}));
    EXPECT_TRUE(o.contains({1, 0, 0, 0}));

    Tensor t(1, 4, 4, 2);
    EXPECT_TRUE(Region::full(t).covers(t));
    EXPECT_EQ(Region::full(t).volume(), t.size());
    Region clipped = o.clipped(t);
    EXPECT_EQ(clipped.n1, 1);
    EXPECT_EQ(clipped.h1, 4);
    EXPECT_EQ(clipped.c1, 2);
    // Merging an empty region is a no-op.
    Region e;
    Region before = clipped;
    clipped.merge(e);
    EXPECT_EQ(clipped, before);
}

TEST(Region, WindowConeMatchesBruteForce)
{
    // For every (kernel, stride, pad, dilation) combination, and every
    // input span, the cone must contain every output window that reads
    // an input index in the span.  With dilation 1 the cone is exact;
    // dilated windows have holes between taps, so the interval-based
    // cone may conservatively include outputs that skip the span.
    for (int k : {1, 2, 3, 5}) {
        for (int stride : {1, 2, 3}) {
            for (int pad : {0, 1, 2}) {
                for (int dil : {1, 2}) {
                    int in_dim = 9;
                    int reach = (k - 1) * dil;
                    int out_dim =
                        (in_dim + 2 * pad - reach - 1) / stride + 1;
                    if (out_dim <= 0)
                        continue;
                    for (int in0 = 0; in0 < in_dim; ++in0) {
                        for (int in1 = in0 + 1; in1 <= in_dim; ++in1) {
                            auto [lo, hi] = windowCone(
                                in0, in1, k, stride, pad, dil, out_dim);
                            for (int o = 0; o < out_dim; ++o) {
                                bool reads = false;
                                for (int t = 0; t < k; ++t) {
                                    int i = o * stride - pad + t * dil;
                                    reads = reads ||
                                            (i >= in0 && i < in1);
                                }
                                bool in_cone = o >= lo && o < hi;
                                if (dil == 1)
                                    EXPECT_EQ(reads, in_cone)
                                        << "k=" << k << " s=" << stride
                                        << " p=" << pad << " d=" << dil
                                        << " span=[" << in0 << ","
                                        << in1 << ") out=" << o;
                                else
                                    EXPECT_TRUE(!reads || in_cone)
                                        << "k=" << k << " s=" << stride
                                        << " p=" << pad << " d=" << dil
                                        << " span=[" << in0 << ","
                                        << in1 << ") out=" << o;
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(Region, PropagateIsConservativePerLayer)
{
    // Perturb one input element, recompute the layer densely, and
    // check every output that changed lies inside the propagated cone.
    Tensor x = randomTensor(11, 1, 8, 8, 4);
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(
        makeConv("plain", {.inC = 4, .outC = 6, .pad = 1}, 21));
    layers.push_back(makeConv(
        "strided",
        {.inC = 4, .outC = 6, .kh = 5, .kw = 5, .stride = 2, .pad = 2},
        22));
    layers.push_back(makeConv(
        "dilated", {.inC = 4, .outC = 4, .pad = 2, .dilation = 2}, 23));
    layers.push_back(makeConv(
        "grouped", {.inC = 4, .outC = 8, .pad = 1, .groups = 2}, 24));
    layers.push_back(makeConv(
        "depthwise", {.inC = 4, .outC = 4, .pad = 1, .groups = 4}, 25));
    layers.push_back(makeConv("nopad", {.inC = 4, .outC = 4}, 26));
    layers.push_back(
        std::make_unique<Pool>("max", Pool::Mode::Max, 2, 2));
    layers.push_back(
        std::make_unique<Pool>("avgpad", Pool::Mode::Avg, 3, 2, 1));
    layers.push_back(std::make_unique<GlobalAvgPool>("gap"));
    layers.push_back(std::make_unique<Activation>(
        "leaky", Activation::Func::LeakyReLU));
    layers.push_back(
        std::make_unique<Slice>("slice", Slice::Axis::C, 1, 2));
    layers.push_back(
        std::make_unique<ScaleShift>("scale", 2.0f, -1.0f));
    layers.push_back(makeFc("fc", 4, 5, 27));
    layers.push_back(std::make_unique<Softmax>("softmax"));
    // Two-operand matmuls get their own (W = 1) operands below.
    layers.push_back(std::make_unique<MatMulAB>("mmT", true, 0.5f));
    layers.push_back(std::make_unique<MatMulAB>("mm", false));
    const Tensor a = randomTensor(12, 2, 6, 1, 4);
    const Tensor bT = randomTensor(13, 1, 5, 1, 4);
    const Tensor b = randomTensor(14, 1, 4, 1, 5);

    Rng rng(31);
    for (const auto &layer : layers) {
        std::vector<const Tensor *> ins{&x};
        if (const auto *mm = dynamic_cast<const MatMulAB *>(layer.get()))
            ins = {&a, mm->transB() ? &bT : &b};
        Tensor golden = layer->forward(ins);
        for (int k = 0; k < layer->numInputs(); ++k) {
            for (int trial = 0; trial < 12; ++trial) {
                const Tensor &src = *ins[k];
                NeuronIndex at = src.indexOf(
                    rng.below(static_cast<std::uint32_t>(src.size())));
                Tensor fx = src;
                fx.at(at) += 10.0f;
                std::vector<const Tensor *> fins = ins;
                fins[k] = &fx;
                Tensor faulty = layer->forward(fins);
                Region cone = layer->propagateRegion(ins, k, Region::of(at),
                                                     golden);
                for (std::size_t i = 0; i < golden.size(); ++i) {
                    if (std::bit_cast<std::uint32_t>(golden[i]) ==
                        std::bit_cast<std::uint32_t>(faulty[i]))
                        continue;
                    EXPECT_TRUE(cone.contains(golden.indexOf(i)))
                        << layer->name() << ": changed output "
                        << golden.indexOf(i).str() << " outside cone "
                        << cone.str() << " for fault at " << at.str()
                        << " of input " << k;
                }
            }
        }
    }
}

TEST(Region, ConcatPropagatesBothInputs)
{
    Tensor a = randomTensor(41, 1, 4, 4, 3);
    Tensor b = randomTensor(42, 1, 4, 4, 2);
    ConcatC cat("cat");
    std::vector<const Tensor *> ins{&a, &b};
    Tensor out = cat.forward(ins);
    Region ra = cat.propagateRegion(ins, 0, Region::of({0, 1, 2, 1}),
                                    out);
    EXPECT_TRUE(ra.contains({0, 1, 2, 1}));
    Region rb = cat.propagateRegion(ins, 1, Region::of({0, 1, 2, 1}),
                                    out);
    EXPECT_TRUE(rb.contains({0, 1, 2, 4})); // shifted by a.c()
    EXPECT_FALSE(rb.contains({0, 1, 2, 1}));
}

/** Random tensor with NaN and signed zeros mixed in. */
Tensor
specialTensor(std::uint64_t seed, int n, int h, int w, int c)
{
    Tensor t = randomTensor(seed, n, h, w, c);
    for (std::size_t i = 0; i < t.size(); i += 7)
        t[i] = i % 2 ? -0.0f : std::numeric_limits<float>::quiet_NaN();
    t[t.size() - 1] = 0.0f;
    return t;
}

TEST(Incremental, ForwardRegionPatchMatchesDense)
{
    // Every region-capable layer: forwardRegion (the region kernel at
    // lane width 1) over full, interior, border and single-element
    // boxes must reproduce forward() bit-for-bit inside the box and
    // leave the rest of the output untouched, with NaN and -0.0 among
    // the inputs.
    struct Case
    {
        std::string what;
        std::unique_ptr<Layer> layer;
        bool int8 = false; //!< also run INT8 (MAC layers)
    };
    std::vector<Case> cases;
    cases.push_back({"conv",
                     makeConv("conv",
                              {.inC = 4, .outC = 6, .pad = 1, .groups = 2},
                              52),
                     true});
    cases.push_back({"maxpool", std::make_unique<Pool>(
                                    "mp", Pool::Mode::Max, 3, 2, 1)});
    cases.push_back({"avgpool", std::make_unique<Pool>(
                                    "ap", Pool::Mode::Avg, 3, 1, 1)});
    cases.push_back({"gap", std::make_unique<GlobalAvgPool>("gap")});
    for (auto f : {Activation::Func::ReLU, Activation::Func::LeakyReLU,
                   Activation::Func::Sigmoid, Activation::Func::Tanh})
        cases.push_back({"act" + std::to_string(static_cast<int>(f)),
                         std::make_unique<Activation>("act", f, 0.1f)});
    for (auto op : {Elementwise::Op::Add, Elementwise::Op::Mul,
                    Elementwise::Op::Sub})
        cases.push_back({"elt" + std::to_string(static_cast<int>(op)),
                         std::make_unique<Elementwise>("elt", op)});
    cases.push_back({"concat", std::make_unique<ConcatC>("cat")});
    cases.push_back({"sliceH", std::make_unique<Slice>(
                                   "slh", Slice::Axis::H, 1, 4)});
    cases.push_back({"sliceC", std::make_unique<Slice>(
                                   "slc", Slice::Axis::C, 1, 2)});
    cases.push_back(
        {"scaleshift", std::make_unique<ScaleShift>("ss", 0.5f, -0.25f)});
    cases.push_back({"fc", makeFc("fc", 4, 5, 54), true});
    cases.push_back({"softmax", std::make_unique<Softmax>("sm")});
    cases.push_back(
        {"matmulT", std::make_unique<MatMulAB>("mmT", true, 0.5f), true});
    cases.push_back(
        {"matmul", std::make_unique<MatMulAB>("mm", false), true});

    Tensor x = specialTensor(51, 2, 6, 6, 4);
    Tensor y = specialTensor(53, 2, 6, 6, 4);
    // Matmul operands: A (N, H, 1, K), B (1, cols, 1, K) with transB,
    // else (1, K, 1, cols).
    Tensor a = specialTensor(55, 2, 6, 1, 4);
    Tensor bT = specialTensor(56, 1, 5, 1, 4);
    Tensor b = specialTensor(57, 1, 4, 1, 5);
    for (Case &cs : cases) {
        Layer &layer = *cs.layer;
        std::vector<Precision> precs{Precision::FP32, Precision::FP16};
        if (cs.int8)
            precs.push_back(Precision::INT8);
        for (Precision p : precs) {
            std::vector<const Tensor *> ins{&x};
            if (layer.numInputs() == 2)
                ins.push_back(&y);
            if (const auto *mm = dynamic_cast<const MatMulAB *>(&layer))
                ins = {&a, mm->transB() ? &bT : &b};
            layer.setPrecision(p);
            if (p == Precision::INT8)
                layer.calibrate(ins, layer.forward(ins));
            Tensor golden = layer.forward(ins);
            const int H = golden.h(), W = golden.w(), C = golden.c();
            auto in1 = [](int d) { return d > 2 ? 1 : 0; };
            auto out1 = [](int d) { return d > 2 ? d - 1 : d; };
            std::vector<Region> boxes{
                Region::full(golden),
                {0, 2, in1(H), out1(H), in1(W), out1(W), in1(C), out1(C)},
                {1, 2, 0, H, W - 1, W, 0, C},
                {1, 2, H - 1, H, 0, 1, C - 1, C},
                // One token row, all channels, then part of them: the
                // row cones of FC / softmax / matmul.
                {0, 1, H / 2, H / 2 + 1, 0, W, 0, C},
                {1, 2, 0, out1(H), 0, W, in1(C), C},
            };
            if (layer.kind() == LayerKind::Concat) {
                // One box inside each input's channel range.
                boxes.push_back({0, 1, 0, H, 1, W, 0, x.c()});
                boxes.push_back({0, 2, 1, H, 0, W, x.c(), C});
            }
            for (const Region &box : boxes) {
                Tensor patched = golden;
                for (int n = box.n0; n < box.n1; ++n)
                    for (int h = box.h0; h < box.h1; ++h)
                        for (int w = box.w0; w < box.w1; ++w)
                            for (int c = box.c0; c < box.c1; ++c)
                                patched.at(n, h, w, c) = -777.0f;
                layer.forwardRegion(ins, box, patched);
                EXPECT_TRUE(bitIdentical(golden, patched))
                    << cs.what << " precision " << precisionName(p)
                    << " box " << box.str();
            }
        }
    }
}

TEST(Incremental, BitIdenticalToForwardFromAcrossPrecisions)
{
    Tensor input = randomTensor(61, 1, 8, 8, 4);
    for (Precision p : {Precision::FP32, Precision::FP16,
                        Precision::INT8}) {
        Network net = makeBranchy(60);
        net.setPrecision(p);
        if (p == Precision::INT8)
            net.calibrate(input);
        auto acts = net.forwardAll(input);
        IncrementalEngine engine;
        Rng rng(62);
        for (NodeId node : net.macNodes()) {
            const Tensor &golden = acts[node];
            for (int trial = 0; trial < 8; ++trial) {
                Tensor corrupted = golden;
                Region fault;
                int faults = 1 + static_cast<int>(
                                     rng.below(3));
                for (int f = 0; f < faults; ++f) {
                    NeuronIndex at =
                        golden.indexOf(rng.below(static_cast<std::uint32_t>(golden.size())));
                    float v = trial == 0
                        ? std::numeric_limits<float>::quiet_NaN()
                        : static_cast<float>(rng.normal(0, 64));
                    corrupted.at(at) = v;
                    if (std::bit_cast<std::uint32_t>(v) !=
                        std::bit_cast<std::uint32_t>(golden.at(at)))
                        fault.include(at);
                }
                Tensor dense = net.forwardFrom(node, corrupted, acts);
                const Tensor &fast =
                    engine.run(net, node, corrupted, fault, acts);
                EXPECT_TRUE(bitIdentical(dense, fast))
                    << "node " << node << " trial " << trial
                    << " precision " << static_cast<int>(p);
            }
        }
    }
}

TEST(Incremental, EarlyMaskingExitSkipsDownstream)
{
    // Corrupt a neuron whose golden value is negative to a different
    // negative value: the ReLU right after the conv flushes both to
    // +0.0, the delta dies, and every layer past the ReLU is skipped.
    Tensor input = randomTensor(81, 1, 8, 8, 4);
    Network net = makeBranchy(80);
    auto acts = net.forwardAll(input);
    NodeId node = net.macNodes().front(); // c1, feeds relu1
    const Tensor &golden = acts[node];
    std::size_t neg = golden.size();
    for (std::size_t i = 0; i < golden.size(); ++i) {
        if (golden[i] < -0.5f) {
            neg = i;
            break;
        }
    }
    ASSERT_LT(neg, golden.size()) << "no negative conv output";

    Tensor corrupted = golden;
    NeuronIndex at = golden.indexOf(neg);
    corrupted.at(at) = -1234.5f;

    IncrementalEngine engine;
    const Tensor &fast =
        engine.run(net, node, corrupted, Region::of(at), acts);
    EXPECT_TRUE(engine.lastStats().earlyMasked);
    EXPECT_GT(engine.lastStats().layersSkipped, 0);
    EXPECT_TRUE(bitIdentical(acts[net.outputNode()], fast));
    // The dense path agrees, just slower.
    Tensor dense = net.forwardFrom(node, corrupted, acts);
    EXPECT_TRUE(bitIdentical(dense, fast));

    // An injection whose bits never change is masked immediately.
    const Tensor &same =
        engine.run(net, node, golden, Region::of(at), acts);
    EXPECT_TRUE(engine.lastStats().earlyMasked);
    EXPECT_TRUE(bitIdentical(acts[net.outputNode()], same));
}

TEST(Arena, LeasesReuseCapacity)
{
    Arena arena;
    {
        auto f = arena.floats(64);
        EXPECT_EQ(f.size(), 64u);
        f[0] = 1.0f;
        f[63] = 2.0f;
        EXPECT_EQ(arena.allocations(), 1u);
        EXPECT_EQ(arena.pooledBuffers(), 0u);
    }
    EXPECT_EQ(arena.pooledBuffers(), 1u);
    {
        auto f = arena.floats(32); // shrinking reuses the same buffer
        EXPECT_EQ(f.size(), 32u);
        EXPECT_EQ(arena.reuses(), 1u);
        auto g = arena.floats(16); // concurrent lease: fresh buffer
        EXPECT_EQ(arena.allocations(), 2u);
        auto i = arena.ints(8);
        EXPECT_EQ(i.size(), 8u);
    }
    EXPECT_EQ(arena.pooledBuffers(), 3u);
    EXPECT_GT(arena.bytesHeld(), 0u);
    arena.clear();
    EXPECT_EQ(arena.pooledBuffers(), 0u);
    EXPECT_EQ(arena.bytesHeld(), 0u);
    // The thread-local arena is a singleton per thread.
    EXPECT_EQ(&Arena::local(), &Arena::local());
}
