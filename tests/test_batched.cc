/**
 * @file
 * The fault-batched re-execution engine's correctness contract.
 *
 * Differential tests asserting every lane of the batched engine is
 * bit-identical to the scalar IncrementalEngine across FP32/FP16/INT8
 * on a multi-branch DAG with grouped/dilated/strided/padded
 * convolutions; ragged batches (fewer live lanes than the engine
 * width, non-contiguous lane indices); per-lane early-exit divergence
 * inside one batch; the row-layer region kernels (FC, softmax,
 * matmul) against per-lane forward() with golden and dirty B lanes;
 * the conv kernel's per-pack-block MAC rows under channel spans that
 * cut blocks; and batch-width validation at both the engine factory and the
 * campaign config.  Campaign checksums under every
 * batch width are test_bit_identity's engine axis.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/campaign.hh"
#include "nn/batched.hh"
#include "nn/incremental.hh"
#include "nn/matmul.hh"
#include "nn/region.hh"
#include "nn/softmax.hh"
#include "test_util.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;
using namespace fidelity::test;

TEST(BatchedEngine, FactoryWidthsAndValidation)
{
    // Widths up to 4 share the narrow instantiation, wider ones the
    // full SIMD width; out-of-range widths are rejected.
    EXPECT_EQ(makeBatchedEngine(1)->maxLanes(), 4);
    EXPECT_EQ(makeBatchedEngine(4)->maxLanes(), 4);
    EXPECT_EQ(makeBatchedEngine(5)->maxLanes(), 8);
    EXPECT_EQ(makeBatchedEngine(kMaxBatchLanes)->maxLanes(),
              kMaxBatchLanes);
    EXPECT_DEATH((void)makeBatchedEngine(0), "width must be in");
    EXPECT_DEATH((void)makeBatchedEngine(kMaxBatchLanes + 1),
                 "width must be in");
}

TEST(BatchedEngine, BitIdenticalToScalarAcrossPrecisions)
{
    // Every lane of every batch must reproduce the scalar engine's
    // output and Network::forwardFrom's bit-for-bit — full batches,
    // ragged tails, and non-contiguous lane sets, with one-to-three
    // corrupted neurons per injection and a NaN value mixed in.
    const std::vector<std::vector<int>> laneSets = {
        {0, 1, 2, 3, 4, 5, 6, 7}, // full width
        {0, 1, 2},                // ragged tail
        {1, 4, 6},                // non-contiguous lanes
    };
    Tensor input = randomTensor(101, 1, 8, 8, 4);
    for (Precision p : {Precision::FP32, Precision::FP16,
                        Precision::INT8}) {
        Network net = makeBranchy(100);
        net.setPrecision(p);
        if (p == Precision::INT8)
            net.calibrate(input);
        auto acts = net.forwardAll(input);
        IncrementalEngine scalar;
        auto eng = makeBatchedEngine(kMaxBatchLanes);
        Rng rng(102);
        for (NodeId node : net.macNodes()) {
            const Tensor &golden = acts[node];
            for (const auto &lanes : laneSets) {
                eng->begin(net, node, acts);
                std::vector<std::vector<NeuronIndex>> at(lanes.size());
                std::vector<std::vector<float>> val(lanes.size());
                for (std::size_t i = 0; i < lanes.size(); ++i) {
                    int faults = 1 + static_cast<int>(rng.below(3));
                    for (int f = 0; f < faults; ++f) {
                        at[i].push_back(golden.indexOf(rng.below(
                            static_cast<std::uint32_t>(golden.size()))));
                        val[i].push_back(
                            i == 0 && f == 0
                                ? std::numeric_limits<
                                      float>::quiet_NaN()
                                : static_cast<float>(
                                      rng.normal(0, 64)));
                    }
                    eng->seedLane(lanes[i], at[i].data(), val[i].data(),
                                  val[i].size());
                }
                eng->execute();
                for (std::size_t i = 0; i < lanes.size(); ++i) {
                    Tensor corrupted = golden;
                    Region fault;
                    for (std::size_t f = 0; f < at[i].size(); ++f) {
                        corrupted.at(at[i][f]) = val[i][f];
                        if (std::bit_cast<std::uint32_t>(val[i][f]) !=
                            std::bit_cast<std::uint32_t>(
                                golden.at(at[i][f])))
                            fault.include(at[i][f]);
                    }
                    Tensor ref = scalar.run(net, node, corrupted,
                                            fault, acts);
                    EXPECT_TRUE(
                        bitIdentical(ref, eng->laneOutput(lanes[i])))
                        << "node " << node << " lane " << lanes[i]
                        << " precision " << static_cast<int>(p);
                    // The scalar engine runs the same region kernels
                    // at width 1, so also anchor to the dense path.
                    EXPECT_TRUE(bitIdentical(
                        net.forwardFrom(node, corrupted, acts),
                        eng->laneOutput(lanes[i])))
                        << "dense: node " << node << " lane "
                        << lanes[i] << " precision "
                        << static_cast<int>(p);
                    if (node != net.outputNode()) {
                        EXPECT_EQ(eng->laneEarlyMasked(lanes[i]),
                                  scalar.lastStats().earlyMasked)
                            << "node " << node << " lane " << lanes[i];
                    }
                }
            }
        }
    }
}

TEST(BatchedEngine, PerLaneEarlyExitDivergence)
{
    // One batch, three fates: a negative-to-negative flip dies at the
    // ReLU (masked), a large positive flip survives to the output, and
    // a bit-identical "flip" is masked immediately.  The live lane
    // must not be perturbed by its retired neighbours.
    Tensor input = randomTensor(111, 1, 8, 8, 4);
    Network net = makeBranchy(110);
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
    NeuronIndex at = golden.indexOf(neg);

    auto eng = makeBatchedEngine(kMaxBatchLanes);
    eng->begin(net, node, acts);
    float dead = -1234.5f;
    float live = 1234.5f;
    float same = golden.at(at);
    eng->seedLane(0, &at, &dead, 1);
    eng->seedLane(3, &at, &live, 1);
    eng->seedLane(6, &at, &same, 1);
    eng->execute();

    EXPECT_TRUE(eng->laneEarlyMasked(0));
    EXPECT_FALSE(eng->laneEarlyMasked(3));
    EXPECT_TRUE(eng->laneEarlyMasked(6));

    EXPECT_TRUE(bitIdentical(acts[net.outputNode()],
                             eng->laneOutput(0)));
    EXPECT_TRUE(bitIdentical(acts[net.outputNode()],
                             eng->laneOutput(6)));

    Tensor corrupted = golden;
    corrupted.at(at) = live;
    IncrementalEngine scalar;
    Tensor ref = scalar.run(net, node, corrupted, Region::of(at), acts);
    EXPECT_FALSE(bitIdentical(acts[net.outputNode()], ref))
        << "live flip unexpectedly masked; test is vacuous";
    EXPECT_TRUE(bitIdentical(ref, eng->laneOutput(3)));
}

TEST(BatchedEngine, RowLayerKernelsMatchPerLaneForward)
{
    // FC, softmax and both matmul forms at lane widths 4 and 8: lanes
    // perturb different rows (one lane in four none at all), and every
    // third matmul lane also carries a dirty B — one of them saturating,
    // so its own pack may take a different narrow decision than the
    // shared golden one.  Every lane of the recomputed box must equal
    // forward() on that lane's inputs, with and without union-of-cones
    // coverage.
    struct Case
    {
        std::unique_ptr<Layer> layer;
        Tensor a, b;
    };
    std::vector<Case> cases;
    cases.push_back({makeFc("fc", 6, 5, 71), randomTensor(72, 2, 6, 2, 6),
                     Tensor()});
    cases.push_back({std::make_unique<Softmax>("sm"),
                     randomTensor(73, 2, 6, 2, 7), Tensor()});
    cases.push_back({std::make_unique<MatMulAB>("mmT", true, 0.5f),
                     randomTensor(74, 2, 6, 1, 4),
                     randomTensor(75, 1, 5, 1, 4)});
    cases.push_back({std::make_unique<MatMulAB>("mm", false),
                     randomTensor(76, 2, 6, 1, 4),
                     randomTensor(77, 1, 4, 1, 5)});

    for (Case &cs : cases) {
        Layer &layer = *cs.layer;
        const bool twoInputs = layer.numInputs() == 2;
        std::vector<const Tensor *> ins{&cs.a};
        if (twoInputs)
            ins.push_back(&cs.b);
        for (Precision p : {Precision::FP32, Precision::FP16,
                            Precision::INT8}) {
            layer.setPrecision(p);
            if (p == Precision::INT8)
                layer.calibrate(ins, layer.forward(ins));
            const Tensor golden = layer.forward(ins);
            for (int W : {4, 8}) {
                std::vector<Tensor> la(W, cs.a), lb(W, cs.b);
                Region cones[kMaxBatchLanes], aBox, bBox, unionBox;
                std::uint32_t mask = 0;
                for (int l = 0; l < W; ++l) {
                    Region cone;
                    if (l % 4 != 3) {
                        NeuronIndex at{l % 2, (l * 5) % cs.a.h(),
                                       l % cs.a.w(), l % cs.a.c()};
                        la[l].at(at) += 3.0f + l;
                        aBox.include(at);
                        cone.merge(layer.propagateRegion(
                            ins, 0, Region::of(at), golden));
                    }
                    if (twoInputs && l % 3 == 1) {
                        const std::size_t i = (l * 7) % cs.b.size();
                        lb[l][i] = l == 1 ? 50.0f : lb[l][i] + 1.5f;
                        NeuronIndex at = cs.b.indexOf(i);
                        bBox.include(at);
                        cone.merge(layer.propagateRegion(
                            ins, 1, Region::of(at), golden));
                    }
                    if (cone.empty())
                        continue;
                    cones[l] = cone;
                    mask |= 1u << l;
                    unionBox.merge(cone);
                }

                // Input planes hold lane values only inside the
                // perturbed boxes; the kernel ensures the rest.
                auto fill = [W](LanePlane &plane, const Tensor &g,
                                const std::vector<Tensor> &lanes,
                                const Region &box) {
                    plane.reset(W);
                    if (box.empty())
                        return;
                    plane.ensure(g, box);
                    for (int n = box.n0; n < box.n1; ++n)
                        for (int h = box.h0; h < box.h1; ++h)
                            for (int w = box.w0; w < box.w1; ++w)
                                for (int c = box.c0; c < box.c1; ++c) {
                                    std::size_t f = g.offset(n, h, w, c);
                                    for (int l = 0; l < W; ++l)
                                        plane.lanes(f)[l] = lanes[l][f];
                                }
                };
                LanePlane ap, bp, op;
                fill(ap, cs.a, la, aBox);
                if (twoInputs)
                    fill(bp, cs.b, lb, bBox);
                LanePlane *planes[2] = {&ap, &bp};

                for (bool useCover : {false, true}) {
                    BatchCover cover;
                    if (useCover)
                        cover.build(cones, mask, W, unionBox);
                    op.reset(W);
                    op.ensure(golden, unionBox);
                    layer.forwardRegionBatched(ins, planes, unionBox,
                                               useCover ? &cover : nullptr,
                                               golden, op);
                    for (int l = 0; l < W; ++l) {
                        std::vector<const Tensor *> lins{&la[l]};
                        if (twoInputs)
                            lins.push_back(&lb[l]);
                        const Tensor want = layer.forward(lins);
                        const Region &r = unionBox;
                        for (int n = r.n0; n < r.n1; ++n)
                        for (int h = r.h0; h < r.h1; ++h)
                        for (int w = r.w0; w < r.w1; ++w)
                        for (int c = r.c0; c < r.c1; ++c) {
                            std::size_t f = golden.offset(n, h, w, c);
                            ASSERT_EQ(std::bit_cast<std::uint32_t>(
                                          op.lanes(f)[l]),
                                      std::bit_cast<std::uint32_t>(
                                          want[f]))
                                << layer.name() << " "
                                << precisionName(p) << " W=" << W
                                << " lane " << l << " cover "
                                << useCover << " at "
                                << NeuronIndex{n, h, w, c}.str();
                        }
                    }
                }
            }
        }
    }
}

TEST(BatchedEngine, ConvChannelSpansCutPackBlocks)
{
    // The injection-lane conv kernel runs one MAC row per pack block
    // that a covered channel span touches.  Here the spans start and
    // end mid-block ([3, 13) crosses the 8-channel block edge), and
    // [17, 19) and [21, 23) share one block; the grouped conv (12
    // channels per group) also cuts blocks at its group edge and puts
    // [12, 13) and [17, 19) in one block of group 1.  Every lane of
    // every covered channel must equal forward() on that lane's
    // input; uncovered channels keep the plane's golden fill.
    const BatchCover::Span chans[] = {{3, 13}, {17, 19}, {21, 23}};
    for (int groups : {1, 2}) {
        ConvSpec spec{.inC = 4, .outC = 24, .pad = 1, .groups = groups};
        auto conv = makeConv("c", spec, 80 + groups);
        Tensor x = randomTensor(90 + groups, 1, 5, 5, spec.inC);
        std::vector<const Tensor *> ins{&x};
        for (Precision p : {Precision::FP32, Precision::FP16,
                            Precision::INT8}) {
            conv->setPrecision(p);
            if (p == Precision::INT8)
                conv->calibrate(ins, conv->forward(ins));
            const Tensor golden = conv->forward(ins);
            for (int W : {4, 8}) {
                std::vector<Tensor> lx(W, x);
                Region cones[kMaxBatchLanes], unionBox;
                std::uint32_t mask = 0;
                for (int l = 0; l < W; ++l) {
                    lx[l][(l * 13) % x.size()] += 2.0f + l;
                    const BatchCover::Span &cs = chans[l % 3];
                    cones[l] = Region{0, 1, 0, golden.h(), 0, golden.w(),
                                      cs.w0, cs.w1};
                    mask |= 1u << l;
                    unionBox.merge(cones[l]);
                }
                LanePlane xp, op;
                xp.reset(W);
                xp.ensure(x, Region::full(x));
                xp.markRaw(); // lane inputs are unrounded draws
                for (std::size_t f = 0; f < x.size(); ++f)
                    for (int l = 0; l < W; ++l)
                        xp.lanes(f)[l] = lx[l][f];
                LanePlane *planes[1] = {&xp};
                std::vector<Tensor> want;
                for (int l = 0; l < W; ++l)
                    want.push_back(conv->forward({&lx[l]}));

                for (bool useCover : {false, true}) {
                    BatchCover cover;
                    if (useCover)
                        cover.build(cones, mask, W, unionBox);
                    op.reset(W);
                    op.ensure(golden, unionBox);
                    conv->forwardRegionBatched(ins, planes, unionBox,
                                               useCover ? &cover : nullptr,
                                               golden, op);
                    const Region &r = unionBox;
                    for (int h = r.h0; h < r.h1; ++h)
                    for (int w = r.w0; w < r.w1; ++w)
                    for (int c = r.c0; c < r.c1; ++c) {
                        bool covered = !useCover;
                        for (const BatchCover::Span &cs : chans)
                            covered |= c >= cs.w0 && c < cs.w1;
                        const std::size_t f = golden.offset(0, h, w, c);
                        for (int l = 0; l < W; ++l)
                            ASSERT_EQ(std::bit_cast<std::uint32_t>(
                                          op.lanes(f)[l]),
                                      std::bit_cast<std::uint32_t>(
                                          covered ? want[l][f]
                                                  : golden[f]))
                                << "groups " << groups << " "
                                << precisionName(p) << " W=" << W
                                << " lane " << l << " cover "
                                << useCover << " at "
                                << NeuronIndex{0, h, w, c}.str();
                    }
                }
            }
        }
    }
}

TEST(BatchedCampaign, BatchWidthValidation)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig cfg;
    cfg.batchWidth = 0;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), cfg),
                 "batchWidth must be in");
    cfg.batchWidth = kMaxBatchLanes + 1;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), cfg),
                 "batchWidth must be in");
}
