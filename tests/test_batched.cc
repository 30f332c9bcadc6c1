/**
 * @file
 * The fault-batched re-execution engine's correctness contract.
 *
 * Differential tests asserting every lane of the batched engine is
 * bit-identical to Network::forwardFrom across FP32/FP16/INT8 on a
 * multi-branch DAG with grouped/dilated/strided/padded convolutions;
 * ragged batches (fewer live lanes than the engine width,
 * non-contiguous lane indices); per-lane early-exit divergence inside
 * one batch; the row-layer region kernels (FC, softmax, matmul)
 * against per-lane forward() with golden and dirty B lanes at widths
 * 1 and 8; the conv kernel's per-pack-block MAC rows under channel
 * spans that cut blocks; the counters of a batch with no changed
 * neuron; and batch-width validation at both the engine
 * factory and the campaign config.  Campaign checksums under every
 * batch width are test_bit_identity's engine axis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hh"
#include "core/injector.hh"
#include "nn/batched.hh"
#include "nn/matmul.hh"
#include "nn/region.hh"
#include "nn/softmax.hh"
#include "sim/result_cache.hh"
#include "test_util.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;
using namespace fidelity::test;

TEST(BatchedEngine, FactoryWidthsAndValidation)
{
    // Width 1 has its own instantiation and every wider width gets the
    // full 8-lane one; out-of-range widths are rejected.
    EXPECT_EQ(makeBatchedEngine(1)->maxLanes(), 1);
    for (int width = 2; width <= kMaxBatchLanes; ++width)
        EXPECT_EQ(makeBatchedEngine(width)->maxLanes(), 8)
            << "width " << width;
    EXPECT_DEATH((void)makeBatchedEngine(0), "width must be in");
    EXPECT_DEATH((void)makeBatchedEngine(kMaxBatchLanes + 1),
                 "width must be in");
}

TEST(LanePlane, EnsureFillsGoldenAndKeepsLaneValues)
{
    // At both widths: a first box of whole image rows (one contiguous
    // block per n at width 1), a lane value written inside it, then a
    // partial box that grows the valid box.  Every valid cell reads
    // golden in every lane except the written one, which survives.
    Tensor g = randomTensor(131, 2, 5, 4, 6);
    const Region rows{0, 1, 1, 3, 0, 4, 0, 6};
    const Region part{0, 2, 2, 5, 1, 3, 2, 5};
    const std::size_t at = g.offset(0, 2, 1, 3);
    for (int W : {1, kMaxBatchLanes}) {
        LanePlane plane;
        plane.reset(W);
        plane.ensure(g, rows);
        EXPECT_EQ(plane.valid(), rows);
        for (int l = 0; l < W; ++l)
            plane.lanes(at)[l] = -1.0f - static_cast<float>(l);
        plane.ensure(g, part);
        Region want = rows;
        want.merge(part);
        ASSERT_EQ(plane.valid(), want) << "W=" << W;
        const Region &v = plane.valid();
        for (int n = v.n0; n < v.n1; ++n)
        for (int h = v.h0; h < v.h1; ++h)
        for (int w = v.w0; w < v.w1; ++w)
        for (int c = v.c0; c < v.c1; ++c) {
            const std::size_t f = g.offset(n, h, w, c);
            for (int l = 0; l < W; ++l)
                ASSERT_EQ(plane.lanes(f)[l],
                          f == at ? -1.0f - static_cast<float>(l) : g[f])
                    << "W=" << W << " lane " << l << " at "
                    << NeuronIndex{n, h, w, c}.str();
        }
    }
}

TEST(LanePlane, GatherAndScatterLanesCopyExactlyTheMaskedLanes)
{
    // gatherLanes copies the masked lanes of `count` lane columns into
    // runs `stride` apart, lowest lane first, in 8-column blocks plus a
    // tail; scatterLanes writes them back.  Neither touches anything
    // else: the gaps between runs and the unmasked lanes keep their
    // values.
    constexpr int B = kMaxBatchLanes;
    constexpr float kUntouched = -7.0f;
    for (int count : {1, 7, 8, 13, 24}) {
        std::vector<float> cols(static_cast<std::size_t>(count) * B);
        for (std::size_t i = 0; i < cols.size(); ++i)
            cols[i] = static_cast<float>(i);
        const std::size_t stride = static_cast<std::size_t>(count) + 3;
        for (std::uint32_t mask : {0x01u, 0x80u, 0xa5u, 0x3cu, 0xffu}) {
            SCOPED_TRACE(testing::Message()
                         << "count " << count << " mask " << mask);
            std::vector<float> rows(B * stride, kUntouched);
            gatherLanes(cols.data(), B, mask, count, rows.data(), stride);
            std::vector<float> back(cols.size(), kUntouched);
            scatterLanes(rows.data(), stride, count, back.data(), B, mask);
            int k = 0;
            for (int l = 0; l < B; ++l) {
                const bool in = (mask >> l) & 1u;
                for (int c = 0; c < count; ++c) {
                    const std::size_t at = static_cast<std::size_t>(c) * B + l;
                    EXPECT_EQ(back[at], in ? cols[at] : kUntouched);
                    if (in) {
                        EXPECT_EQ(rows[k * stride + c], cols[at]);
                    }
                }
                k += in;
            }
            for (std::size_t r = 0; r < rows.size(); ++r) {
                if (r / stride >= static_cast<std::size_t>(k) ||
                    r % stride >= static_cast<std::size_t>(count)) {
                    EXPECT_EQ(rows[r], kUntouched) << "run slot " << r;
                }
            }
        }
        // Width 1: the one column is the run.
        std::vector<float> one(count, kUntouched);
        gatherLanes(cols.data(), 1, 1u, count, one.data(), 0);
        EXPECT_TRUE(std::equal(one.begin(), one.end(), cols.begin()));
    }
}

TEST(LanePlane, CoveredRunsAreTheCoveredCellsMerged)
{
    // forEachCoveredRun visits exactly the elements that
    // forEachCoveredCell covers over [c0, c1), in the same order, as
    // maximal runs: no run starts where the previous one ends, so the
    // whole tensor is one run.
    const Tensor t(2, 5, 4, 6);
    const Region cones[2] = {{0, 1, 1, 3, 0, 2, 0, 6},
                             {1, 2, 2, 4, 1, 4, 0, 6}};
    const Region box{0, 2, 1, 4, 0, 4, 0, 6};
    BatchCover cover;
    cover.build(cones, 0x3u, 2, box);
    Region part = box;
    part.c0 = 2;
    part.c1 = 5;
    const std::pair<Region, const BatchCover *> cases[] = {
        {Region::full(t), nullptr}, {box, nullptr}, {part, nullptr},
        {box, &cover},              {part, &cover},
    };
    for (const auto &[region, cov] : cases) {
        SCOPED_TRACE(testing::Message()
                     << region.str() << (cov ? " covered" : ""));
        std::vector<std::size_t> want, got;
        forEachCoveredCell(region, cov, [&](int n, int h, int w) {
            for (int c = region.c0; c < region.c1; ++c)
                want.push_back(t.offset(n, h, w, c));
        });
        std::vector<std::pair<std::size_t, std::size_t>> runs;
        forEachCoveredRun(region, cov, t,
                          [&](std::size_t flat, std::size_t count) {
                              runs.emplace_back(flat, count);
                              for (std::size_t i = 0; i < count; ++i)
                                  got.push_back(flat + i);
                          });
        EXPECT_EQ(got, want);
        for (std::size_t r = 1; r < runs.size(); ++r)
            EXPECT_NE(runs[r - 1].first + runs[r - 1].second,
                      runs[r].first)
                << "runs " << r - 1 << " and " << r << " are adjacent";
    }
    int runs = 0;
    forEachCoveredRun(Region::full(t), nullptr, t,
                      [&](std::size_t, std::size_t) { ++runs; });
    EXPECT_EQ(runs, 1);
}

TEST(BatchedEngine, BitIdenticalToForwardFromAcrossPrecisions)
{
    // Every lane of every batch must reproduce Network::forwardFrom's
    // output bit-for-bit — full batches, ragged tails, and
    // non-contiguous lane sets, with one-to-three corrupted neurons
    // per injection and a NaN value mixed in — and exit early exactly
    // when the same injection run alone on the one-lane engine does.
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
        auto one = makeBatchedEngine(1);
        auto eng = makeBatchedEngine(kMaxBatchLanes);
        Rng rng(102);
        for (NodeId node : net.macNodes()) {
            const Tensor &golden = acts[node];
            for (const auto &lanes : laneSets) {
                eng->begin(net, node, acts, nullptr);
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
                    for (std::size_t f = 0; f < at[i].size(); ++f)
                        corrupted.at(at[i][f]) = val[i][f];
                    EXPECT_TRUE(bitIdentical(
                        net.forwardFrom(node, corrupted, acts),
                        eng->laneOutput(lanes[i])))
                        << "node " << node << " lane " << lanes[i]
                        << " precision " << static_cast<int>(p);
                    one->begin(net, node, acts, nullptr);
                    one->seedLane(0, at[i].data(), val[i].data(),
                                  val[i].size());
                    one->execute();
                    EXPECT_EQ(eng->laneEarlyMasked(lanes[i]),
                              one->laneEarlyMasked(0))
                        << "node " << node << " lane " << lanes[i];
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
    eng->begin(net, node, acts, nullptr);
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
    Tensor ref = net.forwardFrom(node, corrupted, acts);
    EXPECT_FALSE(bitIdentical(acts[net.outputNode()], ref))
        << "live flip unexpectedly masked; test is vacuous";
    EXPECT_TRUE(bitIdentical(ref, eng->laneOutput(3)));
}

TEST(BatchedEngine, EmptySeedBatchCountsNoSkippedLayers)
{
    // With an output clamp, a survivor's faulty values can all be
    // clamped back to golden (NaN -> 0 on a golden 0): the injector
    // then seeds the lane with no neuron, and such survivors sort into
    // the same batches.  A batch with no changed neuron visits no layer
    // and counts none as skipped, at every width, like a lone empty
    // seed on the one-lane engine; one changed lane brings the
    // skipped count back.
    Tensor input = randomTensor(121, 1, 8, 8, 4);
    Network net = makeBranchy(120);
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
    const float dead = -1234.5f;

    for (int width : {1, kMaxBatchLanes}) {
        auto eng = makeBatchedEngine(width);
        eng->begin(net, node, acts, nullptr);
        for (int l = 0; l < width; ++l)
            eng->seedLane(l, nullptr, nullptr, 0);
        eng->execute();
        BatchedTotals t = eng->totals();
        EXPECT_EQ(t.batches, 1u) << "W=" << width;
        EXPECT_EQ(t.lanesSeeded, static_cast<std::uint64_t>(width));
        EXPECT_EQ(t.layersBatchedKernel, 0u) << "W=" << width;
        EXPECT_EQ(t.layersSkipped, 0u) << "W=" << width;
        for (int l = 0; l < width; ++l) {
            EXPECT_TRUE(eng->laneEarlyMasked(l)) << "W=" << width;
            EXPECT_TRUE(bitIdentical(acts[net.outputNode()],
                                     eng->laneOutput(l)))
                << "W=" << width << " lane " << l;
        }

        // The same batch with lane 0 carrying a delta that dies at the
        // ReLU: every layer past it counts as skipped.
        eng->begin(net, node, acts, nullptr);
        eng->seedLane(0, &at, &dead, 1);
        for (int l = 1; l < width; ++l)
            eng->seedLane(l, nullptr, nullptr, 0);
        eng->execute();
        EXPECT_GT(eng->totals().layersSkipped, 0u) << "W=" << width;
        for (int l = 0; l < width; ++l)
            EXPECT_TRUE(eng->laneEarlyMasked(l)) << "W=" << width;
    }
}

TEST(BatchedEngine, RowLayerKernelsMatchPerLaneForward)
{
    // FC, softmax and both matmul forms at lane widths 1 and 8:
    // lanes perturb different rows (one lane in four none at all), and
    // every third matmul lane also carries a dirty B — one of them
    // saturating, so its own pack may take a different narrow decision
    // than the shared golden one.  Width 1 runs twice, as perturbation
    // 0 (golden B) and as perturbation 1 (saturating dirty B).  Every
    // lane of the recomputed box must equal forward() on that lane's
    // inputs, with and without union-of-cones coverage, and with and
    // without the golden pass's prep.
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
    cases.push_back({std::make_unique<MatMulAB>("mmT", true, 4, 0.5f),
                     randomTensor(74, 2, 6, 1, 4),
                     randomTensor(75, 1, 5, 1, 4)});
    cases.push_back({std::make_unique<MatMulAB>("mm", false, 4),
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
            // The golden pass's prep (matmul's packed golden B), and
            // none, when the kernel packs the golden B itself.
            const auto prep = layer.prepareGolden(ins);
            // (width, perturbation of lane 0)
            for (auto [W, first] : {std::pair{1, 0}, std::pair{1, 1},
                                    std::pair{kMaxBatchLanes, 0}}) {
                std::vector<Tensor> la(W, cs.a), lb(W, cs.b);
                Region cones[kMaxBatchLanes], aBox, bBox, unionBox;
                std::uint32_t mask = 0;
                for (int l = 0; l < W; ++l) {
                    const int k = first + l; // the lane's perturbation
                    Region cone;
                    if (k % 4 != 3) {
                        NeuronIndex at{k % 2, (k * 5) % cs.a.h(),
                                       k % cs.a.w(), k % cs.a.c()};
                        la[l].at(at) += 3.0f + k;
                        aBox.include(at);
                        cone.merge(layer.propagateRegion(
                            ins, 0, Region::of(at), golden));
                    }
                    if (twoInputs && k % 3 == 1) {
                        const std::size_t i = (k * 7) % cs.b.size();
                        lb[l][i] = k == 1 ? 50.0f : lb[l][i] + 1.5f;
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
                auto fill = [W = W](LanePlane &plane, const Tensor &g,
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

                for (int variant = 0; variant < 4; ++variant) {
                    const bool useCover = variant & 1;
                    const GoldenPrep *gp = variant & 2 ? prep.get()
                                                       : nullptr;
                    BatchCover cover;
                    if (useCover)
                        cover.build(cones, mask, W, unionBox);
                    op.reset(W);
                    op.ensure(golden, unionBox);
                    layer.forwardRegionBatched(ins, planes, unionBox,
                                               useCover ? &cover : nullptr,
                                               golden, op, gp);
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
                                << " first " << first
                                << " lane " << l << " cover "
                                << useCover << " prep "
                                << (gp != nullptr) << " at "
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
            for (int W : {1, kMaxBatchLanes}) {
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
                                               golden, op, nullptr);
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

TEST(BatchedEngine, OneNetworkServesTwoInjectors)
{
    // Each Injector keeps its own golden pass, MatMulAB's packed golden
    // B included, so one Network serves two inputs at once: batches of
    // both Injectors interleaved on shared per-thread engines, from two
    // threads, must give exactly the records each Injector gives run
    // alone, on a Network of its own.  The injection nodes include the
    // producers upstream of every matmul's B operand, so dirty-B lanes
    // take their own packs next to lanes on the shared golden one.
    // Outcomes are bit-exact (masked iff the output keeps every golden
    // bit), so a lane run against the other input's golden B cannot
    // pass unnoticed.
    const CorrectnessFn exact = [](const Tensor &g, const Tensor &f) {
        return bitIdentical(g, f);
    };
    constexpr int kCount = 12;
    for (Precision p : {Precision::INT8, Precision::FP16}) {
        const Tensor xs[2] = {defaultInputFor("transformer", 4),
                              defaultInputFor("transformer", 5)};
        auto build = [&] {
            Network n = buildTransformer(3);
            n.setPrecision(p);
            if (p == Precision::INT8)
                n.calibrate(xs[0]);
            return n;
        };
        const Network net = build();
        const Network solo[2] = {build(), build()};
        const Injector injs[2] = {Injector(net, xs[0], NvdlaConfig{}),
                                  Injector(net, xs[1], NvdlaConfig{})};
        const Injector soloInjs[2] = {
            Injector(solo[0], xs[0], NvdlaConfig{}),
            Injector(solo[1], xs[1], NvdlaConfig{})};

        // Every MAC node feeding some matmul's B operand, directly or
        // through other layers.
        std::vector<char> feedsB(net.numNodes(), 0);
        for (NodeId id = net.numNodes() - 1; id >= 1; --id) {
            if (net.layer(id).kind() == LayerKind::MatMul)
                feedsB[net.producers(id)[1]] = 1;
            if (feedsB[id])
                for (NodeId in : net.producers(id))
                    feedsB[in] = 1;
        }
        struct Cell
        {
            NodeId node;
            FFCategory cat;
        };
        std::vector<Cell> cells;
        bool bSide = false;
        for (NodeId node : net.macNodes()) {
            bSide = bSide || feedsB[node];
            for (FFCategory cat :
                 {FFCategory::OutputPsum, FFCategory::OperandWeight})
                cells.push_back({node, cat});
        }
        ASSERT_TRUE(bSide) << "no injection reaches a matmul's B";

        // recs[inj][cell][i]; each (injector, cell) draws one stream.
        using Recs = std::vector<std::vector<InjectionRecord>>;
        auto run = [&](const Injector &inj, std::size_t c,
                       BatchedEngine &eng, Recs &out) {
            Rng rng(1000 + 37 * c);
            out[c].resize(kCount);
            const Injector::ShardDraws shard{&rng, kCount, out[c].data()};
            inj.injectBatch(cells[c].node, cells[c].cat, exact, {&shard, 1},
                            0.0, eng);
        };
        for (int width : {1, kMaxBatchLanes}) {
            Recs alone[2], mixed[2];
            for (int inj = 0; inj < 2; ++inj) {
                alone[inj].resize(cells.size());
                mixed[inj].resize(cells.size());
                auto eng = makeBatchedEngine(width);
                for (std::size_t c = 0; c < cells.size(); ++c)
                    run(soloInjs[inj], c, *eng, alone[inj]);
            }
            // Thread t takes every other cell and alternates the
            // Injectors on one engine, each thread in its own order.
            std::vector<std::thread> threads;
            for (int t = 0; t < 2; ++t)
                threads.emplace_back([&, t] {
                    auto eng = makeBatchedEngine(width);
                    for (std::size_t c = t; c < cells.size(); c += 2)
                        for (int k = 0; k < 2; ++k)
                            run(injs[k ^ t], c, *eng, mixed[k ^ t]);
                });
            for (std::thread &th : threads)
                th.join();

            std::size_t masked = 0, total = 0;
            for (int inj = 0; inj < 2; ++inj)
                for (std::size_t c = 0; c < cells.size(); ++c) {
                    SCOPED_TRACE(testing::Message()
                                 << precisionName(p) << " width " << width
                                 << " injector " << inj << " node "
                                 << cells[c].node);
                    for (int i = 0; i < kCount; ++i) {
                        const InjectionRecord &a = alone[inj][c][i];
                        const InjectionRecord &b = mixed[inj][c][i];
                        EXPECT_EQ(a.masked, b.masked) << "sample " << i;
                        EXPECT_EQ(a.earlyExit, b.earlyExit);
                        EXPECT_EQ(a.numFaultyNeurons, b.numFaultyNeurons);
                        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.maxAbsDelta),
                                  std::bit_cast<std::uint64_t>(
                                      b.maxAbsDelta));
                        masked += a.masked;
                        ++total;
                    }
                }
            // Both outcomes occur, so the comparison discriminates.
            EXPECT_GT(masked, 0u) << precisionName(p);
            EXPECT_LT(masked, total) << precisionName(p);
        }
    }
}

TEST(BatchedEngine, PooledShardsMatchSeparateWidthOneCalls)
{
    // One injectBatch over a group of shards pools their survivors into
    // shared 8-lane walks, but each shard draws from its own stream
    // into its own records: every record equals the one k separate
    // width-1 calls give (cacheHit aside: a site repeated across the
    // group computes instead of hitting), and every stream ends in the
    // same state.
    const int counts[] = {8, 3, 8, 1, 8, 5};
    constexpr std::size_t k = std::size(counts);
    for (const char *name : {"resnet", "transformer"}) {
        Network net = buildNetwork(name, 3);
        const Tensor x = defaultInputFor(name, 4);
        net.setPrecision(Precision::FP16);
        const CorrectnessFn metric = std::string(name) == "transformer"
                                         ? bleuMetric(0.10)
                                         : top1Metric();
        // Each side probes a cache of its own, so both fill the
        // fingerprint fields.
        ResultCache cacheA(1 << 20), cacheB(1 << 20);
        Injector pooled(net, x, NvdlaConfig{});
        Injector single(net, x, NvdlaConfig{});
        pooled.attachResultCache(&cacheA);
        single.attachResultCache(&cacheB);
        auto wide = makeBatchedEngine(kMaxBatchLanes);
        auto one = makeBatchedEngine(1);

        std::size_t reached = 0;
        for (NodeId node : net.macNodes()) {
            for (FFCategory cat : allFFCategories()) {
                SCOPED_TRACE(std::string(name) + " node " +
                             std::to_string(node) + " " +
                             ffCategoryName(cat));
                std::vector<Rng> ra, rb;
                std::vector<std::vector<InjectionRecord>> a(k), b(k);
                std::vector<Injector::ShardDraws> draws;
                for (std::size_t j = 0; j < k; ++j) {
                    ra.emplace_back(977 * node + 31 * j +
                                    static_cast<int>(cat));
                    rb.push_back(ra.back());
                    a[j].resize(counts[j]);
                    b[j].resize(counts[j]);
                }
                for (std::size_t j = 0; j < k; ++j)
                    draws.push_back({&ra[j], counts[j], a[j].data()});
                EXPECT_EQ(pooled.injectBatch(node, cat, metric, draws,
                                             0.0, *wide),
                          33u);
                for (std::size_t j = 0; j < k; ++j) {
                    const Injector::ShardDraws shard{&rb[j], counts[j],
                                                     b[j].data()};
                    single.injectBatch(node, cat, metric, {&shard, 1}, 0.0,
                                       *one);
                }
                for (std::size_t j = 0; j < k; ++j) {
                    for (int i = 0; i < counts[j]; ++i) {
                        const InjectionRecord &p = a[j][i];
                        const InjectionRecord &q = b[j][i];
                        SCOPED_TRACE(testing::Message()
                                     << "shard " << j << " draw " << i);
                        EXPECT_EQ(p.category, q.category);
                        EXPECT_EQ(p.node, q.node);
                        EXPECT_EQ(p.masked, q.masked);
                        EXPECT_EQ(p.globalFailure, q.globalFailure);
                        EXPECT_EQ(p.numFaultyNeurons, q.numFaultyNeurons);
                        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                                      p.maxAbsDelta),
                                  std::bit_cast<std::uint64_t>(
                                      q.maxAbsDelta));
                        EXPECT_EQ(p.earlyExit, q.earlyExit);
                        EXPECT_EQ(p.fingerprint, q.fingerprint);
                        EXPECT_EQ(p.cacheEligible, q.cacheEligible);
                        reached += p.cacheEligible;
                    }
                    EXPECT_EQ(ra[j].next64(), rb[j].next64())
                        << "stream " << j << " ends elsewhere";
                }
            }
        }
        // Survivors reached the engine, several per pooled walk.
        EXPECT_GT(reached, 2 * net.macNodes().size()) << name;
        EXPECT_GT(wide->totals().lanesSeeded, wide->totals().batches)
            << name;
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
