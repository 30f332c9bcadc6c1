/**
 * @file
 * The fault-batched re-execution engine's correctness contract.
 *
 * Differential tests asserting every lane of the batched engine is
 * bit-identical to the scalar IncrementalEngine across FP32/FP16/INT8
 * on a multi-branch DAG with grouped/dilated/strided/padded
 * convolutions; ragged batches (fewer live lanes than the engine
 * width, non-contiguous lane indices); per-lane early-exit divergence
 * inside one batch; campaign-checksum invariance under batch width,
 * thread count, result cache, and kill-and-resume; and batch-width
 * validation at both the engine factory and the campaign config.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "nn/activation.hh"
#include "nn/batched.hh"
#include "nn/conv.hh"
#include "nn/elementwise.hh"
#include "nn/fc.hh"
#include "nn/incremental.hh"
#include "nn/init.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "nn/region.hh"
#include "sim/rng.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;

namespace
{

Tensor
randomTensor(std::uint64_t seed, int n, int h, int w, int c)
{
    Rng rng(seed);
    Tensor t(n, h, w, c);
    for (auto &v : t.data())
        v = static_cast<float>(rng.normal(0, 1));
    return t;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    if (!a.sameShape(b))
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<std::uint32_t>(a[i]) !=
            std::bit_cast<std::uint32_t>(b[i]))
            return false;
    return true;
}

std::unique_ptr<Conv2D>
makeConv(std::string name, const ConvSpec &spec, std::uint64_t seed)
{
    Rng rng(seed);
    std::size_t wcount = static_cast<std::size_t>(spec.kh) * spec.kw *
                         (spec.inC / spec.groups) * spec.outC;
    int fan_in = spec.kh * spec.kw * (spec.inC / spec.groups);
    return std::make_unique<Conv2D>(
        std::move(name), spec, heWeights(rng, wcount, fan_in),
        spec.bias ? smallBiases(rng, spec.outC) : std::vector<float>{});
}

/** Same layer zoo as test_incremental's DAG: padded, depthwise,
 *  dilated, and strided convolutions on parallel branches, add, scale,
 *  concat, slice, max pool, global average pool, FC head (the FC rides
 *  the per-lane fallback, everything else a batched kernel). */
Network
makeBranchy(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("branchy");
    NodeId c1 = net.add(
        makeConv("c1", {.inC = 4, .outC = 8, .pad = 1}, seed + 1), 0);
    NodeId r1 = net.add(
        std::make_unique<Activation>("relu1", Activation::Func::ReLU),
        c1);
    NodeId dw = net.add(
        makeConv("dw", {.inC = 8, .outC = 8, .pad = 1, .groups = 8},
                 seed + 2),
        r1);
    NodeId dil = net.add(
        makeConv("dil", {.inC = 8, .outC = 8, .pad = 2, .dilation = 2},
                 seed + 3),
        r1);
    NodeId add = net.add(std::make_unique<Elementwise>(
                             "add", Elementwise::Op::Add),
                         std::vector<NodeId>{dw, dil});
    NodeId ss = net.add(
        std::make_unique<ScaleShift>("ss", 0.5f, 0.1f), add);
    NodeId cat = net.add(std::make_unique<ConcatC>("cat"),
                         std::vector<NodeId>{add, ss});
    NodeId sl = net.add(
        std::make_unique<Slice>("sl", Slice::Axis::C, 4, 8), cat);
    NodeId p = net.add(
        std::make_unique<Pool>("pool", Pool::Mode::Max, 2, 2), sl);
    NodeId c2 = net.add(
        makeConv("c2", {.inC = 8, .outC = 8, .stride = 2, .pad = 1},
                 seed + 4),
        p);
    NodeId gap = net.add(std::make_unique<GlobalAvgPool>("gap"), c2);
    net.add(std::make_unique<FC>("fc", 8, 5, heWeights(rng, 40, 8),
                                 smallBiases(rng, 5)),
            gap);
    return net;
}

/** Unique snapshot path in gtest's temp dir; removed on destruction. */
class ScopedSnapshotPath
{
  public:
    explicit ScopedSnapshotPath(const std::string &name)
        : path_(testing::TempDir() + "fidelity_" + name + ".ckpt")
    {
        std::remove(path_.c_str());
    }

    ~ScopedSnapshotPath()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

CampaignConfig
smallConfig()
{
    CampaignConfig cfg;
    cfg.samplesPerCategory = 8;
    cfg.shardGrain = 4;
    cfg.seed = 17;
    return cfg;
}

} // namespace

TEST(BatchedEngine, FactoryWidthsAndValidation)
{
    IncrementalOptions opt;
    // Widths up to 4 share the narrow instantiation, wider ones the
    // full SIMD width; out-of-range widths are rejected.
    EXPECT_EQ(makeBatchedEngine(1, opt)->maxLanes(), 4);
    EXPECT_EQ(makeBatchedEngine(4, opt)->maxLanes(), 4);
    EXPECT_EQ(makeBatchedEngine(5, opt)->maxLanes(), 8);
    EXPECT_EQ(makeBatchedEngine(kMaxBatchLanes, opt)->maxLanes(),
              kMaxBatchLanes);
    EXPECT_DEATH((void)makeBatchedEngine(0, opt), "width must be in");
    EXPECT_DEATH((void)makeBatchedEngine(kMaxBatchLanes + 1, opt),
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
        auto eng = makeBatchedEngine(kMaxBatchLanes,
                                     IncrementalOptions{});
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

    auto eng = makeBatchedEngine(kMaxBatchLanes, IncrementalOptions{});
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

TEST(BatchedCampaign, ChecksumInvariantUnderWidthThreadsCache)
{
    // The batch width is a pure performance knob: campaignChecksum
    // must match the B = 1 result for every width x thread count x
    // result-cache combination.
    Network net = buildResNet(3);
    net.setPrecision(Precision::FP16);
    Tensor x = defaultInputFor("resnet", 4);

    CampaignConfig ref = smallConfig();
    ref.batchWidth = 1;
    ref.resultCacheEnabled = false;
    const std::uint64_t want =
        campaignChecksum(runCampaign(net, x, top1Metric(), ref));

    for (int width : {4, 8}) {
        for (int threads : {1, 4, 8}) {
            for (bool cache : {false, true}) {
                CampaignConfig cfg = smallConfig();
                cfg.batchWidth = width;
                cfg.numThreads = threads;
                cfg.resultCacheEnabled = cache;
                CampaignResult res =
                    runCampaign(net, x, top1Metric(), cfg);
                EXPECT_EQ(campaignChecksum(res), want)
                    << "width " << width << " threads " << threads
                    << " cache " << cache;
            }
        }
    }
}

TEST(BatchedCampaign, KillAndResumeBitIdentity)
{
    // A batched campaign interrupted mid-flight and resumed from its
    // snapshot — even at a different batch width — must reproduce the
    // uninterrupted B = 1 checksum, with the result cache on or off.
    Network net = buildResNet(3);
    net.setPrecision(Precision::FP16);
    Tensor x = defaultInputFor("resnet", 4);

    CampaignConfig ref = smallConfig();
    ref.batchWidth = 1;
    const std::uint64_t want =
        campaignChecksum(runCampaign(net, x, top1Metric(), ref));

    for (bool cache : {false, true}) {
        for (int resumeWidth : {8, 1}) {
            ScopedSnapshotPath path(
                "batched_kill_" + std::to_string(cache) + "_" +
                std::to_string(resumeWidth));

            CampaignConfig cfg = smallConfig();
            cfg.batchWidth = 8;
            cfg.numThreads = 4;
            cfg.resultCacheEnabled = cache;
            cfg.checkpointPath = path.str();
            cfg.stopAfterShards = 6;
            CampaignResult partial =
                runCampaign(net, x, top1Metric(), cfg);
            ASSERT_FALSE(partial.complete);

            CampaignConfig resume = smallConfig();
            resume.batchWidth = resumeWidth;
            resume.numThreads = 4;
            resume.resultCacheEnabled = cache;
            resume.checkpointPath = path.str();
            resume.resumeFrom = path.str();
            CampaignResult res =
                runCampaign(net, x, top1Metric(), resume);
            EXPECT_TRUE(res.complete);
            EXPECT_EQ(campaignChecksum(res), want)
                << "cache " << cache << " resume width "
                << resumeWidth;
        }
    }
}

TEST(BatchedCampaign, BatchWidthValidation)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig cfg = smallConfig();
    cfg.batchWidth = 0;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), cfg),
                 "batchWidth must be in");
    cfg.batchWidth = kMaxBatchLanes + 1;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), cfg),
                 "batchWidth must be in");
}
