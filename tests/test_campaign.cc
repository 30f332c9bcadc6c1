/**
 * @file
 * Tests of the end-to-end campaign orchestration (FIdelity's flow).
 * Result invariance under threads and every other performance knob is
 * test_bit_identity's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/campaign.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;

namespace
{

CampaignConfig
smallConfig()
{
    CampaignConfig cfg;
    cfg.samplesPerCategory = 12;
    cfg.seed = 5;
    return cfg;
}

} // namespace

TEST(Campaign, RunsOnResNet)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignResult res =
        runCampaign(net, x, top1Metric(), smallConfig());

    EXPECT_EQ(res.network, "resnet");
    EXPECT_GT(res.totalInjections, 0u);
    EXPECT_GT(res.fit.total(), 0.0);
    EXPECT_EQ(res.layerInputs.size(), net.macNodes().size());
    EXPECT_EQ(res.cells.size(),
              net.macNodes().size() * allFFCategories().size());
}

TEST(Campaign, GlobalDominatesUnprotected)
{
    // Global-control FFs never mask, so with DNN-level masking being
    // substantial everywhere else, the global share dominates.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignResult res =
        runCampaign(net, x, top1Metric(), smallConfig());
    EXPECT_GT(res.fit.global, res.fit.local);
}

TEST(Campaign, ProtectedVariantDropsGlobal)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignResult res =
        runCampaign(net, x, top1Metric(), smallConfig());
    EXPECT_DOUBLE_EQ(res.fitGlobalProtected.global, 0.0);
    EXPECT_NEAR(res.fitGlobalProtected.datapath, res.fit.datapath,
                1e-12);
    EXPECT_LT(res.fitGlobalProtected.total(), res.fit.total());
}

TEST(Campaign, GlobalMaskingProbabilityIsZero)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignResult res =
        runCampaign(net, x, top1Metric(), smallConfig());
    for (const LayerFitInput &l : res.layerInputs) {
        auto gidx = static_cast<std::size_t>(FFCategory::GlobalControl);
        EXPECT_DOUBLE_EQ(l.stats[gidx].probSwMask, 0.0);
        EXPECT_DOUBLE_EQ(l.stats[gidx].probInactive, 0.0);
    }
}

TEST(Campaign, ShardGrainIsPartOfTheSampleIdentity)
{
    // Different grains select different forked streams, so the
    // statistics may move; the sample count must not.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig cfg = smallConfig();
    cfg.samplesPerCategory = 20;

    cfg.shardGrain = 8;
    CampaignResult a = runCampaign(net, x, top1Metric(), cfg);
    cfg.shardGrain = 100; // one shard per cell
    CampaignResult b = runCampaign(net, x, top1Metric(), cfg);
    EXPECT_EQ(a.totalInjections, b.totalInjections);
    for (const CellResult &cell : a.cells)
        EXPECT_LE(cell.masked.trials(), 20u + 1u);
}

TEST(Campaign, LooserMetricLowersFit)
{
    Network net = buildYolo(3);
    Tensor x = defaultInputFor("yolo", 4);
    CampaignConfig cfg = smallConfig();
    cfg.samplesPerCategory = 40;
    CampaignResult tight =
        runCampaign(net, x, detectionMetric(0.10), cfg);
    CampaignResult loose =
        runCampaign(net, x, detectionMetric(0.20), cfg);
    // The looser band masks at least as many faults.
    EXPECT_LE(loose.fitGlobalProtected.total(),
              tight.fitGlobalProtected.total() + 1e-9);
}

TEST(Campaign, CollectsSingleNeuronSamples)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig cfg = smallConfig();
    cfg.samplesPerCategory = 30;
    CampaignResult res = runCampaign(net, x, top1Metric(), cfg);
    EXPECT_GT(res.singleNeuronSamples.size(), 0u);
    for (const auto &[delta, failed] : res.singleNeuronSamples)
        EXPECT_GE(delta, 0.0);
}

TEST(Campaign, TimingLayerHandlesDepthwise)
{
    Network net = buildMobileNet(3);
    Tensor x = defaultInputFor("mobilenet", 4);
    auto acts = net.forwardAll(x);
    for (NodeId node : net.macNodes()) {
        EngineLayer el = timingLayer(net, node, acts);
        LayerTiming t = estimateTiming(NvdlaConfig{}, el);
        EXPECT_GT(t.totalCycles, 0u);
        EXPECT_GT(t.macCycles, 0u);
    }
}

TEST(Campaign, TransformerWithBleuMetric)
{
    Network net = buildTransformer(3);
    Tensor x = defaultInputFor("transformer", 4);
    CampaignConfig cfg = smallConfig();
    cfg.samplesPerCategory = 8;
    CampaignResult res = runCampaign(net, x, bleuMetric(0.10), cfg);
    EXPECT_GT(res.fit.total(), 0.0);
}

namespace
{

CampaignConfig
adaptiveSmall()
{
    CampaignConfig cfg;
    cfg.seed = 5;
    cfg.targetHalfWidth = 0.09;
    cfg.confidenceZ = 1.96;
    cfg.minSamples = 8;
    cfg.maxSamplesPerCategory = 64;
    cfg.shardGrain = 8;
    return cfg;
}

} // namespace

TEST(CampaignAdaptive, EveryCellMeetsTargetOrCap)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig cfg = adaptiveSmall();
    CampaignResult res = runCampaign(net, x, top1Metric(), cfg);

    EXPECT_TRUE(res.complete);
    EXPECT_GE(res.rounds, 1u);
    for (const CellResult &cell : res.cells) {
        if (cell.category == FFCategory::GlobalControl)
            continue;
        const auto trials = cell.masked.trials();
        EXPECT_GE(trials, static_cast<std::uint64_t>(cfg.minSamples));
        EXPECT_LE(trials,
                  static_cast<std::uint64_t>(cfg.maxSamplesPerCategory));
        if (trials < static_cast<std::uint64_t>(cfg.maxSamplesPerCategory)) {
            EXPECT_LE(cell.masked.halfWidth(cfg.confidenceZ),
                      cfg.targetHalfWidth)
                << "unretired cell below the cap";
        }
    }
}

TEST(CampaignAdaptive, SamplesFlowToHardCells)
{
    // Cells whose estimate sits near 0 or 1 retire at minSamples;
    // cells near 1/2 must draw more to reach the same half-width.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignResult res =
        runCampaign(net, x, top1Metric(), adaptiveSmall());

    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const CellResult &cell : res.cells) {
        if (cell.category == FFCategory::GlobalControl)
            continue;
        lo = std::min(lo, cell.masked.trials());
        hi = std::max(hi, cell.masked.trials());
    }
    EXPECT_LT(lo, hi) << "adaptive schedule degenerated to uniform";
}

TEST(CampaignAdaptive, TighterTargetDrawsMoreSamples)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig cfg = adaptiveSmall();
    cfg.maxSamplesPerCategory = 256;
    CampaignResult loose = runCampaign(net, x, top1Metric(), cfg);
    cfg.targetHalfWidth = 0.045;
    CampaignResult tight = runCampaign(net, x, top1Metric(), cfg);
    EXPECT_GT(tight.totalInjections, loose.totalInjections);
}

TEST(CampaignAdaptive, RejectsNonsenseKnobs)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);

    CampaignConfig bad = adaptiveSmall();
    bad.minSamples = 0;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), bad),
                 "minSamples");

    bad = adaptiveSmall();
    bad.maxSamplesPerCategory = bad.minSamples - 1;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), bad),
                 "maxSamplesPerCategory");

    bad = adaptiveSmall();
    bad.confidenceZ = 0.0;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), bad),
                 "confidenceZ");

    bad = adaptiveSmall();
    bad.targetHalfWidth = -0.1;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), bad),
                 "targetHalfWidth");
}

TEST(Campaign, RejectsAFixedScheduleWithNoSamples)
{
    // A fixed schedule without samples would plan zero shards and
    // report a complete campaign whose cells hold 0 trials (FIT from
    // probSwMask = 0).
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    for (int samples : {0, -1}) {
        CampaignConfig bad = smallConfig();
        bad.samplesPerCategory = samples;
        EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), bad),
                     "samplesPerCategory");
        EXPECT_DEATH((void)fixedShardPlan(net, bad), "samplesPerCategory");
    }

    // The adaptive scheduler ignores the fixed quota.
    CampaignConfig adaptive = adaptiveSmall();
    adaptive.samplesPerCategory = 0;
    EXPECT_GT(runCampaign(net, x, top1Metric(), adaptive).totalInjections,
              0u);
}
