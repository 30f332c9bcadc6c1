/**
 * @file
 * Crash-safe checkpoint/resume: snapshot round-trips, corrupt-snapshot
 * rejection, resume refusal and config-hash identity.  The
 * kill-and-resume bit-identity contract — a campaign interrupted
 * mid-flight and resumed from its snapshot, under any knobs, equals
 * an uninterrupted run — is test_bit_identity's stop/resume axis.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "sim/checkpoint.hh"
#include "test_util.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;
using namespace fidelity::test;

namespace
{

CampaignConfig
fixedConfig()
{
    CampaignConfig cfg;
    cfg.samplesPerCategory = 16;
    cfg.shardGrain = 4;
    cfg.seed = 11;
    return cfg;
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out) << path;
}

/** A two-shard snapshot whose second shard carries samples — exercises
 *  every on-disk field kind (header, shard fixed part, sample list). */
CampaignSnapshot
referenceSnapshot()
{
    CampaignSnapshot snap;
    snap.configHash = 0x0123456789abcdefULL;
    ShardRecord a;
    a.ordinal = 0;
    a.cell = 1;
    a.maskedCount = 2;
    a.trials = 4;
    ShardRecord b;
    b.ordinal = 1;
    b.cell = 2;
    b.maskedCount = 1;
    b.trials = 3;
    b.samples = {{0.25, true}, {3.5, false}};
    snap.shards = {a, b};
    return snap;
}

} // namespace

TEST(Snapshot, RoundTripIsBitExact)
{
    ScopedPath path("roundtrip");

    CampaignSnapshot snap;
    snap.configHash = 0xdeadbeefcafef00dULL;
    ShardRecord a;
    a.ordinal = 0;
    a.cell = 3;
    a.maskedCount = 7;
    a.trials = 12;
    a.samples = {{0.1, true}, {1e-300, false}, {0.0, true}};
    ShardRecord b;
    b.ordinal = 5;
    b.cell = 9;
    b.maskedCount = 0;
    b.trials = 4;
    snap.shards = {a, b};

    writeSnapshot(path.str(), snap);
    EXPECT_TRUE(snapshotExists(path.str()));

    CampaignSnapshot got = readSnapshot(path.str());
    EXPECT_EQ(got.configHash, snap.configHash);
    ASSERT_EQ(got.shards.size(), 2u);
    EXPECT_EQ(got.shards[0].ordinal, 0u);
    EXPECT_EQ(got.shards[0].cell, 3u);
    EXPECT_EQ(got.shards[0].maskedCount, 7u);
    EXPECT_EQ(got.shards[0].trials, 12u);
    ASSERT_EQ(got.shards[0].samples.size(), 3u);
    // Bit-exact doubles, including denormal-range values.
    EXPECT_EQ(got.shards[0].samples[0], (std::pair<double, bool>{0.1, true}));
    EXPECT_EQ(got.shards[0].samples[1],
              (std::pair<double, bool>{1e-300, false}));
    EXPECT_EQ(got.shards[1].ordinal, 5u);
    EXPECT_TRUE(got.shards[1].samples.empty());
}

TEST(Snapshot, RewriteReplacesAtomically)
{
    ScopedPath path("rewrite");

    CampaignSnapshot first;
    first.configHash = 1;
    writeSnapshot(path.str(), first);

    CampaignSnapshot second;
    second.configHash = 2;
    ShardRecord r;
    r.ordinal = 0;
    r.cell = 0;
    r.trials = 1;
    second.shards = {r};
    writeSnapshot(path.str(), second);

    CampaignSnapshot got = readSnapshot(path.str());
    EXPECT_EQ(got.configHash, 2u);
    EXPECT_EQ(got.shards.size(), 1u);
    // The temp file was renamed away, not left behind.
    EXPECT_FALSE(snapshotExists(path.str() + ".tmp"));
}

TEST(Snapshot, MissingFileProbesFalseAndReadFatals)
{
    ScopedPath path("missing");
    EXPECT_FALSE(snapshotExists(path.str()));
    EXPECT_DEATH((void)readSnapshot(path.str()), "cannot open");
}

TEST(Snapshot, ForeignFileIsRejected)
{
    ScopedPath path("foreign");
    {
        std::FILE *f = std::fopen(path.str().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("this is not a snapshot", f);
        std::fclose(f);
    }
    EXPECT_DEATH((void)readSnapshot(path.str()),
                 "not a fidelity campaign snapshot");
}

TEST(Checkpoint, StopAfterShardsReturnsPartial)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ScopedPath path("partial");

    CampaignConfig cfg = fixedConfig();
    cfg.checkpointPath = path.str();
    cfg.stopAfterShards = 6;
    CampaignResult partial = runCampaign(net, x, top1Metric(), cfg);

    EXPECT_FALSE(partial.complete);
    EXPECT_EQ(partial.totalInjections, 6u * 4u); // 6 shards of grain 4
    EXPECT_TRUE(snapshotExists(path.str()));

    CampaignSnapshot snap = readSnapshot(path.str());
    EXPECT_EQ(snap.shards.size(), 6u);
    EXPECT_EQ(snap.configHash, campaignConfigHash(net, x, cfg));
}

TEST(Checkpoint, CompleteSnapshotResumesWithoutExecuting)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ScopedPath path("complete");

    CampaignConfig cfg = fixedConfig();
    cfg.checkpointPath = path.str();
    CampaignResult whole = runCampaign(net, x, top1Metric(), cfg);
    ASSERT_TRUE(whole.complete);

    // Everything restores; with a 1-shard budget the run could not
    // have executed more than one shard, yet it completes.
    CampaignConfig resume = fixedConfig();
    resume.resumeFrom = path.str();
    resume.stopAfterShards = 1;
    CampaignResult res = runCampaign(net, x, top1Metric(), resume);
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(campaignChecksum(res), campaignChecksum(whole));
}

TEST(Checkpoint, ResumeRefusesForeignConfig)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ScopedPath path("mismatch");

    CampaignConfig cfg = fixedConfig();
    cfg.checkpointPath = path.str();
    cfg.stopAfterShards = 3;
    (void)runCampaign(net, x, top1Metric(), cfg);

    CampaignConfig other = fixedConfig();
    other.seed = cfg.seed + 1; // different sample identity
    other.resumeFrom = path.str();
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), other),
                 "config hash mismatch");
}

TEST(Checkpoint, MissingResumeFileStartsFresh)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ScopedPath path("fresh");

    CampaignConfig cfg = fixedConfig();
    cfg.resumeFrom = path.str(); // never written
    CampaignResult res = runCampaign(net, x, top1Metric(), cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(campaignChecksum(res),
              campaignChecksum(
                  runCampaign(net, x, top1Metric(), fixedConfig())));
}

TEST(Checkpoint, ConfigHashSeparatesSampleIdentities)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);

    CampaignConfig cfg = fixedConfig();
    const std::uint64_t base = campaignConfigHash(net, x, cfg);

    CampaignConfig seed = cfg;
    seed.seed += 1;
    EXPECT_NE(campaignConfigHash(net, x, seed), base);

    CampaignConfig grain = cfg;
    grain.shardGrain += 1;
    EXPECT_NE(campaignConfigHash(net, x, grain), base);

    CampaignConfig samples = cfg;
    samples.samplesPerCategory += 1;
    EXPECT_NE(campaignConfigHash(net, x, samples), base);

    // Performance-only knobs keep the identity.
    CampaignConfig perf = cfg;
    perf.numThreads = 8;
    perf.incremental = !perf.incremental;
    perf.progress = true;
    perf.stopAfterShards = 5;
    perf.checkpointEverySec = 0.0;
    EXPECT_EQ(campaignConfigHash(net, x, perf), base);

    // A different input means different outcomes: refuse.
    Tensor y = x;
    y[0] += 1.0f;
    EXPECT_NE(campaignConfigHash(net, y, cfg), base);

    // Adaptive knobs only matter in adaptive mode.
    CampaignConfig adaptive = cfg;
    adaptive.targetHalfWidth = 0.05;
    EXPECT_NE(campaignConfigHash(net, x, adaptive), base);
    CampaignConfig adaptive2 = adaptive;
    adaptive2.minSamples += 8;
    EXPECT_NE(campaignConfigHash(net, x, adaptive2),
              campaignConfigHash(net, x, adaptive));
}

// ----- Corrupt-snapshot matrix ------------------------------------
//
// Every exit from readSnapshot on malformed input must go through
// fatal() with the snapshot path named — never through std::bad_alloc
// on a multi-GB reserve() fed by a corrupt count, and never through a
// silent short read.

TEST(SnapshotCorruption, WriteReportsTheOnDiskByteCount)
{
    ScopedPath path("bytecount");
    const std::uint64_t bytes =
        writeSnapshot(path.str(), referenceSnapshot());
    EXPECT_EQ(bytes, slurp(path.str()).size());
}

TEST(SnapshotCorruption, ZeroLengthFileIsRejected)
{
    ScopedPath path("zerolen");
    writeFileBytes(path.str(), "");
    EXPECT_DEATH((void)readSnapshot(path.str()),
                 "not a fidelity campaign snapshot");
}

TEST(SnapshotCorruption, TruncatedAtEveryFieldBoundaryIsRejected)
{
    ScopedPath path("truncated");
    writeSnapshot(path.str(), referenceSnapshot());
    const std::string whole = slurp(path.str());
    ASSERT_GT(whole.size(), 24u);
    ASSERT_EQ(whole.size() % 8, 0u);

    // Every 8-byte field boundary short of the full file: the header
    // magic, configHash, shard count, each shard's five fixed fields,
    // and each sample's two words.
    for (std::size_t cut = 0; cut < whole.size(); cut += 8) {
        SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
        writeFileBytes(path.str(), whole.substr(0, cut));
        EXPECT_DEATH((void)readSnapshot(path.str()),
                     "snapshot|truncated|declares");
    }

    // A mid-field cut (not 8-aligned) must die too, not short-read.
    writeFileBytes(path.str(), whole.substr(0, whole.size() - 3));
    EXPECT_DEATH((void)readSnapshot(path.str()),
                 "snapshot|truncated|declares");
}

TEST(SnapshotCorruption, BitFlippedMagicIsRejected)
{
    ScopedPath path("bitflip");
    writeSnapshot(path.str(), referenceSnapshot());
    const std::string whole = slurp(path.str());

    for (std::size_t byte = 0; byte < 8; ++byte) {
        SCOPED_TRACE("magic byte " + std::to_string(byte));
        std::string bad = whole;
        bad[byte] = static_cast<char>(bad[byte] ^ 0x10);
        writeFileBytes(path.str(), bad);
        EXPECT_DEATH((void)readSnapshot(path.str()),
                     "not a fidelity campaign snapshot");
    }
}

TEST(SnapshotCorruption, AbsurdShardCountIsBoundedByFileSize)
{
    ScopedPath path("hugecount");
    writeSnapshot(path.str(), referenceSnapshot());
    std::string bad = slurp(path.str());

    // The shard count lives at bytes [16, 24).  A count that would
    // reserve() petabytes must die on the file-size bound instead.
    const std::uint64_t huge = 1ULL << 62;
    std::memcpy(&bad[16], &huge, sizeof(huge));
    writeFileBytes(path.str(), bad);
    EXPECT_DEATH((void)readSnapshot(path.str()),
                 "declares .* shards but holds only");
}

TEST(SnapshotCorruption, AbsurdSampleCountIsBoundedByFileSize)
{
    ScopedPath path("hugesamples");
    writeSnapshot(path.str(), referenceSnapshot());
    std::string bad = slurp(path.str());

    // Shard 0 (no samples): fixed part at [24, 64), its sample count
    // at [56, 64).  Also bump trials ([48, 56)) so the bound that
    // dies is the file-size one, not nsamples > trials.
    const std::uint64_t huge = 1ULL << 61;
    std::memcpy(&bad[48], &huge, sizeof(huge));
    std::memcpy(&bad[56], &huge, sizeof(huge));
    writeFileBytes(path.str(), bad);
    EXPECT_DEATH((void)readSnapshot(path.str()),
                 "declares .* samples in a shard with only");
}

TEST(SnapshotCorruption, MaskedAboveTrialsIsRejected)
{
    ScopedPath path("masked");
    writeSnapshot(path.str(), referenceSnapshot());
    std::string bad = slurp(path.str());

    // Shard 0 maskedCount at [40, 48); its trials are 4.
    const std::uint64_t absurd = 1000;
    std::memcpy(&bad[40], &absurd, sizeof(absurd));
    writeFileBytes(path.str(), bad);
    EXPECT_DEATH((void)readSnapshot(path.str()),
                 "maskedCount > trials");
}

// ----- Campaign config hardening ----------------------------------

TEST(CampaignConfigChecks, NegativeCheckpointCadenceIsFatal)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig cfg = fixedConfig();
    cfg.checkpointEverySec = -1.0;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), cfg),
                 "checkpointEverySec must be >= 0");
}

TEST(CampaignConfigChecks, HugeThrottleIntervalsSaturate)
{
    // checkpointEverySec * 1e9 used to be cast straight to int64 — UB
    // for anything >= 2^63 ns.  Saturation means "practically never",
    // and the campaign still completes with correct results; progress
    // lines stay on beside it.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ScopedPath path("saturate");

    CampaignConfig cfg = fixedConfig();
    cfg.progress = true;
    cfg.checkpointPath = path.str();
    cfg.checkpointEverySec = 1e300;
    CampaignResult res = runCampaign(net, x, top1Metric(), cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(campaignChecksum(res),
              campaignChecksum(
                  runCampaign(net, x, top1Metric(), fixedConfig())));
}
