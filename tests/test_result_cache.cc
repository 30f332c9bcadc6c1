/**
 * @file
 * Tests of the fault-site result cache: the lock-free table itself
 * (integrity under collisions, eviction, and races) and the campaign
 * contract (shared tables, deterministic plan-replay counters).
 * Cache-on/cache-off bit-identity across threads, schedules and resume
 * is test_bit_identity's cache axis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hh"
#include "core/manifest.hh"
#include "sim/json.hh"
#include "sim/result_cache.hh"
#include "sim/rng.hh"
#include "test_util.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;
using namespace fidelity::test;

namespace
{

/** Payload derived from the fingerprint, so any probe can check that
 *  a hit returned the exact outcome stored under that key. */
CachedOutcome
parityOutcome(std::uint64_t fp)
{
    return CachedOutcome{(fp & 1) != 0, (fp & 2) != 0};
}

/**
 * Mirror of the table's bucket index mix (splitmix64 finaliser), used
 * to deliberately craft same-cluster keys — the adversarial-collision
 * case the XOR + tag integrity checks must survive.  Kept in sync with
 * result_cache.cc by the AdversarialSameClusterKeys test itself: if
 * the mixes diverge, the crafted keys stop colliding and the exact
 * hit/miss assertions below fail.
 */
std::uint64_t
mirrorMixIndex(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** First `n` fingerprints (from a counter) that land in shard 0,
 *  cluster 0 of a minimum-capacity table (one cluster per shard). */
std::vector<std::uint64_t>
sameClusterKeys(std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t fp = 1; keys.size() < n; ++fp) {
        const std::uint64_t mixed = mirrorMixIndex(fp);
        if ((mixed & (ResultCache::kShards - 1)) == 0)
            keys.push_back(fp);
    }
    return keys;
}

CampaignConfig
smallConfig()
{
    CampaignConfig cfg;
    cfg.samplesPerCategory = 16;
    cfg.shardGrain = 8;
    cfg.seed = 29;
    return cfg;
}

} // namespace

// ===== Table unit tests =============================================

TEST(ResultCache, MissOnEmptyThenRoundtrip)
{
    ResultCache cache(1 << 16);
    CachedOutcome out;
    EXPECT_FALSE(cache.probe(42, out));

    // Every payload combination survives a store/probe roundtrip.
    const std::uint64_t fps[] = {42, 43, 44, 45};
    for (int i = 0; i < 4; ++i)
        cache.store(fps[i], CachedOutcome{(i & 1) != 0, (i & 2) != 0});
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(cache.probe(fps[i], out)) << "fp " << fps[i];
        EXPECT_EQ(out.masked, (i & 1) != 0);
        EXPECT_EQ(out.earlyExit, (i & 2) != 0);
    }

    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 4u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 4u);
    EXPECT_EQ(s.evictions, 0u);
}

TEST(ResultCache, ZeroFingerprintIsStorable)
{
    // fp = 0 with a default outcome must still differ from an empty
    // slot (the valid bit, not the key, marks liveness).
    ResultCache cache(1 << 12);
    CachedOutcome out;
    EXPECT_FALSE(cache.probe(0, out));
    cache.store(0, CachedOutcome{false, false});
    ASSERT_TRUE(cache.probe(0, out));
    EXPECT_FALSE(out.masked);
    EXPECT_FALSE(out.earlyExit);
}

TEST(ResultCache, RefreshingAFingerprintIsNotAnEviction)
{
    ResultCache cache(1 << 12);
    cache.store(7, CachedOutcome{true, false});
    cache.store(7, CachedOutcome{true, false});
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.stores, 2u);
    EXPECT_EQ(s.evictions, 0u);
    CachedOutcome out;
    ASSERT_TRUE(cache.probe(7, out));
    EXPECT_TRUE(out.masked);
}

TEST(ResultCache, CapacityRoundingAndFloor)
{
    // Floor: one cluster per shard even for a degenerate request.
    EXPECT_EQ(ResultCache(0).entryCount(),
              ResultCache::kShards * ResultCache::kClusterEntries);
    // Exact power-of-two budget is used fully: 1 MiB / 16 B = 64Ki.
    ResultCache mb(1 << 20);
    EXPECT_EQ(mb.entryCount(), (1u << 20) / ResultCache::kEntryBytes);
    EXPECT_EQ(mb.capacityBytes(), std::size_t{1} << 20);
    // Non-power-of-two budgets round down, never up.
    EXPECT_LE(ResultCache(3 << 20).capacityBytes(),
              std::size_t{3} << 20);
    EXPECT_EQ(ResultCache(3 << 20).entryCount(),
              (2u << 20) / ResultCache::kEntryBytes);
}

TEST(ResultCache, AdversarialSameClusterKeys)
{
    // Six keys deliberately crafted to collide into one 4-entry
    // cluster of a minimum-capacity table.  Integrity: a probe may
    // miss, but a hit must return the payload stored under exactly
    // that key.
    std::vector<std::uint64_t> keys = sameClusterKeys(6);
    ResultCache cache(0); // floor capacity: one cluster per shard
    for (std::uint64_t fp : keys)
        cache.store(fp, parityOutcome(fp));

    // Same generation everywhere, so the eviction tie-break is the
    // lowest slot index: store #5 displaces keys[0], store #6
    // displaces keys[4] (which took slot 0).
    CachedOutcome out;
    EXPECT_FALSE(cache.probe(keys[0], out));
    EXPECT_FALSE(cache.probe(keys[4], out));
    for (std::size_t i : {std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{5}}) {
        ASSERT_TRUE(cache.probe(keys[i], out)) << "key " << i;
        EXPECT_EQ(out.masked, parityOutcome(keys[i]).masked);
        EXPECT_EQ(out.earlyExit, parityOutcome(keys[i]).earlyExit);
    }
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ResultCache, GenerationEvictionPrefersOldEntries)
{
    std::vector<std::uint64_t> keys = sameClusterKeys(6);
    ResultCache cache(0);
    for (std::size_t i = 0; i < 4; ++i) // fill the cluster, gen g
        cache.store(keys[i], parityOutcome(keys[i]));

    cache.newGeneration();
    cache.store(keys[4], parityOutcome(keys[4])); // evicts keys[0]
    cache.store(keys[5], parityOutcome(keys[5]));

    // Without the generation stamp the second store would displace
    // keys[4] (slot 0 again, as in AdversarialSameClusterKeys); with
    // it, the oldest-generation entry keys[1] goes instead.
    CachedOutcome out;
    EXPECT_TRUE(cache.probe(keys[4], out));
    EXPECT_TRUE(cache.probe(keys[5], out));
    EXPECT_FALSE(cache.probe(keys[0], out));
    EXPECT_FALSE(cache.probe(keys[1], out));
    EXPECT_TRUE(cache.probe(keys[2], out));
    EXPECT_TRUE(cache.probe(keys[3], out));
}

TEST(ResultCache, EvictionUnderPressureKeepsIntegrity)
{
    // Hammer a 64-entry table with 10k random keys: most stores evict,
    // and every later hit must still return its own payload.
    ResultCache cache(0);
    Rng rng(99);
    std::vector<std::uint64_t> fps;
    for (int i = 0; i < 10000; ++i)
        fps.push_back(rng.next64());

    for (std::uint64_t fp : fps)
        cache.store(fp, parityOutcome(fp));

    std::uint64_t hits = 0;
    for (std::uint64_t fp : fps) {
        CachedOutcome out;
        if (!cache.probe(fp, out))
            continue;
        ++hits;
        EXPECT_EQ(out.masked, parityOutcome(fp).masked);
        EXPECT_EQ(out.earlyExit, parityOutcome(fp).earlyExit);
    }
    EXPECT_LE(hits, cache.entryCount());
    EXPECT_GT(hits, 0u);
    ResultCacheStats s = cache.stats();
    EXPECT_GT(s.evictions, 9000u);
    EXPECT_EQ(s.hits, hits);
    EXPECT_EQ(s.hits + s.misses, fps.size());
}

TEST(ResultCache, ConcurrentStoreProbeNeverReturnsForeignPayload)
{
    // The lock-free contract under TSan and ASan in CI: concurrent
    // stores and probes over one small (high-collision) table; a torn
    // read may only miss, never surface another key's outcome.
    ResultCache cache(1 << 10);
    std::vector<std::thread> threads;
    std::atomic<std::uint64_t> bad{0};
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&cache, &bad, t] {
            Rng rng(1000 + t % 2); // overlapping key streams by design
            for (int i = 0; i < 20000; ++i) {
                std::uint64_t fp = rng.next64();
                CachedOutcome out;
                if (cache.probe(fp, out)) {
                    CachedOutcome want = parityOutcome(fp);
                    if (out.masked != want.masked ||
                        out.earlyExit != want.earlyExit)
                        bad.fetch_add(1);
                }
                cache.store(fp, parityOutcome(fp));
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(bad.load(), 0u);
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, 80000u);
    EXPECT_EQ(s.stores, 80000u);
}

// ===== Fingerprint + injector tests =================================

TEST(ResultCacheFingerprint, ContextSeparatesInputsAndSalts)
{
    Network net = buildResNet(3);
    Tensor a = defaultInputFor("resnet", 4);
    Tensor b = defaultInputFor("resnet", 5); // different input bits
    NvdlaConfig accel;
    ResultCache cache(1 << 12);

    Injector ia(net, a, accel);
    ia.attachResultCache(&cache);
    Injector ib(net, b, accel);
    ib.attachResultCache(&cache);
    const std::uint64_t ctx_a = ia.resultCacheContext();
    EXPECT_NE(ctx_a, 0u);
    EXPECT_NE(ctx_a, ib.resultCacheContext());

    // Same input, different salt (stand-in for a different metric).
    ia.attachResultCache(&cache, 1);
    EXPECT_NE(ia.resultCacheContext(), ctx_a);

    // Deterministic: re-attaching reproduces the digest.
    ia.attachResultCache(&cache, 0);
    EXPECT_EQ(ia.resultCacheContext(), ctx_a);

    // Detaching clears it.
    ia.attachResultCache(nullptr);
    EXPECT_EQ(ia.resultCacheContext(), 0u);
}

TEST(ResultCacheFingerprint, RecordsCarryDistinctFingerprints)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    NvdlaConfig accel;
    Injector inj(net, x, accel);
    ResultCache cache(1 << 16);
    inj.attachResultCache(&cache);

    std::vector<std::uint64_t> fps;
    Rng rng(7);
    NodeId node = net.macNodes().front();
    for (int i = 0; i < 40; ++i) {
        InjectionRecord rec = inj.inject(node, FFCategory::OutputPsum,
                                         top1Metric(), rng);
        if (rec.cacheEligible)
            fps.push_back(rec.fingerprint);
    }
    ASSERT_GT(fps.size(), 10u);

    // Replaying the same rng stream reproduces the same fingerprints
    // (and now hits), while distinct faults get distinct fingerprints.
    Rng replay(7);
    std::size_t idx = 0;
    for (int i = 0; i < 40; ++i) {
        InjectionRecord rec = inj.inject(node, FFCategory::OutputPsum,
                                         top1Metric(), replay);
        if (rec.cacheEligible) {
            EXPECT_EQ(rec.fingerprint, fps[idx++]);
            EXPECT_TRUE(rec.cacheHit);
        }
    }
    std::vector<std::uint64_t> uniq = fps;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    EXPECT_GT(uniq.size(), fps.size() / 2);
}

// ===== Campaign contract tests ======================================

TEST(ResultCacheCampaign, ConfigHashIgnoresCacheKnobs)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig on = smallConfig();
    CampaignConfig off = smallConfig();
    off.resultCacheEnabled = false;
    CampaignConfig tiny = smallConfig();
    tiny.resultCacheMB = 1;
    tiny.resultCacheSalt = 123;

    const std::uint64_t h = campaignConfigHash(net, x, on);
    EXPECT_EQ(h, campaignConfigHash(net, x, off));
    EXPECT_EQ(h, campaignConfigHash(net, x, tiny));
}

TEST(ResultCacheCampaign, SharedTableWarmRunHitsAndStaysBitIdentical)
{
    // The cross-campaign service case: the same request twice against
    // one shared table.  The repeat run must hit heavily and still
    // produce the bit-identical result.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig cfg = smallConfig();
    cfg.resultCache = std::make_shared<ResultCache>(8u << 20);

    CampaignResult cold = runCampaign(net, x, top1Metric(), cfg);
    const ResultCacheStats after_cold = cfg.resultCache->stats();
    CampaignResult warm = runCampaign(net, x, top1Metric(), cfg);
    const ResultCacheStats after_warm = cfg.resultCache->stats();

    EXPECT_EQ(campaignChecksum(cold), campaignChecksum(warm));
    const std::uint64_t warm_hits = after_warm.hits - after_cold.hits;
    const std::uint64_t warm_misses =
        after_warm.misses - after_cold.misses;
    // Every eligible injection of the warm run was already evaluated.
    EXPECT_GT(warm_hits, 0u);
    EXPECT_EQ(warm_misses, 0u);
}

TEST(ResultCacheCampaign, SharedTableNeverLeaksAcrossInputs)
{
    // A different input digest must never be served by entries of the
    // first run: the second campaign's result must equal its own
    // cache-off reference bit for bit.
    Network net = buildResNet(3);
    Tensor a = defaultInputFor("resnet", 4);
    Tensor b = defaultInputFor("resnet", 5);

    CampaignConfig off = smallConfig();
    off.resultCacheEnabled = false;
    const std::uint64_t want_b =
        campaignChecksum(runCampaign(net, b, top1Metric(), off));

    CampaignConfig shared = smallConfig();
    shared.resultCache = std::make_shared<ResultCache>(8u << 20);
    runCampaign(net, a, top1Metric(), shared); // fills the table
    CampaignResult res_b = runCampaign(net, b, top1Metric(), shared);
    EXPECT_EQ(campaignChecksum(res_b), want_b);
}

TEST(ResultCacheCampaign, TinyTableEvictsAndStaysBitIdentical)
{
    // Eviction under pressure: a floor-capacity (64-entry) shared
    // table forces constant displacement, which may cost hits but can
    // never change an outcome.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);

    CampaignConfig off = smallConfig();
    off.resultCacheEnabled = false;
    const std::uint64_t want =
        campaignChecksum(runCampaign(net, x, top1Metric(), off));

    CampaignConfig tiny = smallConfig();
    tiny.numThreads = 4;
    tiny.resultCache = std::make_shared<ResultCache>(0);
    CampaignResult res = runCampaign(net, x, top1Metric(), tiny);
    EXPECT_EQ(campaignChecksum(res), want);
    EXPECT_GT(tiny.resultCache->stats().evictions, 0u);
}

TEST(ResultCacheCampaign, ResumedManifestDeclaresThePlanReplayPartial)
{
    // Restored shards carry no fingerprint log (fingerprints are not
    // journaled), so the manifest of a resumed cache-on run must say
    // its plan replay is partial.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ScopedPath snap("result_cache_resume.ckpt");
    ScopedPath report("result_cache_resume.json");

    CampaignConfig cfg = smallConfig();
    cfg.checkpointPath = snap.str();
    cfg.resumeFrom = snap.str();
    cfg.stopAfterShards = 5;
    ASSERT_FALSE(runCampaign(net, x, top1Metric(), cfg).complete);

    cfg.stopAfterShards = 0;
    cfg.reportPath = report.str();
    ASSERT_TRUE(runCampaign(net, x, top1Metric(), cfg).complete);

    const std::string exec = jsonSection(slurp(report.str()), "execution");
    const std::string rc = jsonSection(exec, "result_cache");
    ASSERT_FALSE(rc.empty());
    const std::string replay = jsonSection(rc, "plan_replay");
    EXPECT_NE(replay.find("\"complete\": false"), std::string::npos)
        << replay;
}

TEST(ResultCacheCampaign, ManifestReplayCountersInvariantAcrossThreads)
{
    // The acceptance gate: the manifest's cache counters must be
    // byte-identical across thread counts, even though the live
    // shared-table interleaving is not.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);

    std::string ref;
    for (int threads : {1, 4, 8}) {
        ScopedPath report("result_cache_manifest_" +
                          std::to_string(threads) + ".json");
        CampaignConfig cfg = smallConfig();
        cfg.numThreads = threads;
        cfg.reportPath = report.str();
        runCampaign(net, x, top1Metric(), cfg);

        const std::string exec =
            jsonSection(slurp(report.str()), "execution");
        const std::string rc = jsonSection(exec, "result_cache");
        ASSERT_FALSE(rc.empty()) << threads << " threads";
        EXPECT_NE(jsonSection(rc, "plan_replay").find(
                      "\"complete\": true"),
                  std::string::npos);
        if (ref.empty())
            ref = rc;
        else
            EXPECT_EQ(rc, ref) << threads << " threads";
    }
}
