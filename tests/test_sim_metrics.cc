/**
 * @file
 * The structured-reporting stack: deterministic JSON emission
 * (sim/json), the counter/timer/histogram instruments (sim/metrics),
 * and the campaign run manifest (core/manifest), including its
 * deterministic engine counters.  The "results" section's
 * byte-identity under every performance knob and across
 * kill-and-resume is test_bit_identity's.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "core/manifest.hh"
#include "sim/json.hh"
#include "sim/metrics.hh"
#include "test_util.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;
using namespace fidelity::test;

namespace
{

/** Drop every line holding a wall-time field (keys ending in `_s`). */
std::string
stripWallTimes(const std::string &doc)
{
    std::istringstream in(doc);
    std::string out, line;
    while (std::getline(in, line))
        if (line.find("_s\":") == std::string::npos)
            out += line + "\n";
    return out;
}

/** The unsigned integer value of `"key": N` in a rendered section;
 *  fails the current test when the key is absent. */
std::uint64_t
fieldU64(const std::string &section, const std::string &key)
{
    const std::string probe = "\"" + key + "\": ";
    const std::size_t at = section.find(probe);
    EXPECT_NE(at, std::string::npos) << key << " in " << section;
    if (at == std::string::npos)
        return 0;
    return std::stoull(section.substr(at + probe.size()));
}

CampaignConfig
smallConfig()
{
    CampaignConfig cfg;
    cfg.samplesPerCategory = 12;
    cfg.shardGrain = 4;
    cfg.seed = 23;
    return cfg;
}

} // namespace

// ----- sim/json ----------------------------------------------------

TEST(Json, EscapeCoversControlAndSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
    EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
    EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9"); // UTF-8 intact
}

TEST(Json, NumberIsShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(1.0), "1");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(-2.5), "-2.5");
    // 1/3 needs all 17 digits; the rendering must strtod back exactly.
    const double third = 1.0 / 3.0;
    EXPECT_EQ(std::strtod(jsonNumber(third).c_str(), nullptr), third);
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
}

TEST(Json, NonFiniteDoublesRenderAsNullEverywhere)
{
    // The shared rule: every double that reaches JSON output — writer
    // fields, array elements, FIT breakdowns, metric documents — is
    // clamped to null when non-finite, never emitted as bare nan/inf
    // (which is invalid JSON).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(jsonNumber(-inf), "null");

    JsonWriter w;
    w.beginObject();
    w.field("nan", nan);
    w.field("inf", inf);
    w.key("arr");
    w.beginArray();
    w.value(-inf);
    w.value(1.5);
    w.endArray();
    w.endObject();
    const std::string doc = w.str();
    EXPECT_NE(doc.find("\"nan\": null"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"inf\": null"), std::string::npos) << doc;
    EXPECT_NE(doc.find("null,\n    1.5"), std::string::npos) << doc;
}

TEST(Json, FitBreakdownWithZeroDivisionRendersValidJson)
{
    // A FIT breakdown whose inputs divided by zero must not poison
    // the manifest with bare nan.
    FitBreakdown fit;
    fit.datapath = std::numeric_limits<double>::quiet_NaN();
    fit.local = std::numeric_limits<double>::infinity();
    JsonWriter w;
    writeFitJson(w, fit);
    const std::string doc = w.str();
    EXPECT_NE(doc.find("\"datapath\": null"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"local\": null"), std::string::npos) << doc;
    EXPECT_EQ(doc.find("nan"), std::string::npos) << doc;
    EXPECT_EQ(doc.find("inf"), std::string::npos) << doc;
}

TEST(Metrics, WriteJsonClampsNonFiniteHistogramEdges)
{
    // Histogram edges are caller-supplied doubles; an open-ended +inf
    // edge must render as null, keeping the document parseable.
    MetricSet ms;
    ms.histogram("h", {1.0, std::numeric_limits<double>::infinity()})
        .add(2.0);
    JsonWriter w;
    ms.writeJson(w);
    const std::string doc = w.str();
    EXPECT_NE(doc.find("null"), std::string::npos) << doc;
    EXPECT_EQ(doc.find("inf"), std::string::npos) << doc;
}

TEST(Json, WriterRendersNestedDocumentsDeterministically)
{
    auto render = [] {
        JsonWriter w;
        w.beginObject();
        w.field("name", "x\"y");
        w.field("n", std::uint64_t{42});
        w.field("ok", true);
        w.key("inner");
        w.beginObject();
        w.field("p", 0.25);
        w.endObject();
        w.key("list");
        w.beginArray();
        w.value(1);
        w.value(2);
        w.endArray();
        w.endObject();
        return w.str();
    };
    const std::string doc = render();
    EXPECT_EQ(doc, render()); // same calls, same bytes
    EXPECT_NE(doc.find("\"name\": \"x\\\"y\""), std::string::npos);
    EXPECT_NE(doc.find("\"n\": 42"), std::string::npos);
    EXPECT_NE(doc.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(doc.find("\"p\": 0.25"), std::string::npos);
}

TEST(Json, LineBuilderRendersOneEscapedLine)
{
    const std::string line = JsonLineBuilder()
                                 .field("bench", "conv\"1")
                                 .field("gflops", 2.5)
                                 .field("iters", 10)
                                 .str();
    EXPECT_EQ(line,
              "  {\"bench\": \"conv\\\"1\", \"gflops\": 2.5, "
              "\"iters\": 10}");
}

TEST(Json, SectionExtractsBalancedTopLevelValues)
{
    JsonWriter w;
    w.beginObject();
    w.key("results");
    w.beginObject();
    w.field("brace", "}{\"");
    w.endObject();
    w.key("execution");
    w.beginObject();
    w.field("n", 1);
    w.endObject();
    w.endObject();
    const std::string doc = w.str();

    const std::string results = jsonSection(doc, "results");
    EXPECT_NE(results.find("\"brace\""), std::string::npos);
    EXPECT_EQ(results.find("execution"), std::string::npos);
    EXPECT_EQ(jsonSection(doc, "absent"), "");
}

TEST(Json, AtomicWriteReplacesWithoutLeavingTempFiles)
{
    ScopedPath path("atomic.json");
    atomicWriteFile(path.str(), "first");
    atomicWriteFile(path.str(), "second", /*sync_to_disk=*/true);
    EXPECT_EQ(slurp(path.str()), "second");
    std::ifstream tmp(path.str() + ".tmp");
    EXPECT_FALSE(tmp.good());
}

TEST(Json, AtomicWriteWritesThroughAFifo)
{
    // A report path naming a FIFO (or a device) is written in place:
    // the node stays a FIFO, and a reader drains the bytes from it.
    ScopedPath path("report.fifo");
    ASSERT_EQ(::mkfifo(path.str().c_str(), 0600), 0)
        << std::strerror(errno);
    const int rd = ::open(path.str().c_str(), O_RDONLY | O_NONBLOCK);
    ASSERT_GE(rd, 0) << std::strerror(errno);
    atomicWriteFile(path.str(), "through", /*sync_to_disk=*/true);

    struct stat st;
    ASSERT_EQ(::stat(path.str().c_str(), &st), 0);
    EXPECT_TRUE(S_ISFIFO(st.st_mode));
    char buf[16] = {};
    const ssize_t got = ::read(rd, buf, sizeof(buf));
    ::close(rd);
    EXPECT_EQ(std::string(buf, got > 0 ? got : 0), "through");
}

TEST(Json, MergeJsonLinesKeepsOtherBenchesAndReplacesOwn)
{
    ScopedPath path("bench.json");

    std::vector<std::string> a1 = {
        JsonLineBuilder().field("bench", "alpha").field("v", 1).str()};
    std::vector<std::string> b = {
        JsonLineBuilder().field("bench", "beta").field("v", 2).str()};
    std::vector<std::string> a2 = {
        JsonLineBuilder().field("bench", "alpha").field("v", 3).str(),
        JsonLineBuilder().field("bench", "alpha").field("v", 4).str()};

    mergeJsonLines(path.str(), "alpha", a1);
    mergeJsonLines(path.str(), "beta", b);
    mergeJsonLines(path.str(), "alpha", a2); // replaces a1, keeps beta

    const std::string doc = slurp(path.str());
    EXPECT_EQ(doc.find("\"v\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"v\": 2"), std::string::npos);
    EXPECT_NE(doc.find("\"v\": 3"), std::string::npos);
    EXPECT_NE(doc.find("\"v\": 4"), std::string::npos);
    EXPECT_EQ(doc.front(), '[');
    std::ifstream tmp(path.str() + ".tmp");
    EXPECT_FALSE(tmp.good());
}

// ----- sim/metrics -------------------------------------------------

TEST(Metrics, CounterAndTimerAccumulate)
{
    MetricSet m;
    m.counter("a").add();
    m.counter("a").add(4);
    EXPECT_EQ(m.counter("a").count(), 5u);

    m.timer("t").addNs(1500);
    m.timer("t").addNs(-10); // negative spans clamp to zero, still counted
    EXPECT_EQ(m.timer("t").ns(), 1500);
    EXPECT_EQ(m.timer("t").spans(), 2u);
    EXPECT_DOUBLE_EQ(m.timer("t").seconds(), 1.5e-6);
}

TEST(Metrics, ScopedTimerStopsOnce)
{
    Timer t;
    {
        ScopedTimer s(t);
        s.stop();
        s.stop(); // idempotent; destructor adds nothing more
    }
    EXPECT_EQ(t.spans(), 1u);
}

TEST(Metrics, HistogramBucketsIncludingOverflow)
{
    Histogram h({1.0, 10.0, 100.0});
    h.add(0.5);   // <= 1
    h.add(1.0);   // <= 1 (inclusive upper edge)
    h.add(5.0);   // <= 10
    h.add(1000.0); // overflow
    ASSERT_EQ(h.counts().size(), 4u);
    EXPECT_EQ(h.counts()[0], 2u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[2], 0u);
    EXPECT_EQ(h.counts()[3], 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Metrics, HistogramRejectsUnsortedEdgesAndShapeMismatch)
{
    EXPECT_DEATH(Histogram({1.0, 1.0}), "strictly increasing");
    MetricSet m;
    m.histogram("h", {1.0, 2.0});
    EXPECT_DEATH(m.histogram("h", {1.0, 3.0}), "different edges");
}

TEST(Metrics, MergeIsOrderIndependent)
{
    auto mkset = [](std::uint64_t c, std::int64_t ns, double hv) {
        MetricSet m;
        m.counter("c").add(c);
        m.timer("t").addNs(ns);
        m.histogram("h", {1.0, 2.0}).add(hv);
        return m;
    };
    MetricSet a = mkset(3, 100, 0.5);
    MetricSet b = mkset(7, 900, 1.5);
    MetricSet only_b;
    only_b.counter("solo").add(2);

    MetricSet ab;
    ab.mergeFrom(a);
    ab.mergeFrom(b);
    ab.mergeFrom(only_b);
    MetricSet ba;
    ba.mergeFrom(only_b);
    ba.mergeFrom(b);
    ba.mergeFrom(a);

    auto json = [](const MetricSet &m) {
        JsonWriter w;
        m.writeJson(w);
        return w.str();
    };
    EXPECT_EQ(json(ab), json(ba));
    EXPECT_EQ(ab.counter("c").count(), 10u);
    EXPECT_EQ(ab.counter("solo").count(), 2u);
    EXPECT_EQ(ab.timer("t").ns(), 1000);
    EXPECT_EQ(ab.timer("t").spans(), 2u);
    EXPECT_EQ(ab.histogram("h", {1.0, 2.0}).total(), 2u);
}

TEST(Metrics, WriteJsonIsSortedAndTyped)
{
    MetricSet m;
    m.counter("zeta").add(1);
    m.counter("alpha").add(2);
    m.timer("beta").addNs(2'000'000'000);
    m.histogram("gamma", {1.0}).add(0.5);

    JsonWriter w;
    m.writeJson(w);
    const std::string doc = w.str();
    // Sorted flat keys: alpha < beta_s < beta_spans < gamma < zeta.
    const auto alpha = doc.find("\"alpha\": 2");
    const auto beta = doc.find("\"beta_s\": 2");
    const auto spans = doc.find("\"beta_spans\": 1");
    const auto gamma = doc.find("\"gamma\"");
    const auto zeta = doc.find("\"zeta\": 1");
    ASSERT_NE(alpha, std::string::npos);
    ASSERT_NE(beta, std::string::npos);
    ASSERT_NE(spans, std::string::npos);
    ASSERT_NE(gamma, std::string::npos);
    ASSERT_NE(zeta, std::string::npos);
    EXPECT_LT(alpha, beta);
    EXPECT_LT(beta, spans);
    EXPECT_LT(spans, gamma);
    EXPECT_LT(gamma, zeta);
}

// ----- core/manifest -----------------------------------------------

TEST(Manifest, DocumentCarriesTheCampaignRecord)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ScopedPath report("manifest.json");

    CampaignConfig cfg = smallConfig();
    cfg.reportPath = report.str();
    CampaignResult res = runCampaign(net, x, top1Metric(), cfg);

    const std::string doc = slurp(report.str());
    EXPECT_NE(doc.find("fidelity-run-manifest-v1"), std::string::npos);
    EXPECT_NE(doc.find("\"schedule\": \"fixed\""), std::string::npos);
    EXPECT_NE(doc.find("\"seed\": 23"), std::string::npos);
    EXPECT_NE(doc.find("\"wilson_lo\""), std::string::npos);
    EXPECT_NE(doc.find("\"fit\""), std::string::npos);
    EXPECT_NE(doc.find("\"fit_global_protected\""), std::string::npos);
    EXPECT_NE(doc.find("\"simd_backend\""), std::string::npos);
    EXPECT_NE(doc.find("\"inject.masked\""), std::string::npos);
    EXPECT_NE(doc.find("\"phase.inject_s\""), std::string::npos);

    // The declared injection total matches the result.
    EXPECT_NE(doc.find("\"total_injections\": " +
                       std::to_string(res.totalInjections)),
              std::string::npos);

    // Every (layer, category) cell appears in the table.
    std::size_t cells = 0;
    for (std::size_t at = doc.find("\"category\"");
         at != std::string::npos; at = doc.find("\"category\"", at + 1))
        ++cells;
    EXPECT_EQ(cells, res.cells.size());
}

TEST(Manifest, EngineTotalsAreIdenticalAcrossThreadCounts)
{
    // With the result cache off (a live shared table hits in
    // scheduling order), the campaign-wide engine and batched totals
    // are a pure function of the shard plan, whichever worker slot ran
    // each pooled group.  Each cell's 3 shards of 4 form one group,
    // whose 12 draws fill at most 2 batches of 8 lanes; batching shard
    // by shard would walk up to 3.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ASSERT_EQ(kPoolDraws % smallConfig().shardGrain, 0);
    ASSERT_GE(kPoolDraws, smallConfig().samplesPerCategory);

    std::string want_engine, want_batched;
    for (int threads : {1, 4, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ScopedPath report("manifest_t" + std::to_string(threads) +
                          ".json");
        CampaignConfig cfg = smallConfig();
        cfg.numThreads = threads;
        cfg.resultCacheEnabled = false;
        cfg.reportPath = report.str();
        const CampaignResult res = runCampaign(net, x, top1Metric(), cfg);
        const std::uint64_t sampled_cells =
            res.cells.size() - net.macNodes().size();

        const std::string exec =
            jsonSection(slurp(report.str()), "execution");
        const std::string engine = jsonSection(exec, "engine");
        const std::string batched = jsonSection(exec, "batched");
        ASSERT_FALSE(engine.empty());
        ASSERT_FALSE(batched.empty());
        EXPECT_EQ(batched.find("\"batches\": 0,"), std::string::npos)
            << batched;
        EXPECT_LE(fieldU64(batched, "batches"), 2 * sampled_cells);
        if (want_engine.empty()) {
            want_engine = engine;
            want_batched = batched;
        } else {
            EXPECT_EQ(engine, want_engine) << "engine totals diverged";
            EXPECT_EQ(batched, want_batched) << "batched totals diverged";
        }
    }
}

TEST(Manifest, BatchedRunReportsOnlyTheBatchedSection)
{
    // Above width 1 every worker's one engine runs 8-lane batches: the
    // `engine` section stays zero, `batched` reports width 8 whatever
    // width was asked for, and it seeds exactly the injections that
    // reach the engine — the runs of the same campaign at width 1.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    auto execution = [&](int width) {
        ScopedPath report("manifest_w" + std::to_string(width) + ".json");
        CampaignConfig cfg = smallConfig();
        cfg.batchWidth = width;
        cfg.resultCacheEnabled = false;
        cfg.reportPath = report.str();
        (void)runCampaign(net, x, top1Metric(), cfg);
        return jsonSection(slurp(report.str()), "execution");
    };
    const std::string one = jsonSection(execution(1), "engine");
    const std::uint64_t reached = fieldU64(one, "runs");
    ASSERT_GT(reached, 0u);

    for (int width : {3, 8}) {
        SCOPED_TRACE("width " + std::to_string(width));
        const std::string exec = execution(width);
        const std::string engine = jsonSection(exec, "engine");
        for (const char *key :
             {"runs", "early_masked", "layers_incremental", "layers_dense",
              "layers_skipped", "elements_recomputed"})
            EXPECT_EQ(fieldU64(engine, key), 0u) << key;
        const std::string batched = jsonSection(exec, "batched");
        EXPECT_EQ(fieldU64(batched, "width"), 8u);
        EXPECT_EQ(fieldU64(batched, "lanes_seeded"), reached);
        EXPECT_EQ(fieldU64(batched, "lanes_retired_early"),
                  fieldU64(one, "early_masked"));
    }
}

TEST(Manifest, PartialSliceManifestIsMarkedIncomplete)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ScopedPath ckpt("manifest_resume.ckpt");
    ScopedPath report("manifest_slice.json");
    CampaignConfig slice = smallConfig();
    slice.checkpointPath = ckpt.str();
    slice.stopAfterShards = 8;
    slice.reportPath = report.str();
    ASSERT_FALSE(runCampaign(net, x, top1Metric(), slice).complete);
    EXPECT_NE(slurp(report.str()).find("\"complete\": false"),
              std::string::npos);
}

TEST(Manifest, FullDocumentIsDeterministicModuloWallTimes)
{
    // At a fixed thread count with no checkpointing, two runs differ
    // only in wall-clock readings — and every wall-time key ends in
    // `_s`, so stripping those lines must leave identical bytes.
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);

    std::string first;
    for (int run = 0; run < 2; ++run) {
        ScopedPath report("manifest_det" + std::to_string(run) +
                          ".json");
        CampaignConfig cfg = smallConfig();
        cfg.reportPath = report.str();
        (void)runCampaign(net, x, top1Metric(), cfg);
        const std::string stripped =
            stripWallTimes(slurp(report.str()));
        if (run == 0)
            first = stripped;
        else
            EXPECT_EQ(stripped, first);
    }
}

TEST(Manifest, ResultCacheHitRateIsNullWithoutProbes)
{
    // 0 probes → 0/0 hit rate; the manifest must render null, not nan
    // (the satellite non-finite rule applied to a real producer).
    Network net = buildResNet(3);
    CampaignConfig cfg;
    CampaignResult res;
    res.network = net.name();
    CampaignTelemetry tel;
    tel.resultCache.enabled = true;
    tel.resultCache.replayComplete = true;

    const std::string doc = runManifestJson(net, cfg, 0, res, tel);
    const std::string rc =
        jsonSection(jsonSection(doc, "execution"), "result_cache");
    ASSERT_FALSE(rc.empty());
    EXPECT_NE(rc.find("\"hit_rate\": null"), std::string::npos) << rc;
    EXPECT_EQ(doc.find("nan"), std::string::npos);
}

TEST(Manifest, AdaptiveRunRecordsRoundHistory)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    ScopedPath report("manifest_adaptive.json");

    CampaignConfig cfg;
    cfg.targetHalfWidth = 0.12;
    cfg.confidenceZ = 1.96;
    cfg.minSamples = 8;
    cfg.maxSamplesPerCategory = 32;
    cfg.shardGrain = 8;
    cfg.seed = 23;
    cfg.reportPath = report.str();
    CampaignResult res = runCampaign(net, x, top1Metric(), cfg);

    const std::string doc = slurp(report.str());
    EXPECT_NE(doc.find("\"schedule\": \"adaptive\""), std::string::npos);
    EXPECT_NE(doc.find("\"target_half_width\": 0.12"),
              std::string::npos);
    std::size_t rounds = 0;
    for (std::size_t at = doc.find("\"shards_planned\"");
         at != std::string::npos;
         at = doc.find("\"shards_planned\"", at + 1))
        ++rounds;
    EXPECT_EQ(rounds, res.rounds);
}
