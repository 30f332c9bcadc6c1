/**
 * @file
 * The bit-identity oracle (DESIGN.md §6.1): one seeded property test
 * for the contract every performance path of the campaign engine
 * makes.  Each case draws a workload and a vector of performance knobs
 * and must reproduce the workload's reference run (1 thread, dense
 * engine, batchWidth 1, no result cache, scalar kernels) bit for bit:
 * campaignChecksum and the manifest "results" bytes.  A failing case
 * is shrunk one knob at a time and printed as a line that pastes into
 * kPinnedCases below.
 *
 * Tier-1 case seeds are constants; a deeper sweep mixes gtest's seed
 * flag into them, with a fresh draw for every repetition:
 *
 *   ./tests/test_bit_identity --gtest_random_seed=7 --gtest_repeat=50
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/campaign.hh"
#include "sim/checkpoint.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/result_cache.hh"
#include "sim/rng.hh"
#include "simd/simd.hh"
#include "test_util.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;
using namespace fidelity::test;

namespace
{

/**
 * Performance knobs of one campaign run.  Every default is the
 * reference value, so a designated initializer names only the knobs
 * that differ from the reference.
 */
struct Knobs
{
    int threads = 1; //!< numThreads; 0 = every hardware thread

    /** 0: dense engine; w in [1, 8]: incremental engine at
     *  batchWidth w. */
    int engine = 0;

    /** "off"; "private": a table of the run's own; "warm": one table
     *  shared by every run of the case and filled beforehand by a
     *  cache-on run of the same campaign, so nearly every lookup hits;
     *  "tiny": one floor-capacity table shared by every run of the
     *  case, so it evicts constantly. */
    std::string cache = "off";

    std::string backend = "scalar"; //!< simd::forceBackend name

    /** stopAfterShards of this slice; 0 runs to completion. */
    std::uint64_t stop = 0;
};

struct Case
{
    std::string net = "resnet"; //!< resnet, mobilenet, transformer, branchy
    Precision precision = Precision::FP32;
    bool adaptive = false;
    std::uint64_t seed = 1;

    /** shardGrain; with `samples` part of the sample identity. */
    int grain = 2;

    /** samplesPerCategory of a fixed schedule; an adaptive one draws
     *  samples / 2 per cell in its first round and at most 2 * samples
     *  in all. */
    int samples = 4;

    /** Fixed schedules: execute the plan as this many
     *  FixedShardExecutor ranges, out of order, under the last
     *  slice's knobs, and merge them through resumeSnapshot. */
    int split = 0;

    /** The stop/resume chain: each slice resumes the previous one's
     *  checkpoint; all but the last stop early. */
    std::vector<Knobs> slices{Knobs{}};
};

/**
 * Cases every run checks: the shrunk repro lines of bugs the oracle
 * finds, and knob combinations worth checking whatever the draws hit.
 * A backend the host lacks runs as "scalar".
 */
const std::vector<Case> kPinnedCases = {
    // Resume at a different batch width than the interrupted run.
    {.net = "resnet", .precision = Precision::FP16, .seed = 17,
     .slices = {{.threads = 4, .engine = 8, .cache = "tiny", .stop = 6},
                {.threads = 4, .engine = 1}}},
    // Every hardware thread on the lane engine, all cache hits.
    {.net = "mobilenet", .precision = Precision::FP32, .adaptive = true,
     .seed = 5, .slices = {{.threads = 0, .engine = 8, .cache = "warm"}}},
    // Worker ranges on the AVX2 integer kernels.
    {.net = "branchy", .precision = Precision::INT8, .seed = 7,
     .split = 3,
     .slices = {{.engine = 5, .cache = "private", .backend = "avx2"}}},
    // The transformer's row cones on the lane kernels (FC, softmax and
    // matmul with golden and dirty B lanes) and at width 1.
    {.net = "transformer", .precision = Precision::INT8, .seed = 11,
     .slices = {{.threads = 2, .engine = 8, .backend = "avx2"}}},
    {.net = "transformer", .precision = Precision::FP16, .adaptive = true,
     .seed = 13, .slices = {{.engine = 1, .cache = "private"}}},
    // The column-blocked conv MAC rows on a 4-lane backend: W=8 runs
    // as two 4-lane chunks per column.
    {.net = "resnet", .precision = Precision::FP32, .seed = 19,
     .slices = {{.engine = 8, .backend = "sse2"}}},
    {.net = "mobilenet", .precision = Precision::FP16, .seed = 23,
     .slices = {{.engine = 8, .backend = "sse2"}}},
    // Pooled shard groups: cells of two groups (21 shards of 3, then
    // 2) ending in a ragged shard; the stop cuts a group of cell 1 and
    // the resume runs at another thread count.
    {.net = "branchy", .precision = Precision::FP16, .seed = 29,
     .grain = 3, .samples = 67,
     .slices = {{.threads = 1, .engine = 8, .stop = 30},
                {.threads = 4, .engine = 8}}},
    // Executor ranges that cut groups of 8 shards of 8 (cells of 9).
    {.net = "branchy", .precision = Precision::INT16, .seed = 31,
     .grain = 8, .samples = 70, .split = 4,
     .slices = {{.threads = 2, .engine = 8}}},
    // Adaptive rounds cut groups; ragged first-round slices at width 8.
    {.net = "transformer", .precision = Precision::INT8, .adaptive = true,
     .seed = 37, .grain = 3, .samples = 22,
     .slices = {{.threads = 2, .engine = 8}}},
};

const char *const kNets[] = {"resnet", "mobilenet", "transformer",
                             "branchy"};
const Precision kPrecisions[] = {Precision::FP32, Precision::FP16,
                                 Precision::INT16, Precision::INT8};

/** A network ready to inject, with its input and metric. */
struct Workload
{
    Network net;
    Tensor input;
    CorrectnessFn metric;
};

const Workload &
workload(const Case &c)
{
    static std::map<std::pair<std::string, Precision>,
                    std::unique_ptr<Workload>>
        memo;
    auto &slot = memo[{c.net, c.precision}];
    if (!slot) {
        const bool branchy = c.net == "branchy";
        slot = std::make_unique<Workload>(Workload{
            branchy ? makeBranchy(90) : buildNetwork(c.net, 3),
            branchy ? randomTensor(91, 1, 8, 8, 4)
                    : defaultInputFor(c.net, 4),
            c.net == "transformer" ? bleuMetric(0.10) : top1Metric()});
        slot->net.setPrecision(c.precision);
        if (c.precision == Precision::INT8 ||
            c.precision == Precision::INT16)
            slot->net.calibrate(slot->input);
    }
    return *slot;
}

/** The sample-identity part of a case's config: small on purpose. */
CampaignConfig
identityConfig(const Case &c)
{
    CampaignConfig cfg;
    cfg.seed = c.seed;
    cfg.shardGrain = c.grain;
    if (c.adaptive) {
        cfg.targetHalfWidth = 0.2;
        cfg.minSamples = std::max(1, c.samples / 2);
        cfg.maxSamplesPerCategory = 2 * c.samples;
    } else {
        cfg.samplesPerCategory = c.samples;
    }
    return cfg;
}

/** The result-cache tables the runs of one case share. */
struct SharedTables
{
    std::shared_ptr<ResultCache> warm;
    std::shared_ptr<ResultCache> tiny;
};

/** The case's config under knob vector `k`; forces k's backend (a
 *  backend the host lacks runs as scalar). */
CampaignConfig
configFor(const Case &c, const Knobs &k, const SharedTables &tables)
{
    CampaignConfig cfg = identityConfig(c);
    cfg.numThreads = k.threads;
    cfg.incremental = k.engine > 0;
    cfg.batchWidth = std::max(k.engine, 1);
    cfg.resultCacheEnabled = k.cache != "off";
    cfg.resultCacheMB = 1;
    if (k.cache == "warm")
        cfg.resultCache = tables.warm;
    if (k.cache == "tiny")
        cfg.resultCache = tables.tiny;
    cfg.stopAfterShards = k.stop;
    if (!simd::forceBackend(k.backend.c_str()))
        simd::forceBackend("scalar");
    return cfg;
}

/** What a workload's reference run produced. */
struct Reference
{
    std::uint64_t checksum = 0;
    std::uint64_t totalInjections = 0;
    std::uint64_t rounds = 0;
    std::string results; //!< the manifest "results" section
    std::vector<ShardRecord> journal; //!< every shard, in plan order
};

const Reference &
reference(const Case &c)
{
    static std::map<std::tuple<std::string, Precision, bool,
                               std::uint64_t, int, int>,
                    Reference>
        memo;
    auto key = std::make_tuple(c.net, c.precision, c.adaptive, c.seed,
                               c.grain, c.samples);
    auto it = memo.find(key);
    if (it != memo.end())
        return it->second;

    const Workload &w = workload(c);
    ScopedPath ckpt("oracle_ref.ckpt");
    ScopedPath report("oracle_ref.json");
    CampaignConfig cfg = configFor(c, Knobs{}, SharedTables{});
    cfg.checkpointPath = ckpt.str();
    cfg.reportPath = report.str();
    const CampaignResult res = runCampaign(w.net, w.input, w.metric, cfg);

    Reference ref;
    ref.checksum = campaignChecksum(res);
    ref.totalInjections = res.totalInjections;
    ref.rounds = res.rounds;
    ref.results = jsonSection(slurp(report.str()), "results");
    ref.journal = readSnapshot(ckpt.str()).shards;
    return memo.emplace(key, std::move(ref)).first->second;
}

bool
sameRecord(const ShardRecord &a, const ShardRecord &b)
{
    if (a.ordinal != b.ordinal || a.cell != b.cell ||
        a.maskedCount != b.maskedCount || a.trials != b.trials ||
        a.samples.size() != b.samples.size())
        return false;
    for (std::size_t i = 0; i < a.samples.size(); ++i)
        if (std::bit_cast<std::uint64_t>(a.samples[i].first) !=
                std::bit_cast<std::uint64_t>(b.samples[i].first) ||
            a.samples[i].second != b.samples[i].second)
            return false;
    return true;
}

/** Run one case; the first broken promise, or "" when it holds. */
std::string
checkCase(const Case &c)
{
    const Workload &w = workload(c);
    const Reference &ref = reference(c);
    SharedTables tables{std::make_shared<ResultCache>(1 << 20),
                        std::make_shared<ResultCache>(0)};
    if (std::any_of(c.slices.begin(), c.slices.end(),
                    [](const Knobs &k) { return k.cache == "warm"; })) {
        // The repeated request: fill the table with one cache-on run.
        const Knobs fill{.cache = "warm"};
        (void)runCampaign(w.net, w.input, w.metric,
                          configFor(c, fill, tables));
    }
    ScopedPath ckpt("oracle.ckpt");
    ScopedPath report("oracle.json");
    std::ostringstream why;

    CampaignResult res;
    if (c.split > 0) {
        CampaignConfig cfg = configFor(c, c.slices.back(), tables);
        FixedShardExecutor exec(w.net, w.input, w.metric, cfg);
        const std::uint64_t total = exec.planSize();
        auto snap = std::make_shared<CampaignSnapshot>();
        snap->configHash = campaignConfigHash(w.net, w.input, cfg);
        const auto n = static_cast<std::uint64_t>(c.split);
        for (std::uint64_t i = 0; i < n; ++i) {
            // Ranges run out of order: 1, 2, ..., n - 1, then 0.
            const std::uint64_t r = (i + 1) % n;
            const std::uint64_t first = total * r / n;
            const std::uint64_t count = total * (r + 1) / n - first;
            std::vector<ShardRecord> recs = exec.execute(first, count);
            for (std::uint64_t j = 0; j < count; ++j) {
                if (j >= recs.size() || recs[j].ordinal != first + j) {
                    why << "executor range [" << first << ", "
                        << first + count << ") returned "
                        << recs.size() << " records, record " << j
                        << " is not ordinal " << first + j;
                    return why.str();
                }
            }
            for (ShardRecord &rec : recs)
                snap->shards.push_back(std::move(rec));
        }
        cfg.resumeSnapshot = snap;
        cfg.reportPath = report.str();
        res = runCampaign(w.net, w.input, w.metric, cfg);
    } else {
        std::uint64_t cut = 0;
        for (std::size_t s = 0; s < c.slices.size(); ++s) {
            const Knobs &k = c.slices[s];
            CampaignConfig cfg = configFor(c, k, tables);
            if (c.slices.size() > 1)
                cfg.checkpointPath = cfg.resumeFrom = ckpt.str();
            if (s + 1 == c.slices.size())
                cfg.reportPath = report.str();
            res = runCampaign(w.net, w.input, w.metric, cfg);
            if (k.stop == 0)
                continue;
            cut += k.stop;
            if (res.complete) {
                why << "slice " << s << " completed before its stop";
                return why.str();
            }
            // A slice stopped after `cut` shards in all has journaled
            // exactly the reference's first `cut` shards.
            const std::vector<ShardRecord> got =
                readSnapshot(ckpt.str()).shards;
            const auto want = static_cast<std::size_t>(
                std::min<std::uint64_t>(cut, ref.journal.size()));
            if (got.size() != want ||
                !std::equal(got.begin(), got.end(), ref.journal.begin(),
                            sameRecord)) {
                why << "slice " << s << " journaled " << got.size()
                    << " shards, not the reference's first " << want;
                return why.str();
            }
        }
    }

    if (!res.complete)
        why << "incomplete; ";
    if (res.totalInjections != ref.totalInjections)
        why << "totalInjections " << res.totalInjections << " != "
            << ref.totalInjections << "; ";
    if (c.adaptive && res.rounds != ref.rounds)
        why << "rounds " << res.rounds << " != " << ref.rounds << "; ";
    if (campaignChecksum(res) != ref.checksum)
        why << "campaignChecksum differs; ";
    if (jsonSection(slurp(report.str()), "results") != ref.results)
        why << "manifest results differ; ";
    return why.str();
}

/** checkCase with fatal() turned into a reported failure, so a case
 *  that trips a config or resume check can still be shrunk. */
std::string
runCase(const Case &c)
{
    ScopedFatalCapture capture;
    try {
        return checkCase(c);
    } catch (const FatalError &e) {
        return std::string("fatal: ") + e.what();
    }
}

/** Every case one knob closer to the reference than `c`. */
std::vector<Case>
oneKnobResets(const Case &c)
{
    std::vector<Case> out;
    if (c.split > 0) {
        Case t = c;
        t.split = 0;
        out.push_back(t);
    }
    // Drop one stop of the chain: slices s and s + 1 become one,
    // under the knobs of either.
    for (std::size_t s = 0; s + 1 < c.slices.size(); ++s) {
        const std::uint64_t stop =
            c.slices[s + 1].stop > 0 ? c.slices[s].stop + c.slices[s + 1].stop
                                     : 0;
        for (std::size_t keep : {s, s + 1}) {
            Case t = c;
            t.slices[keep].stop = stop;
            t.slices.erase(t.slices.begin() +
                           static_cast<std::ptrdiff_t>(keep == s ? s + 1
                                                                 : s));
            out.push_back(t);
        }
    }
    const Knobs ref;
    for (std::size_t s = 0; s < c.slices.size(); ++s) {
        auto reset = [&](auto Knobs::*field) {
            if (c.slices[s].*field == ref.*field)
                return;
            Case t = c;
            t.slices[s].*field = ref.*field;
            out.push_back(t);
        };
        reset(&Knobs::threads);
        reset(&Knobs::engine);
        reset(&Knobs::cache);
        reset(&Knobs::backend);
    }
    return out;
}

/** Greedy shrink: take any one-knob reset that still fails, until
 *  none does.  `why` ends as the shrunk case's failure. */
Case
shrink(Case c, std::string &why)
{
    for (bool progress = true; progress;) {
        progress = false;
        for (const Case &t : oneKnobResets(c)) {
            std::string w = runCase(t);
            if (!w.empty()) {
                c = t;
                why = w;
                progress = true;
                break;
            }
        }
    }
    return c;
}

/** The case as a kPinnedCases entry; knobs at their reference value
 *  are omitted. */
std::string
repro(const Case &c)
{
    std::ostringstream o;
    o << "{.net = \"" << c.net << "\", .precision = Precision::"
      << precisionName(c.precision);
    if (c.adaptive)
        o << ", .adaptive = true";
    o << ", .seed = " << c.seed;
    const Case dflt;
    if (c.grain != dflt.grain)
        o << ", .grain = " << c.grain;
    if (c.samples != dflt.samples)
        o << ", .samples = " << c.samples;
    if (c.split > 0)
        o << ", .split = " << c.split;
    std::ostringstream slices;
    const Knobs ref;
    for (std::size_t i = 0; i < c.slices.size(); ++i) {
        const Knobs &k = c.slices[i];
        const char *sep = "";
        auto field = [&](const char *name, const auto &v, const auto &r,
                         const char *quote) {
            if (v == r)
                return;
            slices << sep << "." << name << " = " << quote << v << quote;
            sep = ", ";
        };
        slices << (i ? ", {" : "{");
        field("threads", k.threads, ref.threads, "");
        field("engine", k.engine, ref.engine, "");
        field("cache", k.cache, ref.cache, "\"");
        field("backend", k.backend, ref.backend, "\"");
        field("stop", k.stop, ref.stop, "");
        slices << "}";
    }
    if (slices.str() != "{}")
        o << ", .slices = {" << slices.str() << "}";
    o << "},";
    return o.str();
}

void
expectBitIdentical(const Case &c)
{
    std::string why = runCase(c);
    if (why.empty())
        return;
    const std::string first = why;
    const Case small = shrink(c, why);
    ADD_FAILURE() << "bit-identity broken: " << first
                  << "\n  case:   " << repro(c)
                  << "\n  shrunk: " << why
                  << "\n  pin it in kPinnedCases:\n    " << repro(small);
}

Knobs
drawKnobs(Rng &rng)
{
    static const int kThreads[] = {0, 1, 2, 4};
    static const char *const kCaches[] = {"off", "private", "warm",
                                           "tiny"};
    Knobs k;
    k.threads = kThreads[rng.below(4)];
    k.engine = rng.chance(0.25) ? 0 : 1 + static_cast<int>(rng.below(8));
    k.cache = kCaches[rng.below(4)];
    const std::vector<const char *> backends = availableBackends();
    k.backend = backends[rng.pick(backends)];
    return k;
}

/**
 * Case `index` of the sweep seeded by `base`.  The sweep cycles
 * through eight workloads that cover every network and precision
 * twice and every network under both schedules, with drawn campaign
 * seeds; each case draws its own knobs.
 */
Case
drawCase(std::uint64_t base, std::uint64_t index)
{
    const std::uint64_t w = index % 8;
    Case c;
    c.net = kNets[w % 4];
    c.precision = kPrecisions[(w + w / 4) % 4];
    c.adaptive = (w + w / 4) % 2 == 1;
    c.seed = 1 + Rng(base + w).below(1000);

    Rng rng(base ^ (index * 0x9e3779b97f4a7c15ull));

    // A grain the samples are no multiple of, so each cell ends in a
    // ragged shard.  Branchy is cheap enough for cells of more shards
    // than one pooled group holds; elsewhere a cell is one group.
    static const int kGrains[] = {1, 2, 3, 8};
    c.grain = kGrains[rng.below(4)];
    const int full = c.net == "branchy"
                         ? kPoolDraws / c.grain + 1 +
                               static_cast<int>(rng.below(4))
                         : 1 + static_cast<int>(rng.below(2));
    c.samples = full * c.grain +
                (c.grain > 1 ? 1 + static_cast<int>(rng.below(
                                       static_cast<std::uint32_t>(
                                           c.grain - 1)))
                             : 0);

    const auto shards = reference(c).journal.size();
    const int slices = 1 + static_cast<int>(rng.below(3));
    if (!c.adaptive && rng.chance(0.3)) {
        c.split = 2 + static_cast<int>(rng.below(3));
        c.slices = {drawKnobs(rng)};
        return c;
    }
    // Distinct cumulative stop points strictly inside the plan.
    std::vector<std::uint64_t> cuts;
    while (cuts.size() + 1 < static_cast<std::size_t>(slices) &&
           cuts.size() + 1 < shards) {
        const std::uint64_t at = 1 + rng.below(
            static_cast<std::uint32_t>(shards - 1));
        if (std::find(cuts.begin(), cuts.end(), at) == cuts.end())
            cuts.push_back(at);
    }
    std::sort(cuts.begin(), cuts.end());
    c.slices.clear();
    std::uint64_t prev = 0;
    for (std::uint64_t at : cuts) {
        c.slices.push_back(drawKnobs(rng));
        c.slices.back().stop = at - prev;
        prev = at;
    }
    c.slices.push_back(drawKnobs(rng));
    return c;
}

/** Drops any forced backend when a test ends. */
struct BackendReset
{
    ~BackendReset() { simd::forceBackend("auto"); }
};

} // namespace

TEST(BitIdentity, DrawnCasesReproduceTheReference)
{
    // gtest's seed flag (default 0) opens deeper sweeps; each
    // --gtest_repeat iteration then draws a fresh set.
    static std::uint64_t iteration = 0;
    const auto flag =
        static_cast<std::uint64_t>(::testing::GTEST_FLAG(random_seed));
    const std::uint64_t base =
        flag == 0 ? 0xb17d1e5ull
                  : Rng(flag * 0x100000001b3ull + iteration++).next64();
    BackendReset guard;
    for (std::uint64_t i = 0; i < 16; ++i) {
        const Case c = drawCase(base, i);
        SCOPED_TRACE(repro(c));
        expectBitIdentical(c);
    }
}

TEST(BitIdentity, PinnedCasesReproduceTheReference)
{
    BackendReset guard;
    for (const Case &c : kPinnedCases) {
        SCOPED_TRACE(repro(c));
        expectBitIdentical(c);
    }
}
