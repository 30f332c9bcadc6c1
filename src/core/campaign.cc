#include "core/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

#include "accel/nvdla_fi.hh"
#include "core/manifest.hh"
#include "nn/batched.hh"
#include "nn/conv.hh"
#include "nn/fc.hh"
#include "nn/matmul.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/thread_pool.hh"

namespace fidelity
{

EngineLayer
timingLayer(const Network &net, NodeId node,
            const std::vector<Tensor> &acts)
{
    const Layer &l = net.layer(node);
    auto ins = net.gatherInputs(node, acts);

    if (const auto *conv = dynamic_cast<const Conv2D *>(&l)) {
        const ConvSpec &spec = conv->spec();
        if (spec.groups == 1)
            return engineLayerFromConv(*conv, *ins[0]);
        // Grouped/depthwise: describe the geometry, overriding the
        // per-neuron reduction with the per-group depth.
        EngineLayer el;
        el.kind = EngineLayer::Kind::Conv;
        el.precision = conv->precision();
        el.inC = spec.inC;
        el.inH = ins[0]->h();
        el.inW = ins[0]->w();
        el.outC = spec.outC;
        el.outH = conv->outDim(ins[0]->h(), spec.kh);
        el.outW = conv->outDim(ins[0]->w(), spec.kw);
        el.kh = spec.kh;
        el.kw = spec.kw;
        el.stride = spec.stride;
        el.pad = spec.pad;
        el.dilation = spec.dilation;
        el.batch = ins[0]->n();
        el.weights = conv->weightData();
        el.bias = conv->biasData();
        el.redOverride = (spec.inC / spec.groups) * spec.kh * spec.kw;
        return el;
    }
    if (const auto *fc = dynamic_cast<const FC *>(&l))
        return engineLayerFromFC(*fc, *ins[0]);
    if (const auto *mm = dynamic_cast<const MatMulAB *>(&l))
        return engineLayerFromMatMul(*mm, *ins[0], *ins[1]);
    panic("node ", node, " is not a MAC layer");
}

std::uint64_t
campaignChecksum(const CampaignResult &res)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(res.totalInjections);
    for (const CellResult &cell : res.cells) {
        mix(cell.masked.successes());
        mix(cell.masked.trials());
    }
    for (const auto &[delta, failed] : res.singleNeuronSamples) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(delta));
        std::memcpy(&bits, &delta, sizeof(bits));
        mix(bits);
        mix(failed ? 1 : 0);
    }
    return h;
}

std::uint64_t
campaignConfigHash(const Network &net, const Tensor &input,
                   const CampaignConfig &cfg)
{
    const bool adaptive = cfg.targetHalfWidth > 0.0;
    HashMixer hm;
    hm.mix(std::string("fidelity-campaign-v1"));
    hm.mix(net.name());
    hm.mix(static_cast<std::uint64_t>(net.precision()));
    hm.mix(static_cast<std::uint64_t>(net.macNodes().size()));
    hm.mix(static_cast<std::uint64_t>(numFFCategories));
    hm.mix(cfg.seed);
    hm.mix(static_cast<std::uint64_t>(cfg.shardGrain));
    hm.mix(cfg.outputClampAbs);
    hm.mix(static_cast<std::uint64_t>(adaptive ? 1 : 0));
    if (adaptive) {
        hm.mix(cfg.targetHalfWidth);
        hm.mix(cfg.confidenceZ);
        hm.mix(static_cast<std::uint64_t>(cfg.minSamples));
        hm.mix(static_cast<std::uint64_t>(cfg.maxSamplesPerCategory));
    } else {
        hm.mix(static_cast<std::uint64_t>(cfg.samplesPerCategory));
    }
    hm.mix(static_cast<std::uint64_t>(input.n()));
    hm.mix(static_cast<std::uint64_t>(input.h()));
    hm.mix(static_cast<std::uint64_t>(input.w()));
    hm.mix(static_cast<std::uint64_t>(input.c()));
    for (float v : input.data())
        hm.mix(static_cast<double>(v));
    return hm.value();
}

namespace
{

/** Adaptive scheduling state of one (layer, category) cell. */
struct CellSched
{
    bool eligible = false; //!< draws samples (i.e. not GlobalControl)
    bool live = false;     //!< not yet retired
    std::uint64_t successes = 0; //!< masked count over merged rounds
    std::uint64_t trials = 0;

    /** Per-cell fork chain (adaptive mode): shard streams fork from
     *  here, so the cell's sample identity never depends on how long
     *  any *other* cell stays live. */
    Rng stream{0};
};

/**
 * Seconds to integer nanoseconds, saturating at the int64 range — a
 * throttle interval of 1e300 s must mean "practically never", not
 * undefined behaviour in the float-to-int cast.
 */
std::int64_t
secondsToNsSaturating(double seconds)
{
    if (!(seconds > 0.0))
        return 0;
    const double ns = seconds * 1e9;
    // 2^63 is exactly representable; anything >= it must clamp
    // (casting it would be UB).
    if (ns >= static_cast<double>(
                  std::numeric_limits<std::int64_t>::max()))
        return std::numeric_limits<std::int64_t>::max();
    return static_cast<std::int64_t>(ns);
}

/**
 * Everything one executor of shards owns exclusively: a pool worker
 * for the length of an in-process campaign, or a FixedShardExecutor
 * for its whole life.  The engine scratch (the sparse engine with
 * its lane planes, the record buffer injections land in) is reused
 * across every shard the owner runs, keeping the hot loop
 * allocation-free at steady state.  A slot lives exactly as long as
 * its owner, so the engine's cumulative totals are the owner's
 * totals.  Cache-line aligned so neighbouring pool slots cannot
 * false-share; accumulation never takes a lock.
 */
struct alignas(64) WorkerSlot
{
    std::uint64_t shards = 0;
    std::uint64_t injections = 0;
    MetricSet metrics;
    std::unique_ptr<BatchedEngine> engine; //!< made on first use
    std::vector<InjectionRecord> recs;
    std::vector<Rng> rngs; //!< a group's shard streams, advanced
    std::vector<Injector::ShardDraws> draws;

    /** The engine's totals; zero when the slot never needed one. */
    BatchedTotals
    totals() const
    {
        return engine ? engine->totals() : BatchedTotals{};
    }
};

/** |delta| buckets of the single-faulty-neuron perturbation histogram
 *  (Key result 5 magnitudes, log-decade bins). */
const std::vector<double> &
deltaHistogramEdges()
{
    static const std::vector<double> edges = {1e-8, 1e-6, 1e-4, 1e-2,
                                              1.0,  1e2,  1e4,  1e8};
    return edges;
}

/** Reject a config no campaign can run.  The one check behind
 *  runCampaign, fixedShardPlan and FixedShardExecutor. */
void
validateCampaignConfig(const Network &net, const CampaignConfig &cfg)
{
    fatal_if(net.macNodes().empty(), "network ", net.name(),
             " has no MAC layers");
    fatal_if(cfg.shardGrain <= 0, "campaign shardGrain must be > 0, got ",
             cfg.shardGrain);
    fatal_if(cfg.checkpointEverySec < 0.0,
             "campaign checkpointEverySec must be >= 0, got ",
             cfg.checkpointEverySec);
    fatal_if(cfg.targetHalfWidth < 0.0,
             "campaign targetHalfWidth must be >= 0, got ",
             cfg.targetHalfWidth);
    fatal_if(cfg.batchWidth < 1 || cfg.batchWidth > kMaxBatchLanes,
             "campaign batchWidth must be in [1, ", kMaxBatchLanes,
             "], got ", cfg.batchWidth);
    fatal_if(cfg.resultCacheEnabled && !cfg.resultCache &&
                 cfg.resultCacheMB <= 0,
             "campaign resultCacheMB must be > 0 when the result cache "
             "is enabled, got ", cfg.resultCacheMB);
    fatal_if(cfg.targetHalfWidth == 0.0 && cfg.samplesPerCategory <= 0,
             "campaign samplesPerCategory must be > 0 for a fixed "
             "schedule, got ", cfg.samplesPerCategory);
    if (cfg.targetHalfWidth > 0.0) {
        fatal_if(cfg.confidenceZ <= 0.0,
                 "campaign confidenceZ must be > 0, got ",
                 cfg.confidenceZ);
        fatal_if(cfg.minSamples <= 0,
                 "campaign minSamples must be > 0, got ", cfg.minSamples);
        fatal_if(cfg.maxSamplesPerCategory < cfg.minSamples,
                 "campaign maxSamplesPerCategory (",
                 cfg.maxSamplesPerCategory, ") must be >= minSamples (",
                 cfg.minSamples, ")");
    }
}

/**
 * Append one cell's `quota` samples to `plan` as shards of at most
 * `grain` samples, numbered from `ordinal` (advanced past them).  The
 * one slicing of both schedules: the fixed plan and every adaptive
 * round.
 */
void
appendCellShards(std::vector<ShardPlanEntry> &plan, std::uint64_t &ordinal,
                 std::uint64_t cell, NodeId node, FFCategory cat,
                 int quota, int grain)
{
    for (int s = 0; s < quota; s += grain) {
        ShardPlanEntry e;
        e.ordinal = ordinal++;
        e.cell = cell;
        e.node = node;
        e.category = cat;
        e.samples = std::min(grain, quota - s);
        plan.push_back(e);
    }
}

/**
 * Stream i of the fixed schedule is the i-th fork of the master seed.
 * The master is consumed only by these forks, in plan order, so the
 * faults a shard draws are a function of (seed, shardGrain,
 * samplesPerCategory) alone, in every process that executes it.
 */
std::vector<Rng>
fixedShardStreams(const CampaignConfig &cfg, std::size_t count)
{
    Rng master(cfg.seed);
    std::vector<Rng> streams;
    streams.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        streams.push_back(master.fork());
    return streams;
}

/**
 * The pooled groups of a round's work items `ids` (ascending indices
 * into `plan`, whose cells each own one contiguous run of shards): the
 * runs of consecutive indices that fall into one aligned block of
 * max(1, kPoolDraws / shardGrain) shards of their cell's run.  Returns
 * the position in `ids` where each group starts, plus ids.size().  A
 * pure function of the plan and `ids` — the range, stop and resume
 * holes cut groups, the thread count never does — so every engine
 * counter is thread-count-invariant.
 */
std::vector<std::size_t>
poolGroups(const std::vector<ShardPlanEntry> &plan,
           const std::vector<std::size_t> &ids, int shard_grain)
{
    const std::size_t per = static_cast<std::size_t>(
        std::max(1, kPoolDraws / shard_grain));
    std::vector<std::size_t> starts;
    std::size_t cell_first = 0; // index of the first shard of ids[j]'s cell
    for (std::size_t j = 0; j < ids.size(); ++j) {
        const std::size_t i = ids[j];
        while (cell_first < i && plan[cell_first].cell != plan[i].cell)
            ++cell_first;
        if (j == 0 || ids[j - 1] + 1 != i || (i - cell_first) % per == 0)
            starts.push_back(j);
    }
    starts.push_back(ids.size());
    return starts;
}

/**
 * The one shard path behind both the in-process fan-out and
 * FixedShardExecutor, so threads and worker processes cannot drift
 * apart.  Holds what every shard shares: the Injector (whose
 * construction runs the golden forward pass and warms the MAC layers'
 * precision-converted weight caches, a precondition of concurrent
 * inject calls), the config, and the attached result cache.
 * runGroup() is safe to call concurrently as long as each caller owns
 * its slot.
 *
 * The memo table cfg selects is attached before any inject: a
 * caller-supplied table, which extends the sharing across campaigns,
 * at construction, its generation bumped so the previous campaign's
 * entries age out first without being invalidated; a private table of
 * resultCacheMB when the first group runs (or a FixedShardExecutor is
 * built), so a campaign that executes nothing — a merge, a fully
 * restored resume — builds none.
 */
class ShardRunner
{
  public:
    ShardRunner(const Network &net, const Tensor &input,
                const CorrectnessFn &correct, const CampaignConfig &cfg)
        : correct_(correct), cfg_(cfg), injector_(net, input, cfg.accel)
    {
        if (cfg_.resultCacheEnabled && cfg_.resultCache)
            attach(cfg_.resultCache);
    }

    const Injector &injector() const { return injector_; }

    /** Build and attach the private table cfg selects, once; a no-op
     *  when the cache is off or the caller supplied the table. */
    void
    ensurePrivateCache()
    {
        if (cfg_.resultCacheEnabled && !cfg_.resultCache)
            std::call_once(privateCache_, [this] {
                attach(std::make_shared<ResultCache>(
                    static_cast<std::size_t>(cfg_.resultCacheMB) << 20));
            });
    }

    /**
     * Execute plan[first, first + count) — one group of poolGroups(),
     * consecutive shards of one cell — shard i drawing from a copy of
     * streams[i], through the engine cfg selects, into records[i -
     * first], and account them into the slot's counters.  Each record
     * is a pure function of its entry, its stream and the config's
     * sample identity, whatever group it ran in.  When `fingerprints`
     * is non-null, fingerprints[i - first] receives the fault-site
     * fingerprints of shard i's cache-eligible injections in sample
     * order.
     */
    void
    runGroup(const std::vector<ShardPlanEntry> &plan,
             const std::vector<Rng> &streams, std::size_t first,
             std::size_t count, WorkerSlot &slot, ShardRecord *records,
             std::vector<std::uint64_t> *fingerprints)
    {
        ensurePrivateCache();
        const auto group = std::span(plan).subspan(first, count);
        const ShardPlanEntry &head = group.front();
        std::size_t draws = 0;
        for (const ShardPlanEntry &e : group)
            draws += static_cast<std::size_t>(e.samples);

        // The group's draws land in slot.recs, shard after shard.
        slot.recs.resize(draws);
        slot.rngs.assign(streams.begin() + first,
                         streams.begin() + first + count);
        if (cfg_.incremental) {
            if (!slot.engine)
                slot.engine = makeBatchedEngine(cfg_.batchWidth);
            slot.draws.clear();
            std::size_t at = 0;
            for (std::size_t k = 0; k < count; ++k) {
                slot.draws.push_back(
                    {&slot.rngs[k], group[k].samples, &slot.recs[at]});
                at += static_cast<std::size_t>(group[k].samples);
            }
            injector_.injectBatch(head.node, head.category, correct_,
                                  slot.draws, cfg_.outputClampAbs,
                                  *slot.engine);
        } else {
            std::size_t at = 0;
            for (std::size_t k = 0; k < count; ++k)
                for (int s = 0; s < group[k].samples; ++s)
                    slot.recs[at++] = injector_.inject(
                        head.node, head.category, correct_, slot.rngs[k],
                        cfg_.outputClampAbs);
        }

        const InjectionRecord *rec = slot.recs.data();
        for (std::size_t k = 0; k < count; ++k) {
            const ShardPlanEntry &e = group[k];
            ShardRecord &r = records[k];
            r = ShardRecord{};
            r.ordinal = e.ordinal;
            r.cell = e.cell;
            for (int s = 0; s < e.samples; ++s, ++rec) {
                r.maskedCount += rec->masked ? 1 : 0;
                r.trials += 1;
                // Which probes hit is interleaving-dependent on a
                // shared table, so no live hit/miss counters here (the
                // manifest must stay deterministic); the fingerprint
                // log feeds the deterministic plan replay instead.
                if (fingerprints && rec->cacheEligible)
                    fingerprints[k].push_back(rec->fingerprint);
                slot.metrics
                    .counter(rec->masked ? "inject.masked"
                                         : "inject.unmasked")
                    .add();
                if (rec->numFaultyNeurons == 1 &&
                    isDatapathCategory(e.category)) {
                    r.samples.emplace_back(rec->maxAbsDelta, !rec->masked);
                    slot.metrics
                        .histogram("inject.abs_delta",
                                   deltaHistogramEdges())
                        .add(rec->maxAbsDelta);
                }
            }
            slot.shards += 1;
            slot.injections += r.trials;
        }
    }

  private:
    void
    attach(std::shared_ptr<ResultCache> cache)
    {
        cache_ = std::move(cache);
        cache_->newGeneration();
        injector_.attachResultCache(cache_.get(), cfg_.resultCacheSalt);
    }

    CorrectnessFn correct_;
    CampaignConfig cfg_;
    Injector injector_;
    std::shared_ptr<ResultCache> cache_;
    std::once_flag privateCache_;
};

} // namespace

std::vector<ShardPlanEntry>
fixedShardPlan(const Network &net, const CampaignConfig &cfg)
{
    fatal_if(cfg.targetHalfWidth > 0.0,
             "adaptive campaigns (targetHalfWidth > 0) have no static "
             "shard plan; only fixed schedules distribute");
    validateCampaignConfig(net, cfg);

    // Node-major cells in Table II category order (runCampaign's cell
    // table), GlobalControl ineligible, quotas sliced into shards of
    // at most shardGrain.
    std::vector<ShardPlanEntry> plan;
    std::uint64_t ordinal = 0;
    std::uint64_t cell = 0;
    for (NodeId node : net.macNodes()) {
        for (FFCategory cat : allFFCategories()) {
            if (cat != FFCategory::GlobalControl)
                appendCellShards(plan, ordinal, cell, node, cat,
                                 cfg.samplesPerCategory, cfg.shardGrain);
            ++cell;
        }
    }
    return plan;
}

/** The fixed plan, its streams and a shard runner with one slot:
 *  construction pays all of it once, the result-cache table included
 *  (an executor exists to run shards), so each execute() costs only
 *  its shards, run as the pooled groups the range cuts out of the
 *  plan. */
struct FixedShardExecutor::Impl
{
    Impl(const Network &net, const Tensor &input,
         const CorrectnessFn &correct, const CampaignConfig &cfg)
        : plan(fixedShardPlan(net, cfg)),
          streams(fixedShardStreams(cfg, plan.size())),
          shardGrain(cfg.shardGrain), runner(net, input, correct, cfg)
    {
        runner.ensurePrivateCache();
    }

    std::vector<ShardPlanEntry> plan;
    std::vector<Rng> streams;
    int shardGrain;
    ShardRunner runner;
    WorkerSlot slot;
};

FixedShardExecutor::FixedShardExecutor(const Network &net,
                                       const Tensor &input,
                                       const CorrectnessFn &correct,
                                       const CampaignConfig &cfg)
    : impl_(std::make_unique<Impl>(net, input, correct, cfg))
{
}

FixedShardExecutor::~FixedShardExecutor() = default;

std::uint64_t
FixedShardExecutor::planSize() const
{
    return impl_->plan.size();
}

std::vector<ShardRecord>
FixedShardExecutor::execute(std::uint64_t first, std::uint64_t count)
{
    Impl &im = *impl_;
    fatal_if(first > im.plan.size() || count > im.plan.size() - first,
             "shard range [", first, ", ", first + count,
             ") exceeds the ", im.plan.size(), "-shard plan");
    std::vector<std::size_t> ids(static_cast<std::size_t>(count));
    std::iota(ids.begin(), ids.end(), static_cast<std::size_t>(first));
    const std::vector<std::size_t> starts =
        poolGroups(im.plan, ids, im.shardGrain);
    std::vector<ShardRecord> records(ids.size());
    for (std::size_t g = 0; g + 1 < starts.size(); ++g)
        im.runner.runGroup(im.plan, im.streams, ids[starts[g]],
                           starts[g + 1] - starts[g], im.slot,
                           &records[starts[g]], nullptr);
    return records;
}

CampaignResult
runCampaign(const Network &net, const Tensor &input,
            const CorrectnessFn &correct, const CampaignConfig &cfg)
{
    auto wall_start = std::chrono::steady_clock::now();

    CampaignResult result;
    result.network = net.name();
    result.precision = net.precision();

    // Coordinator-side instruments.  Workers accumulate into private
    // WorkerSlots; everything is merged into the telemetry (and the
    // run manifest) after the fan-out.
    CampaignTelemetry tel;
    MetricSet coord_metrics;
    Timer &plan_timer = coord_metrics.timer("phase.plan");
    Timer &inject_timer = coord_metrics.timer("phase.inject");
    Timer &merge_timer = coord_metrics.timer("phase.merge");
    Timer &ckpt_timer = coord_metrics.timer("phase.checkpoint");
    Timer &fit_timer = coord_metrics.timer("phase.fit");
    ScopedTimer plan_scope(plan_timer); // setup + first plan

    validateCampaignConfig(net, cfg);
    const bool adaptive = cfg.targetHalfWidth > 0.0;
    ShardRunner runner(net, input, correct, cfg);

    // Cell table: node-major, Table II category order.  GlobalControl
    // cells never draw samples (Prob_SWmask(global, r) = 0 by
    // definition); every other cell is schedulable.
    const std::vector<NodeId> nodes = net.macNodes();
    const auto &cats = allFFCategories();
    std::vector<CellSched> sched;
    for (NodeId node : nodes) {
        for (FFCategory cat : cats) {
            CellResult cell;
            cell.node = node;
            cell.category = cat;
            CellSched cs;
            if (cat == FFCategory::GlobalControl) {
                cell.masked.add(0, 1);
            } else {
                cs.eligible = true;
                cs.live = true;
            }
            result.cells.push_back(std::move(cell));
            sched.push_back(cs);
        }
    }
    if (adaptive) {
        // The master stream is consumed once per eligible cell, in
        // cell order, before any scheduling decision — so each cell's
        // chain (and through it every one of its shard streams) is a
        // function of (seed, cell index) alone, never of which other
        // cells retired when, and never of the thread count.
        Rng master(cfg.seed);
        for (CellSched &cs : sched)
            if (cs.eligible)
                cs.stream = master.fork();
    }

    // ----- Resume --------------------------------------------------
    const std::uint64_t cfg_hash = campaignConfigHash(net, input, cfg);
    result.configHash = cfg_hash;
    std::map<std::uint64_t, ShardRecord> restored = loadResumeShards(
        cfg.resumeFrom, cfg.resumeSnapshot.get(), cfg_hash);
    if (cfg.progress && (!cfg.resumeFrom.empty() || cfg.resumeSnapshot))
        inform("campaign ", net.name(), ": resuming with ",
               restored.size(), " journaled shards");
    tel.resumed = !restored.empty();
    tel.restoredShards = restored.size();

    // ----- Execution -----------------------------------------------
    std::vector<ShardRecord> archive; //!< completed shards, plan order

    /** ordinal → fingerprint sequence of each shard executed by THIS
     *  process (not journaled, so restored shards are absent).  Feeds
     *  the deterministic plan replay after the merge. */
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> fp_log;
    std::uint64_t next_ordinal = 0;
    std::uint64_t executed_this_run = 0;
    bool stopped = false;

    std::atomic<std::uint64_t> injections_done{0};
    std::atomic<std::uint64_t> shards_done{0};
    // Progress/checkpoint throttles: one action at most per window,
    // claimed by CAS so exactly one worker acts per window.  Progress
    // lines come at most once a second.
    std::atomic<std::int64_t> last_log_ns{0};
    std::atomic<std::int64_t> last_ckpt_ns{0};
    std::mutex ckpt_mutex;
    constexpr std::int64_t log_period_ns = 1'000'000'000;
    const std::int64_t ckpt_period_ns =
        secondsToNsSaturating(cfg.checkpointEverySec);
    auto now_ns = [&wall_start] {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - wall_start)
            .count();
    };

    // The one snapshot writer: everything already archived (previous
    // rounds) plus the shards of `round` whose `done` flag is set.
    // Runs on a worker mid-round (throttled; `round` is the running
    // round) and on the submitting thread once the campaign ends
    // (`round` empty, `final_` set).  The mutex serialises writers and
    // guards the checkpoint telemetry they share; collecting under it
    // keeps a later snapshot from journaling fewer shards.
    auto writeCheckpoint = [&](const std::vector<ShardRecord> &round,
                               const std::vector<std::atomic<bool>> &done,
                               bool final_) {
        std::lock_guard<std::mutex> lock(ckpt_mutex);
        ScopedTimer span(ckpt_timer);
        CampaignSnapshot snap;
        snap.configHash = cfg_hash;
        snap.shards = archive;
        for (std::size_t i = 0; i < round.size(); ++i)
            if (done[i].load(std::memory_order_acquire))
                snap.shards.push_back(round[i]);
        CheckpointEvent ev;
        ev.shardsJournaled = snap.shards.size();
        ev.bytes = writeSnapshot(cfg.checkpointPath, snap);
        ev.atSeconds = static_cast<double>(now_ns()) * 1e-9;
        ev.final_ = final_;
        tel.checkpoints.push_back(ev);
        coord_metrics.counter("checkpoint.writes").add();
        coord_metrics.counter("checkpoint.bytes").add(ev.bytes);
    };

    ThreadPool pool(cfg.numThreads);
    // One slot per pool worker plus the reserved off-pool slot, so a
    // shard running on the submitting thread (or any foreign thread)
    // still accumulates into a private slot instead of aliasing
    // worker 0.
    std::vector<WorkerSlot> worker_slots(
        static_cast<std::size_t>(pool.slotCount()));

    // Execute one round of shards (plan[i] draws from streams[i]):
    // restore what the snapshot already holds, fan the remainder out
    // over the pool (honouring the stopAfterShards slice), and append
    // everything completed to the archive.  Returns true when the
    // slice limit cut the round short.
    auto executeRound = [&](const std::vector<ShardPlanEntry> &plan,
                            const std::vector<Rng> &streams) -> bool {
        const std::size_t n = plan.size();
        std::vector<ShardRecord> records(n);
        std::vector<std::vector<std::uint64_t>> fingerprints(n);
        std::vector<std::atomic<bool>> done(n);

        std::vector<std::size_t> pending;
        pending.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            auto it = restored.find(plan[i].ordinal);
            if (it == restored.end()) {
                pending.push_back(i);
                continue;
            }
            fatal_if(it->second.cell != plan[i].cell ||
                         it->second.trials !=
                             static_cast<std::uint64_t>(plan[i].samples),
                     "snapshot shard ", it->second.ordinal,
                     " does not match the replayed shard plan");
            records[i] = std::move(it->second);
            done[i].store(true, std::memory_order_relaxed);
        }

        bool stop_here = false;
        if (cfg.stopAfterShards > 0) {
            std::uint64_t left =
                cfg.stopAfterShards > executed_this_run
                    ? cfg.stopAfterShards - executed_this_run
                    : 0;
            if (pending.size() > left) {
                pending.resize(static_cast<std::size_t>(left));
                stop_here = true;
            }
        }

        // Fan out pooled groups, not shards: one worker runs a whole
        // group, so the engine batches its survivors together.
        const std::vector<std::size_t> starts =
            poolGroups(plan, pending, cfg.shardGrain);
        ScopedTimer inject_scope(inject_timer);
        pool.forEach(starts.size() - 1, [&](std::size_t g) {
            WorkerSlot &slot =
                worker_slots[static_cast<std::size_t>(pool.callerSlot())];
            const std::size_t first = pending[starts[g]];
            const std::size_t count = starts[g + 1] - starts[g];
            runner.runGroup(plan, streams, first, count, slot,
                            &records[first], &fingerprints[first]);
            std::uint64_t trials = 0;
            for (std::size_t i = first; i < first + count; ++i) {
                trials += records[i].trials;
                done[i].store(true, std::memory_order_release);
            }

            std::uint64_t inj =
                injections_done.fetch_add(trials,
                                          std::memory_order_relaxed) +
                trials;
            std::uint64_t nth =
                shards_done.fetch_add(count, std::memory_order_relaxed) +
                count;
            std::int64_t now = now_ns();
            if (cfg.progress) {
                std::int64_t prev =
                    last_log_ns.load(std::memory_order_relaxed);
                if (now - prev >= log_period_ns &&
                    last_log_ns.compare_exchange_strong(
                        prev, now, std::memory_order_relaxed)) {
                    inform("campaign ", net.name(), ": ", nth,
                           " shards done this run, ", inj,
                           " injections");
                }
            }
            if (!cfg.checkpointPath.empty()) {
                std::int64_t prev =
                    last_ckpt_ns.load(std::memory_order_relaxed);
                if (now - prev >= ckpt_period_ns &&
                    last_ckpt_ns.compare_exchange_strong(
                        prev, now, std::memory_order_relaxed)) {
                    writeCheckpoint(records, done, false);
                }
            }
        });
        inject_scope.stop();
        executed_this_run += pending.size();

        if (cfg.resultCacheEnabled)
            for (std::size_t i : pending)
                fp_log.emplace(plan[i].ordinal,
                               std::move(fingerprints[i]));
        for (std::size_t i = 0; i < n; ++i)
            if (done[i].load(std::memory_order_acquire))
                archive.push_back(std::move(records[i]));
        return stop_here;
    };

    // Next-round quota of a live cell: aim at the total sample count
    // that puts the cell's half-width on target (Wald inversion at
    // the Wilson-centre estimate), floored at one shard and capped
    // both geometrically (overshoot guard while the estimate is
    // noisy) and by maxSamplesPerCategory.  Deterministic: depends
    // only on the cell's merged counters.
    auto nextQuota = [&](const CellSched &cs) -> int {
        const double z = cfg.confidenceZ;
        const double z2 = z * z;
        double pw = (static_cast<double>(cs.successes) + z2 / 2.0) /
                    (static_cast<double>(cs.trials) + z2);
        std::uint64_t need =
            samplesForHalfWidth(pw, cfg.targetHalfWidth, z);
        std::uint64_t more = need > cs.trials ? need - cs.trials : 0;
        const auto grain = static_cast<std::uint64_t>(cfg.shardGrain);
        more = std::max(more, grain);
        more = std::min(more, std::max(grain, 3 * cs.trials));
        const auto cap =
            static_cast<std::uint64_t>(cfg.maxSamplesPerCategory);
        more = std::min(more, cap - cs.trials);
        return static_cast<int>(more);
    };

    auto countCells = [&](auto pred) {
        std::uint64_t n = 0;
        for (const CellSched &cs : sched)
            if (pred(cs))
                ++n;
        return n;
    };

    if (!adaptive) {
        // Fixed schedule: the whole plan is one round.
        const std::vector<ShardPlanEntry> plan = fixedShardPlan(net, cfg);
        const std::vector<Rng> streams =
            fixedShardStreams(cfg, plan.size());
        result.rounds = 1;
        RoundTelemetry rt;
        rt.shardsPlanned = plan.size();
        rt.cellsLive = countCells(
            [](const CellSched &cs) { return cs.eligible; });
        plan_scope.stop();
        stopped = executeRound(plan, streams);
        rt.cellsRetiredAfter = stopped ? 0 : rt.cellsLive;
        tel.rounds.push_back(rt);
    } else {
        // Adaptive schedule: rounds of shards for the live cells,
        // merged at a barrier; a cell retires once its Wilson
        // half-width meets the target (or at the cap).  Each round's
        // quota is sliced into shards of at most shardGrain samples,
        // every shard's stream forked from its cell's chain in order.
        plan_scope.stop();
        for (;;) {
            std::vector<ShardPlanEntry> plan;
            std::vector<Rng> streams;
            RoundTelemetry rt;
            {
                ScopedTimer plan_round(plan_timer);
                for (std::size_t cell = 0; cell < sched.size();
                     ++cell) {
                    CellSched &cs = sched[cell];
                    if (!cs.live)
                        continue;
                    const int quota = cs.trials == 0
                                          ? cfg.minSamples
                                          : nextQuota(cs);
                    const std::size_t first = plan.size();
                    appendCellShards(plan, next_ordinal, cell,
                                     result.cells[cell].node,
                                     result.cells[cell].category, quota,
                                     cfg.shardGrain);
                    for (std::size_t i = first; i < plan.size(); ++i)
                        streams.push_back(cs.stream.fork());
                }
            }
            if (plan.empty())
                break;
            result.rounds += 1;
            rt.shardsPlanned = plan.size();
            rt.cellsLive = countCells(
                [](const CellSched &cs) { return cs.live; });
            stopped = executeRound(plan, streams);
            if (stopped) {
                rt.cellsRetiredAfter = countCells([](const CellSched
                                                         &cs) {
                    return cs.eligible && !cs.live;
                });
                tel.rounds.push_back(rt);
                break;
            }

            // Merge the round into the scheduling counters (the round
            // is fully archived, so its records are the archive tail)
            // and retire cells that reached the target or the cap.
            for (auto it = archive.end() -
                           static_cast<std::ptrdiff_t>(plan.size());
                 it != archive.end(); ++it) {
                CellSched &cs = sched[it->cell];
                cs.successes += it->maskedCount;
                cs.trials += it->trials;
            }
            for (CellSched &cs : sched) {
                if (!cs.live)
                    continue;
                if (cs.trials >=
                    static_cast<std::uint64_t>(
                        cfg.maxSamplesPerCategory)) {
                    cs.live = false;
                    continue;
                }
                if (cs.trials < static_cast<std::uint64_t>(
                                    cfg.minSamples))
                    continue;
                Proportion p;
                p.add(cs.successes, cs.trials);
                if (p.halfWidth(cfg.confidenceZ) <=
                    cfg.targetHalfWidth)
                    cs.live = false;
            }
            rt.cellsRetiredAfter = countCells(
                [](const CellSched &cs) {
                    return cs.eligible && !cs.live;
                });
            tel.rounds.push_back(rt);
        }
    }
    result.complete = !stopped;
    // Deterministic merge: shard-plan (ordinal) order, integer
    // accumulators.  Restored and freshly executed shards are
    // indistinguishable here — the source of resume bit-identity.
    {
        ScopedTimer merge_scope(merge_timer);
        for (const ShardRecord &r : archive) {
            result.cells[r.cell].masked.add(r.maskedCount, r.trials);
            result.totalInjections += r.trials;
            result.singleNeuronSamples.insert(
                result.singleNeuronSamples.end(), r.samples.begin(),
                r.samples.end());
        }
    }

    // Final snapshot: mandatory after a stop (the remainder of the
    // plan lives only here) and refreshed on completion so a re-run
    // with resumeFrom = checkpointPath restores instantly.
    if (!cfg.checkpointPath.empty()) {
        writeCheckpoint({}, {}, true);
    } else if (stopped && cfg.progress) {
        warn("campaign ", net.name(), " stopped after ",
             executed_this_run,
             " shards with no checkpointPath; the partial work is "
             "not recoverable");
    }

    // Per-layer timing and FIT inputs from the merged cells (stored
    // node-major in category order by the planning loop above).  For
    // a partial (stopped) run these are provisional: cells whose
    // shards were cut off contribute their merged prefix only.
    ScopedTimer fit_scope(fit_timer);
    std::size_t cell_idx = 0;
    for (NodeId node : nodes) {
        EngineLayer el =
            timingLayer(net, node, runner.injector().goldenActs());
        LayerTiming timing = estimateTiming(cfg.accel, el);

        LayerFitInput lfi;
        lfi.execTime = static_cast<double>(timing.totalCycles);
        for (std::size_t c = 0; c < cats.size(); ++c) {
            const CellResult &cell = result.cells[cell_idx++];
            lfi.stats[c].probSwMask =
                cats[c] == FFCategory::GlobalControl
                    ? 0.0
                    : cell.masked.mean();
            lfi.stats[c].probInactive = cfg.activeness.probInactive(
                cats[c], net.precision(), timing);
        }
        result.layerInputs.push_back(lfi);
    }

    result.fit = acceleratorFit(cfg.fit, result.layerInputs);
    FitParams protected_params = cfg.fit;
    protected_params.protectGlobal = true;
    result.fitGlobalProtected =
        acceleratorFit(protected_params, result.layerInputs);
    fit_scope.stop();

    // Telemetry assembly: fold the per-worker slots (fan-out joins
    // above are the happens-before edge) and the coordinator's own
    // instruments into one merged set for the manifest.
    tel.threads = pool.size();
    tel.topology = cfg.topology;
    tel.incremental = cfg.incremental;
    // The slots' one engine reports as the `engine` section at width
    // 1 and as `batched` above it; the other section stays zero.
    tel.batchWidth =
        cfg.incremental && cfg.batchWidth > 1 ? kMaxBatchLanes : 1;
    const bool batched = tel.batchWidth > 1;
    tel.executedShards = executed_this_run;
    tel.executedInjections =
        injections_done.load(std::memory_order_relaxed);
    for (std::size_t wi = 0; wi < worker_slots.size(); ++wi) {
        const WorkerSlot &slot = worker_slots[wi];
        // The last slot is the reserved off-pool slot (callerSlot());
        // its counts fold into the totals but it is not a worker.
        if (wi < static_cast<std::size_t>(pool.size())) {
            WorkerTelemetry wt;
            wt.shards = slot.shards;
            wt.injections = slot.injections;
            (batched ? wt.batched : wt.engine) = slot.totals();
            tel.workers.push_back(wt);
        }
        (batched ? tel.batched : tel.engine).mergeFrom(slot.totals());
        tel.metrics.mergeFrom(slot.metrics);
    }
    // Result-cache observability via plan replay: the archived
    // fingerprint sequences, in shard-plan order, as a fresh sequential
    // table of the configured capacity would count them.  The replayed
    // counters are a pure function of the shard plan — byte-identical
    // across thread counts — which the live shared table's own counters
    // (exposed through ResultCache::stats() for benchmarks) are not.
    if (cfg.resultCacheEnabled) {
        ResultCacheTelemetry &rct = tel.resultCache;
        rct.enabled = true;
        // The geometry of the table cfg selects, built or not.
        rct.entries = cfg.resultCache
                          ? cfg.resultCache->entryCount()
                          : ResultCache::entryCountFor(
                                static_cast<std::size_t>(cfg.resultCacheMB)
                                << 20);
        rct.capacityBytes = rct.entries * ResultCache::kEntryBytes;
        rct.shards = ResultCache::kShards;
        rct.replayComplete = true;
        std::vector<std::vector<std::uint64_t>> sequences;
        for (const ShardRecord &r : archive) {
            auto it = fp_log.find(r.ordinal);
            if (it == fp_log.end()) {
                // Restored from a snapshot: the fingerprints were
                // never journaled (deliberately — a snapshot must not
                // pin cache geometry), so the replay is partial.
                rct.replayComplete = false;
                continue;
            }
            rct.replayedShards += 1;
            sequences.push_back(std::move(it->second));
        }
        const ResultCacheStats rs =
            ResultCache::replay(rct.capacityBytes, sequences);
        rct.hits = rs.hits;
        rct.misses = rs.misses;
        rct.stores = rs.stores;
        rct.evictions = rs.evictions;
    }

    coord_metrics.timer("phase.total").addNs(now_ns());
    tel.metrics.mergeFrom(coord_metrics);
    if (cfg.serviceMetrics)
        tel.metrics.mergeFrom(*cfg.serviceMetrics);

    if (!cfg.reportPath.empty())
        writeRunManifest(cfg.reportPath, net, cfg, cfg_hash, result, tel);

    if (cfg.progress) {
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
        std::uint64_t executed_inj =
            injections_done.load(std::memory_order_relaxed);
        double rate = wall > 0.0
            ? static_cast<double>(executed_inj) / wall
            : 0.0;
        inform("campaign ", net.name(), ": ", result.totalInjections,
               " injections merged (", executed_inj,
               " run here) in ", wall, " s (", rate, " inj/s, ",
               pool.size(), " threads, ", result.rounds, " rounds",
               result.complete ? "" : ", PARTIAL", ")");
    }
    return result;
}

} // namespace fidelity
