/**
 * @file
 * Campaign orchestration: FIdelity's full flow over one network.
 *
 * Runs the three steps of Fig. 3 — activeness analysis (Eq. 1),
 * large-scale software fault injection per (layer, category), and the
 * Accelerator_FIT_rate computation (Eq. 2) — and collects the
 * perturbation-magnitude samples behind Key result 5.
 */

#ifndef FIDELITY_CORE_CAMPAIGN_HH
#define FIDELITY_CORE_CAMPAIGN_HH

#include <memory>
#include <string>
#include <vector>

#include "accel/perf_model.hh"
#include "core/activeness.hh"
#include "core/fit.hh"
#include "core/injector.hh"
#include "sim/checkpoint.hh"
#include "sim/metrics.hh"
#include "sim/result_cache.hh"
#include "sim/stats.hh"

namespace fidelity
{

struct WorkerTopology; // core/manifest.hh

/** Knobs of one campaign. */
struct CampaignConfig
{
    /** Injection samples per (layer, category) pair. */
    int samplesPerCategory = 120;

    std::uint64_t seed = 1;

    /**
     * Hardware-software co-design knob (Key result 5): when > 0,
     * written-back neuron values are saturated into
     * [-outputClampAbs, outputClampAbs] by a range checker.
     */
    double outputClampAbs = 0.0;

    /**
     * Worker threads for the injection fan-out; 0 selects every
     * hardware thread.  The result is bit-identical for any value —
     * shard boundaries and RNG streams depend only on the seed and
     * shardGrain, never on the thread count.
     */
    int numThreads = 1;

    /**
     * Samples per shard when the (layer, category, sample) space is
     * partitioned.  Part of the campaign's deterministic identity: the
     * shard plan fixes which Rng::fork() stream each sample draws
     * from, so changing the grain (unlike the thread count) changes
     * the sampled faults.
     */
    int shardGrain = 32;

    /** Emit throttled progress lines (at most one per progressEverySec
     *  seconds, from a single call site) and an end-of-campaign summary
     *  (injections/sec, wall time, thread count) through sim/logging. */
    bool progress = false;

    /** Minimum seconds between two progress lines. */
    double progressEverySec = 1.0;

    /**
     * Use the incremental fault-cone engine in the injection hot path
     * (sparse delta propagation + early masking exit + per-worker
     * scratch reuse).  The CampaignResult is bit-identical to the
     * dense path; this is purely a performance knob.
     */
    bool incremental = true;

    /**
     * SIMD lanes of the fault-batched re-execution engine: up to this
     * many surviving injections of one (layer, category) shard are
     * carried through the network in one pass, with lanes indexing
     * injections (see DESIGN.md §12).  Must be in [1, kMaxBatchLanes];
     * 1 disables batching.  Requires incremental = true to take
     * effect (the batch planner rides on the cone geometry).  Purely a
     * performance knob: the sampled faults, every record field, and
     * campaignChecksum are bit-identical for every width, and it does
     * not participate in campaignConfigHash.
     */
    int batchWidth = 8;

    // ----- Adaptive precision targeting ---------------------------
    //
    // The paper sizes its 46M-injection study so every reported
    // probability carries a tight confidence interval; the adaptive
    // scheduler inverts that: give it the interval, and each (layer,
    // category) cell draws samples in rounds until its Wilson
    // half-width meets the target, so samples flow to the cells that
    // need them instead of a flat samplesPerCategory everywhere.

    /**
     * Target Wilson half-width per (layer, category) cell.  0 keeps
     * the fixed samplesPerCategory schedule; > 0 switches to the
     * adaptive round scheduler (samplesPerCategory is then ignored).
     * Adaptive campaigns are bit-identical for any thread count, but
     * use a different stream layout than fixed campaigns: each cell
     * forks a private stream chain, so its samples are independent of
     * every other cell's retirement round.
     */
    double targetHalfWidth = 0.0;

    /** z of the target interval (1.96 = 95%, 2.576 = 99%). */
    double confidenceZ = 1.96;

    /** Samples every cell draws before it may retire (round 0 size);
     *  guards against retiring on a lucky empty prefix. */
    int minSamples = 32;

    /** Hard per-cell cap in adaptive mode: a cell retires at the cap
     *  even if its half-width still exceeds the target (rare-failure
     *  cells near p = 1/2 would otherwise run long). */
    int maxSamplesPerCategory = 1 << 16;

    // ----- Cross-campaign result cache ----------------------------
    //
    // Adaptive rounds and repeated service-style requests re-sample
    // the same (layer, category) cells constantly; architecturally
    // equivalent fault sites provably produce equal outcomes.  The
    // result cache memoises the forward-pass outcome per fault-site
    // fingerprint (see sim/result_cache.hh and DESIGN.md §11).  It is
    // a pure performance knob: the sampled faults, every counter, and
    // campaignChecksum are bit-identical with the cache on or off —
    // none of these fields participate in campaignConfigHash, so
    // cached and uncached runs are resume-compatible.

    /** Probe/store the fault-site memo table in the injection path. */
    bool resultCacheEnabled = true;

    /** Capacity of a campaign-private table in MiB (used when
     *  resultCache below is null).  Must be > 0 when enabled. */
    int resultCacheMB = 64;

    /**
     * Optional externally owned table shared across campaigns (the
     * cross-campaign case: a service answering repeated requests, or
     * the adaptive scheduler re-running a study).  Entries are only
     * served to an injector whose context digest matches — a
     * different input, weight set, or precision can never hit — so
     * sharing is always sound, only ever a capacity trade-off.
     */
    std::shared_ptr<ResultCache> resultCache;

    /**
     * Extra salt mixed into the cache context digest.  The
     * CorrectnessFn is an opaque callable the digest cannot hash;
     * callers sharing one table across *different* correctness
     * metrics must give each metric a distinct salt.
     */
    std::uint64_t resultCacheSalt = 0;

    // ----- Crash-safe checkpoint / resume -------------------------

    /**
     * When non-empty, the campaign journals every completed shard to
     * this snapshot file (atomic-rename replace) at least every
     * checkpointEverySec seconds and once more on completion, so a
     * killed campaign loses at most one checkpoint window of work.
     */
    std::string checkpointPath;

    /** Minimum seconds between two mid-flight snapshot writes. */
    double checkpointEverySec = 30.0;

    /**
     * When non-empty and the file exists, restore the journaled
     * shards and execute only the remainder; the result is
     * bit-identical to an uninterrupted run (the snapshot stores a
     * config hash and refuses configs with a different sample
     * identity).  A non-existent file starts fresh, so setting
     * resumeFrom = checkpointPath gives an idempotent
     * crash-restart loop.
     */
    std::string resumeFrom;

    /**
     * Execute at most this many shards in this process (0 = no
     * limit), then snapshot and return with CampaignResult::complete
     * = false.  Deterministic time-slicing for batch schedulers — and
     * the hook the kill-and-resume tests use to "crash" mid-flight.
     */
    std::uint64_t stopAfterShards = 0;

    /**
     * In-memory twin of resumeFrom: restore these journaled shards
     * instead of reading a file (resumeFrom wins when both are set).
     * The snapshot's configHash must match this campaign's — same
     * refusal as a file resume.  This is the distributed merge seam:
     * the sim/service coordinator collects every shard journal from
     * its workers into one complete snapshot and "resumes" from it, so
     * the merge, result, and manifest "results" section go through
     * exactly the single-process code path (see DESIGN.md §14).
     */
    std::shared_ptr<const CampaignSnapshot> resumeSnapshot;

    /**
     * Worker-process topology recorded in the manifest "execution"
     * section by distributed runs (coordinator + N worker processes).
     * Purely observability: never hashed, never part of the "results"
     * section.  Null for in-process campaigns.
     */
    std::shared_ptr<const WorkerTopology> topology;

    /**
     * Extra instruments merged into the manifest "execution" metrics
     * block — the seam the campaign daemon uses to record what the
     * *service* did to this request (admission queue wait, queue depth
     * at admit) next to what the campaign did.  Purely observability:
     * never hashed, never part of the "results" section.  Null for
     * plain in-process campaigns.
     */
    std::shared_ptr<const MetricSet> serviceMetrics;

    // ----- Structured reporting -----------------------------------

    /**
     * When non-empty, write a run manifest here at campaign end (also
     * after a stopAfterShards slice): a JSON document with the config
     * fingerprint, the full per-(layer, category) cell table with
     * Wilson intervals, the Eq. 2 FIT breakdowns, per-phase wall
     * times, per-worker counts, engine decisions, checkpoint events,
     * and the adaptive round history.  The "results" section is
     * byte-identical across thread counts and kill-and-resume; see
     * core/manifest.hh and DESIGN.md §10 for the schema.
     */
    std::string reportPath;

    NvdlaConfig accel;
    FitParams fit;
    ActivenessModel activeness;
};

/** Masking statistics of one (layer, category) cell. */
struct CellResult
{
    NodeId node = 0;
    FFCategory category = FFCategory::OutputPsum;
    Proportion masked; //!< Prob_SWmask(cat, r) estimate
};

/** Everything a campaign produces. */
struct CampaignResult
{
    std::string network;
    Precision precision = Precision::FP32;

    FitBreakdown fit;
    FitBreakdown fitGlobalProtected; //!< Fig. 6 variant

    std::vector<LayerFitInput> layerInputs;
    std::vector<CellResult> cells;

    /** (|delta|, caused output error) for single-faulty-neuron
     *  datapath injections — the Key result 5 data. */
    std::vector<std::pair<double, bool>> singleNeuronSamples;

    std::uint64_t totalInjections = 0;

    /** False when stopAfterShards ended the run early; the partial
     *  counters are merged, the rest lives in the snapshot. */
    bool complete = true;

    /** Scheduling rounds executed (1 for a fixed-schedule run). */
    std::uint64_t rounds = 0;

    /** campaignConfigHash of the run (also stamped into snapshots and
     *  the run manifest). */
    std::uint64_t configHash = 0;
};

/**
 * Run the full FIdelity flow on one network.
 *
 * The injection space is partitioned into shards of at most
 * cfg.shardGrain samples of one (layer, category) cell; each shard
 * draws from its own Rng::fork() stream (forked from the master seed
 * in shard-plan order) and accumulates into private counters, which
 * are merged in shard-plan order afterwards.  Shards execute on a
 * ThreadPool of cfg.numThreads workers; because neither the plan nor
 * the streams depend on the worker count, the CampaignResult is
 * bit-identical for every cfg.numThreads, including 1.
 *
 * @param net The network (precision already set; calibrate() already
 *            run when using an integer mode).
 * @param input Network input.
 * @param correct Application correctness metric.  Must be safe to
 *            invoke concurrently (the supplied metrics are stateless).
 * @param cfg Campaign knobs.
 */
CampaignResult runCampaign(const Network &net, const Tensor &input,
                           const CorrectnessFn &correct,
                           const CampaignConfig &cfg);

/**
 * One shard of the deterministic fixed-schedule plan: `samples` draws
 * of `category` faults in layer `node`, at position `ordinal` in the
 * plan (which fixes its Rng::fork() stream).
 */
struct ShardPlanEntry
{
    std::uint64_t ordinal = 0;
    std::uint64_t cell = 0; //!< index into the node-major cell table
    NodeId node = 0;
    FFCategory category = FFCategory::OutputPsum;
    int samples = 0;
};

/**
 * The fixed-schedule shard plan of (net, cfg) — a pure function of the
 * config's sample identity, identical in every process that computes
 * it.  This is the unit of distribution: the sim/service coordinator
 * leases contiguous ordinal ranges of this plan to worker processes.
 * Only fixed schedules have a static plan; fatals when
 * cfg.targetHalfWidth > 0 (adaptive campaigns schedule round by round
 * and are served in-process).
 */
std::vector<ShardPlanEntry> fixedShardPlan(const Network &net,
                                           const CampaignConfig &cfg);

/**
 * Executes ranges of fixedShardPlan(net, cfg) — the worker half of the
 * bit-identical distributed merge.  Shard i draws from the i-th
 * Rng::fork() of the master seed, exactly as in runCampaign, and both
 * run each shard through the same internal shard runner, so a record
 * executed here is byte-identical to the one an in-process run
 * journals for the same ordinal.  Construction pays the plan, its
 * streams, the golden forward pass (Injector) and the result cache
 * once; each execute() call then costs only its shards, with engine
 * scratch reused across calls.  Honors the engine/batch/result-cache
 * performance knobs of `cfg`, none of which changes a record.  The
 * referenced network/input must outlive the executor; not thread-safe
 * (worker processes are the parallelism axis).
 */
class FixedShardExecutor
{
  public:
    FixedShardExecutor(const Network &net, const Tensor &input,
                       const CorrectnessFn &correct,
                       const CampaignConfig &cfg);
    ~FixedShardExecutor();

    /** Shards in the plan this executor serves. */
    std::uint64_t planSize() const;

    /** Execute plan ordinals [first, first + count) and return their
     *  shard journals, sorted by ordinal; fatals on a range outside
     *  the plan. */
    std::vector<ShardRecord> execute(std::uint64_t first,
                                     std::uint64_t count);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Order-sensitive digest of a campaign's numeric identity: every
 * per-cell counter and every single-neuron sample, FNV-1a mixed.  Two
 * campaigns with equal checksums produced bit-identical results — the
 * cross-thread-count, dense-vs-incremental, and kill-and-resume
 * equality proofs.
 */
std::uint64_t campaignChecksum(const CampaignResult &res);

/**
 * Fingerprint of the CampaignConfig fields that define a campaign's
 * sample identity (seed, schedule, adaptive targets, clamp), the
 * network's name/precision/layer census, and the input tensor's
 * bits.  Stored in snapshots; a resume with a different fingerprint
 * is refused.  Performance-only knobs (threads, incremental,
 * progress, checkpoint cadence, stopAfterShards) do not participate.
 * Network *weights* are identified only through name/seed-derived
 * topology — resuming against a retrained same-name network is the
 * caller's responsibility.
 */
std::uint64_t campaignConfigHash(const Network &net, const Tensor &input,
                                 const CampaignConfig &cfg);

/**
 * Describe a MAC layer to the performance model.  Grouped convolutions
 * use the redOverride escape hatch (the engine itself only executes
 * standard convolutions).
 */
EngineLayer timingLayer(const Network &net, NodeId node,
                        const std::vector<Tensor> &acts);

} // namespace fidelity

#endif // FIDELITY_CORE_CAMPAIGN_HH
