/**
 * @file
 * Campaign run manifests: the machine-readable record of one campaign.
 *
 * A manifest is a JSON document (CampaignConfig::reportPath) with two
 * top-level sections:
 *
 *  - "results" — everything determined by the campaign's sample
 *    identity alone: config fingerprint, seed and schedule knobs, the
 *    full per-(layer, category) cell table with Wilson intervals, the
 *    Eq. 2 FIT breakdowns, injection totals, and the adaptive round
 *    history.  This section is byte-identical across thread counts and
 *    across checkpoint kill-and-resume — the auditable statement of
 *    what the campaign measured (test_sim_metrics enforces this).
 *
 *  - "execution" — how this particular process produced it: build and
 *    SIMD-backend info, thread count, per-phase wall times, per-worker
 *    shard/injection counts, incremental-vs-dense engine decisions,
 *    checkpoint events, resume bookkeeping, and the merged MetricSet.
 *    Wall-time fields all carry an `_s` key suffix so tools (and the
 *    determinism tests) can strip them uniformly.
 *
 * The document is published with atomicWriteFile(sync) — a crash while
 * reporting cannot leave a torn manifest next to a finished campaign.
 */

#ifndef FIDELITY_CORE_MANIFEST_HH
#define FIDELITY_CORE_MANIFEST_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "nn/batched.hh"
#include "sim/metrics.hh"

namespace fidelity
{

/** Schema identifier stamped into every manifest. */
inline constexpr const char *kRunManifestSchema =
    "fidelity-run-manifest-v1";

/** One mid-flight (or final) snapshot publication. */
struct CheckpointEvent
{
    std::uint64_t shardsJournaled = 0; //!< shards in the snapshot
    std::uint64_t bytes = 0;           //!< snapshot size on disk
    double atSeconds = 0.0;            //!< wall clock since campaign start
    bool final_ = false;               //!< end-of-run snapshot
};

/** One scheduling round (fixed campaigns have exactly one). */
struct RoundTelemetry
{
    std::uint64_t shardsPlanned = 0;
    std::uint64_t cellsLive = 0;         //!< live cells entering the round
    std::uint64_t cellsRetiredAfter = 0; //!< cumulative retired after it
};

/** What one pool worker did (index = ThreadPool worker index). */
struct WorkerTelemetry
{
    std::uint64_t shards = 0;
    std::uint64_t injections = 0;
    BatchedTotals engine;  //!< the engine at width 1
    BatchedTotals batched; //!< the engine at kMaxBatchLanes
};

/** One worker *process* of a distributed (sim/service) run. */
struct WorkerProcessTelemetry
{
    std::string name;       //!< HELLO-announced worker name
    int threads = 1;        //!< threads the worker ran with
    std::uint64_t shards = 0;
    std::uint64_t injections = 0;
    std::uint64_t leases = 0;         //!< leases granted to it
    std::uint64_t leasesExpired = 0;  //!< leases re-issued elsewhere
};

/**
 * Worker-process topology of a distributed run: which processes the
 * coordinator fanned the shard plan out to and what each contributed.
 * Rendered into the manifest "execution" section only (the "results"
 * section must stay byte-identical to a single-process run — that is
 * the whole point of the coordinator's merge).
 */
struct WorkerTopology
{
    std::string coordinator;  //!< listen address the workers dialed
    std::uint64_t leaseShards = 0; //!< shards per lease
    std::vector<WorkerProcessTelemetry> workers;
};

/**
 * Result-cache observability.  The hit/miss/store/evict counters come
 * from a deterministic *plan replay*: the fingerprint sequence of every
 * freshly executed shard is counted, in shard-plan order, as a fresh
 * table of the configured capacity would count it
 * (ResultCache::replay).  The replay is a pure function of
 * the shard plan, so these counters are byte-identical across thread
 * counts — unlike the live shared table's own counters, whose
 * interleaving (and hence hit/miss split) is scheduling-dependent.
 * Restored (resumed) shards carry no fingerprints; they are skipped
 * and replayComplete turns false.
 */
struct ResultCacheTelemetry
{
    bool enabled = false;
    std::uint64_t capacityBytes = 0;
    std::uint64_t entries = 0;
    std::uint64_t shards = 0; //!< table shards, not campaign shards

    bool replayComplete = false;
    std::uint64_t replayedShards = 0; //!< campaign shards replayed
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
};

/** Everything runCampaign learns about its own execution. */
struct CampaignTelemetry
{
    int threads = 1;
    bool incremental = false;
    int batchWidth = 1; //!< effective fault-batch lane width

    /** Worker-process fan-out of a distributed run (null otherwise). */
    std::shared_ptr<const WorkerTopology> topology;

    bool resumed = false;
    std::uint64_t restoredShards = 0;
    std::uint64_t executedShards = 0;
    std::uint64_t executedInjections = 0;

    std::vector<WorkerTelemetry> workers;
    std::vector<CheckpointEvent> checkpoints;
    std::vector<RoundTelemetry> rounds;

    /** Sparse engine totals summed over workers at batch width 1;
     *  zero when batching. */
    BatchedTotals engine;

    /** Sparse engine totals summed over workers at batch width > 1
     *  (every batch kMaxBatchLanes wide); zero at width 1. */
    BatchedTotals batched;

    /** Fault-site memo table counters (plan replay). */
    ResultCacheTelemetry resultCache;

    /** Merged instruments: coordinator phase timers + per-worker sets. */
    MetricSet metrics;
};

/** Render the manifest document (no trailing newline). */
std::string runManifestJson(const Network &net, const CampaignConfig &cfg,
                            std::uint64_t configHash,
                            const CampaignResult &res,
                            const CampaignTelemetry &tel);

/** Render and publish atomically + durably to `path`. */
void writeRunManifest(const std::string &path, const Network &net,
                      const CampaignConfig &cfg, std::uint64_t configHash,
                      const CampaignResult &res,
                      const CampaignTelemetry &tel);

} // namespace fidelity

#endif // FIDELITY_CORE_MANIFEST_HH
