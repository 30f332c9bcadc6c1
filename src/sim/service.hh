/**
 * @file
 * Distributed campaign service: coordinator, worker, and daemon.
 *
 * One box, N processes.  A coordinator owns the deterministic
 * fixed-schedule shard plan of a campaign (core/campaign's
 * fixedShardPlan) and leases contiguous ordinal ranges of it to
 * worker processes over the sim/service_proto wire protocol (Unix or
 * TCP sockets).  Workers execute their ranges with one
 * FixedShardExecutor — the shard path and streams an in-process run
 * uses — and ship the shard journals back as FIDCKPT bytes (the
 * checkpoint encoding).  The coordinator merges by handing the
 * complete journal set to runCampaign as an in-memory resume
 * snapshot, so the merge, campaignChecksum, and the manifest
 * "results" section go through the single-process code path
 * unchanged: a 4-worker run is bit-identical to a 1-process run by
 * construction, and the tests assert it.
 *
 * Failure model: a worker that disconnects or goes silent past the
 * lease timeout has its leased ranges re-issued to other workers;
 * duplicate RESULTs (a slow worker racing a re-issue) are idempotent.
 * The coordinator checkpoints merged journals to disk, so a killed
 * coordinator restarts with resumeFrom and re-executes only the
 * unmerged remainder.  Adaptive campaigns (targetHalfWidth > 0) have
 * no static plan and are served in-process by the daemon instead.
 *
 * See DESIGN.md §14 for the frame grammar, the lease state machine,
 * and the merge-determinism argument.
 */

#ifndef FIDELITY_SIM_SERVICE_HH
#define FIDELITY_SIM_SERVICE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hh"
#include "core/manifest.hh"
#include "nn/network.hh"

namespace fidelity
{

// ----- Campaign requests -------------------------------------------

/**
 * One campaign request — the flat JSON object clients submit to the
 * daemon and coordinators hand to workers in SPEC frames.  Every
 * field that participates in campaignConfigHash is here, plus the
 * network/input/metric identity, so any process can rebuild the
 * identical campaign from the JSON alone.
 */
struct ServiceRequest
{
    std::string network = "resnet";
    Precision precision = Precision::FP16;
    std::string metric = "top1"; //!< top1|bleu10|bleu20|det10|det20
    std::uint64_t netSeed = 2020;
    std::uint64_t inputSeed = 2021;

    int samplesPerCategory = 120;
    std::uint64_t seed = 1;
    int shardGrain = 32;
    double outputClampAbs = 0.0;

    /** Adaptive target; > 0 is in-process (daemon) only. */
    double targetHalfWidth = 0.0;

    int threads = 1; //!< executor threads (in-process / merge side)
    int batchWidth = 8;

    /**
     * Optional tenant label for daemon admission control: the
     * deficit-round-robin scheduler balances queued requests across
     * tenants, and per-tenant wait/served metrics are keyed by it.
     * Not part of the campaign identity (excluded from
     * campaignConfigHash).  Empty means the shared "default" tenant.
     * Restricted to [A-Za-z0-9_-], at most 64 chars, so client input
     * cannot mangle metric names or status JSON.
     */
    std::string tenant;
};

/**
 * Parse and validate a request object (sim/parse's checked JSON
 * scanner underneath).  Unknown keys, non-flat values, bad numbers,
 * unknown network/precision/metric names: all return false with the
 * diagnostic in `err` — the daemon turns that into an error response,
 * never a dead process.
 */
bool tryParseServiceRequest(const std::string &json, ServiceRequest &req,
                            std::string &err);

/** Render a request as its canonical flat JSON object. */
std::string serviceRequestJson(const ServiceRequest &req);

/** Build the request's network (precision set, calibrated when an
 *  integer mode asks for it). */
Network buildServiceNetwork(const ServiceRequest &req);

/** The request's input tensor. */
Tensor serviceInput(const ServiceRequest &req);

/** The request's correctness metric (the name was validated at
 *  parse time; fatals on an unknown name). */
CorrectnessFn serviceMetric(const ServiceRequest &req);

/** The CampaignConfig a request describes (identity knobs only;
 *  paths/topology are the caller's). */
CampaignConfig campaignConfigFor(const ServiceRequest &req);

// ----- Lease bookkeeping -------------------------------------------

/**
 * Transport-free lease state machine over the shard plan, tested
 * deterministically with injected clocks.  The plan is cut into
 * chunks of `leaseShards` consecutive ordinals; each chunk is
 * Unleased, Leased (to a named worker, with a deadline), or Merged.
 * Expired or abandoned leases revert to Unleased and are re-issued;
 * a RESULT for an already-Merged chunk is reported as a duplicate
 * and dropped (idempotence under lease races).
 */
class LeaseBook
{
  public:
    enum class ChunkState { Unleased, Leased, Merged };

    LeaseBook(std::uint64_t planShards, std::uint64_t leaseShards);

    /**
     * Lease the lowest available chunk to `worker`: expired leases
     * revert first, then Unleased chunks are considered.  Returns
     * false when nothing is available right now (all chunks Leased or
     * Merged).
     */
    bool lease(const std::string &worker, double nowSec,
               double timeoutSec, std::uint64_t &first,
               std::uint64_t &count);

    enum class ResultOutcome {
        Merged,    //!< first RESULT for this chunk; caller merges it
        Duplicate, //!< chunk already merged; drop idempotently
        Unknown    //!< no chunk with these bounds; protocol violation
    };

    /** Record the arrival of a RESULT for [first, first + count). */
    ResultOutcome complete(std::uint64_t first, std::uint64_t count);

    /** Extend every lease `worker` holds. */
    void heartbeat(const std::string &worker, double nowSec,
                   double timeoutSec);

    /** Revert every lease `worker` holds (disconnect/death).
     *  @return chunks reverted. */
    std::uint64_t release(const std::string &worker);

    /** Mark the chunks fully covered by [first, first + count) as
     *  Merged (coordinator restart: journals restored from disk). */
    void markMerged(std::uint64_t first, std::uint64_t count);

    bool allMerged() const;
    std::uint64_t mergedChunks() const;
    std::uint64_t chunkCount() const;

    /** Leases that expired and were re-issued (telemetry). */
    std::uint64_t expiredLeases() const { return expired_; }

  private:
    struct Chunk
    {
        std::uint64_t first = 0;
        std::uint64_t count = 0;
        ChunkState state = ChunkState::Unleased;
        std::string owner;
        double deadline = 0.0;
    };

    void expireStale(double nowSec);

    std::vector<Chunk> chunks_;
    std::uint64_t expired_ = 0;
};

// ----- Coordinator --------------------------------------------------

struct CoordinatorOptions
{
    /** "unix:<path>" or "tcp:<host>:<port>". */
    std::string listenAddr;

    /** Shards per lease chunk. */
    std::uint64_t leaseShards = 8;

    /** Seconds of silence after which a worker's leases re-issue. */
    double leaseTimeoutSec = 30.0;

    /** Journal checkpoint of merged chunks (restart safety). */
    std::string checkpointPath;
    double checkpointEverySec = 30.0;

    /** Resume merged journals from this snapshot when it exists. */
    std::string resumeFrom;

    /** Manifest path handed to the merge-side runCampaign. */
    std::string reportPath;

    /** Stop (checkpoint + return incomplete) after this many chunks
     *  merged; 0 = run to completion.  The deterministic "crash" hook
     *  of the coordinator-restart tests. */
    std::uint64_t stopAfterMergedChunks = 0;
};

/** What a coordinator run produced. */
struct CoordinatorRun
{
    bool complete = false;

    /** Valid only when complete: the merged campaign, bit-identical
     *  to a single-process run of the same request. */
    CampaignResult result;

    /** Worker fan-out telemetry (also in the manifest). */
    WorkerTopology topology;
};

/**
 * Serve one campaign's shard plan to connecting workers and merge the
 * journals.  Blocks until the plan is fully merged (or the stop hook
 * fires).  Worker connections are one thread each; worker death at
 * any point only delays completion — the campaign finishes as long as
 * at least one worker eventually connects.
 */
CoordinatorRun runCampaignCoordinator(const ServiceRequest &req,
                                      const CoordinatorOptions &opts);

// ----- Worker -------------------------------------------------------

struct WorkerOptions
{
    /** Coordinator address ("unix:<path>" or "tcp:<host>:<port>"). */
    std::string connectAddr;

    std::string name = "worker";

    /** Reported in HELLO (telemetry only; execution is
     *  single-threaded — worker processes are the parallelism axis). */
    int threads = 1;

    /** Seconds between HEARTBEAT frames. */
    double heartbeatSec = 5.0;

    /** Seconds to keep retrying the initial connect (workers may
     *  start before their coordinator listens). */
    double connectTimeoutSec = 20.0;

    /** Fault hook: raise(SIGKILL) after sending this many RESULTs
     *  (0 = never).  Deterministic worker death for the resilience
     *  tests and the bench's kill leg. */
    std::uint64_t dieAfterResults = 0;
};

/**
 * Run one worker process: connect, HELLO/SPEC/READY, then
 * LEASE → execute → RESULT until DONE or DRAIN.  Returns the process
 * exit code (0 on DONE/DRAIN; fatals on protocol violations — a
 * worker belongs to its coordinator).
 */
int runServiceWorker(const WorkerOptions &opts);

// ----- Daemon -------------------------------------------------------

struct DaemonOptions
{
    /** Client-facing listen address. */
    std::string listenAddr;

    /** Campaign worker threads — campaigns served concurrently.
     *  (--workers is an alias; this name predates the pool.) */
    int maxConcurrent = 2;

    /**
     * Admitted-but-unstarted request cap across all tenants.  A
     * request arriving at a full queue is answered immediately with a
     * typed busy error frame (encodeBusyError), never left on a hung
     * socket.
     */
    int maxQueue = 32;

    /**
     * Deficit-round-robin quantum, in request-cost units, added to a
     * tenant's deficit per scheduler visit.  Request cost is its
     * samples_per_category (floor 1), so tenants submitting heavy
     * campaigns drain proportionally slower than light ones.
     */
    int drrQuantum = 256;

    /** Directory for per-campaign checkpoint snapshots, keyed by
     *  config hash — a killed daemon restarts and resumes every
     *  campaign from its last checkpoint window.  Empty disables. */
    std::string stateDir;

    /** checkpointEverySec of served campaigns. */
    double checkpointEverySec = 5.0;

    /** Campaigns served per daemon lifetime cap (0 = unlimited);
     *  test hook so daemon tests terminate without signals. */
    std::uint64_t maxRequests = 0;

    /** Seconds a connection may take to deliver its full request
     *  frame before intake closes it (slow-loris shedding). */
    double recvDeadlineSec = 30.0;

    /** Seconds a response write may stall on an unread socket before
     *  the worker gives up on that client. */
    double sendDeadlineSec = 30.0;

    /** Test hook: sleep this long inside each popped request before
     *  executing it, so queue-occupancy tests (drain rejection,
     *  fairness, single-flight overlap) are timing-robust. */
    double testServiceDelaySec = 0.0;
};

/**
 * Serve campaign requests until drained: clients connect and send
 * REQUEST {json}; the daemon answers RESPONSE {json manifest +
 * checksum} or ERROR {diagnostic} (malformed requests are answered,
 * never fatal).  A DRAIN frame stops intake, waits for in-flight
 * campaigns, and returns.  Returns the process exit code.
 */
int runServiceDaemon(const DaemonOptions &opts);

/**
 * Client helper: connect to a daemon, send one REQUEST (or DRAIN when
 * `drain`), and return the peer's RESPONSE/ERROR text in `response`.
 * False (with `err`) on connect or protocol failure.
 */
bool submitServiceRequest(const std::string &connectAddr,
                          const std::string &requestJson, bool drain,
                          std::string &response, std::string &err);

/**
 * Ask a daemon for its admission/queue status: a RESPONSE carrying a
 * JSON object with queue depth, worker/in-flight counts, rejection
 * counters, and the per-tenant wait/service metrics.  False (with
 * `err`) on connect or protocol failure.
 */
bool queryServiceStatus(const std::string &connectAddr,
                        std::string &response, std::string &err);

#if !defined(_WIN32)

/**
 * Write the whole buffer with a poll-based deadline (seconds; < 0
 * waits forever).  Non-blocking sends interleaved with POLLOUT waits,
 * so a stalled-but-open peer costs at most the deadline, never a
 * pinned thread.  False on a dead peer or an expired deadline.
 * Every daemon/coordinator/worker frame write goes through this.
 */
bool sendBytesWithDeadline(int fd, std::string_view bytes,
                           double timeoutSec);

#endif // !defined(_WIN32)

} // namespace fidelity

#endif // FIDELITY_SIM_SERVICE_HH
