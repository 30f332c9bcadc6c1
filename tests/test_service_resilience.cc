/**
 * @file
 * Fault-injection tests for the distributed campaign service itself:
 * real worker processes (fork/exec of the fidelity_service binary)
 * against an in-process coordinator.  The contract under test is the
 * tentpole of the service design — a campaign fanned out over 1, 2,
 * or 4 worker processes, with or without a worker dying mid-shard,
 * reproduces the exact campaignChecksum and a byte-identical manifest
 * "results" section of a single-process run — plus coordinator
 * crash/restart resume and the READY config-hash rejection.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hh"
#include "sim/checkpoint.hh"
#include "sim/json.hh"
#include "sim/service.hh"
#include "sim/service_proto.hh"

#if !defined(_WIN32)
#include <sys/socket.h>
#include <sys/un.h>
#endif

using namespace fidelity;

namespace
{

/** The small, fast campaign every test here distributes. */
ServiceRequest
testRequest()
{
    ServiceRequest req;
    req.samplesPerCategory = 8;
    req.shardGrain = 4;
    req.seed = 7;
    return req;
}

std::string
uniqueSocketPath(const std::string &tag)
{
    // Unix socket paths are length-limited; keep them short and keyed
    // by pid so parallel ctest invocations cannot collide.
    return "/tmp/fidsvc-" + std::to_string(::getpid()) + "-" + tag +
           ".sock";
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "fidelity_service_" +
           std::to_string(::getpid()) + "_" + name;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** fork/exec one real worker process of the service binary.  A
 *  heartbeat_sec <= 0 leaves --heartbeat at the binary's default. */
pid_t
spawnWorker(const std::string &addr, const std::string &name,
            std::uint64_t die_after_results = 0,
            double heartbeat_sec = 0.2)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    std::vector<std::string> args = {
        FIDELITY_SERVICE_BIN, "worker", "--connect=" + addr,
        "--name=" + name,
        "--die-after-results=" + std::to_string(die_after_results)};
    if (heartbeat_sec > 0.0)
        args.push_back("--heartbeat=" + std::to_string(heartbeat_sec));
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(FIDELITY_SERVICE_BIN, argv.data());
    std::perror("execv fidelity_service");
    ::_exit(127);
}

/** Reap one child; true when it exited normally with status 0. */
bool
reapCleanExit(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        return false;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** Reap a child expected to have been SIGKILLed (the fault hook). */
bool
reapKilled(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        return false;
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

/** Run the coordinator on its own thread (it blocks until merged). */
std::future<CoordinatorRun>
startCoordinator(const ServiceRequest &req,
                 const CoordinatorOptions &opts)
{
    return std::async(std::launch::async, [req, opts] {
        return runCampaignCoordinator(req, opts);
    });
}

/** The single-process ground truth (checksum + manifest). */
CampaignResult
groundTruth(const ServiceRequest &req, const std::string &report_path)
{
    Network net = buildServiceNetwork(req);
    Tensor input = serviceInput(req);
    CampaignConfig cfg = campaignConfigFor(req);
    cfg.reportPath = report_path;
    return runCampaign(net, input, serviceMetric(req), cfg);
}

#if !defined(_WIN32)

/** Minimal raw protocol client for impersonating a worker. */
class RawConn
{
  public:
    explicit RawConn(const std::string &socket_path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::strncpy(sa.sun_path, socket_path.c_str(),
                     sizeof(sa.sun_path) - 1);
        // The coordinator may still be binding; retry briefly.
        for (int attempt = 0; attempt < 100; ++attempt) {
            if (::connect(fd_, reinterpret_cast<sockaddr *>(&sa),
                          sizeof(sa)) == 0)
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        ADD_FAILURE() << "cannot connect to " << socket_path;
    }

    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    send(const std::string &bytes)
    {
        ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
                  static_cast<ssize_t>(bytes.size()));
    }

    /** Blocking read of the next frame (fails the test on EOF). */
    Frame
    read()
    {
        Frame f;
        for (;;) {
            std::size_t consumed = 0;
            std::string err;
            const FrameDecodeStatus st =
                tryDecodeFrame(buf_, f, consumed, err);
            if (st == FrameDecodeStatus::Complete) {
                buf_.erase(0, consumed);
                return f;
            }
            EXPECT_EQ(st, FrameDecodeStatus::NeedMore) << err;
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                ADD_FAILURE() << "peer closed before a full frame";
                return f;
            }
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** True when the peer closes the connection (drop path). */
    bool
    waitForClose()
    {
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return errno != EINTR ? false : true;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

#endif // !defined(_WIN32)

} // namespace

TEST(ServiceResilience, WorkerFanOutIsBitIdenticalToSingleProcess)
{
    const ServiceRequest req = testRequest();
    const std::string truth_manifest = tempPath("truth.manifest.json");
    const CampaignResult truth = groundTruth(req, truth_manifest);
    const std::uint64_t want = campaignChecksum(truth);
    const std::string truth_doc = readWholeFile(truth_manifest);
    const std::string truth_results = jsonSection(truth_doc, "results");
    ASSERT_FALSE(truth_results.empty());

    // The result-cache section up to its plan replay: enabled,
    // capacity_bytes, entries, table_shards.  The merge builds no table,
    // yet reports the geometry the single-process run's table had.
    auto cacheGeometry = [](const std::string &doc) {
        const std::string rc =
            jsonSection(jsonSection(doc, "execution"), "result_cache");
        return rc.substr(0, rc.find("\"plan_replay\""));
    };
    const std::string truth_geometry = cacheGeometry(truth_doc);
    ASSERT_NE(truth_geometry.find("\"capacity_bytes\""),
              std::string::npos);
    ASSERT_NE(truth_geometry.find("\"table_shards\""), std::string::npos);

    for (int workers : {1, 2, 4}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        const std::string sock =
            uniqueSocketPath("fan" + std::to_string(workers));
        const std::string manifest = tempPath(
            "fan" + std::to_string(workers) + ".manifest.json");

        std::vector<pid_t> pids;
        for (int w = 0; w < workers; ++w)
            pids.push_back(spawnWorker(
                "unix:" + sock, "w" + std::to_string(w)));

        CoordinatorOptions copts;
        copts.listenAddr = "unix:" + sock;
        copts.leaseShards = 8;
        copts.reportPath = manifest;
        CoordinatorRun run = runCampaignCoordinator(req, copts);

        for (pid_t pid : pids)
            EXPECT_TRUE(reapCleanExit(pid));
        ASSERT_TRUE(run.complete);
        EXPECT_EQ(campaignChecksum(run.result), want)
            << "distributed merge diverged at " << workers
            << " workers";
        EXPECT_EQ(run.result.totalInjections, truth.totalInjections);

        // The manifest "results" section must be byte-identical; the
        // "execution" section legitimately differs (topology, wall
        // time) and carries the worker fan-out.
        const std::string doc = readWholeFile(manifest);
        EXPECT_EQ(jsonSection(doc, "results"), truth_results);
        EXPECT_NE(jsonSection(doc, "execution").find("\"topology\""),
                  std::string::npos);
        EXPECT_EQ(cacheGeometry(doc), truth_geometry);

        // Telemetry: every worker connected and the shard counts add
        // up to the whole plan.
        EXPECT_EQ(run.topology.workers.size(),
                  static_cast<std::size_t>(workers));
        std::uint64_t shards = 0;
        for (const WorkerProcessTelemetry &w : run.topology.workers)
            shards += w.shards;
        Network net = buildServiceNetwork(req);
        EXPECT_EQ(shards,
                  fixedShardPlan(net, campaignConfigFor(req)).size());

        std::remove(manifest.c_str());
    }
    std::remove(truth_manifest.c_str());
}

TEST(ServiceResilience, WorkerKilledMidShardIsReIssuedAndBitIdentical)
{
    const ServiceRequest req = testRequest();
    const std::uint64_t want = campaignChecksum(groundTruth(req, ""));

    const std::string sock = uniqueSocketPath("kill");

    CoordinatorOptions copts;
    copts.listenAddr = "unix:" + sock;
    copts.leaseShards = 8;
    auto coordinator = startCoordinator(req, copts);

    // The victim dies via raise(SIGKILL) upon accepting its second
    // lease — after its first RESULT, holding an unserved lease.  It
    // is the only worker until it has been reaped, so its death does
    // not depend on scheduling: no other worker can drain the plan
    // first.  The survivor must then pick up the re-issued chunks.
    const pid_t victim =
        spawnWorker("unix:" + sock, "victim", /*die_after_results=*/1);
    EXPECT_TRUE(reapKilled(victim));
    const pid_t survivor = spawnWorker("unix:" + sock, "survivor");

    CoordinatorRun run = coordinator.get();
    EXPECT_TRUE(reapCleanExit(survivor));
    ASSERT_TRUE(run.complete);
    EXPECT_EQ(campaignChecksum(run.result), want)
        << "worker death perturbed the merged campaign";

    // The victim's unserved lease was re-issued (counted as expired)
    // and both its RESULT and the survivor's work are in the merge.
    std::uint64_t expired = 0, victim_shards = 0, survivor_shards = 0;
    for (const WorkerProcessTelemetry &w : run.topology.workers) {
        expired += w.leasesExpired;
        if (w.name == "victim")
            victim_shards = w.shards;
        if (w.name == "survivor")
            survivor_shards = w.shards;
    }
    EXPECT_GE(expired, 1u);
    EXPECT_EQ(victim_shards, copts.leaseShards);
    EXPECT_GT(survivor_shards, 0u);
}

TEST(ServiceResilience, DefaultHeartbeatWorkerExitsPromptlyAfterDone)
{
    // The heartbeat period (5 s by default) must not bound how long a
    // worker takes to exit: DONE stops the heartbeat immediately, so
    // the worker is reaped well within a second of the coordinator
    // returning.
    const ServiceRequest req = testRequest();
    const std::string sock = uniqueSocketPath("exit");
    const pid_t worker = spawnWorker("unix:" + sock, "w0",
                                     /*die_after_results=*/0,
                                     /*heartbeat_sec=*/0.0);

    CoordinatorOptions copts;
    copts.listenAddr = "unix:" + sock;
    copts.leaseShards = 8;
    CoordinatorRun run = runCampaignCoordinator(req, copts);
    const auto returned = std::chrono::steady_clock::now();
    EXPECT_TRUE(reapCleanExit(worker));
    const double reap_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - returned)
                              .count();
    EXPECT_TRUE(run.complete);
    EXPECT_LT(reap_s, 1.0) << "worker exit stalled after DONE";
}

TEST(ServiceResilience, CoordinatorReturnsPromptlyAfterItsLastMerge)
{
    // The twin of the worker-exit test above: the connection thread
    // whose merge completes the campaign wakes the accept loop, and
    // the final merge executes no shard, so it builds no result-cache
    // table.  The worker exits on DONE, right after that merge, so the
    // coordinator returns within a fraction of a second of the
    // worker's reap, not an accept-loop tick and two 64 MiB tables
    // later.
    const ServiceRequest req = testRequest();
    const std::string sock = uniqueSocketPath("return");
    CoordinatorOptions copts;
    copts.listenAddr = "unix:" + sock;
    copts.leaseShards = 8;
    auto coordinator = std::async(std::launch::async, [req, copts] {
        CoordinatorRun run = runCampaignCoordinator(req, copts);
        return std::make_pair(std::move(run),
                              std::chrono::steady_clock::now());
    });
    const pid_t worker = spawnWorker("unix:" + sock, "w0");
    EXPECT_TRUE(reapCleanExit(worker));
    const auto reaped = std::chrono::steady_clock::now();
    const auto [run, returned] = coordinator.get();
    const double lag_s =
        std::chrono::duration<double>(returned - reaped).count();
    EXPECT_TRUE(run.complete);
    EXPECT_LT(lag_s, 0.15) << "coordinator lingered after its last merge";
}

TEST(ServiceResilience, CoordinatorRestartResumesFromCheckpoint)
{
    const ServiceRequest req = testRequest();
    const CampaignResult truth = groundTruth(req, "");

    const std::string sock = uniqueSocketPath("restart");
    const std::string ckpt = tempPath("restart.fidckpt");
    std::remove(ckpt.c_str());

    // First life: merge a few chunks, then "crash" (the deterministic
    // stop hook checkpoints and returns incomplete).
    {
        const pid_t worker = spawnWorker("unix:" + sock, "w0");
        CoordinatorOptions copts;
        copts.listenAddr = "unix:" + sock;
        copts.leaseShards = 4;
        copts.checkpointPath = ckpt;
        copts.stopAfterMergedChunks = 3;
        CoordinatorRun first = runCampaignCoordinator(req, copts);
        EXPECT_TRUE(reapCleanExit(worker));
        ASSERT_FALSE(first.complete);
    }

    // Second life: only the snapshot survives; the restarted
    // coordinator re-issues the remainder and the merged result is
    // bit-identical to an uninterrupted single-process run.
    {
        const pid_t worker = spawnWorker("unix:" + sock, "w1");
        CoordinatorOptions copts;
        copts.listenAddr = "unix:" + sock;
        copts.leaseShards = 4;
        copts.checkpointPath = ckpt;
        copts.resumeFrom = ckpt;
        CoordinatorRun second = runCampaignCoordinator(req, copts);
        EXPECT_TRUE(reapCleanExit(worker));
        ASSERT_TRUE(second.complete);
        EXPECT_EQ(campaignChecksum(second.result),
                  campaignChecksum(truth));
        EXPECT_EQ(second.result.totalInjections,
                  truth.totalInjections);
    }
    std::remove(ckpt.c_str());
}

#if !defined(_WIN32)

TEST(ServiceResilience, WrongReadyHashIsRejectedWithoutPoisoningTheRun)
{
    const ServiceRequest req = testRequest();
    const std::uint64_t want = campaignChecksum(groundTruth(req, ""));

    const std::string sock = uniqueSocketPath("badhash");
    auto coordinator = startCoordinator(req, [&] {
        CoordinatorOptions copts;
        copts.listenAddr = "unix:" + sock;
        copts.leaseShards = 8;
        return copts;
    }());

    // An impostor completes the handshake but announces a READY hash
    // off by one bit — build/version skew that would corrupt the
    // merge.  The coordinator must answer ERROR and drop it.
    {
        RawConn impostor(sock);
        HelloPayload hello;
        hello.worker = "impostor";
        impostor.send(encodeHello(hello));
        SpecPayload spec;
        std::string err;
        ASSERT_TRUE(tryParseSpec(impostor.read(), spec, err)) << err;
        impostor.send(encodeReady({spec.configHash ^ 1}));

        const Frame verdict = impostor.read();
        ASSERT_EQ(verdict.type, FrameType::Error);
        std::string message;
        ASSERT_TRUE(tryParseText(verdict, FrameType::Error, message,
                                 err))
            << err;
        EXPECT_NE(message.find("does not match campaign"),
                  std::string::npos)
            << message;
        EXPECT_TRUE(impostor.waitForClose());
    }

    // A real worker then completes the campaign untouched.
    const pid_t worker = spawnWorker("unix:" + sock, "honest");
    CoordinatorRun run = coordinator.get();
    EXPECT_TRUE(reapCleanExit(worker));
    ASSERT_TRUE(run.complete);
    EXPECT_EQ(campaignChecksum(run.result), want);
}

TEST(ServiceResilience, LastMergeWakesTheCoordinatorWithoutATick)
{
    // A scripted worker sends, for one lease covering the whole plan,
    // the journal a real worker would send, computed beforehand, so
    // the last RESULT arrives within milliseconds of the coordinator's
    // last accept.  Waking on a periodic accept-loop tick would hold
    // the coordinator for most of a period after that merge; waking
    // on the merge itself leaves only the zero-shard merge.
    const ServiceRequest req = testRequest();
    const CampaignResult truth = groundTruth(req, "");
    Network net = buildServiceNetwork(req);
    FixedShardExecutor executor(net, serviceInput(req), serviceMetric(req),
                                campaignConfigFor(req));
    const std::uint64_t shards = executor.planSize();
    ResultPayload result{0, shards, {}};
    CampaignSnapshot journal;
    journal.shards = executor.execute(0, shards);

    const std::string sock = uniqueSocketPath("wake");
    CoordinatorOptions copts;
    copts.listenAddr = "unix:" + sock;
    copts.leaseShards = shards;
    auto coordinator = std::async(std::launch::async, [req, copts] {
        CoordinatorRun run = runCampaignCoordinator(req, copts);
        return std::make_pair(std::move(run),
                              std::chrono::steady_clock::now());
    });

    RawConn worker(sock);
    HelloPayload hello;
    hello.worker = "scripted";
    worker.send(encodeHello(hello));
    SpecPayload spec;
    std::string err;
    ASSERT_TRUE(tryParseSpec(worker.read(), spec, err)) << err;
    worker.send(encodeReady({spec.configHash}));
    LeasePayload lease;
    ASSERT_TRUE(tryParseLease(worker.read(), lease, err)) << err;
    ASSERT_EQ(lease.first, 0u);
    ASSERT_EQ(lease.count, shards);
    journal.configHash = spec.configHash;
    result.journal = encodeSnapshot(journal);
    const auto sent = std::chrono::steady_clock::now();
    worker.send(encodeResult(result));
    EXPECT_EQ(worker.read().type, FrameType::Done);

    const auto [run, returned] = coordinator.get();
    const double lag_s =
        std::chrono::duration<double>(returned - sent).count();
    ASSERT_TRUE(run.complete);
    EXPECT_EQ(campaignChecksum(run.result), campaignChecksum(truth));
    EXPECT_LT(lag_s, 0.1) << "coordinator waited after its last merge";
}

#endif // !defined(_WIN32)

TEST(ServiceResilience, DaemonSurvivesMalformedRequestsAndDrains)
{
    const std::string sock = uniqueSocketPath("daemon");
    // A nested state dir that does not exist yet: the daemon must
    // create it up front instead of fataling when the first
    // campaign's checkpoint writer opens its temp file there.
    const std::string state_dir =
        testing::TempDir() + "fidsvc-state-" +
        std::to_string(::getpid()) + "/nested";
    auto daemon = std::async(std::launch::async, [&] {
        DaemonOptions dopts;
        dopts.listenAddr = "unix:" + sock;
        dopts.maxConcurrent = 2;
        dopts.stateDir = state_dir;
        return runServiceDaemon(dopts);
    });

    // Malformed requests come back as error responses...
    std::string response, err;
    for (int attempt = 0;; ++attempt) {
        if (submitServiceRequest("unix:" + sock, "definitely not json",
                                 false, response, err))
            FAIL() << "malformed request was accepted: " << response;
        if (err.find("cannot connect") == std::string::npos)
            break; // the daemon is up and answered
        ASSERT_LT(attempt, 100) << err;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_FALSE(err.empty());

    EXPECT_FALSE(submitServiceRequest(
        "unix:" + sock, "{\"network\": \"vgg9000\"}", false, response,
        err));
    EXPECT_NE(err.find("unknown network"), std::string::npos) << err;

    // ...and the same daemon still serves real campaigns afterwards.
    ServiceRequest req = testRequest();
    req.samplesPerCategory = 2;
    req.shardGrain = 2;
    ASSERT_TRUE(submitServiceRequest("unix:" + sock,
                                     serviceRequestJson(req), false,
                                     response, err))
        << err;
    EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos)
        << response;
    EXPECT_NE(response.find("\"campaign_checksum\""),
              std::string::npos)
        << response;

    // Graceful drain ends the process loop with exit code 0.
    ASSERT_TRUE(submitServiceRequest("unix:" + sock, "", true,
                                     response, err))
        << err;
    EXPECT_NE(response.find("draining"), std::string::npos);
    EXPECT_EQ(daemon.get(), 0);
}

namespace
{

/** Block until the daemon at `sock` answers its status op. */
void
waitForDaemon(const std::string &sock)
{
    std::string response, err;
    for (int attempt = 0; attempt < 200; ++attempt) {
        if (queryServiceStatus("unix:" + sock, response, err))
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    FAIL() << "daemon at " << sock << " never came up: " << err;
}

/** Submit on a helper thread; yields (ok, response-or-error). */
std::future<std::pair<bool, std::string>>
submitAsync(const std::string &sock, const ServiceRequest &req)
{
    const std::string json = serviceRequestJson(req);
    return std::async(std::launch::async, [sock, json] {
        std::string response, err;
        const bool ok = submitServiceRequest("unix:" + sock, json,
                                             false, response, err);
        return std::make_pair(ok, ok ? response : err);
    });
}

} // namespace

TEST(ServiceResilience, DrainRejectsQueuedRequestsButFinishesExecuting)
{
    const std::string sock = uniqueSocketPath("drainq");
    auto daemon = std::async(std::launch::async, [&] {
        DaemonOptions dopts;
        dopts.listenAddr = "unix:" + sock;
        dopts.maxConcurrent = 1;
        dopts.maxQueue = 8;
        dopts.testServiceDelaySec = 1.5;
        return runServiceDaemon(dopts);
    });
    waitForDaemon(sock);

    // One request executes (the single worker pops it immediately);
    // two more sit admitted-but-unstarted behind it.
    ServiceRequest req = testRequest();
    req.samplesPerCategory = 2;
    req.shardGrain = 2;
    auto executing = submitAsync(sock, req);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    ServiceRequest q1 = req, q2 = req;
    q1.seed = 11;
    q2.seed = 13;
    auto queued1 = submitAsync(sock, q1);
    auto queued2 = submitAsync(sock, q2);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // DRAIN: admitted is not a promise to execute.  The in-flight
    // campaign finishes; the queued ones get the typed rejection.
    std::string response, err;
    ASSERT_TRUE(submitServiceRequest("unix:" + sock, "", true,
                                     response, err))
        << err;

    auto [ok, body] = executing.get();
    EXPECT_TRUE(ok) << body;
    EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos)
        << body;
    for (auto *f : {&queued1, &queued2}) {
        auto [qok, qbody] = f->get();
        EXPECT_FALSE(qok) << qbody;
        std::string code;
        ASSERT_TRUE(typedErrorStatus(qbody, code)) << qbody;
        EXPECT_EQ(code, "draining");
    }
    EXPECT_EQ(daemon.get(), 0);
}

TEST(ServiceResilience, FullQueueAnswersTypedBusyRejection)
{
    const std::string sock = uniqueSocketPath("busy");
    auto daemon = std::async(std::launch::async, [&] {
        DaemonOptions dopts;
        dopts.listenAddr = "unix:" + sock;
        dopts.maxConcurrent = 1;
        dopts.maxQueue = 1;
        dopts.testServiceDelaySec = 1.5;
        return runServiceDaemon(dopts);
    });
    waitForDaemon(sock);

    ServiceRequest req = testRequest();
    req.samplesPerCategory = 2;
    req.shardGrain = 2;
    auto executing = submitAsync(sock, req); // popped by the worker
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    ServiceRequest q1 = req;
    q1.seed = 11;
    auto queued = submitAsync(sock, q1); // fills the 1-slot queue
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // The third submission overflows the queue and is answered
    // immediately with the typed busy error, not left hanging.
    ServiceRequest q2 = req;
    q2.seed = 13;
    std::string response, err;
    EXPECT_FALSE(submitServiceRequest("unix:" + sock,
                                      serviceRequestJson(q2), false,
                                      response, err));
    std::string code;
    ASSERT_TRUE(typedErrorStatus(err, code)) << err;
    EXPECT_EQ(code, "busy");

    // Admitted requests are unaffected by the rejection.
    auto [ok1, body1] = executing.get();
    EXPECT_TRUE(ok1) << body1;
    auto [ok2, body2] = queued.get();
    EXPECT_TRUE(ok2) << body2;

    ASSERT_TRUE(submitServiceRequest("unix:" + sock, "", true,
                                     response, err))
        << err;
    EXPECT_EQ(daemon.get(), 0);
}

TEST(ServiceResilience, CorruptCheckpointFailsOneRequestNotTheDaemon)
{
    const std::string sock = uniqueSocketPath("corrupt");
    const std::string state_dir =
        testing::TempDir() + "fidsvc-corrupt-" +
        std::to_string(::getpid());
    auto daemon = std::async(std::launch::async, [&] {
        DaemonOptions dopts;
        dopts.listenAddr = "unix:" + sock;
        dopts.maxConcurrent = 2;
        dopts.stateDir = state_dir;
        return runServiceDaemon(dopts);
    });
    waitForDaemon(sock);

    // A well-formed, semantically valid request whose hash-keyed
    // checkpoint file holds garbage: resume hits fatal() inside the
    // snapshot decoder.  The old daemon died here, taking every other
    // campaign with it; now the fatal is captured and answers only
    // this client.
    ServiceRequest poisoned = testRequest();
    poisoned.samplesPerCategory = 2;
    poisoned.shardGrain = 2;
    poisoned.seed = 21;
    {
        Network net = buildServiceNetwork(poisoned);
        Tensor input = serviceInput(poisoned);
        const std::uint64_t hash = campaignConfigHash(
            net, input, campaignConfigFor(poisoned));
        char name[64];
        std::snprintf(name, sizeof(name),
                      "/campaign-0x%016llx.fidckpt",
                      static_cast<unsigned long long>(hash));
        std::ofstream out(state_dir + name, std::ios::binary);
        ASSERT_TRUE(out) << state_dir + name;
        out << "this is not a campaign snapshot";
    }

    // A healthy campaign runs concurrently on the other worker.
    ServiceRequest healthy = testRequest();
    healthy.samplesPerCategory = 2;
    healthy.shardGrain = 2;
    healthy.seed = 22;
    auto concurrent = submitAsync(sock, healthy);

    std::string response, err;
    EXPECT_FALSE(submitServiceRequest("unix:" + sock,
                                      serviceRequestJson(poisoned),
                                      false, response, err));
    EXPECT_FALSE(err.empty());

    // The concurrent campaign and later submissions are untouched.
    auto [ok, body] = concurrent.get();
    EXPECT_TRUE(ok) << body;
    EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos)
        << body;
    ServiceRequest after = healthy;
    after.seed = 23;
    ASSERT_TRUE(submitServiceRequest("unix:" + sock,
                                     serviceRequestJson(after), false,
                                     response, err))
        << err;
    // With --state-dir the response embeds the manifest, whose
    // execution metrics carry the daemon's per-request queue wait
    // (CampaignConfig::serviceMetrics; the byte-compared "results"
    // section never sees it).
    EXPECT_NE(response.find("\"daemon.queue_wait_s\""),
              std::string::npos)
        << response;

    ASSERT_TRUE(submitServiceRequest("unix:" + sock, "", true,
                                     response, err))
        << err;
    EXPECT_EQ(daemon.get(), 0);
}

TEST(ServiceResilience, DuplicateSubmissionsShareOneExecution)
{
    const std::string sock = uniqueSocketPath("dedup");
    auto daemon = std::async(std::launch::async, [&] {
        DaemonOptions dopts;
        dopts.listenAddr = "unix:" + sock;
        dopts.maxConcurrent = 2;
        // The delay synchronises the two pops far inside the race
        // window: both workers sleep it off, then exactly one wins
        // the single-flight insert and the other parks its socket.
        dopts.testServiceDelaySec = 0.5;
        return runServiceDaemon(dopts);
    });
    waitForDaemon(sock);

    ServiceRequest req = testRequest();
    req.samplesPerCategory = 2;
    req.shardGrain = 2;
    req.seed = 31;
    auto first = submitAsync(sock, req);
    auto second = submitAsync(sock, req);
    auto [ok1, body1] = first.get();
    auto [ok2, body2] = second.get();
    ASSERT_TRUE(ok1) << body1;
    ASSERT_TRUE(ok2) << body2;

    // Same config hash, same campaign, same bytes: the duplicate's
    // answer IS the leader's answer.
    EXPECT_EQ(body1, body2);
    EXPECT_NE(body1.find("\"campaign_checksum\""), std::string::npos);

    std::string status, err;
    ASSERT_TRUE(queryServiceStatus("unix:" + sock, status, err))
        << err;
    EXPECT_NE(status.find("\"daemon.dedup_joined\": 1"),
              std::string::npos)
        << status;

    std::string response;
    ASSERT_TRUE(submitServiceRequest("unix:" + sock, "", true,
                                     response, err))
        << err;
    EXPECT_EQ(daemon.get(), 0);
}

#if !defined(_WIN32)

TEST(ServiceResilience, SendDeadlineBoundsWritesToAWedgedPeer)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Shrink the kernel buffers so the payload below cannot possibly
    // fit, then never read from the peer: an unbounded send would
    // block forever (the old daemon's slow-reader hang).
    int snd = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &snd, sizeof(snd));
    const std::string payload(1 << 22, 'x');

    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(sendBytesWithDeadline(fds[0], payload, 0.5));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_GE(elapsed, 0.4);
    EXPECT_LT(elapsed, 5.0);

    ::close(fds[0]);
    ::close(fds[1]);
}

#endif // !defined(_WIN32)
