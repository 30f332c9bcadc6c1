/**
 * @file
 * Distributed-campaign throughput and bit-identity smoke.
 *
 * Runs one fixed-schedule ResNet campaign four ways on one box — in
 * process, then through the service coordinator with 1, 2, and 4
 * worker processes (fork/exec of the fidelity_service binary) — and
 * gates on the tentpole contract: every distributed merge must
 * reproduce the exact campaignChecksum and a byte-identical manifest
 * "results" section of the single-process run.  A final leg SIGKILLs
 * a worker mid-shard (the --die-after-results fault hook) and checks
 * the re-issued leases still converge to the same bits.  Every leg
 * is timed from its first worker spawn to its last reap, so a worker
 * that lingers after its coordinator returns shows in the wall time.
 * Exits non-zero on any divergence and on any worker that exits
 * non-zero or on a signal (other than the victim's own SIGKILL) —
 * this is the CI smoke for the service.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "sim/service.hh"

using namespace fidelity;
using namespace fidelity::bench;

namespace
{

std::string
socketPath(const std::string &tag)
{
    return "/tmp/fidsvc-bench-" + std::to_string(::getpid()) + "-" +
           tag + ".sock";
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

pid_t
spawnWorker(const std::string &addr, const std::string &name,
            std::uint64_t die_after_results = 0)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    const std::string connect = "--connect=" + addr;
    const std::string worker_name = "--name=" + name;
    const std::string die =
        "--die-after-results=" + std::to_string(die_after_results);
    ::execl(FIDELITY_SERVICE_BIN, FIDELITY_SERVICE_BIN, "worker",
            connect.c_str(), worker_name.c_str(), die.c_str(),
            static_cast<char *>(nullptr));
    std::perror("execl fidelity_service");
    ::_exit(127);
}

/** Wait for one worker and return its wait status. */
int
reap(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        std::perror("waitpid");
    return status;
}

bool
exitedCleanly(int status)
{
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace

int
main()
{
    const int samples = scaledSamples(40);
    ServiceRequest req;
    req.network = "resnet";
    req.samplesPerCategory = samples;
    req.shardGrain = 8;
    req.seed = 2029;

    printHeading(std::cout,
                 "Distributed campaign fan-out (" + req.network +
                     ", FP16, " + std::to_string(samples) +
                     " samples per layer/category)");

    // Ground truth: the single-process engine, manifest included.
    const std::string truth_manifest =
        "bench_distributed_truth.manifest.json";
    Network net = buildServiceNetwork(req);
    Tensor input = serviceInput(req);
    CampaignConfig cfg = campaignConfigFor(req);
    cfg.reportPath = truth_manifest;
    CampaignResult truth;
    const double base_secs = timeSeconds(
        [&] { truth = runCampaign(net, input, serviceMetric(req), cfg); });
    const std::uint64_t want = campaignChecksum(truth);
    const std::string want_results =
        jsonSection(readWholeFile(truth_manifest), "results");

    Table t({"workers", "wall s", "inj/s", "speedup", "checksum",
             "identical"});
    char digest[20];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(want));
    t.addRow({"in-process", Table::num(base_secs, 2),
              Table::num(static_cast<double>(truth.totalInjections) /
                             base_secs, 0),
              "1.00", digest, "-"});

    std::vector<ThroughputRecord> records;
    {
        ThroughputRecord rec;
        rec.bench = "distributed_campaign";
        rec.network = req.network;
        rec.mode = "in_process";
        rec.threads = 1;
        rec.batchWidth = req.batchWidth;
        rec.injections = truth.totalInjections;
        rec.wallSeconds = base_secs;
        records.push_back(rec);
    }

    bool all_identical = true;
    bool workers_ok = true; //!< every worker exited with status 0
    for (int workers : {1, 2, 4}) {
        const std::string sock =
            socketPath("w" + std::to_string(workers));
        const std::string manifest =
            "bench_distributed_" + std::to_string(workers) +
            ".manifest.json";
        CoordinatorOptions copts;
        copts.listenAddr = "unix:" + sock;
        copts.leaseShards = 8;
        copts.reportPath = manifest;
        CoordinatorRun run;
        // Each leg's wall time spans the whole worker lifetime, from
        // the first spawn to the last reap.
        const double secs = timeSeconds([&] {
            std::vector<pid_t> pids;
            for (int w = 0; w < workers; ++w)
                pids.push_back(spawnWorker("unix:" + sock,
                                           "w" + std::to_string(w)));
            run = runCampaignCoordinator(req, copts);
            for (pid_t pid : pids)
                workers_ok = exitedCleanly(reap(pid)) && workers_ok;
        });

        const std::uint64_t got =
            run.complete ? campaignChecksum(run.result) : 0;
        const bool checksum_ok = run.complete && got == want;
        const bool manifest_ok =
            jsonSection(readWholeFile(manifest), "results") ==
            want_results;
        all_identical = all_identical && checksum_ok && manifest_ok;

        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(got));
        t.addRow({std::to_string(workers), Table::num(secs, 2),
                  Table::num(static_cast<double>(
                                 run.result.totalInjections) / secs, 0),
                  Table::num(base_secs / secs, 2), digest,
                  checksum_ok && manifest_ok ? "yes" : "NO"});

        ThroughputRecord rec;
        rec.bench = "distributed_campaign";
        rec.network = req.network;
        rec.mode = "distributed_" + std::to_string(workers) + "w";
        rec.threads = workers;
        rec.batchWidth = req.batchWidth;
        rec.injections = run.result.totalInjections;
        rec.wallSeconds = secs;
        records.push_back(rec);
        std::remove(manifest.c_str());
    }
    t.print(std::cout);
    writeThroughputJson("distributed_campaign", records);
    std::remove(truth_manifest.c_str());
    std::cout << (all_identical
                      ? "\ndistributed merges bit-identical to the "
                        "in-process run\n"
                      : "\nERROR: a distributed merge diverged from "
                        "the in-process run\n");

    // Fault leg: one worker dies mid-shard (SIGKILL while holding a
    // lease); the survivor absorbs the re-issued chunks and the merge
    // must still be bit-identical.
    bool kill_identical = false;
    {
        const std::string sock = socketPath("kill");
        CoordinatorOptions copts;
        copts.listenAddr = "unix:" + sock;
        copts.leaseShards = 8;
        CoordinatorRun run;
        const double secs = timeSeconds([&] {
            const pid_t victim = spawnWorker("unix:" + sock, "victim",
                                             /*die_after_results=*/1);
            const pid_t survivor =
                spawnWorker("unix:" + sock, "survivor");
            run = runCampaignCoordinator(req, copts);
            // The victim may only die by its own SIGKILL hook (or exit
            // cleanly when the survivor drained the plan before its
            // second lease); the survivor must exit cleanly.
            const int victim_status = reap(victim);
            workers_ok = (exitedCleanly(victim_status) ||
                          (WIFSIGNALED(victim_status) &&
                           WTERMSIG(victim_status) == SIGKILL)) &&
                         workers_ok;
            workers_ok = exitedCleanly(reap(survivor)) && workers_ok;
        });
        kill_identical =
            run.complete && campaignChecksum(run.result) == want;
        std::uint64_t expired = 0;
        for (const WorkerProcessTelemetry &w : run.topology.workers)
            expired += w.leasesExpired;
        std::cout << (kill_identical
                          ? "worker-death leg bit-identical ("
                          : "ERROR: worker-death leg diverged (")
                  << expired << " lease(s) re-issued, "
                  << Table::num(secs, 2) << " s)\n"
                  << std::flush;
    }

    if (!workers_ok)
        std::cout << "ERROR: a worker exited abnormally\n";
    return all_identical && kill_identical && workers_ok ? 0 : 1;
}
