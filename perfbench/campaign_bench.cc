/**
 * @file
 * Closed-loop campaign benchmark driver.
 *
 *   campaign_bench --workload=NAME --seed=N --seconds=S --trace=0|1
 *                  --work-dir=DIR
 *   campaign_bench --self-test --work-dir=DIR
 *
 * Each workload is one campaign request generated from the seed.  The
 * driver first computes the request's reference result untimed (one
 * thread, dense engine, batch width 1, result cache off), then submits
 * the campaign, waits for the merged result, checks it against the
 * reference, and only then submits the next, until the measuring
 * window closes.  The library is driven only through its public calls.
 *
 * With --trace=0 the last stdout line carries the end-to-end metrics;
 * with --trace=1 it carries the per-layer metrics of a separate traced
 * run, whose spans are kept in memory and written to DIR at the end.
 * perfbench/run.py builds this binary and turns its output into the
 * benchmark's result line; perfbench/README.md lists the metrics.
 */

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hh"
#include "core/injector.hh"
#include "nn/conv.hh"
#include "sim/checkpoint.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/result_cache.hh"
#include "sim/service.hh"
#include "simd/simd.hh"

using namespace fidelity;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
peakRssMiB(int who)
{
    rusage ru{};
    ::getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

// ----- Workloads ---------------------------------------------------------

/**
 * One benchmark workload: the campaign request its seed generates and
 * how it is executed.  Only the campaign seed varies with --seed; the
 * network, its weights and its input stay fixed, so every seed asks for
 * the same amount of work on the same model.
 */
struct Workload
{
    std::string name;
    ServiceRequest req;
    int workers = 0; //!< > 0: through the coordinator and N workers
};

/** splitmix64 finaliser: nearby --seed values give unrelated streams. */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

const std::vector<std::string> kWorkloadNames = {
    "fixed_resnet_fp16_1t", "adaptive_transformer_int8_2t",
    "dist_resnet_fp16_2w"};

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    w.name = name;
    w.req = ServiceRequest{};
    // Kept below 2^31 so every JSON parser on the SPEC path takes it.
    w.req.seed = 1 + (mixSeed(seed) >> 33);
    if (name == "fixed_resnet_fp16_1t" || name == "dist_resnet_fp16_2w") {
        // 7 MAC layers x 6 sampled categories x 32 shards of 8 = 1344
        // shards, 10752 injections: several seconds on one core, and
        // half of that on two workers stays inside one heartbeat
        // period (5 s) of the worker binary.
        w.req.network = "resnet";
        w.req.precision = Precision::FP16;
        w.req.metric = "top1";
        w.req.samplesPerCategory = 256;
        w.req.shardGrain = 8;
        w.req.threads = 1;
        w.workers = name == "dist_resnet_fp16_2w" ? 2 : 0;
        return true;
    }
    if (name == "adaptive_transformer_int8_2t") {
        w.req.network = "transformer";
        w.req.precision = Precision::INT8;
        w.req.metric = "bleu10";
        w.req.targetHalfWidth = 0.03;
        w.req.threads = 2;
        return true;
    }
    return false;
}

/**
 * The fixed-schedule twin of a workload's request, whose plan the
 * traced run walks shard by shard: the request itself when it is
 * fixed, otherwise the same network, precision, metric and seed with a
 * fixed budget that plans at least 1000 shards.
 */
ServiceRequest
fixedTwin(const ServiceRequest &req, std::size_t cells)
{
    if (req.targetHalfWidth <= 0.0)
        return req;
    ServiceRequest twin = req;
    twin.targetHalfWidth = 0.0;
    const std::size_t per_cell = (1000 + cells - 1) / cells;
    twin.samplesPerCategory =
        static_cast<int>(per_cell) * twin.shardGrain;
    return twin;
}

// ----- Reference and output check ------------------------------------------

/** What every timed campaign of a run must reproduce. */
struct Reference
{
    CampaignResult result;
    std::uint64_t checksum = 0;
    std::string results; //!< manifest "results" section (if written)
};

Reference
computeReference(const ServiceRequest &req, const std::string &manifest)
{
    Network net = buildServiceNetwork(req);
    Tensor input = serviceInput(req);
    CampaignConfig cfg = campaignConfigFor(req);
    cfg.numThreads = 1;
    cfg.incremental = false;
    cfg.batchWidth = 1;
    cfg.resultCacheEnabled = false;
    cfg.reportPath = manifest;
    Reference ref;
    ref.result = runCampaign(net, input, serviceMetric(req), cfg);
    ref.checksum = campaignChecksum(ref.result);
    if (!manifest.empty())
        ref.results = jsonSection(readFile(manifest), "results");
    return ref;
}

/** Empty when `res` (and its manifest section, when given) match. */
std::string
checkAgainst(const Reference &ref, const CampaignResult &res,
             const std::string *results = nullptr)
{
    if (!res.complete)
        return "campaign incomplete";
    if (campaignChecksum(res) != ref.checksum)
        return "campaignChecksum differs from the dense reference";
    if (results && *results != ref.results)
        return "manifest results section differs from the reference";
    return {};
}

/** The reference with one cell's masked counter flipped by one. */
CampaignResult
corrupted(const CampaignResult &res)
{
    CampaignResult bad = res;
    for (CellResult &cell : bad.cells) {
        const std::uint64_t t = cell.masked.trials();
        if (t == 0)
            continue;
        const std::uint64_t s = cell.masked.successes();
        Proportion flipped;
        flipped.add(s < t ? s + 1 : s - 1, t);
        cell.masked = flipped;
        break;
    }
    return bad;
}

// ----- Child processes -----------------------------------------------------

/**
 * Worker processes of the distributed workload.  Every spawned child is
 * reaped on every path: normally once it exits, on an exception right
 * after a SIGKILL, at process exit by the destructor, and past the hard
 * deadline by the watchdog, which kills and reaps whatever is still
 * registered before the process exits.
 */
class Children
{
  public:
    struct Exit
    {
        bool ok = false; //!< exited normally with status 0
        double maxRssMiB = 0.0;
    };

    Children() = default;
    Children(const Children &) = delete;
    Children &operator=(const Children &) = delete;
    ~Children() { killAll(); }

    /** fork/exec `fidelity_service worker` with its default flags. */
    pid_t
    spawnWorker(const std::string &addr, const std::string &name)
    {
        const std::string connect = "--connect=" + addr;
        const std::string wname = "--name=" + name;
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::execl(FIDELITY_SERVICE_BIN, FIDELITY_SERVICE_BIN, "worker",
                    connect.c_str(), wname.c_str(),
                    static_cast<char *>(nullptr));
            std::perror("execl fidelity_service");
            ::_exit(127);
        }
        fatal_if(pid < 0, "fork failed: ", std::strerror(errno));
        std::lock_guard<std::mutex> lock(m_);
        pids_.push_back(pid);
        return pid;
    }

    /** Wait for one child to exit and forget it. */
    Exit
    reap(pid_t pid)
    {
        Exit e;
        int status = 0;
        rusage ru{};
        pid_t rc;
        while ((rc = ::wait4(pid, &status, 0, &ru)) < 0 && errno == EINTR) {
        }
        e.ok = rc == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        e.maxRssMiB = static_cast<double>(ru.ru_maxrss) / 1024.0;
        std::lock_guard<std::mutex> lock(m_);
        pids_.erase(std::remove(pids_.begin(), pids_.end(), pid),
                    pids_.end());
        return e;
    }

    /** SIGKILL and reap the given children. */
    void
    kill(const std::vector<pid_t> &pids)
    {
        for (pid_t pid : pids)
            ::kill(pid, SIGKILL);
        for (pid_t pid : pids)
            reap(pid);
    }

    void
    killAll()
    {
        std::vector<pid_t> pids;
        {
            std::lock_guard<std::mutex> lock(m_);
            pids = pids_;
        }
        kill(pids);
    }

  private:
    std::mutex m_;
    std::vector<pid_t> pids_;
};

Children gChildren;

/** Hard deadline over the whole run: past it, kill, reap, exit 2. */
class Watchdog
{
  public:
    explicit Watchdog(double seconds)
        : thread_([this, seconds] {
              std::unique_lock<std::mutex> lock(m_);
              if (cv_.wait_for(lock,
                               std::chrono::duration<double>(seconds),
                               [this] { return done_; }))
                  return;
              std::fprintf(stderr,
                           "campaign_bench: hard deadline of %.0f s "
                           "blown; killing workers\n",
                           seconds);
              gChildren.killAll();
              std::_Exit(2);
          })
    {
    }
    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;
    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_; // last: started once the members it uses exist
};

// ----- Tracing -------------------------------------------------------------

/**
 * In-memory span recorder of the traced run.  Spans wrap the benchmark's
 * own calls into the library; they are written out once, at the end.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    explicit Tracer(std::string workload)
        : workload_(std::move(workload)), epoch_(Clock::now())
    {
    }

    int
    begin(std::string name, int parent = -1)
    {
        spans_.push_back({std::move(name), now(), 0.0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close span `id`; returns its duration in seconds. */
    double
    end(int id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end = now();
        return s.end - s.start;
    }

    /** Run `fn` inside a span; returns the span's duration. */
    template <typename Fn>
    double
    span(std::string name, int parent, Fn &&fn)
    {
        const int id = begin(std::move(name), parent);
        fn();
        return end(id);
    }

    void
    write(const std::string &path) const
    {
        std::string out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += JsonLineBuilder()
                       .field("workload", workload_)
                       .field("id", static_cast<std::int64_t>(i))
                       .field("name", s.name)
                       .field("parent", static_cast<std::int64_t>(s.parent))
                       .field("start_s", s.start)
                       .field("end_s", s.end)
                       .str() +
                   "\n";
        }
        atomicWriteFile(path, out);
    }

  private:
    double now() const { return secondsBetween(epoch_, Clock::now()); }

    std::string workload_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

// ----- Set-up and one campaign ---------------------------------------------

/** The set-up every campaign (and every worker on SPEC) pays. */
struct Setup
{
    Network net{""};
    Tensor input;
    std::shared_ptr<ResultCache> cache;
    double buildS = 0.0, goldenS = 0.0, allocS = 0.0;

    double total() const { return buildS + goldenS + allocS; }
};

Setup
setUp(const ServiceRequest &req)
{
    const CampaignConfig cfg = campaignConfigFor(req);
    Setup s;
    const auto t0 = Clock::now();
    s.net = buildServiceNetwork(req);
    s.input = serviceInput(req);
    const auto t1 = Clock::now();
    {
        Injector golden(s.net, s.input, cfg.accel);
    }
    const auto t2 = Clock::now();
    s.cache = std::make_shared<ResultCache>(
        static_cast<std::size_t>(cfg.resultCacheMB) << 20);
    const auto t3 = Clock::now();
    s.buildS = secondsBetween(t0, t1);
    s.goldenS = secondsBetween(t1, t2);
    s.allocS = secondsBetween(t2, t3);
    return s;
}

/** How the worker processes of one distributed campaign ended. */
struct WorkerExits
{
    bool ok = true;           //!< every worker exited with status 0
    double wallS = 0.0;       //!< first spawn to last reap
    double reapWaitS = 0.0;   //!< coordinator return to last reap
    double workerRssMiB = 0.0; //!< sum of the workers' peaks
};

/** Outcome of one submitted campaign. */
struct Op
{
    bool ok = false;
    std::string error;
    CampaignResult result;
    double setupS = 0.0;
    double campaignS = 0.0;
    double wallS = 0.0; //!< in process: setup + campaign
    WorkerTopology topology;
    ResultCacheStats cacheStats; //!< in-process: the caller-owned table

    /** Distributed: ready once every worker is reaped. */
    std::shared_future<WorkerExits> exits;

    /** Wait for the workers, then settle the outcome. */
    const WorkerExits &
    finish()
    {
        static const WorkerExits none;
        if (!exits.valid())
            return none;
        const WorkerExits &x = exits.get();
        wallS = x.wallS;
        if (error.empty() && !x.ok)
            error = "a worker exited abnormally";
        ok = error.empty();
        return x;
    }
};

struct OpOptions
{
    int threads = 0;            //!< 0: the request's own
    CorrectnessFn metric;       //!< null: the request's own
    std::string manifest;       //!< in-process reportPath
};

/** Submit one in-process campaign and wait for its result. */
Op
runInProcess(const ServiceRequest &req, const Reference &ref,
             const OpOptions &o = {})
{
    Op op;
    ScopedFatalCapture capture;
    try {
        Setup s = setUp(req);
        op.setupS = s.total();
        CampaignConfig cfg = campaignConfigFor(req);
        if (o.threads > 0)
            cfg.numThreads = o.threads;
        cfg.resultCache = s.cache;
        cfg.reportPath = o.manifest;
        const CorrectnessFn metric = o.metric ? o.metric : serviceMetric(req);
        const auto t0 = Clock::now();
        op.result = runCampaign(s.net, s.input, metric, cfg);
        op.campaignS = secondsBetween(t0, Clock::now());
        op.wallS = op.setupS + op.campaignS;
        op.cacheStats = s.cache->stats();
        op.error = checkAgainst(ref, op.result);
    } catch (const FatalError &e) {
        op.error = e.what();
    }
    op.ok = op.error.empty();
    return op;
}

/**
 * Submit one campaign through the coordinator and `workers` worker
 * processes, spawned first with the service binary's default flags.
 * The merged result is checked as soon as the coordinator returns.  The
 * workers are reaped on a helper thread (Op::exits): after the merged
 * result they only sit out their heartbeat period, idle, so the next
 * campaign may start meanwhile.
 */
Op
runDistributed(const ServiceRequest &req, int workers, const Reference &ref,
               const std::string &dir, int serial)
{
    Op op;
    ScopedFatalCapture capture;
    try {
        Setup s = setUp(req); // what each worker repeats on SPEC
        op.setupS = s.total();
    } catch (const FatalError &e) {
        op.error = e.what();
        return op;
    }
    // Relative to the working directory: a unix socket path is capped
    // at 108 bytes, and the workers inherit the directory.
    const std::string sock = dir + "/s" + std::to_string(::getpid()) +
                             "-" + std::to_string(serial) + ".sock";
    const std::string manifest =
        dir + "/merge" + std::to_string(serial) + ".manifest.json";
    ::unlink(sock.c_str());
    CoordinatorOptions copts;
    copts.listenAddr = "unix:" + sock;
    copts.reportPath = manifest;

    CoordinatorRun run;
    std::vector<pid_t> pids;
    const auto spawn = Clock::now();
    Clock::time_point returned = spawn;
    try {
        for (int w = 0; w < workers; ++w)
            pids.push_back(gChildren.spawnWorker(
                copts.listenAddr, "w" + std::to_string(w)));
        const auto t0 = Clock::now();
        run = runCampaignCoordinator(req, copts);
        returned = Clock::now();
        op.campaignS = secondsBetween(t0, returned);
    } catch (const FatalError &e) {
        op.error = e.what();
        gChildren.kill(pids);
    }
    op.exits = std::async(std::launch::async, [pids, spawn, returned] {
                   WorkerExits x;
                   for (pid_t pid : pids) {
                       const Children::Exit e = gChildren.reap(pid);
                       x.ok = x.ok && e.ok;
                       x.workerRssMiB += e.maxRssMiB;
                   }
                   const auto reaped = Clock::now();
                   x.wallS = secondsBetween(spawn, reaped);
                   x.reapWaitS = secondsBetween(returned, reaped);
                   return x;
               }).share();
    if (op.error.empty() && !run.complete)
        op.error = "coordinator run incomplete";
    if (op.error.empty()) {
        op.result = run.result;
        op.topology = run.topology;
        const std::string results =
            jsonSection(readFile(manifest), "results");
        op.error = checkAgainst(ref, op.result, &results);
    }
    op.ok = op.error.empty();
    return op;
}

// ----- Result line ---------------------------------------------------------

struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> v;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        v.push_back({name, {value, unit}});
    }
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &m, const std::string &host)
{
    std::string metrics = "{";
    for (std::size_t i = 0; i < m.v.size(); ++i) {
        if (i)
            metrics += ", ";
        metrics += "\"" + m.v[i].first + "\": " +
                   JsonLineBuilder()
                       .field("value", m.v[i].second.first)
                       .field("unit", m.v[i].second.second)
                       .str();
    }
    metrics += "}";
    std::printf("%s\n", JsonLineBuilder()
                            .field("correct", correct)
                            .field("attempted", attempted)
                            .field("failed", failed)
                            .rawField("metrics", metrics)
                            .rawField("host", host)
                            .str()
                            .c_str());
    std::fflush(stdout);
}

/** The CPU's brand string, from CPUID (no file read). */
std::string
cpuModel()
{
    std::string model;
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned leaf = 0x80000002u; leaf <= 0x80000004u; ++leaf) {
            unsigned r[4] = {0, 0, 0, 0};
            __get_cpuid(leaf, &r[0], &r[1], &r[2], &r[3]);
            model.append(reinterpret_cast<const char *>(r), sizeof(r));
        }
        model = model.c_str(); // drop the NUL padding
        const std::size_t first = model.find_first_not_of(' ');
        model = first == std::string::npos ? "" : model.substr(first);
    }
#endif
    return model.empty() ? "unknown" : model;
}

std::string
hostStamp(const Workload &w, std::uint64_t injections)
{
    JsonLineBuilder b;
    b.field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
        .field("cpu", cpuModel())
        .field("simd_backend", simd::backendName())
        .field("simd_dispatch", simd::dispatchMode())
        .field("workload", w.name)
        .field("network", w.req.network)
        .field("precision", precisionName(w.req.precision))
        .field("metric", w.req.metric)
        .field("campaign_seed", w.req.seed)
        .field("injections", injections);
    if (w.req.targetHalfWidth > 0.0)
        b.field("target_half_width", w.req.targetHalfWidth);
    else
        b.field("samples_per_category", w.req.samplesPerCategory);
    if (w.workers > 0)
        b.field("workers", w.workers);
    else
        b.field("threads", w.req.threads);
    return b.str();
}

// ----- Timed run (--trace=0) -----------------------------------------------

int
timedRun(const Workload &w, double seconds, const std::string &dir)
{
    const Reference ref = computeReference(
        w.req, w.workers > 0 ? dir + "/reference.manifest.json" : "");
    // The check must catch a single wrong counter; if it cannot, no
    // result of this run can be trusted.
    const CampaignResult bad = corrupted(ref.result);
    std::string bad_results = ref.results + " ";
    const bool check_works = !checkAgainst(ref, bad).empty() &&
                       !checkAgainst(ref, ref.result, &bad_results).empty();

    std::vector<Op> ops;
    const auto start = Clock::now();
    for (;;) {
        const auto t0 = Clock::now();
        ops.push_back(w.workers > 0
                          ? runDistributed(w.req, w.workers, ref, dir,
                                           static_cast<int>(ops.size()))
                          : runInProcess(w.req, ref));
        const auto t1 = Clock::now();
        // Start another campaign only if it ends inside the window.
        if (secondsBetween(start, t1) + secondsBetween(t0, t1) > seconds)
            break;
    }
    std::vector<double> setup, campaign, rate, wall, worker_rss;
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        Op &op = ops[i];
        worker_rss.push_back(op.finish().workerRssMiB);
        if (!op.ok) {
            ++failed;
            std::fprintf(stderr, "campaign_bench: operation %zu failed: %s\n",
                         i + 1, op.error.c_str());
            continue;
        }
        std::fprintf(stderr,
                     "campaign_bench: operation %zu: setup %.4f s, "
                     "campaign %.4f s, wall %.4f s\n",
                     i + 1, op.setupS, op.campaignS, op.wallS);
        setup.push_back(op.setupS);
        campaign.push_back(op.campaignS);
        rate.push_back(static_cast<double>(op.result.totalInjections) /
                       op.campaignS);
        wall.push_back(op.wallS);
    }
    // set-up is cheap: sample it a few more times for a steady median.
    while (setup.size() < 7)
        setup.push_back(setUp(w.req).total());

    Metrics m;
    m.add("campaign_s", median(campaign), "s");
    m.add("inj_per_s", median(rate), "inj/s");
    m.add("setup_s", median(setup), "s");
    m.add("peak_rss_mb", peakRssMiB(RUSAGE_SELF) + median(worker_rss),
          "MiB");
    m.add("wall_s", median(wall), "s");
    printResult(check_works && failed == 0, ops.size(), failed, m,
                hostStamp(w, ref.result.totalInjections));
    return 0;
}

// ----- Traced run (--trace=1) ----------------------------------------------

/** Counters from a manifest's "execution" section. */
std::map<std::string, double>
executionCounters(const std::string &manifest)
{
    const std::string doc = readFile(manifest);
    const std::string exec = jsonSection(doc, "execution");
    std::map<std::string, double> out;
    for (const char *section : {"engine", "batched"}) {
        std::map<std::string, std::string> fields;
        std::string err;
        if (!parseJsonObject(jsonSection(exec, section), fields, err))
            continue;
        for (const auto &[k, v] : fields)
            out[std::string(section) + "." + k] = std::atof(v.c_str());
    }
    std::map<std::string, std::string> fields;
    std::string err;
    const std::string replay =
        jsonSection(jsonSection(exec, "result_cache"), "plan_replay");
    if (parseJsonObject(replay, fields, err))
        for (const auto &[k, v] : fields)
            out["replay." + k] = std::atof(v.c_str());
    out["phase.total_s"] = std::atof(
        jsonSection(jsonSection(exec, "metrics"), "phase.total_s").c_str());
    return out;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Kind of a MAC layer as the kernel layer sees it ("" = other). */
std::string
kernelKind(const Layer &layer)
{
    switch (layer.kind()) {
    case LayerKind::FC:
        return "fc";
    case LayerKind::MatMul:
        return "matmul";
    case LayerKind::Conv: {
        const ConvSpec &c = static_cast<const Conv2D &>(layer).spec();
        if (c.groups > 1 && c.groups == c.inC)
            return "depthwise";
        if (c.groups == 1 && c.kh == 3 && c.kw == 3)
            return "conv3x3";
        if (c.groups == 1 && c.kh == 1 && c.kw == 1)
            return "conv1x1";
        return "";
    }
    default:
        return "";
    }
}

const std::vector<std::string> kGflopsKinds = {"conv3x3", "fc", "matmul"};

/** The counts under prefixes p1/p2 (and the totals), as one string. */
std::string
countsKey(const std::map<std::string, double> &c, const CampaignResult &r,
          const std::string &p1, const std::string &p2)
{
    std::ostringstream os;
    os << r.totalInjections << '/' << r.rounds;
    for (const auto &[k, v] : c)
        if (k.rfind(p1, 0) == 0 || (!p2.empty() && k.rfind(p2, 0) == 0))
            os << ' ' << k << '=' << v;
    return os.str();
}

int
tracedRun(const Workload &w, const std::string &dir)
{
    Tracer tr(w.name);
    Metrics m;
    std::uint64_t attempted = 0, failed = 0;
    std::string host;
    auto check = [&](const std::string &what, const std::string &error) {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            std::fprintf(stderr, "campaign_bench: %s: %s\n", what.c_str(),
                         error.c_str());
        }
    };
    const int root = tr.begin("workload");

    Reference ref;
    tr.span("reference", root, [&] {
        ref = computeReference(
            w.req, w.workers > 0 ? dir + "/reference.manifest.json" : "");
    });
    host = hostStamp(w, ref.result.totalInjections);

    // -- set-up layers: workloads/tensor, core (golden pass), sim (table)
    {
        std::vector<double> build, golden, alloc;
        const int sp = tr.begin("setup", root);
        for (int i = 0; i < 5; ++i) {
            Setup s;
            const CampaignConfig cfg = campaignConfigFor(w.req);
            build.push_back(tr.span("workloads.build", sp, [&] {
                s.net = buildServiceNetwork(w.req);
                s.input = serviceInput(w.req);
            }));
            golden.push_back(tr.span("core.injector.golden", sp, [&] {
                Injector inj(s.net, s.input, cfg.accel);
            }));
            alloc.push_back(tr.span("sim.result_cache.alloc", sp, [&] {
                s.cache = std::make_shared<ResultCache>(
                    static_cast<std::size_t>(cfg.resultCacheMB) << 20);
            }));
        }
        tr.end(sp);
        m.add("workloads.build_s", median(build), "s");
        m.add("core.injector.golden_s", median(golden), "s");
        m.add("sim.result_cache.alloc_s", median(alloc), "s");
    }

    Network net = buildServiceNetwork(w.req);
    const Tensor input = serviceInput(w.req);

    // -- nn: one dense forward pass; simd: each MAC node's kernel
    {
        std::vector<double> fwd;
        const int sp = tr.begin("nn.forward", root);
        for (int i = 0; i < 15; ++i)
            fwd.push_back(tr.span("nn.network.forward", sp,
                                  [&] { (void)net.forward(input); }));
        tr.end(sp);
        m.add("nn.forward_ms", 1e3 * median(fwd), "ms");

        const Injector golden(net, input, campaignConfigFor(w.req).accel);
        std::map<std::string, std::pair<double, double>> flops; // 2*MACs, s
        const int kp = tr.begin("simd.kernels", root);
        for (NodeId node : net.macNodes()) {
            const Layer &layer = net.layer(node);
            const std::string kind = kernelKind(layer);
            if (kind.empty())
                continue;
            const auto ins = net.gatherInputs(node, golden.goldenActs());
            const double macs =
                static_cast<double>(golden.goldenActs()[node].size()) *
                static_cast<const MacLayer &>(layer).reductionLength();
            double secs = 0.0;
            int reps = 0;
            while (reps < 5 || secs < 0.02) {
                secs += tr.span("simd." + kind, kp,
                                [&] { (void)layer.forward(ins); });
                ++reps;
            }
            flops[kind].first += 2.0 * macs * reps;
            flops[kind].second += secs;
        }
        tr.end(kp);
        for (const std::string &kind : kGflopsKinds)
            m.add("simd.gflops." + kind,
                  ratio(flops[kind].first, flops[kind].second) / 1e9,
                  "GFLOP/s");
    }

    // -- core: the fixed plan, one span per shard, merged back
    const ServiceRequest twin = fixedTwin(
        w.req, net.macNodes().size() * (allFFCategories().size() - 1));
    const CampaignConfig twin_cfg = campaignConfigFor(twin);
    const std::vector<ShardPlanEntry> plan = fixedShardPlan(net, twin_cfg);
    {
        Reference twin_ref;
        if (twin.targetHalfWidth == w.req.targetHalfWidth &&
            twin.samplesPerCategory == w.req.samplesPerCategory)
            twin_ref = ref;
        else
            tr.span("reference.twin", root,
                    [&] { twin_ref = computeReference(twin, ""); });

        FixedShardExecutor ex(net, input, serviceMetric(twin), twin_cfg);
        std::vector<double> shard_s(plan.size());
        auto snap = std::make_shared<CampaignSnapshot>();
        snap->configHash = campaignConfigHash(net, input, twin_cfg);
        const int pp = tr.begin("core.campaign.plan", root);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            std::vector<ShardRecord> recs;
            shard_s[i] = tr.span("core.campaign.shard", pp,
                                 [&] { recs = ex.execute(i, 1); });
            snap->shards.push_back(std::move(recs.at(0)));
        }
        tr.end(pp);
        CampaignConfig merge_cfg = twin_cfg;
        merge_cfg.resumeSnapshot = snap;
        CampaignResult merged;
        tr.span("core.campaign.merge", root, [&] {
            merged = runCampaign(net, input, serviceMetric(twin), merge_cfg);
        });
        check("plan slices merged through resumeSnapshot",
              checkAgainst(twin_ref, merged));

        std::vector<double> ms;
        std::map<int, std::pair<double, double>> by_cat; // s, injections
        std::map<NodeId, double> by_node;
        double total = 0.0;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            ms.push_back(1e3 * shard_s[i]);
            by_cat[static_cast<int>(plan[i].category)].first += shard_s[i];
            by_cat[static_cast<int>(plan[i].category)].second +=
                plan[i].samples;
            by_node[plan[i].node] += shard_s[i];
            total += shard_s[i];
        }
        m.add("core.campaign.shard_ms.p50", percentile(ms, 50), "ms");
        m.add("core.campaign.shard_ms.p99", percentile(ms, 99), "ms");
        for (FFCategory cat : allFFCategories()) {
            if (cat == FFCategory::GlobalControl)
                continue;
            const auto &c = by_cat[static_cast<int>(cat)];
            m.add(std::string("core.campaign.inject_us.") +
                      ffCategoryName(cat),
                  1e6 * ratio(c.first, c.second), "us");
        }
        double top = 0.0;
        for (const auto &[node, s] : by_node)
            top = std::max(top, s);
        m.add("core.campaign.top_node_share", ratio(top, total), "frac");
    }

    // -- nn engines and the result cache on one slice of the plan
    {
        const std::size_t stride = std::max<std::size_t>(1, plan.size() / 128);
        struct Variant
        {
            const char *metric;
            bool incremental, cache;
            int width;
        };
        const Variant variants[] = {
            {"nn.dense.inject_us", false, false, 1},
            {"nn.incremental.inject_us", true, false, 1},
            {"nn.batched.inject_us", true, false, 8},
            {"sim.result_cache.inject_us", true, true, 8},
        };
        std::string first_bytes;
        const int sp = tr.begin("nn.slices", root);
        for (const Variant &v : variants) {
            CampaignConfig cfg = twin_cfg;
            cfg.incremental = v.incremental;
            cfg.batchWidth = v.width;
            cfg.resultCacheEnabled = v.cache;
            FixedShardExecutor ex(net, input, serviceMetric(twin), cfg);
            CampaignSnapshot journal;
            double secs = 0.0, injections = 0.0;
            const int vp = tr.begin(v.metric, sp);
            for (std::size_t i = 0; i < plan.size(); i += stride) {
                std::vector<ShardRecord> recs;
                secs += tr.span("core.campaign.shard", vp,
                                [&] { recs = ex.execute(i, 1); });
                injections += plan[i].samples;
                journal.shards.push_back(std::move(recs.at(0)));
            }
            tr.end(vp);
            m.add(v.metric, 1e6 * ratio(secs, injections), "us");
            const std::string bytes = encodeSnapshot(journal);
            if (first_bytes.empty())
                first_bytes = bytes;
            check(std::string("slice records of ") + v.metric,
                  bytes == first_bytes ? ""
                                       : "shard records differ from the "
                                         "dense engine's");
        }
        tr.end(sp);
    }

    // -- the workload's own campaign, untraced and traced in turn.  The
    // traced ones call the metric through a counting, timing wrapper.
    std::atomic<std::uint64_t> calls{0}, metric_ns{0};
    const CorrectnessFn inner = serviceMetric(w.req);
    const CorrectnessFn wrapped = [&](const Tensor &g, const Tensor &f) {
        const auto t0 = Clock::now();
        const bool ok = inner(g, f);
        metric_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        ++calls;
        return ok;
    };
    struct Run
    {
        Op op;
        std::map<std::string, double> counters;
    };
    int serial = 0;
    auto inProcess = [&](int threads, bool traced) {
        const std::string man =
            dir + "/run" + std::to_string(serial++) + ".manifest.json";
        Run r;
        const OpOptions o{threads, traced ? wrapped : CorrectnessFn{}, man};
        if (traced)
            tr.span("core.campaign.run", root,
                    [&] { r.op = runInProcess(w.req, ref, o); });
        else
            r.op = runInProcess(w.req, ref, o);
        check(std::string(traced ? "traced" : "untraced") +
                  " in-process campaign",
              r.op.error);
        r.counters = executionCounters(man);
        return r;
    };
    auto campaignSeconds = [](const std::vector<Run> &runs) {
        std::vector<double> v;
        for (const Run &r : runs)
            v.push_back(r.op.campaignS);
        return median(v);
    };
    // Counts that must repeat exactly: at the workload's own thread
    // count the injections, rounds and plan replay; the engine and
    // batch counters at one thread, because two threads sharing the
    // live table hit it in a scheduling-dependent order.
    auto repeats = [&](const std::vector<Run> &runs, const char *p1,
                       const char *p2) {
        for (const Run &r : runs) {
            const std::string a = countsKey(runs[0].counters,
                                            runs[0].op.result, p1, p2);
            const std::string b = countsKey(r.counters, r.op.result, p1, p2);
            check("deterministic counts repeat across campaigns",
                  a == b ? "" : "{" + a + "} vs {" + b + "}");
        }
    };

    const bool distributed = w.workers > 0;
    const int own_threads = w.req.threads;
    std::vector<Run> untraced, traced, one_thread, two_threads;
    for (int i = 0; i < 2; ++i) {
        untraced.push_back(inProcess(own_threads, false));
        traced.push_back(inProcess(own_threads, true));
    }
    std::vector<Run> own = untraced;
    own.insert(own.end(), traced.begin(), traced.end());
    (own_threads == 1 ? one_thread : two_threads) = own;
    for (int i = 0; i < 2; ++i)
        (own_threads == 1 ? two_threads : one_thread)
            .push_back(inProcess(own_threads == 1 ? 2 : 1, false));
    repeats(own, "replay.", "");
    repeats(one_thread, "engine.", "batched.");

    double untraced_s = campaignSeconds(untraced);
    double traced_s = campaignSeconds(traced);
    const double t1 = campaignSeconds(one_thread);
    {
        std::vector<double> hit_rate;
        std::uint64_t injections = 0;
        for (const Run &r : traced) {
            const ResultCacheStats &st = r.op.cacheStats;
            hit_rate.push_back(
                ratio(static_cast<double>(st.hits),
                      static_cast<double>(st.hits + st.misses)));
            injections += r.op.result.totalInjections;
        }
        m.add("sim.result_cache.hit_rate", median(hit_rate), "frac");
        m.add("core.metric.calls_frac",
              ratio(static_cast<double>(calls.load()),
                    static_cast<double>(injections)),
              "frac");
        m.add("core.metric.s",
              1e-9 * static_cast<double>(metric_ns.load()) /
                  static_cast<double>(traced.size()),
              "s");
    }
    const Run &first = own[0];
    const std::map<std::string, double> &eng = one_thread[0].counters;
    auto counter = [](const std::map<std::string, double> &c,
                      const std::string &k) {
        const auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    m.add("core.campaign.injections",
          static_cast<double>(first.op.result.totalInjections), "count");
    m.add("core.campaign.rounds", static_cast<double>(first.op.result.rounds),
          "count");
    m.add("nn.incremental.dense_frac",
          ratio(counter(eng, "engine.layers_dense"),
                counter(eng, "engine.layers_dense") +
                    counter(eng, "engine.layers_incremental")),
          "frac");
    m.add("nn.incremental.early_exit_frac",
          ratio(counter(eng, "engine.early_masked"),
                counter(eng, "engine.runs")),
          "frac");
    m.add("nn.incremental.elements",
          counter(eng, "engine.elements_recomputed"), "count");
    m.add("nn.batched.occupancy",
          ratio(counter(eng, "batched.lanes_seeded"),
                counter(eng, "batched.batches")),
          "lanes");
    m.add("nn.batched.lane_fallback_frac",
          ratio(counter(eng, "batched.layers_lane_fallback"),
                counter(eng, "batched.layers_lane_fallback") +
                    counter(eng, "batched.layers_batched_kernel")),
          "frac");
    m.add("nn.batched.retired_early_frac",
          ratio(counter(eng, "batched.lanes_retired_early"),
                counter(eng, "batched.lanes_seeded")),
          "frac");
    m.add("sim.result_cache.replay_hit_rate",
          counter(first.counters, "replay.hit_rate"), "frac");
    m.add("sim.thread_pool.efficiency",
          ratio(t1, 2.0 * campaignSeconds(two_threads)), "frac");

    // -- sim service: coordinator and worker processes, in turn untraced
    // and traced (a span around the whole fan-out)
    double reap_wait = 0.0, efficiency = 0.0, merge_s = 0.0, leases = 0.0,
           imbalance = 0.0, worker_rss = 0.0;
    if (distributed) {
        std::vector<double> u_s, t_s, reap, merge;
        Op t;
        for (int i = 0; i < 2; ++i) {
            Op u = runDistributed(w.req, w.workers, ref, dir, 2 * i);
            u.finish();
            check("untraced distributed campaign", u.error);
            u_s.push_back(u.campaignS);
            tr.span("sim.service.run", root, [&] {
                t = runDistributed(w.req, w.workers, ref, dir, 2 * i + 1);
                reap.push_back(t.finish().reapWaitS);
            });
            check("traced distributed campaign", t.error);
            t_s.push_back(t.campaignS);
            merge.push_back(counter(
                executionCounters(dir + "/merge" + std::to_string(2 * i + 1) +
                                  ".manifest.json"),
                "phase.total_s"));
        }
        untraced_s = median(u_s);
        traced_s = median(t_s);
        reap_wait = median(reap);
        efficiency = ratio(t1, w.workers * traced_s);
        merge_s = median(merge);
        double most = 0.0, sum = 0.0;
        for (const WorkerProcessTelemetry &wp : t.topology.workers) {
            leases += static_cast<double>(wp.leases);
            most = std::max(most, static_cast<double>(wp.injections));
            sum += static_cast<double>(wp.injections);
        }
        imbalance = ratio(most, sum / static_cast<double>(
                                          t.topology.workers.size()));
        worker_rss = peakRssMiB(RUSAGE_CHILDREN);
    }
    m.add("sim.service.reap_wait_s", reap_wait, "s");
    m.add("sim.service.efficiency", efficiency, "frac");
    m.add("sim.service.merge_s", merge_s, "s");
    m.add("sim.service.leases", leases, "count");
    m.add("sim.service.imbalance", imbalance, "ratio");
    m.add("sim.service.worker_rss_mb", worker_rss, "MiB");
    m.add("trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0, "frac");

    tr.end(root);
    tr.write(dir + "/" + w.name + ".trace.jsonl");
    printResult(failed == 0, attempted, failed, m, host);
    return 0;
}

// ----- Self-test -----------------------------------------------------------

int
selfTest(const std::string &dir)
{
    bool ok = true;
    auto expect = [&](bool cond, const std::string &what) {
        std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
        ok = ok && cond;
    };
    for (const std::string &name : kWorkloadNames) {
        Workload a, b, c;
        makeWorkload(name, 1, a);
        makeWorkload(name, 1, b);
        makeWorkload(name, 2, c);
        const std::string ja = serviceRequestJson(a.req);
        expect(ja == serviceRequestJson(b.req),
               name + ": same seed, same campaign request");
        expect(ja != serviceRequestJson(c.req),
               name + ": different seed, different campaign request");
        const Reference ra = computeReference(a.req, dir + "/st.json");
        const Reference rb = computeReference(b.req, dir + "/st.json");
        const Reference rc = computeReference(c.req, dir + "/st.json");
        expect(ra.checksum == rb.checksum && ra.results == rb.results,
               name + ": same seed, same reference checksum");
        expect(ra.checksum != rc.checksum,
               name + ": different seed, different reference checksum");
        expect(checkAgainst(ra, rb.result).empty(),
               name + ": a correct result passes the check");
        expect(!checkAgainst(ra, corrupted(ra.result)).empty(),
               name + ": one flipped cell counter fails the check");
        const std::string other_results = rc.results + " ";
        expect(!checkAgainst(ra, ra.result, &other_results).empty(),
               name + ": a different manifest results section fails "
                      "the check");
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, dir = ".";
    long long seed = 1, trace = 0;
    double seconds = 10.0;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            seed = parseIntArg("--seed", val, 0, 1LL << 62);
        else if (key == "--seconds")
            seconds = parseDoubleArg("--seconds", val, 0.0, 3600.0);
        else if (key == "--trace")
            trace = parseIntArg("--trace", val, 0, 1);
        else if (key == "--work-dir")
            dir = val;
        else if (key == "--self-test")
            self_test = true;
        else
            fatal("unknown argument '", arg, "'");
    }
    // Workers that outlive a hung coordinator are killed and reaped
    // well before the caller's own 180 s limit.
    Watchdog watchdog(160.0);
    if (self_test)
        return selfTest(dir);
    Workload w;
    fatal_if(!makeWorkload(workload, static_cast<std::uint64_t>(seed), w),
             "unknown workload '", workload, "'");
    return trace ? tracedRun(w, dir) : timedRun(w, seconds, dir);
}
