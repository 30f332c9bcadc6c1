#include "sim/service.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <type_traits>

#include "sim/checkpoint.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/parse.hh"
#include "sim/service_proto.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace fidelity
{

namespace
{

template <typename... Args>
std::string
describe(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

std::string
hexHash(std::uint64_t h)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
tryParsePrecision(const std::string &s, Precision &p)
{
    if (s == "fp32") { p = Precision::FP32; return true; }
    if (s == "fp16") { p = Precision::FP16; return true; }
    if (s == "int16") { p = Precision::INT16; return true; }
    if (s == "int8") { p = Precision::INT8; return true; }
    return false;
}

/** Request-grammar (lowercase) name of a precision — the inverse of
 *  tryParsePrecision, unlike precisionName()'s display casing. */
const char *
requestPrecisionName(Precision p)
{
    switch (p) {
    case Precision::FP32: return "fp32";
    case Precision::FP16: return "fp16";
    case Precision::INT16: return "int16";
    case Precision::INT8: return "int8";
    }
    return "fp16";
}

bool
knownMetricName(const std::string &s)
{
    return s == "top1" || s == "bleu10" || s == "bleu20" ||
           s == "det10" || s == "det20";
}

/** Tenant labels feed metric names and status JSON; keep them to a
 *  filename-safe alphabet so client input cannot mangle either. */
bool
validTenantName(const std::string &s)
{
    if (s.size() > 64)
        return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

// ----- Campaign requests -------------------------------------------

bool
tryParseServiceRequest(const std::string &json, ServiceRequest &req,
                       std::string &err)
{
    std::map<std::string, std::string> fields;
    if (!parseJsonObject(json, fields, err))
        return false;

    req = ServiceRequest{};
    // Integer/double fields go through the checked sim/parse twins so
    // a bad token names the key; the daemon answers with `err` instead
    // of dying.
    auto takeInt = [&](const char *key, long long lo, long long hi,
                       auto &out) {
        auto it = fields.find(key);
        if (it == fields.end())
            return true;
        long long v = 0;
        if (!tryParseInt(key, it->second, lo, hi, v, err))
            return false;
        out = static_cast<std::decay_t<decltype(out)>>(v);
        fields.erase(it);
        return true;
    };
    auto takeDouble = [&](const char *key, double lo, double hi,
                          double &out) {
        auto it = fields.find(key);
        if (it == fields.end())
            return true;
        if (!tryParseDouble(key, it->second, lo, hi, out, err))
            return false;
        fields.erase(it);
        return true;
    };
    auto takeString = [&](const char *key, std::string &out) {
        auto it = fields.find(key);
        if (it == fields.end())
            return;
        out = it->second;
        fields.erase(it);
    };

    takeString("network", req.network);
    std::string precision = "fp16";
    takeString("precision", precision);
    takeString("metric", req.metric);
    takeString("tenant", req.tenant);
    if (!takeInt("net_seed", 0,
                 std::numeric_limits<long long>::max(), req.netSeed) ||
        !takeInt("input_seed", 0,
                 std::numeric_limits<long long>::max(),
                 req.inputSeed) ||
        !takeInt("samples_per_category", 1, 1 << 24,
                 req.samplesPerCategory) ||
        !takeInt("seed", 0, std::numeric_limits<long long>::max(),
                 req.seed) ||
        !takeInt("shard_grain", 1, 1 << 20, req.shardGrain) ||
        !takeDouble("output_clamp_abs", 0.0, 1e12,
                    req.outputClampAbs) ||
        !takeDouble("target_half_width", 0.0, 1.0,
                    req.targetHalfWidth) ||
        !takeInt("threads", 0, 4096, req.threads) ||
        !takeInt("batch_width", 1, 8, req.batchWidth))
        return false;

    if (!fields.empty()) {
        err = describe("unknown request key \"", fields.begin()->first,
                       "\"");
        return false;
    }
    const auto &names = studyNetworkNames();
    if (std::find(names.begin(), names.end(), req.network) ==
        names.end()) {
        err = describe("unknown network \"", req.network, "\"");
        return false;
    }
    if (!tryParsePrecision(precision, req.precision)) {
        err = describe("unknown precision \"", precision, "\"");
        return false;
    }
    if (!knownMetricName(req.metric)) {
        err = describe("unknown metric \"", req.metric, "\"");
        return false;
    }
    if (!validTenantName(req.tenant)) {
        err = describe("invalid tenant \"", req.tenant,
                       "\" (want [A-Za-z0-9_-], at most 64 chars)");
        return false;
    }
    return true;
}

std::string
serviceRequestJson(const ServiceRequest &req)
{
    JsonLineBuilder b;
    b.field("network", req.network);
    b.field("precision", requestPrecisionName(req.precision));
    b.field("metric", req.metric);
    b.field("net_seed", req.netSeed);
    b.field("input_seed", req.inputSeed);
    b.field("samples_per_category", req.samplesPerCategory);
    b.field("seed", req.seed);
    b.field("shard_grain", req.shardGrain);
    b.field("output_clamp_abs", req.outputClampAbs);
    b.field("target_half_width", req.targetHalfWidth);
    b.field("threads", req.threads);
    b.field("batch_width", req.batchWidth);
    // Omitted when empty so pre-tenant request JSON round-trips to the
    // same bytes (the default tenant is the empty string).
    if (!req.tenant.empty())
        b.field("tenant", req.tenant);
    return b.str();
}

Network
buildServiceNetwork(const ServiceRequest &req)
{
    Network net = buildNetwork(req.network, req.netSeed);
    net.setPrecision(req.precision);
    if (req.precision == Precision::INT16 ||
        req.precision == Precision::INT8)
        net.calibrate(serviceInput(req));
    return net;
}

Tensor
serviceInput(const ServiceRequest &req)
{
    return defaultInputFor(req.network, req.inputSeed);
}

CorrectnessFn
serviceMetric(const ServiceRequest &req)
{
    if (req.metric == "top1")
        return top1Metric();
    if (req.metric == "bleu10")
        return bleuMetric(0.10);
    if (req.metric == "bleu20")
        return bleuMetric(0.20);
    if (req.metric == "det10")
        return detectionMetric(0.10);
    if (req.metric == "det20")
        return detectionMetric(0.20);
    fatal("unknown metric '", req.metric, "'");
}

CampaignConfig
campaignConfigFor(const ServiceRequest &req)
{
    CampaignConfig cfg;
    cfg.samplesPerCategory = req.samplesPerCategory;
    cfg.seed = req.seed;
    cfg.shardGrain = req.shardGrain;
    cfg.outputClampAbs = req.outputClampAbs;
    cfg.targetHalfWidth = req.targetHalfWidth;
    cfg.numThreads = req.threads;
    cfg.batchWidth = req.batchWidth;
    return cfg;
}

// ----- Lease bookkeeping -------------------------------------------

LeaseBook::LeaseBook(std::uint64_t planShards, std::uint64_t leaseShards)
{
    fatal_if(leaseShards == 0, "leaseShards must be > 0");
    for (std::uint64_t first = 0; first < planShards;
         first += leaseShards) {
        Chunk c;
        c.first = first;
        c.count = std::min(leaseShards, planShards - first);
        chunks_.push_back(std::move(c));
    }
}

void
LeaseBook::expireStale(double now_sec)
{
    for (Chunk &c : chunks_) {
        if (c.state == ChunkState::Leased && c.deadline < now_sec) {
            warn("lease of shards [", c.first, ", ",
                 c.first + c.count, ") to ", c.owner,
                 " expired; re-issuing");
            c.state = ChunkState::Unleased;
            c.owner.clear();
            ++expired_;
        }
    }
}

bool
LeaseBook::lease(const std::string &worker, double now_sec,
                 double timeout_sec, std::uint64_t &first,
                 std::uint64_t &count)
{
    expireStale(now_sec);
    for (Chunk &c : chunks_) {
        if (c.state != ChunkState::Unleased)
            continue;
        c.state = ChunkState::Leased;
        c.owner = worker;
        c.deadline = now_sec + timeout_sec;
        first = c.first;
        count = c.count;
        return true;
    }
    return false;
}

LeaseBook::ResultOutcome
LeaseBook::complete(std::uint64_t first, std::uint64_t count)
{
    for (Chunk &c : chunks_) {
        if (c.first != first || c.count != count)
            continue;
        if (c.state == ChunkState::Merged)
            return ResultOutcome::Duplicate;
        // A result is accepted from an Unleased chunk too: the lease
        // expired but the journal is the journal — deterministic, so
        // first-to-arrive wins and the re-issue becomes a duplicate.
        c.state = ChunkState::Merged;
        c.owner.clear();
        return ResultOutcome::Merged;
    }
    return ResultOutcome::Unknown;
}

void
LeaseBook::heartbeat(const std::string &worker, double now_sec,
                     double timeout_sec)
{
    for (Chunk &c : chunks_)
        if (c.state == ChunkState::Leased && c.owner == worker)
            c.deadline = now_sec + timeout_sec;
}

std::uint64_t
LeaseBook::release(const std::string &worker)
{
    std::uint64_t n = 0;
    for (Chunk &c : chunks_) {
        if (c.state == ChunkState::Leased && c.owner == worker) {
            c.state = ChunkState::Unleased;
            c.owner.clear();
            ++n;
            ++expired_;
        }
    }
    return n;
}

void
LeaseBook::markMerged(std::uint64_t first, std::uint64_t count)
{
    for (Chunk &c : chunks_)
        if (c.first == first && c.count == count)
            c.state = ChunkState::Merged;
}

bool
LeaseBook::allMerged() const
{
    for (const Chunk &c : chunks_)
        if (c.state != ChunkState::Merged)
            return false;
    return true;
}

std::uint64_t
LeaseBook::mergedChunks() const
{
    std::uint64_t n = 0;
    for (const Chunk &c : chunks_)
        if (c.state == ChunkState::Merged)
            ++n;
    return n;
}

std::uint64_t
LeaseBook::chunkCount() const
{
    return chunks_.size();
}

#if !defined(_WIN32)

// ----- Sockets ------------------------------------------------------

namespace
{

struct ServiceAddr
{
    bool unixSocket = true;
    std::string path; //!< unix
    std::string host; //!< tcp
    std::string port; //!< tcp
};

ServiceAddr
parseServiceAddr(const std::string &addr)
{
    ServiceAddr a;
    if (addr.rfind("unix:", 0) == 0) {
        a.unixSocket = true;
        a.path = addr.substr(5);
        fatal_if(a.path.empty(), "empty unix socket path in '", addr,
                 "'");
        fatal_if(a.path.size() >= sizeof(sockaddr_un{}.sun_path),
                 "unix socket path '", a.path, "' is too long");
        return a;
    }
    if (addr.rfind("tcp:", 0) == 0) {
        a.unixSocket = false;
        const std::string rest = addr.substr(4);
        const std::size_t colon = rest.find_last_of(':');
        fatal_if(colon == std::string::npos || colon == 0 ||
                     colon + 1 == rest.size(),
                 "tcp address '", addr,
                 "' must look like tcp:<host>:<port>");
        a.host = rest.substr(0, colon);
        a.port = rest.substr(colon + 1);
        return a;
    }
    fatal("service address '", addr,
          "' must start with unix: or tcp:");
}

int
listenOn(const ServiceAddr &a)
{
    int fd = -1;
    if (a.unixSocket) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        fatal_if(fd < 0, "cannot create unix socket: ",
                 std::strerror(errno));
        ::unlink(a.path.c_str()); // stale socket from a dead process
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::strncpy(sa.sun_path, a.path.c_str(),
                     sizeof(sa.sun_path) - 1);
        fatal_if(::bind(fd, reinterpret_cast<sockaddr *>(&sa),
                        sizeof(sa)) != 0,
                 "cannot bind ", a.path, ": ", std::strerror(errno));
    } else {
        addrinfo hints{};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        hints.ai_flags = AI_PASSIVE;
        addrinfo *res = nullptr;
        int rc = ::getaddrinfo(a.host.c_str(), a.port.c_str(), &hints,
                               &res);
        fatal_if(rc != 0, "cannot resolve ", a.host, ":", a.port, ": ",
                 ::gai_strerror(rc));
        fd = ::socket(res->ai_family, res->ai_socktype,
                      res->ai_protocol);
        fatal_if(fd < 0, "cannot create tcp socket: ",
                 std::strerror(errno));
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, res->ai_addr, res->ai_addrlen) != 0) {
            ::freeaddrinfo(res);
            fatal("cannot bind ", a.host, ":", a.port, ": ",
                  std::strerror(errno));
        }
        ::freeaddrinfo(res);
    }
    fatal_if(::listen(fd, 64) != 0, "cannot listen: ",
             std::strerror(errno));
    return fd;
}

int
connectOnce(const ServiceAddr &a)
{
    if (a.unixSocket) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::strncpy(sa.sun_path, a.path.c_str(),
                     sizeof(sa.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                      sizeof(sa)) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    if (::getaddrinfo(a.host.c_str(), a.port.c_str(), &hints, &res) !=
        0)
        return -1;
    int fd = -1;
    for (addrinfo *p = res; p; p = p->ai_next) {
        fd = ::socket(p->ai_family, p->ai_socktype, p->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, p->ai_addr, p->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    return fd;
}

int
connectWithRetry(const ServiceAddr &a, const std::string &addr,
                 double timeout_sec)
{
    const double deadline = nowSec() + timeout_sec;
    for (;;) {
        int fd = connectOnce(a);
        if (fd >= 0)
            return fd;
        if (nowSec() >= deadline)
            fatal("cannot connect to ", addr, " within ", timeout_sec,
                  " s");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

/**
 * Default frame-write deadline of coordinator/worker traffic.  A
 * stalled-but-open peer (kernel buffers full, reader wedged) used to
 * pin the writing thread in blocking ::send forever; now it costs at
 * most this long, after which the peer is treated as dead — the same
 * outcome its lease expiry would reach anyway.
 */
constexpr double kFrameWriteDeadlineSec = 120.0;

/** sendBytesWithDeadline with the service-internal default. */
bool
sendBytes(int fd, std::string_view bytes)
{
    return sendBytesWithDeadline(fd, bytes, kFrameWriteDeadlineSec);
}

/** Frame reader over one socket: buffers bytes and yields frames via
 *  the streaming decoder; a Malformed verdict poisons the peer. */
class FrameConn
{
  public:
    explicit FrameConn(int fd) : fd_(fd) {}

    enum class Status { Frame, Timeout, Closed, Malformed };

    /** Read one frame, waiting at most timeout_sec (< 0 = forever). */
    Status
    readFrame(Frame &f, double timeout_sec, std::string &err)
    {
        const bool bounded = timeout_sec >= 0.0;
        const double deadline = nowSec() + timeout_sec;
        for (;;) {
            std::size_t consumed = 0;
            switch (tryDecodeFrame(buf_, f, consumed, err)) {
            case FrameDecodeStatus::Complete:
                buf_.erase(0, consumed);
                return Status::Frame;
            case FrameDecodeStatus::Malformed:
                return Status::Malformed;
            case FrameDecodeStatus::NeedMore:
                break;
            }
            int wait_ms = 200;
            if (bounded) {
                const double left = deadline - nowSec();
                if (left <= 0.0)
                    return Status::Timeout;
                wait_ms = std::min(
                    wait_ms,
                    static_cast<int>(left * 1000.0) + 1);
            }
            pollfd pfd{fd_, POLLIN, 0};
            int rc = ::poll(&pfd, 1, wait_ms);
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                err = describe("poll failed: ", std::strerror(errno));
                return Status::Closed;
            }
            if (rc == 0) {
                if (bounded && nowSec() >= deadline)
                    return Status::Timeout;
                continue;
            }
            char chunk[16384];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n == 0) {
                err = "peer closed the connection";
                return Status::Closed;
            }
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                err = describe("recv failed: ",
                               std::strerror(errno));
                return Status::Closed;
            }
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buf_;
};

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

} // namespace

bool
sendBytesWithDeadline(int fd, std::string_view bytes, double timeoutSec)
{
    const bool bounded = timeoutSec >= 0.0;
    const double deadline = nowSec() + timeoutSec;
    const char *p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        // MSG_DONTWAIT keeps the fd's own flags out of it: the send
        // either makes progress now or reports EAGAIN, and the wait
        // happens in poll where a deadline is enforceable.
        ssize_t n =
            ::send(fd, p, left, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            p += n;
            left -= static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR)
            return false;
        int wait_ms = 200;
        if (bounded) {
            const double remaining = deadline - nowSec();
            if (remaining <= 0.0)
                return false;
            wait_ms = std::min(
                wait_ms, static_cast<int>(remaining * 1000.0) + 1);
        }
        pollfd pfd{fd, POLLOUT, 0};
        int rc = ::poll(&pfd, 1, wait_ms);
        if (rc < 0 && errno != EINTR)
            return false;
        if (rc > 0 && (pfd.revents & (POLLERR | POLLNVAL)))
            return false;
    }
    return true;
}

// ----- Coordinator --------------------------------------------------

namespace
{

/** Shared state of one coordinator run. */
struct CoordCtx
{
    std::mutex m;
    std::condition_variable cv;

    LeaseBook book;
    std::map<std::uint64_t, ShardRecord> merged; //!< by ordinal

    std::uint64_t cfgHash = 0;
    std::string requestJson;
    const CoordinatorOptions *opts = nullptr;

    bool stopRequested = false; //!< stopAfterMergedChunks fired
    double lastCheckpoint = 0.0;

    /** Write end of the accept loop's self-pipe (non-blocking). */
    int wakeFd = -1;

    WorkerTopology topo;

    CoordCtx(std::uint64_t plan_shards, std::uint64_t lease_shards)
        : book(plan_shards, lease_shards)
    {}

    /** Under m: nothing left to serve. */
    bool
    doneServing() const
    {
        return stopRequested || book.allMerged();
    }

    /** Under m, after a merge: once nothing is left to serve, wake the
     *  accept loop, which blocks with no timeout.  Completion is final,
     *  so the byte is never drained; a full pipe is already readable. */
    void
    wakeIfDoneLocked() const
    {
        const char byte = 1;
        if (doneServing() && ::write(wakeFd, &byte, 1) < 0 &&
            errno != EAGAIN)
            warn("coordinator wake-up write failed: ",
                 std::strerror(errno));
    }

    /** Under m: write the merged journals to the checkpoint path. */
    void
    checkpointLocked(bool final_write)
    {
        if (opts->checkpointPath.empty())
            return;
        const double now = nowSec();
        if (!final_write &&
            now - lastCheckpoint < opts->checkpointEverySec)
            return;
        lastCheckpoint = now;
        CampaignSnapshot snap;
        snap.configHash = cfgHash;
        snap.shards.reserve(merged.size());
        for (const auto &[ordinal, rec] : merged)
            snap.shards.push_back(rec);
        writeSnapshot(opts->checkpointPath, snap);
    }

    WorkerProcessTelemetry &
    workerSlotLocked(const std::string &name)
    {
        for (WorkerProcessTelemetry &w : topo.workers)
            if (w.name == name)
                return w;
        WorkerProcessTelemetry w;
        w.name = name;
        topo.workers.push_back(std::move(w));
        return topo.workers.back();
    }
};

void serveWorkerConn(int fd, CoordCtx &ctx);

/** Serve one worker connection (one thread each).  Every exit path —
 *  handshake rejection, disconnect, DONE — must release the socket:
 *  a dropped peer otherwise holds its fd (and its peer's recv) until
 *  the whole process exits. */
void
serveWorker(int fd, CoordCtx &ctx)
{
    serveWorkerConn(fd, ctx);
    ::close(fd);
}

void
serveWorkerConn(int fd, CoordCtx &ctx)
{
    FrameConn conn(fd);
    Frame f;
    std::string err;
    std::string peer = "worker";

    auto drop = [&](const std::string &why) {
        warn("dropping ", peer, ": ", why);
        sendBytes(fd, encodeErrorFrame(why));
        std::lock_guard<std::mutex> lock(ctx.m);
        const std::uint64_t reverted = ctx.book.release(peer);
        if (reverted > 0)
            ctx.workerSlotLocked(peer).leasesExpired += reverted;
        ctx.cv.notify_all();
    };

    // HELLO → SPEC → READY handshake.
    if (conn.readFrame(f, 30.0, err) != FrameConn::Status::Frame)
        return;
    HelloPayload hello;
    if (!tryParseHello(f, hello, err)) {
        drop(err);
        return;
    }
    peer = hello.worker.empty() ? "unnamed worker" : hello.worker;
    if (hello.version != kServiceProtocolVersion) {
        drop(describe("protocol version ", hello.version,
                      " does not match coordinator version ",
                      kServiceProtocolVersion));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(ctx.m);
        WorkerProcessTelemetry &w = ctx.workerSlotLocked(peer);
        w.threads = static_cast<int>(hello.threads);
    }
    SpecPayload spec;
    spec.configHash = ctx.cfgHash;
    spec.requestJson = ctx.requestJson;
    if (!sendBytes(fd, encodeSpec(spec)))
        return;
    if (conn.readFrame(f, 60.0, err) != FrameConn::Status::Frame)
        return;
    ReadyPayload ready;
    if (!tryParseReady(f, ready, err)) {
        drop(err);
        return;
    }
    if (ready.configHash != ctx.cfgHash) {
        // The worker rebuilt a different campaign from the same spec —
        // a build/version skew that would silently corrupt the merge.
        drop(describe("READY config hash ", hexHash(ready.configHash),
                      " does not match campaign ",
                      hexHash(ctx.cfgHash)));
        return;
    }

    for (;;) {
        // Grant a lease (or finish).
        std::uint64_t first = 0, count = 0;
        {
            std::unique_lock<std::mutex> lock(ctx.m);
            for (;;) {
                if (ctx.doneServing()) {
                    sendBytes(fd, encodeDone());
                    return;
                }
                if (ctx.book.lease(peer, nowSec(),
                                   ctx.opts->leaseTimeoutSec, first,
                                   count)) {
                    ctx.workerSlotLocked(peer).leases += 1;
                    break;
                }
                // Everything is leased out; wait for a merge, an
                // expiry, or completion.
                ctx.cv.wait_for(lock,
                                std::chrono::milliseconds(250));
            }
        }
        LeasePayload lease{first, count};
        if (!sendBytes(fd, encodeLease(lease))) {
            drop("connection lost while sending LEASE");
            return;
        }

        // Await the RESULT (heartbeats interleave).
        bool merged_one = false;
        while (!merged_one) {
            switch (conn.readFrame(f, 0.5, err)) {
            case FrameConn::Status::Timeout:
                // The worker is executing; lease expiry (if it is
                // actually dead) is the book's business.
                continue;
            case FrameConn::Status::Closed: {
                std::lock_guard<std::mutex> lock(ctx.m);
                const std::uint64_t reverted = ctx.book.release(peer);
                if (reverted > 0) {
                    ctx.workerSlotLocked(peer).leasesExpired +=
                        reverted;
                    warn(peer, " disconnected mid-lease; ", reverted,
                         " chunk(s) re-issued");
                }
                ctx.cv.notify_all();
                return;
            }
            case FrameConn::Status::Malformed:
                drop(err);
                return;
            case FrameConn::Status::Frame:
                break;
            }
            if (f.type == FrameType::Heartbeat) {
                std::lock_guard<std::mutex> lock(ctx.m);
                ctx.book.heartbeat(peer, nowSec(),
                                   ctx.opts->leaseTimeoutSec);
                continue;
            }
            ResultPayload result;
            if (!tryParseResult(f, result, err)) {
                drop(err);
                return;
            }
            // The journal travels as FIDCKPT bytes; the decoder
            // validates every count against the byte budget, so a
            // corrupt journal names the peer instead of allocating.
            CampaignSnapshot snap;
            if (!tryDecodeSnapshot(result.journal.data(),
                                   result.journal.size(),
                                   "RESULT journal from " + peer, snap,
                                   err)) {
                drop(err);
                return;
            }
            if (snap.configHash != ctx.cfgHash) {
                drop(describe("RESULT journal config hash ",
                              hexHash(snap.configHash),
                              " does not match campaign ",
                              hexHash(ctx.cfgHash)));
                return;
            }
            if (snap.shards.size() != result.count ||
                (result.count > 0 &&
                 (snap.shards.front().ordinal < result.first ||
                  snap.shards.back().ordinal >=
                      result.first + result.count))) {
                drop(describe("RESULT journal does not cover shards [",
                              result.first, ", ",
                              result.first + result.count, ")"));
                return;
            }

            std::lock_guard<std::mutex> lock(ctx.m);
            switch (ctx.book.complete(result.first, result.count)) {
            case LeaseBook::ResultOutcome::Unknown:
                drop(describe("RESULT for unknown lease [",
                              result.first, ", ",
                              result.first + result.count, ")"));
                return;
            case LeaseBook::ResultOutcome::Duplicate:
                // A slow worker raced a re-issue; the journals are
                // deterministic, so dropping the copy is lossless.
                inform("duplicate RESULT for shards [", result.first,
                       ", ", result.first + result.count, ") from ",
                       peer, " ignored");
                merged_one = true;
                break;
            case LeaseBook::ResultOutcome::Merged: {
                WorkerProcessTelemetry &w = ctx.workerSlotLocked(peer);
                w.shards += result.count;
                for (ShardRecord &r : snap.shards) {
                    w.injections += r.trials;
                    ctx.merged[r.ordinal] = std::move(r);
                }
                if (ctx.opts->stopAfterMergedChunks > 0 &&
                    ctx.book.mergedChunks() >=
                        ctx.opts->stopAfterMergedChunks)
                    ctx.stopRequested = true;
                ctx.checkpointLocked(false);
                ctx.wakeIfDoneLocked();
                merged_one = true;
                break;
            }
            }
            ctx.cv.notify_all();
        }
    }
}

} // namespace

CoordinatorRun
runCampaignCoordinator(const ServiceRequest &req,
                       const CoordinatorOptions &opts)
{
    fatal_if(req.targetHalfWidth > 0.0,
             "adaptive campaigns are served in-process; the "
             "coordinator distributes fixed schedules only");
    Network net = buildServiceNetwork(req);
    Tensor input = serviceInput(req);
    CorrectnessFn metric = serviceMetric(req);
    CampaignConfig cfg = campaignConfigFor(req);
    const std::uint64_t cfg_hash = campaignConfigHash(net, input, cfg);
    const std::vector<ShardPlanEntry> plan = fixedShardPlan(net, cfg);
    fatal_if(plan.empty(), "campaign request plans zero shards");

    CoordCtx ctx(plan.size(), opts.leaseShards);
    ctx.cfgHash = cfg_hash;
    ctx.requestJson = serviceRequestJson(req);
    ctx.opts = &opts;
    ctx.topo.coordinator = opts.listenAddr;
    ctx.topo.leaseShards = opts.leaseShards;

    // Coordinator restart: restore the journals a previous run merged
    // and re-issue only the rest.  Partial chunks restore their
    // records too — re-execution overwrites them with identical bytes.
    ctx.merged = loadResumeShards(opts.resumeFrom, nullptr, cfg_hash);
    if (!ctx.merged.empty()) {
        for (std::uint64_t first = 0; first < plan.size();
             first += opts.leaseShards) {
            const std::uint64_t count =
                std::min(opts.leaseShards, plan.size() - first);
            bool covered = true;
            for (std::uint64_t o = first; o < first + count; ++o)
                if (ctx.merged.find(o) == ctx.merged.end()) {
                    covered = false;
                    break;
                }
            if (covered)
                ctx.book.markMerged(first, count);
        }
        inform("coordinator resuming: ", ctx.merged.size(),
               " shard journals restored, ", ctx.book.mergedChunks(),
               " of ", ctx.book.chunkCount(), " chunks already merged");
    }

    // The accept loop sleeps until a worker connects or the connection
    // thread whose merge finishes the campaign writes the self-pipe.
    int wake[2];
    fatal_if(::pipe(wake) != 0, "coordinator cannot create its wake-up "
             "pipe: ", std::strerror(errno));
    for (int fd : wake)
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(wake[1], F_SETFL, O_NONBLOCK);
    ctx.wakeFd = wake[1];

    const ServiceAddr addr = parseServiceAddr(opts.listenAddr);
    int listen_fd = listenOn(addr);
    inform("coordinator serving ", plan.size(), " shards (",
           ctx.book.chunkCount(), " chunks of ", opts.leaseShards,
           ") on ", opts.listenAddr);

    std::vector<std::thread> conns;
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(ctx.m);
            if (ctx.doneServing())
                break;
        }
        pollfd pfds[2] = {{listen_fd, POLLIN, 0}, {wake[0], POLLIN, 0}};
        int rc = ::poll(pfds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("coordinator poll failed: ", std::strerror(errno));
        }
        if (pfds[0].revents == 0)
            continue;
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            continue;
        conns.emplace_back(serveWorker, fd, std::ref(ctx));
    }
    // Connection threads send DONE to their (idle) workers and exit;
    // threads blocked on an executing worker finish after its RESULT.
    for (std::thread &t : conns)
        t.join();
    for (int fd : wake)
        ::close(fd);
    ::close(listen_fd);
    if (addr.unixSocket)
        ::unlink(addr.path.c_str());

    CoordinatorRun run;
    run.topology = ctx.topo;
    {
        std::lock_guard<std::mutex> lock(ctx.m);
        ctx.checkpointLocked(true);
        run.complete = ctx.book.allMerged();
    }
    if (!run.complete) {
        inform("coordinator stopped after ", ctx.book.mergedChunks(),
               " of ", ctx.book.chunkCount(),
               " chunks; journals are in ", opts.checkpointPath);
        return run;
    }

    // The merge: hand the complete journal set to runCampaign as an
    // in-memory resume snapshot.  Zero shards execute; the merge loop,
    // checksum, and manifest "results" section are exactly the
    // single-process code path — distribution cannot perturb them.
    auto snap = std::make_shared<CampaignSnapshot>();
    snap->configHash = cfg_hash;
    snap->shards.reserve(ctx.merged.size());
    for (auto &[ordinal, rec] : ctx.merged)
        snap->shards.push_back(std::move(rec));
    CampaignConfig merge_cfg = cfg;
    merge_cfg.resumeSnapshot = snap;
    merge_cfg.topology =
        std::make_shared<WorkerTopology>(run.topology);
    merge_cfg.reportPath = opts.reportPath;
    run.result = runCampaign(net, input, metric, merge_cfg);
    return run;
}

// ----- Worker -------------------------------------------------------

namespace
{

/**
 * A worker's HEARTBEAT sender: one frame per period on `fd` (under the
 * connection's write mutex) until destruction.  The period wait is a
 * condition-variable wait the destructor interrupts, so stopping —
 * and with it every worker exit — is immediate instead of waiting out
 * the rest of a period.
 */
class HeartbeatThread
{
  public:
    HeartbeatThread(int fd, std::mutex &write_mutex, double period_sec)
        : thread_([this, fd, &write_mutex, period_sec] {
              const auto period =
                  std::chrono::duration<double>(period_sec);
              std::unique_lock<std::mutex> lock(m_);
              while (!cv_.wait_for(lock, period,
                                   [this] { return stop_; })) {
                  std::lock_guard<std::mutex> send_lock(write_mutex);
                  if (!sendBytes(fd, encodeHeartbeat()))
                      return;
              }
          })
    {
    }

    ~HeartbeatThread()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    HeartbeatThread(const HeartbeatThread &) = delete;
    HeartbeatThread &operator=(const HeartbeatThread &) = delete;

  private:
    std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; //!< last: starts after the members it reads
};

} // namespace

int
runServiceWorker(const WorkerOptions &opts)
{
    const ServiceAddr addr = parseServiceAddr(opts.connectAddr);
    int fd = connectWithRetry(addr, opts.connectAddr,
                              opts.connectTimeoutSec);
    FrameConn conn(fd);
    std::mutex write_mutex; // RESULT writer vs heartbeat thread

    HelloPayload hello;
    hello.worker = opts.name;
    hello.threads = static_cast<std::uint64_t>(opts.threads);
    fatal_if(!sendBytes(fd, encodeHello(hello)),
             "cannot send HELLO to ", opts.connectAddr);

    Frame f;
    std::string err;
    fatal_if(conn.readFrame(f, 60.0, err) != FrameConn::Status::Frame,
             "no SPEC from coordinator: ", err);
    SpecPayload spec;
    fatal_if(!tryParseSpec(f, spec, err), "bad SPEC: ", err);
    ServiceRequest req;
    fatal_if(!tryParseServiceRequest(spec.requestJson, req, err),
             "coordinator sent an invalid campaign request: ", err);

    Network net = buildServiceNetwork(req);
    Tensor input = serviceInput(req);
    CorrectnessFn metric = serviceMetric(req);
    CampaignConfig cfg = campaignConfigFor(req);
    const std::uint64_t cfg_hash = campaignConfigHash(net, input, cfg);
    if (cfg_hash != spec.configHash)
        warn("worker ", opts.name, " computed config hash ",
             hexHash(cfg_hash), ", coordinator announced ",
             hexHash(spec.configHash),
             "; sending READY and expecting rejection");
    ReadyPayload ready{cfg_hash};
    fatal_if(!sendBytes(fd, encodeReady(ready)),
             "cannot send READY to ", opts.connectAddr);

    // Why the lease loop ended: empty on DONE/DRAIN, else the fatal
    // diagnostic.  The loop returns instead of exiting so the
    // heartbeat thread it owns is stopped on every path.
    auto serveLeases = [&]() -> std::string {
        // Heartbeats flow from a side thread while this one executes
        // leases, so a long shard never looks like death.
        HeartbeatThread heartbeat(fd, write_mutex,
                                  std::max(opts.heartbeatSec, 0.1));

        // One executor for every lease this worker drains: the golden
        // forward pass, result cache, and engines are paid once, as
        // the in-process fan-out pays them — per-lease cost is just
        // the shards themselves.  (The heartbeat is already running,
        // so a slow construction never looks like death.)
        FixedShardExecutor executor(net, input, metric, cfg);

        std::uint64_t results_sent = 0;
        for (;;) {
            if (conn.readFrame(f, -1.0, err) != FrameConn::Status::Frame)
                return "worker " + opts.name +
                       " lost its coordinator: " + err;
            if (f.type == FrameType::Done || f.type == FrameType::Drain)
                return {};
            if (f.type == FrameType::Error) {
                std::string message;
                tryParseText(f, FrameType::Error, message, err);
                return "coordinator rejected worker " + opts.name +
                       ": " + message;
            }
            LeasePayload lease;
            if (!tryParseLease(f, lease, err))
                return "worker " + opts.name +
                       " got an unexpected frame: " + err;
            // Deterministic fault hook: die mid-shard, holding this
            // lease, once the configured number of RESULTs is out the
            // door.
            if (opts.dieAfterResults > 0 &&
                results_sent >= opts.dieAfterResults)
                ::raise(SIGKILL);

            CampaignSnapshot journal;
            journal.configHash = cfg_hash;
            journal.shards = executor.execute(lease.first, lease.count);
            ResultPayload result;
            result.first = lease.first;
            result.count = lease.count;
            result.journal = encodeSnapshot(journal);
            {
                std::lock_guard<std::mutex> lock(write_mutex);
                if (!sendBytes(fd, encodeResult(result)))
                    return "worker " + opts.name +
                           " lost its coordinator while sending RESULT";
            }
            ++results_sent;
        }
    };
    const std::string failure = serveLeases();
    ::close(fd);
    fatal_if(!failure.empty(), failure);
    return 0;
}

// ----- Daemon -------------------------------------------------------
//
// Admission-control design (DESIGN.md §14): a single poll-based
// intake loop owns every not-yet-admitted connection (accept, frame
// assembly, parse, admission verdict), a bounded FIFO-per-tenant
// queue holds admitted requests, and a fixed pool of maxConcurrent
// worker threads drains it under deficit-round-robin across tenants.
// Nothing in the request path spawns a thread, so the daemon's thread
// count is a constant (1 intake + pool), not a function of uptime.

namespace
{

/** Intake-side sends (rejections, status) are tiny; don't let a
 *  wedged client stall the accept loop for the full send deadline. */
constexpr double kIntakeSendDeadlineSec = 5.0;

/** One admitted-but-unstarted request. */
struct QueuedRequest
{
    int fd = -1;
    ServiceRequest req;
    double enqueuedAt = 0.0;
};

/** Per-tenant FIFO plus its deficit-round-robin credit. */
struct TenantQueue
{
    std::deque<QueuedRequest> items;
    long long deficit = 0;
};

/** Single-flight entry: later duplicates of an executing config hash
 *  park their sockets here and receive the leader's response. */
struct InFlightCampaign
{
    std::vector<int> waiters;
};

/** Shared state of one daemon run. */
struct DaemonCtx
{
    std::mutex m;
    std::condition_variable workCv; //!< workers: queue non-empty/stop
    std::condition_variable idleCv; //!< shutdown: quiescence
    const DaemonOptions *opts = nullptr;

    bool draining = false;
    bool stopWorkers = false;

    std::uint64_t served = 0;  //!< requests answered (any verdict)
    std::size_t queued = 0;    //!< admitted, not yet started
    int executing = 0;         //!< popped, not yet answered

    std::map<std::string, TenantQueue> tenants;
    std::vector<std::string> ring; //!< DRR visit order
    std::size_t cursor = 0;

    std::map<std::uint64_t, InFlightCampaign> inflight; //!< by hash

    MetricSet metrics; //!< guarded by m
};

/** DRR cost of a request: proportional to the injection work it
 *  schedules, so heavy tenants drain proportionally slower. */
long long
requestCost(const ServiceRequest &req)
{
    return std::max(1, req.samplesPerCategory);
}

std::string
tenantKey(const ServiceRequest &req)
{
    return req.tenant.empty() ? "default" : req.tenant;
}

/** Under ctx.m: enqueue or report the queue full. */
bool
admitLocked(DaemonCtx &ctx, QueuedRequest &&qr)
{
    if (ctx.queued >=
        static_cast<std::size_t>(ctx.opts->maxQueue))
        return false;
    const std::string tenant = tenantKey(qr.req);
    auto it = ctx.tenants.find(tenant);
    if (it == ctx.tenants.end()) {
        ctx.ring.push_back(tenant);
        it = ctx.tenants.emplace(tenant, TenantQueue{}).first;
    }
    it->second.items.push_back(std::move(qr));
    ctx.queued += 1;
    ctx.metrics.counter("daemon.admitted").add();
    ctx.metrics.counter("daemon.tenant." + tenant + ".admitted")
        .add();
    ctx.metrics
        .histogram("daemon.queue_depth",
                   {0, 1, 2, 4, 8, 16, 32, 64, 128})
        .add(static_cast<double>(ctx.queued));
    return true;
}

/**
 * Under ctx.m, ctx.queued > 0: pop the next request by deficit round
 * robin.  Each sweep visit tops an eligible tenant's credit up by the
 * quantum; a tenant whose head costs more than its credit waits for
 * later visits, so cheap tenants interleave ahead of expensive ones
 * instead of starving behind them.  Idle tenants forfeit their credit
 * (classic DRR), so a burst after silence gets no stored advantage.
 */
QueuedRequest
popLocked(DaemonCtx &ctx, std::string &tenant_out)
{
    for (;;) {
        TenantQueue &tq = ctx.tenants[ctx.ring[ctx.cursor]];
        if (tq.items.empty()) {
            tq.deficit = 0;
            ctx.cursor = (ctx.cursor + 1) % ctx.ring.size();
            continue;
        }
        const long long cost = requestCost(tq.items.front().req);
        if (tq.deficit < cost) {
            tq.deficit += ctx.opts->drrQuantum;
            if (tq.deficit < cost) {
                // Not yet: leave the credit and move on.  Every full
                // sweep adds a quantum, so the head is served after
                // at most ceil(cost / quantum) sweeps.
                ctx.cursor = (ctx.cursor + 1) % ctx.ring.size();
                continue;
            }
        }
        tq.deficit -= cost;
        tenant_out = ctx.ring[ctx.cursor];
        QueuedRequest qr = std::move(tq.items.front());
        tq.items.pop_front();
        if (tq.items.empty())
            tq.deficit = 0;
        ctx.queued -= 1;
        return qr;
    }
}

std::string
campaignResponseJson(const ServiceRequest &req,
                     const CampaignResult &res,
                     const std::string &manifest, double queueWaitSec)
{
    JsonLineBuilder b;
    b.field("status", "ok");
    b.field("network", req.network);
    if (!req.tenant.empty())
        b.field("tenant", req.tenant);
    b.field("config_hash", hexHash(res.configHash));
    b.field("campaign_checksum", hexHash(campaignChecksum(res)));
    b.field("total_injections", res.totalInjections);
    b.field("complete", res.complete);
    b.field("queue_wait_s", queueWaitSec);
    if (!manifest.empty()) {
        std::string trimmed = manifest;
        while (!trimmed.empty() &&
               (trimmed.back() == '\n' || trimmed.back() == '\r'))
            trimmed.pop_back();
        b.rawField("manifest", trimmed);
    }
    return b.str();
}

/** Under ctx.m: the status document answered to {"op": "status"}. */
std::string
daemonStatusJsonLocked(DaemonCtx &ctx)
{
    JsonWriter w;
    w.beginObject();
    w.field("status", "ok");
    w.field("queue_depth", static_cast<std::uint64_t>(ctx.queued));
    w.field("executing", static_cast<std::int64_t>(ctx.executing));
    w.field("workers",
            static_cast<std::int64_t>(ctx.opts->maxConcurrent));
    w.field("max_queue",
            static_cast<std::int64_t>(ctx.opts->maxQueue));
    w.field("draining", ctx.draining);
    w.field("served", ctx.served);
    w.key("metrics");
    ctx.metrics.writeJson(w);
    w.endObject();
    return w.str();
}

/** Is this request JSON the status query {"op": "status"}? */
bool
isStatusRequest(const std::string &request_json)
{
    std::map<std::string, std::string> fields;
    std::string err;
    if (!parseJsonObject(request_json, fields, err))
        return false;
    auto it = fields.find("op");
    return it != fields.end() && it->second == "status" &&
           fields.size() == 1;
}

/**
 * Execute one admitted request on a pool worker.  Everything after
 * the parse runs under a ScopedFatalCapture: a validation failure, a
 * corrupt checkpoint, a manifest I/O error — any fatal() on this
 * thread — answers *this* client with the diagnostic instead of
 * killing the process serving everyone else's campaigns.
 */
void
serveRequest(DaemonCtx &ctx, QueuedRequest item,
             const std::string &tenant, double waitedSec)
{
    const DaemonOptions &opts = *ctx.opts;
    if (opts.testServiceDelaySec > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts.testServiceDelaySec));

    const double start = nowSec();
    std::string response;
    std::string error;
    bool leader = false;
    std::uint64_t cfg_hash = 0;
    try {
        ScopedFatalCapture capture;
        Network net = buildServiceNetwork(item.req);
        Tensor input = serviceInput(item.req);
        CampaignConfig cfg = campaignConfigFor(item.req);
        cfg_hash = campaignConfigHash(net, input, cfg);

        {
            // Single-flight per config hash: two concurrent identical
            // submissions would race on the same checkpoint and
            // manifest paths under --state-dir.  The second parks its
            // socket on the first and receives the same response —
            // the campaign is deterministic, so that *is* its answer.
            std::lock_guard<std::mutex> lock(ctx.m);
            auto [it, inserted] =
                ctx.inflight.try_emplace(cfg_hash);
            if (!inserted) {
                it->second.waiters.push_back(item.fd);
                ctx.metrics.counter("daemon.dedup_joined").add();
                return;
            }
            leader = true;
        }

        std::string manifest_path;
        if (!opts.stateDir.empty()) {
            // Hash-keyed state: a restarted daemon resumes every
            // campaign from its last checkpoint window (resumeFrom of
            // a missing file starts fresh, so first runs need no
            // special case).
            const std::string stem =
                opts.stateDir + "/campaign-" + hexHash(cfg_hash);
            cfg.checkpointPath = stem + ".fidckpt";
            cfg.resumeFrom = cfg.checkpointPath;
            cfg.checkpointEverySec = opts.checkpointEverySec;
            manifest_path = stem + ".manifest.json";
            cfg.reportPath = manifest_path;
        }
        auto svc_metrics = std::make_shared<MetricSet>();
        svc_metrics->timer("daemon.queue_wait")
            .addNs(static_cast<std::int64_t>(waitedSec * 1e9));
        cfg.serviceMetrics = svc_metrics;
        CampaignResult res =
            runCampaign(net, input, serviceMetric(item.req), cfg);
        const std::string manifest =
            manifest_path.empty() ? std::string()
                                  : readWholeFile(manifest_path);
        response = campaignResponseJson(item.req, res, manifest,
                                        waitedSec);
    } catch (const FatalError &e) {
        error = e.what();
        warn("campaign request failed: ", error);
    }

    // Deliver to this client plus every single-flight joiner —
    // success and failure alike (a duplicate of a failing request
    // would fail the same way).
    std::vector<int> fds{item.fd};
    if (leader) {
        std::lock_guard<std::mutex> lock(ctx.m);
        auto it = ctx.inflight.find(cfg_hash);
        fds.insert(fds.end(), it->second.waiters.begin(),
                   it->second.waiters.end());
        ctx.inflight.erase(it);
    }
    const std::string frame = error.empty()
                                  ? encodeResponse(response)
                                  : encodeErrorFrame(error);
    std::uint64_t send_failures = 0;
    for (int fd : fds) {
        if (!sendBytesWithDeadline(fd, frame, opts.sendDeadlineSec))
            ++send_failures;
        ::close(fd);
    }

    std::lock_guard<std::mutex> lock(ctx.m);
    ctx.served += fds.size();
    ctx.metrics
        .counter(error.empty() ? "daemon.responses_ok"
                               : "daemon.responses_error")
        .add(fds.size());
    if (send_failures > 0)
        ctx.metrics.counter("daemon.send_failures").add(send_failures);
    ctx.metrics.timer("daemon.tenant." + tenant + ".service")
        .addNs(static_cast<std::int64_t>((nowSec() - start) * 1e9));
}

/** One pool worker: pop by DRR, execute, answer, repeat. */
void
daemonWorker(DaemonCtx &ctx)
{
    for (;;) {
        QueuedRequest item;
        std::string tenant;
        double waited = 0.0;
        {
            std::unique_lock<std::mutex> lock(ctx.m);
            ctx.workCv.wait(lock, [&] {
                return ctx.stopWorkers || ctx.queued > 0;
            });
            if (ctx.queued == 0)
                return; // stopWorkers, queue fully drained
            item = popLocked(ctx, tenant);
            ctx.executing += 1;
            waited = nowSec() - item.enqueuedAt;
            ctx.metrics.timer("daemon.queue_wait")
                .addNs(static_cast<std::int64_t>(waited * 1e9));
            ctx.metrics.timer("daemon.tenant." + tenant + ".wait")
                .addNs(static_cast<std::int64_t>(waited * 1e9));
        }
        serveRequest(ctx, std::move(item), tenant, waited);
        {
            std::lock_guard<std::mutex> lock(ctx.m);
            ctx.executing -= 1;
        }
        ctx.idleCv.notify_all();
    }
}

/** Reject every queued-but-unstarted request with the draining
 *  status (DRAIN semantics: admitted is not a promise to execute
 *  once shutdown begins — pinned by the drain tests). */
void
rejectQueuedForDrain(DaemonCtx &ctx)
{
    std::vector<QueuedRequest> evicted;
    {
        std::lock_guard<std::mutex> lock(ctx.m);
        for (auto &[tenant, tq] : ctx.tenants) {
            for (QueuedRequest &qr : tq.items)
                evicted.push_back(std::move(qr));
            tq.items.clear();
            tq.deficit = 0;
        }
        ctx.queued = 0;
        ctx.served += evicted.size();
        ctx.metrics.counter("daemon.rejected_draining")
            .add(evicted.size());
    }
    const std::string frame = encodeDrainingError();
    for (QueuedRequest &qr : evicted) {
        sendBytesWithDeadline(qr.fd, frame, kIntakeSendDeadlineSec);
        ::close(qr.fd);
    }
}

/** One not-yet-admitted connection owned by the intake loop. */
struct PendingConn
{
    int fd = -1;
    std::string buf;
    double deadline = 0.0;
};

} // namespace

int
runServiceDaemon(const DaemonOptions &opts)
{
    fatal_if(opts.maxConcurrent < 1,
             "daemon maxConcurrent must be >= 1, got ",
             opts.maxConcurrent);
    fatal_if(opts.maxQueue < 1, "daemon maxQueue must be >= 1, got ",
             opts.maxQueue);
    fatal_if(opts.drrQuantum < 1,
             "daemon drrQuantum must be >= 1, got ", opts.drrQuantum);
    if (!opts.stateDir.empty()) {
        // The checkpoint writer fatals on a missing directory, which
        // would kill the daemon mid-campaign — create the state dir
        // up front (parents included) and fail fast if we cannot.
        std::string partial;
        for (std::size_t at = 0; at < opts.stateDir.size();) {
            std::size_t sep = opts.stateDir.find('/', at);
            if (sep == std::string::npos)
                sep = opts.stateDir.size();
            partial = opts.stateDir.substr(0, sep);
            at = sep + 1;
            if (partial.empty())
                continue; // leading '/'
            if (::mkdir(partial.c_str(), 0777) != 0 &&
                errno != EEXIST)
                fatal("daemon cannot create state dir ", partial,
                      ": ", std::strerror(errno));
        }
    }
    DaemonCtx ctx;
    ctx.opts = &opts;

    const ServiceAddr addr = parseServiceAddr(opts.listenAddr);
    int listen_fd = listenOn(addr);
    inform("fidelity_service daemon listening on ", opts.listenAddr,
           " (", opts.maxConcurrent, " workers, queue of ",
           opts.maxQueue, ")");

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(opts.maxConcurrent));
    for (int i = 0; i < opts.maxConcurrent; ++i)
        pool.emplace_back(daemonWorker, std::ref(ctx));

    // Intake event loop: every connection lives here — poll-driven
    // frame assembly with a receive deadline — until its request is
    // answered inline (malformed/busy/status/drain) or admitted to
    // the queue.  No thread is ever spawned per connection.
    std::vector<PendingConn> pending;

    // Answer-and-close for intake verdicts; counts toward served.
    auto answer = [&](int fd, const std::string &frame,
                      const char *counter) {
        sendBytesWithDeadline(fd, frame, kIntakeSendDeadlineSec);
        ::close(fd);
        std::lock_guard<std::mutex> lock(ctx.m);
        ctx.served += 1;
        ctx.metrics.counter(counter).add();
    };

    // Dispatch one complete frame from a connection.  The fd's
    // ownership moves out of `pending` either way.
    auto dispatch = [&](int fd, const Frame &f) {
        std::string err;
        if (f.type == FrameType::Drain) {
            {
                std::lock_guard<std::mutex> lock(ctx.m);
                ctx.draining = true;
            }
            rejectQueuedForDrain(ctx);
            answer(fd, encodeResponse("{\"status\": \"draining\"}"),
                   "daemon.drains");
            return;
        }
        std::string request_json;
        if (!tryParseText(f, FrameType::Request, request_json, err)) {
            answer(fd, encodeErrorFrame(err),
                   "daemon.rejected_malformed");
            return;
        }
        if (isStatusRequest(request_json)) {
            std::string status;
            {
                std::lock_guard<std::mutex> lock(ctx.m);
                status = daemonStatusJsonLocked(ctx);
            }
            sendBytesWithDeadline(fd, encodeResponse(status),
                                  kIntakeSendDeadlineSec);
            ::close(fd);
            return; // observability; not a served campaign request
        }
        QueuedRequest qr;
        if (!tryParseServiceRequest(request_json, qr.req, err)) {
            warn("rejecting campaign request: ", err);
            answer(fd, encodeErrorFrame(err),
                   "daemon.rejected_malformed");
            return;
        }
        qr.fd = fd;
        qr.enqueuedAt = nowSec();
        bool admitted = false;
        std::size_t depth = 0;
        {
            std::lock_guard<std::mutex> lock(ctx.m);
            depth = ctx.queued;
            admitted = admitLocked(ctx, std::move(qr));
        }
        if (!admitted) {
            answer(fd,
                   encodeBusyError(
                       depth,
                       static_cast<std::uint64_t>(opts.maxQueue)),
                   "daemon.rejected_busy");
            return;
        }
        ctx.workCv.notify_one();
    };

    for (;;) {
        {
            std::lock_guard<std::mutex> lock(ctx.m);
            if (ctx.draining ||
                (opts.maxRequests > 0 &&
                 ctx.served >= opts.maxRequests))
                break;
        }
        std::vector<pollfd> pfds;
        pfds.reserve(pending.size() + 1);
        pfds.push_back(pollfd{listen_fd, POLLIN, 0});
        for (const PendingConn &pc : pending)
            pfds.push_back(pollfd{pc.fd, POLLIN, 0});
        int rc = ::poll(pfds.data(),
                        static_cast<nfds_t>(pfds.size()), 200);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("daemon poll failed: ", std::strerror(errno));
        }
        const double now = nowSec();
        if (pfds[0].revents & POLLIN) {
            int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd >= 0) {
                pending.push_back(PendingConn{
                    fd, {}, now + opts.recvDeadlineSec});
                std::lock_guard<std::mutex> lock(ctx.m);
                ctx.metrics.counter("daemon.accepted").add();
            }
        }
        // Walk the snapshot the pollfds were built from; entries
        // accepted above sit past it and wait for the next round.
        const std::size_t polled = pfds.size() - 1;
        std::vector<PendingConn> keep;
        keep.reserve(pending.size());
        for (std::size_t i = 0; i < pending.size(); ++i) {
            PendingConn &pc = pending[i];
            const short revents =
                i < polled ? pfds[i + 1].revents : 0;
            if (revents & (POLLERR | POLLNVAL)) {
                ::close(pc.fd);
                continue;
            }
            if (revents & (POLLIN | POLLHUP)) {
                char chunk[16384];
                const ssize_t n = ::recv(pc.fd, chunk, sizeof(chunk),
                                         MSG_DONTWAIT);
                if (n == 0) {
                    ::close(pc.fd); // client went away silently
                    continue;
                }
                if (n > 0)
                    pc.buf.append(chunk,
                                  static_cast<std::size_t>(n));
                else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                         errno != EINTR) {
                    ::close(pc.fd);
                    continue;
                }
                Frame f;
                std::size_t consumed = 0;
                std::string err;
                switch (tryDecodeFrame(pc.buf, f, consumed, err)) {
                case FrameDecodeStatus::Complete:
                    dispatch(pc.fd, f);
                    continue; // fd ownership moved
                case FrameDecodeStatus::Malformed:
                    answer(pc.fd, encodeErrorFrame(err),
                           "daemon.rejected_malformed");
                    continue;
                case FrameDecodeStatus::NeedMore:
                    break;
                }
            }
            if (pc.deadline < now) {
                // Slow loris: a connection that cannot deliver one
                // frame within the receive deadline is shed, not
                // allowed to hold intake state forever.
                sendBytesWithDeadline(
                    pc.fd,
                    encodeErrorFrame("request frame not received "
                                     "within the deadline"),
                    1.0);
                ::close(pc.fd);
                std::lock_guard<std::mutex> lock(ctx.m);
                ctx.metrics.counter("daemon.intake_timeouts").add();
                continue;
            }
            keep.push_back(std::move(pc));
        }
        pending.swap(keep);
    }

    // Shutdown: close half-read intake connections, reject queued
    // requests if draining (maxRequests exits let the pool finish the
    // queue), wait for quiescence, then stop and join the pool.
    for (PendingConn &pc : pending) {
        sendBytesWithDeadline(pc.fd, encodeDrainingError(), 1.0);
        ::close(pc.fd);
    }
    pending.clear();
    bool drain_queue = false;
    {
        std::lock_guard<std::mutex> lock(ctx.m);
        drain_queue = ctx.draining;
    }
    if (drain_queue)
        rejectQueuedForDrain(ctx);
    {
        std::unique_lock<std::mutex> lock(ctx.m);
        ctx.idleCv.wait(lock, [&] {
            return ctx.queued == 0 && ctx.executing == 0 &&
                   ctx.inflight.empty();
        });
        ctx.stopWorkers = true;
    }
    ctx.workCv.notify_all();
    for (std::thread &t : pool)
        t.join();
    ::close(listen_fd);
    if (addr.unixSocket)
        ::unlink(addr.path.c_str());
    inform("fidelity_service daemon drained after ", ctx.served,
           " request(s)");
    return 0;
}

bool
submitServiceRequest(const std::string &connectAddr,
                     const std::string &requestJson, bool drain,
                     std::string &response, std::string &err)
{
    const ServiceAddr addr = parseServiceAddr(connectAddr);
    int fd = connectOnce(addr);
    if (fd < 0) {
        err = describe("cannot connect to ", connectAddr, ": ",
                       std::strerror(errno));
        return false;
    }
    const std::string frame =
        drain ? encodeDrain() : encodeRequest(requestJson);
    if (!sendBytes(fd, frame)) {
        ::close(fd);
        err = describe("cannot send to ", connectAddr);
        return false;
    }
    FrameConn conn(fd);
    Frame f;
    FrameConn::Status st = conn.readFrame(f, 600.0, err);
    if (st != FrameConn::Status::Frame) {
        ::close(fd);
        if (err.empty())
            err = "no response from the daemon";
        return false;
    }
    ::close(fd);
    if (f.type == FrameType::Error) {
        std::string message;
        std::string parse_err;
        if (!tryParseText(f, FrameType::Error, message, parse_err))
            message = parse_err;
        err = message;
        return false;
    }
    return tryParseText(f, FrameType::Response, response, err);
}

bool
queryServiceStatus(const std::string &connectAddr,
                   std::string &response, std::string &err)
{
    return submitServiceRequest(connectAddr, "{\"op\": \"status\"}",
                                false, response, err);
}

#endif // !defined(_WIN32)

} // namespace fidelity
