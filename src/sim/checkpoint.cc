#include "sim/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace fidelity
{

void
HashMixer::mix(std::uint64_t v)
{
    h_ ^= v;
    h_ *= 1099511628211ULL;
}

void
HashMixer::mix(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
}

void
HashMixer::mix(const std::string &s)
{
    mix(static_cast<std::uint64_t>(s.size()));
    for (char c : s)
        mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
}

namespace
{

// Eight magic bytes: format name + one version byte.  Snapshots are
// host-endian — a checkpoint resumes on the machine (or at least the
// architecture) that wrote it, which covers both the crash-recovery
// use case and the one-box/one-arch worker fan-out of sim/service.
constexpr char snapshotMagic[8] = {'F', 'I', 'D', 'C',
                                   'K', 'P', 'T', '\x01'};

// On-disk sizes the reader validates declared counts against.
constexpr std::uint64_t headerBytes = sizeof(snapshotMagic) + 2 * 8;
constexpr std::uint64_t shardFixedBytes = 5 * 8; //!< sans samples
constexpr std::uint64_t sampleBytes = 2 * 8;

void
putU64(std::string &out, std::uint64_t v)
{
    char buf[sizeof(v)];
    std::memcpy(buf, &v, sizeof(v));
    out.append(buf, sizeof(buf));
}

/** Bounded cursor over an in-memory snapshot image: every read is
 *  checked against the remaining byte count, so a truncated image
 *  reports instead of reading past the end. */
struct ByteCursor
{
    const char *data;
    std::size_t size;
    std::size_t pos = 0;

    bool
    u64(std::uint64_t &v)
    {
        if (size - pos < sizeof(v))
            return false;
        std::memcpy(&v, data + pos, sizeof(v));
        pos += sizeof(v);
        return true;
    }

    std::uint64_t remaining() const { return size - pos; }
};

/** Render the failure diagnostic for `what` (path or peer). */
template <typename... Args>
std::string
describe(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace

std::string
encodeSnapshot(const CampaignSnapshot &snap)
{
    std::string bytes;
    bytes.reserve(headerBytes + snap.shards.size() * shardFixedBytes);
    bytes.append(snapshotMagic, sizeof(snapshotMagic));
    putU64(bytes, snap.configHash);
    putU64(bytes, snap.shards.size());
    for (const ShardRecord &r : snap.shards) {
        putU64(bytes, r.ordinal);
        putU64(bytes, r.cell);
        putU64(bytes, r.maskedCount);
        putU64(bytes, r.trials);
        putU64(bytes, r.samples.size());
        for (const auto &[delta, failed] : r.samples) {
            std::uint64_t dbits;
            static_assert(sizeof(dbits) == sizeof(delta));
            std::memcpy(&dbits, &delta, sizeof(dbits));
            putU64(bytes, dbits);
            putU64(bytes, failed ? 1 : 0);
        }
    }
    return bytes;
}

bool
tryDecodeSnapshot(const char *data, std::size_t size,
                  const std::string &what, CampaignSnapshot &snap,
                  std::string &err)
{
    // The image size bounds every declared count below: a corrupt or
    // truncated snapshot must produce a diagnostic naming `what`,
    // never a std::bad_alloc on a multi-GB reserve().
    if (size < headerBytes) {
        err = describe(what, " is not a fidelity campaign snapshot "
                             "(too short)");
        return false;
    }
    if (std::memcmp(data, snapshotMagic, sizeof(snapshotMagic)) != 0) {
        err = describe(what, " is not a fidelity campaign snapshot");
        return false;
    }

    ByteCursor in{data, size, sizeof(snapshotMagic)};
    snap = CampaignSnapshot{};
    std::uint64_t count = 0;
    if (!in.u64(snap.configHash) || !in.u64(count)) {
        err = describe(what, " is truncated");
        return false;
    }
    if (count > (size - headerBytes) / shardFixedBytes) {
        err = describe(what, " declares ", count,
                       " shards but holds only ", size, " bytes");
        return false;
    }
    snap.shards.reserve(count);
    std::uint64_t prev_ordinal = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        ShardRecord r;
        std::uint64_t nsamples = 0;
        if (!in.u64(r.ordinal) || !in.u64(r.cell) ||
            !in.u64(r.maskedCount) || !in.u64(r.trials) ||
            !in.u64(nsamples)) {
            err = describe(what, " is truncated");
            return false;
        }
        if (i > 0 && r.ordinal <= prev_ordinal) {
            err = describe(what, " has out-of-order shard ordinals");
            return false;
        }
        prev_ordinal = r.ordinal;
        if (r.maskedCount > r.trials) {
            err = describe(what,
                           " has a shard with maskedCount > trials");
            return false;
        }
        if (nsamples > r.trials) {
            err = describe(what,
                           " has a shard with more samples than trials");
            return false;
        }
        if (nsamples > in.remaining() / sampleBytes) {
            err = describe(what, " declares ", nsamples,
                           " samples in a shard with only ",
                           in.remaining(), " bytes left");
            return false;
        }
        r.samples.reserve(nsamples);
        for (std::uint64_t s = 0; s < nsamples; ++s) {
            std::uint64_t bits = 0, failed = 0;
            if (!in.u64(bits) || !in.u64(failed)) {
                err = describe(what, " is truncated");
                return false;
            }
            double delta;
            std::memcpy(&delta, &bits, sizeof(delta));
            r.samples.emplace_back(delta, failed != 0);
        }
        snap.shards.push_back(std::move(r));
    }
    return true;
}

CampaignSnapshot
decodeSnapshot(std::string_view bytes, const std::string &what)
{
    CampaignSnapshot snap;
    std::string err;
    if (!tryDecodeSnapshot(bytes.data(), bytes.size(), what, snap, err))
        fatal(err);
    return snap;
}

std::uint64_t
writeSnapshot(const std::string &path, const CampaignSnapshot &snap)
{
    fatal_if(path.empty(), "snapshot path must not be empty");

    // Serialize into memory first: one write syscall, and the byte
    // count is known for the durability bookkeeping.
    const std::string bytes = encodeSnapshot(snap);

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    fatal_if(!f, "cannot open snapshot temp file ", tmp, ": ",
             std::strerror(errno));
    const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
    if (wrote != bytes.size() || std::fflush(f) != 0) {
        std::fclose(f);
        fatal("short write to snapshot temp file ", tmp);
    }
#if !defined(_WIN32)
    // The data must be on disk *before* the rename publishes it: a
    // rename can survive a crash that the file contents did not, and a
    // later resumeFrom would then trust an empty or torn snapshot.
    // Filesystems without sync semantics report EINVAL / ENOTSUP /
    // EROFS, which is not a failure.
    if (::fsync(fileno(f)) != 0 && errno != EINVAL && errno != ENOTSUP &&
        errno != EROFS)
        fatal("cannot fsync ", tmp, ": ", std::strerror(errno));
#endif
    fatal_if(std::fclose(f) != 0, "cannot close snapshot temp file ", tmp);

    // The atomic publish: readers see the old file or the new file.
    fatal_if(std::rename(tmp.c_str(), path.c_str()) != 0,
             "cannot rename ", tmp, " over ", path, ": ",
             std::strerror(errno));

#if !defined(_WIN32)
    // And the publish itself must be durable: sync the directory so
    // the rename cannot be lost (leaving a stale or missing snapshot)
    // after this function reported success.
    std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    int dfd = ::open(dir.c_str(), O_RDONLY);
    fatal_if(dfd < 0, "cannot open snapshot directory ", dir,
             " to sync it: ", std::strerror(errno));
    if (::fsync(dfd) != 0 && errno != EINVAL && errno != ENOTSUP &&
        errno != EROFS) {
        ::close(dfd);
        fatal("cannot fsync ", dir, ": ", std::strerror(errno));
    }
    ::close(dfd);
#endif
    return static_cast<std::uint64_t>(bytes.size());
}

CampaignSnapshot
readSnapshot(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open snapshot ", path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    fatal_if(!in, "cannot read snapshot ", path);
    // "snapshot <path> ..." keeps the historical diagnostic shape now
    // that the decoder is shared with the wire-journal path.
    return decodeSnapshot(bytes, "snapshot " + path);
}

bool
snapshotExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return static_cast<bool>(in);
}

std::map<std::uint64_t, ShardRecord>
loadResumeShards(const std::string &path, const CampaignSnapshot *snap,
                 std::uint64_t configHash)
{
    CampaignSnapshot loaded;
    std::string source = "in-memory resume snapshot";
    if (!path.empty()) {
        if (!snapshotExists(path))
            return {};
        loaded = readSnapshot(path);
        snap = &loaded;
        source = "snapshot " + path;
    }
    if (!snap)
        return {};
    fatal_if(snap->configHash != configHash, source,
             " was written by a campaign with a different sample "
             "identity (config hash mismatch)");
    std::map<std::uint64_t, ShardRecord> shards;
    for (const ShardRecord &r : snap->shards)
        shards.emplace(r.ordinal, r);
    return shards;
}

} // namespace fidelity
