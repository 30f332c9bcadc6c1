/**
 * @file
 * Crash-safe campaign snapshots (checkpoint/resume).
 *
 * A multi-hour injection campaign must survive its process dying.  The
 * campaign engine journals the outputs of every completed shard — the
 * per-cell counters and perturbation samples, keyed by the shard's
 * position in the deterministic shard plan — into a snapshot file that
 * is replaced atomically (write-to-temp + rename), so a reader never
 * observes a torn file.  Resuming rebuilds the shard plan from the
 * config (the plan and every RNG stream are pure functions of the
 * config), skips the journaled shards, and executes only the rest;
 * the merged result is bit-identical to an uninterrupted run.
 *
 * A config hash stored in the snapshot guards against resuming with a
 * config that would produce a different plan or different streams.
 */

#ifndef FIDELITY_SIM_CHECKPOINT_HH
#define FIDELITY_SIM_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fidelity
{

/**
 * FNV-1a mixer for building config fingerprints.  Doubles are mixed by
 * bit pattern, so two configs hash equal only when the values that
 * define the campaign's sample identity are bit-identical.
 */
class HashMixer
{
  public:
    void mix(std::uint64_t v);
    void mix(double v);
    void mix(const std::string &s);

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** Journaled output of one completed shard of the shard plan. */
struct ShardRecord
{
    std::uint64_t ordinal = 0; //!< position in the deterministic plan
    std::uint64_t cell = 0;    //!< index into CampaignResult::cells
    std::uint64_t maskedCount = 0;
    std::uint64_t trials = 0;

    /** (|delta|, caused output error) perturbation samples. */
    std::vector<std::pair<double, bool>> samples;
};

/** Everything a campaign needs to restart mid-flight. */
struct CampaignSnapshot
{
    /** Fingerprint of the sample-identity config fields. */
    std::uint64_t configHash = 0;

    /** Completed shards, sorted by ordinal. */
    std::vector<ShardRecord> shards;
};

/**
 * Serialize a snapshot to the FIDCKPT byte format.  This is both the
 * on-disk checkpoint format (writeSnapshot) and the shard-journal
 * payload of the service protocol's RESULT frames (sim/service) — one
 * encoder, so a worker's wire journal and a local checkpoint are
 * byte-compatible.  Host-endian: journals travel between processes of
 * one architecture (the crash-recovery and one-box fan-out use cases).
 */
std::string encodeSnapshot(const CampaignSnapshot &snap);

/**
 * Decode FIDCKPT bytes, or report why they are malformed.  `what`
 * names the source in diagnostics — a file path for checkpoints, the
 * peer for wire journals ("RESULT journal from worker-2").  Every
 * declared count is validated against the remaining byte count before
 * any allocation, so corrupt input yields an error message, never
 * std::bad_alloc on a multi-GB reserve().  On failure `snap` is
 * unspecified and `err` holds the diagnostic.
 */
bool tryDecodeSnapshot(const char *data, std::size_t size,
                       const std::string &what, CampaignSnapshot &snap,
                       std::string &err);

/**
 * Decode FIDCKPT bytes or exit through fatal() with `what` (the path
 * or peer) named — the strict variant behind readSnapshot and the
 * worker-side LEASE/RESULT handling.
 */
CampaignSnapshot decodeSnapshot(std::string_view bytes,
                                const std::string &what);

/**
 * Persist a snapshot atomically and durably: the bytes go to
 * `path + ".tmp"`, which is fsync'd and then renamed over `path`,
 * after which the parent directory is fsync'd.  On POSIX the rename is
 * atomic, so a concurrent reader (or a crash at any point) sees either
 * the old snapshot or the complete new one, never a prefix — and once
 * this function returns, the publish survives a power cut.
 *
 * @return Snapshot size in bytes (observability bookkeeping).
 */
std::uint64_t writeSnapshot(const std::string &path,
                            const CampaignSnapshot &snap);

/**
 * Load a snapshot previously written by writeSnapshot.
 * Fatals on a missing file, a foreign/truncated file, or an
 * unsupported version; use snapshotExists() to probe first.  Every
 * on-disk count is validated against the file size before any
 * allocation, so a corrupt snapshot exits through fatal() with the
 * path named, never through std::bad_alloc.
 */
CampaignSnapshot readSnapshot(const std::string &path);

/** True when `path` exists (the resume-if-present probe). */
bool snapshotExists(const std::string &path);

/**
 * The journaled shards a resume restores, keyed by plan ordinal.  A
 * non-empty `path` wins: its snapshot is read when the file exists,
 * and a missing file restores nothing (a fresh start).  Otherwise
 * `snap` is the source (null restores nothing).  Fatals when the
 * source's configHash differs from `configHash`, so a journal of a
 * campaign with a different sample identity is never merged.
 */
std::map<std::uint64_t, ShardRecord>
loadResumeShards(const std::string &path, const CampaignSnapshot *snap,
                 std::uint64_t configHash);

} // namespace fidelity

#endif // FIDELITY_SIM_CHECKPOINT_HH
