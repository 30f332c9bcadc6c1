#include "sim/result_cache.hh"

#include <algorithm>
#include <array>
#include <unordered_map>

namespace fidelity
{

namespace
{

// Data-word layout.  Bit 0 marks a live entry so fingerprint 0 with a
// default outcome still differs from an empty slot; bits [8,16) hold
// the generation stamp; bits [16,64) hold the top fingerprint bits as
// a second integrity tag on top of the XOR check.
constexpr std::uint64_t kValidBit = 1ull << 0;
constexpr std::uint64_t kMaskedBit = 1ull << 1;
constexpr std::uint64_t kEarlyExitBit = 1ull << 2;
constexpr unsigned kGenerationShift = 8;
constexpr std::uint64_t kGenerationMask = 0xffull << kGenerationShift;
constexpr unsigned kTagShift = 16;

std::uint64_t packData(std::uint64_t fingerprint, CachedOutcome out, std::uint32_t generation)
{
    std::uint64_t data = kValidBit;
    if (out.masked)
        data |= kMaskedBit;
    if (out.earlyExit)
        data |= kEarlyExitBit;
    data |= (std::uint64_t{generation} & 0xff) << kGenerationShift;
    data |= (fingerprint >> kTagShift) << kTagShift;
    return data;
}

bool dataMatches(std::uint64_t fingerprint, std::uint64_t data)
{
    if (!(data & kValidBit))
        return false;
    return (data >> kTagShift) == (fingerprint >> kTagShift);
}

// splitmix64 finaliser: fingerprints are already well mixed, but the
// bucket index must not reuse the same bits as the embedded tag, and
// deliberately crafted colliding keys (the adversarial tests) should
// still spread across shards.
std::uint64_t mixIndex(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::size_t floorPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

// Clusters per shard of a table of `capacity_bytes`: rounded down to a
// power of two, at least one.
std::size_t clustersPerShardFor(std::size_t capacity_bytes)
{
    const std::size_t cluster_bytes = ResultCache::kClusterEntries * ResultCache::kEntryBytes;
    const std::size_t clusters = capacity_bytes / (ResultCache::kShards * cluster_bytes);
    return clusters == 0 ? 1 : floorPow2(clusters);
}

// Table-wide cluster index of a fingerprint (shard-major), and its shard.
std::size_t clusterIndex(std::uint64_t fingerprint, std::size_t clusters_per_shard, std::size_t &shard)
{
    const std::uint64_t mixed = mixIndex(fingerprint);
    shard = static_cast<std::size_t>(mixed & (ResultCache::kShards - 1));
    const std::size_t cluster_idx = static_cast<std::size_t>((mixed / ResultCache::kShards) & (clusters_per_shard - 1));
    return shard * clusters_per_shard + cluster_idx;
}

} // namespace

ResultCache::ResultCache(std::size_t capacity_bytes)
{
    clustersPerShard_ = clustersPerShardFor(capacity_bytes);
    entries_ = std::make_unique<Entry[]>(kShards * clustersPerShard_ * kClusterEntries);
    stats_ = std::make_unique<ShardStats[]>(kShards);
}

ResultCache::Entry *ResultCache::cluster(std::uint64_t fingerprint, std::size_t &shard)
{
    return entries_.get() + clusterIndex(fingerprint, clustersPerShard_, shard) * kClusterEntries;
}

bool ResultCache::probe(std::uint64_t fingerprint, CachedOutcome &out)
{
    std::size_t shard = 0;
    Entry *c = cluster(fingerprint, shard);
    for (std::size_t i = 0; i < kClusterEntries; ++i)
    {
        const std::uint64_t xkey = c[i].xkey.load(std::memory_order_relaxed);
        const std::uint64_t data = c[i].data.load(std::memory_order_relaxed);
        // Both checks must pass: the XOR couples the two words (a torn
        // read fails it), the tag couples the data word to the probed
        // fingerprint.  Either alone would admit a wrong outcome under
        // a race; together a false hit needs a ~2^-112 coincidence.
        if ((xkey ^ data) == fingerprint && dataMatches(fingerprint, data))
        {
            out.masked = (data & kMaskedBit) != 0;
            out.earlyExit = (data & kEarlyExitBit) != 0;
            stats_[shard].hits.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    stats_[shard].misses.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void ResultCache::store(std::uint64_t fingerprint, CachedOutcome out)
{
    std::size_t shard = 0;
    Entry *c = cluster(fingerprint, shard);
    const std::uint32_t generation = generation_.load(std::memory_order_relaxed);
    const std::uint64_t data = packData(fingerprint, out, generation);

    // Victim preference: refresh the same fingerprint, else take an
    // empty slot, else displace the oldest-generation entry (lowest
    // index on ties, so replaying the same sequence single-threaded
    // reproduces the same placements).  replay() below applies this
    // rule to a fresh table; a change here must change it too.
    std::size_t victim = 0;
    int victim_age = -1;
    bool victim_live = true;
    for (std::size_t i = 0; i < kClusterEntries; ++i)
    {
        const std::uint64_t xkey = c[i].xkey.load(std::memory_order_relaxed);
        const std::uint64_t d = c[i].data.load(std::memory_order_relaxed);
        if ((xkey ^ d) == fingerprint && dataMatches(fingerprint, d))
        {
            victim = i;
            victim_live = false; // refresh, not an eviction
            break;
        }
        if (!(d & kValidBit))
        {
            if (victim_live)
            {
                victim = i;
                victim_age = -1;
                victim_live = false;
            }
            continue;
        }
        // Age = how many generations behind the current one; wraps
        // mod 256 like the stamp itself.
        const std::uint32_t entry_gen = static_cast<std::uint32_t>((d & kGenerationMask) >> kGenerationShift);
        const int age = static_cast<int>((generation - entry_gen) & 0xff);
        if (victim_live && age > victim_age)
        {
            victim = i;
            victim_age = age;
        }
    }
    if (victim_live)
        stats_[shard].evictions.fetch_add(1, std::memory_order_relaxed);
    stats_[shard].stores.fetch_add(1, std::memory_order_relaxed);
    c[victim].data.store(data, std::memory_order_relaxed);
    c[victim].xkey.store(fingerprint ^ data, std::memory_order_relaxed);
}

ResultCacheStats ResultCache::replay(std::size_t capacity_bytes, std::span<const std::vector<std::uint64_t>> sequences)
{
    // store()'s victim rule on a fresh table, where every entry carries
    // the same generation: a miss never matches a slot to refresh, so it
    // takes the first empty slot, and in a full cluster — all entries
    // equally old — slot 0.  A cluster is therefore its first `used`
    // fingerprints, and a probe hits exactly on an equal fingerprint.
    struct Cluster
    {
        std::array<std::uint64_t, kClusterEntries> fps{};
        std::size_t used = 0;
    };
    const std::size_t clusters_per_shard = clustersPerShardFor(capacity_bytes);
    std::size_t total = 0;
    for (const std::vector<std::uint64_t> &seq : sequences)
        total += seq.size();
    std::unordered_map<std::size_t, Cluster> touched;
    touched.reserve(std::min(total, kShards * clusters_per_shard));

    ResultCacheStats s;
    for (const std::vector<std::uint64_t> &seq : sequences)
    {
        for (std::uint64_t fingerprint : seq)
        {
            std::size_t shard = 0;
            Cluster &c = touched[clusterIndex(fingerprint, clusters_per_shard, shard)];
            const auto live = c.fps.begin() + static_cast<std::ptrdiff_t>(c.used);
            if (std::find(c.fps.begin(), live, fingerprint) != live)
            {
                ++s.hits;
                continue;
            }
            ++s.misses;
            ++s.stores;
            if (c.used < kClusterEntries)
                c.fps[c.used++] = fingerprint;
            else
            {
                c.fps[0] = fingerprint;
                ++s.evictions;
            }
        }
    }
    return s;
}

void ResultCache::newGeneration()
{
    generation_.fetch_add(1, std::memory_order_relaxed);
}

ResultCacheStats ResultCache::stats() const
{
    ResultCacheStats s;
    for (std::size_t i = 0; i < kShards; ++i)
    {
        s.hits += stats_[i].hits.load(std::memory_order_relaxed);
        s.misses += stats_[i].misses.load(std::memory_order_relaxed);
        s.stores += stats_[i].stores.load(std::memory_order_relaxed);
        s.evictions += stats_[i].evictions.load(std::memory_order_relaxed);
    }
    return s;
}

std::size_t ResultCache::entryCount() const
{
    return kShards * clustersPerShard_ * kClusterEntries;
}

std::size_t ResultCache::entryCountFor(std::size_t capacity_bytes)
{
    return kShards * clustersPerShardFor(capacity_bytes) * kClusterEntries;
}

} // namespace fidelity
