#include "core/manifest.hh"

#include <cinttypes>
#include <cstdio>

#include "nn/layer.hh"
#include "simd/simd.hh"

namespace fidelity
{

namespace
{

std::string
hexHash(std::uint64_t h)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h);
    return buf;
}

/** The engine's totals at width 1, one injection per batch. */
void
writeEngineTotals(JsonWriter &w, const BatchedTotals &t)
{
    w.beginObject();
    w.field("runs", t.batches);
    w.field("early_masked", t.lanesRetiredEarly);
    w.field("layers_incremental", t.layersBatchedKernel - t.layersDense);
    w.field("layers_dense", t.layersDense);
    w.field("layers_skipped", t.layersSkipped);
    w.field("elements_recomputed", t.laneElements);
    w.endObject();
}

void
writeBatchedTotals(JsonWriter &w, int width, const BatchedTotals &t)
{
    w.beginObject();
    w.field("enabled", width > 1);
    w.field("width", width);
    w.field("batches", t.batches);
    w.field("lanes_seeded", t.lanesSeeded);
    // Mean live lanes per batch pass — the SIMD utilisation of the
    // batched walk (ragged tails lower it).
    w.field("occupancy",
            static_cast<double>(t.lanesSeeded) /
                static_cast<double>(t.batches));
    w.field("lanes_retired_early", t.lanesRetiredEarly);
    w.field("layers_batched_kernel", t.layersBatchedKernel);
    w.field("layers_skipped", t.layersSkipped);
    w.field("lane_elements", t.laneElements);
    w.endObject();
}

} // namespace

std::string
runManifestJson(const Network &net, const CampaignConfig &cfg,
                std::uint64_t configHash, const CampaignResult &res,
                const CampaignTelemetry &tel)
{
    const bool adaptive = cfg.targetHalfWidth > 0.0;
    JsonWriter w;
    w.beginObject();
    w.field("schema", kRunManifestSchema);

    // ----- results: the sample-identity-determined record -----------
    // Byte-identical across thread counts and kill-and-resume.
    w.key("results");
    w.beginObject();
    w.field("network", res.network);
    w.field("precision", precisionName(res.precision));
    w.field("config_hash", hexHash(configHash));
    w.field("seed", cfg.seed);

    w.key("sample_identity");
    w.beginObject();
    w.field("schedule", adaptive ? "adaptive" : "fixed");
    w.field("shard_grain", cfg.shardGrain);
    w.field("output_clamp_abs", cfg.outputClampAbs);
    if (adaptive) {
        w.field("target_half_width", cfg.targetHalfWidth);
        w.field("confidence_z", cfg.confidenceZ);
        w.field("min_samples", cfg.minSamples);
        w.field("max_samples_per_category", cfg.maxSamplesPerCategory);
    } else {
        w.field("samples_per_category", cfg.samplesPerCategory);
    }
    w.endObject();

    w.field("total_injections", res.totalInjections);
    w.field("rounds", res.rounds);
    w.field("complete", res.complete);

    // Round history: the scheduler's decisions are a pure function of
    // the merged counters, so this belongs to the deterministic record.
    w.key("round_history");
    w.beginArray();
    for (std::size_t i = 0; i < tel.rounds.size(); ++i) {
        const RoundTelemetry &r = tel.rounds[i];
        w.beginObject();
        w.field("round", static_cast<std::uint64_t>(i + 1));
        w.field("shards_planned", r.shardsPlanned);
        w.field("cells_live", r.cellsLive);
        w.field("cells_retired_after", r.cellsRetiredAfter);
        w.endObject();
    }
    w.endArray();

    // The full per-(layer, category) cell table with Wilson intervals.
    const double z = cfg.confidenceZ;
    w.key("cells");
    w.beginArray();
    for (const CellResult &cell : res.cells) {
        w.beginObject();
        w.field("node", static_cast<std::int64_t>(cell.node));
        w.field("layer", net.layer(cell.node).name());
        w.field("category", ffCategoryName(cell.category));
        w.field("masked", cell.masked.successes());
        w.field("trials", cell.masked.trials());
        w.field("mean", cell.masked.mean());
        w.field("wilson_lo", cell.masked.lower(z));
        w.field("wilson_hi", cell.masked.upper(z));
        w.field("half_width", cell.masked.halfWidth(z));
        w.endObject();
    }
    w.endArray();

    w.key("fit");
    writeFitJson(w, res.fit);
    w.key("fit_global_protected");
    writeFitJson(w, res.fitGlobalProtected);
    w.endObject(); // results

    // ----- execution: how this process produced it -------------------
    w.key("execution");
    w.beginObject();

    w.key("build");
    w.beginObject();
    w.field("simd_backend", simd::backendName());
    w.field("simd_dispatch", simd::dispatchMode());
    w.field("simd_enabled", simd::enabled());
    w.endObject();

    w.field("threads", tel.threads);
    if (tel.topology) {
        // Distributed runs only: the worker-process fan-out.  Lives in
        // "execution" — the "results" section above is byte-identical
        // to the single-process run this fan-out reproduced.
        const WorkerTopology &topo = *tel.topology;
        w.key("topology");
        w.beginObject();
        w.field("coordinator", topo.coordinator);
        w.field("lease_shards", topo.leaseShards);
        w.field("worker_processes",
                static_cast<std::uint64_t>(topo.workers.size()));
        w.key("workers");
        w.beginArray();
        for (const WorkerProcessTelemetry &wp : topo.workers) {
            w.beginObject();
            w.field("name", wp.name);
            w.field("threads", wp.threads);
            w.field("shards", wp.shards);
            w.field("injections", wp.injections);
            w.field("leases", wp.leases);
            w.field("leases_expired", wp.leasesExpired);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.field("incremental", tel.incremental);
    w.field("resumed", tel.resumed);
    w.field("restored_shards", tel.restoredShards);
    w.field("executed_shards", tel.executedShards);
    w.field("executed_injections", tel.executedInjections);

    w.key("engine");
    writeEngineTotals(w, tel.engine);

    w.key("batched");
    writeBatchedTotals(w, tel.batchWidth, tel.batched);

    w.key("result_cache");
    w.beginObject();
    w.field("enabled", tel.resultCache.enabled);
    if (tel.resultCache.enabled) {
        w.field("capacity_bytes", tel.resultCache.capacityBytes);
        w.field("entries", tel.resultCache.entries);
        w.field("table_shards", tel.resultCache.shards);
        // Plan-replay counters: a pure function of the shard plan,
        // byte-identical across thread counts (the live shared table's
        // own split is interleaving-dependent and deliberately absent).
        w.key("plan_replay");
        w.beginObject();
        w.field("complete", tel.resultCache.replayComplete);
        w.field("replayed_shards", tel.resultCache.replayedShards);
        w.field("hits", tel.resultCache.hits);
        w.field("misses", tel.resultCache.misses);
        w.field("stores", tel.resultCache.stores);
        w.field("evictions", tel.resultCache.evictions);
        const double probes = static_cast<double>(tel.resultCache.hits +
                                                  tel.resultCache.misses);
        // 0/0 on a replay with no probes renders as null, not nan —
        // the shared jsonNumber rule for non-finite doubles.
        w.field("hit_rate",
                static_cast<double>(tel.resultCache.hits) / probes);
        w.endObject();
    }
    w.endObject();

    w.key("workers");
    w.beginArray();
    for (const WorkerTelemetry &worker : tel.workers) {
        w.beginObject();
        w.field("shards", worker.shards);
        w.field("injections", worker.injections);
        w.key("engine");
        writeEngineTotals(w, worker.engine);
        w.key("batched");
        writeBatchedTotals(w, tel.batchWidth, worker.batched);
        w.endObject();
    }
    w.endArray();

    w.key("checkpoints");
    w.beginArray();
    for (const CheckpointEvent &ev : tel.checkpoints) {
        w.beginObject();
        w.field("shards", ev.shardsJournaled);
        w.field("bytes", ev.bytes);
        w.field("final", ev.final_);
        w.field("at_s", ev.atSeconds);
        w.endObject();
    }
    w.endArray();

    w.key("metrics");
    tel.metrics.writeJson(w);

    w.endObject(); // execution
    w.endObject(); // document
    return w.str();
}

void
writeRunManifest(const std::string &path, const Network &net,
                 const CampaignConfig &cfg, std::uint64_t configHash,
                 const CampaignResult &res, const CampaignTelemetry &tel)
{
    atomicWriteFile(path, runManifestJson(net, cfg, configHash, res, tel) +
                              "\n",
                    /*sync_to_disk=*/true);
}

} // namespace fidelity
