/**
 * @file
 * Campaign-throughput scaling of the parallel injection engine.
 *
 * Runs the same ResNet-style campaign at 1/2/4/8 worker threads and
 * reports injections/sec, speedup over the single-thread run, and a
 * result checksum demonstrating that the CampaignResult is identical
 * for every thread count (the engine's determinism contract).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "bench/common.hh"
#include "sim/thread_pool.hh"

using namespace fidelity;
using namespace fidelity::bench;

int
main()
{
    const int samples = scaledSamples(120);
    const std::string network = "resnet";

    Network net = buildNetwork(network, 2020);
    Tensor input = defaultInputFor(network, 2021);
    net.setPrecision(Precision::FP16);

    CampaignConfig cfg;
    cfg.samplesPerCategory = samples;
    cfg.seed = 2027;

    printHeading(std::cout, "Parallel campaign scaling (" + network +
                                ", FP16, " + std::to_string(samples) +
                                " samples per layer/category)");
    std::cout << "hardware threads: " << ThreadPool::hardwareThreads()
              << "\n\n";

    Table t({"threads", "wall s", "inj/s", "speedup", "checksum"});
    double base_time = 0.0;
    std::uint64_t base_checksum = 0;
    bool all_identical = true;
    std::vector<ThroughputRecord> records;
    for (int threads : {1, 2, 4, 8}) {
        cfg.numThreads = threads;
        CampaignResult res;
        double secs = timeSeconds([&] {
            res = runCampaign(net, input, top1Metric(), cfg);
        });
        std::uint64_t checksum = campaignChecksum(res);
        if (threads == 1) {
            base_time = secs;
            base_checksum = checksum;
        }
        all_identical = all_identical && checksum == base_checksum;
        double rate = static_cast<double>(res.totalInjections) / secs;
        char digest[20];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(checksum));
        t.addRow({std::to_string(threads), Table::num(secs, 2),
                  Table::num(rate, 0), Table::num(base_time / secs, 2),
                  digest});
        ThroughputRecord rec;
        rec.bench = "parallel_scaling";
        rec.network = network;
        rec.mode = cfg.incremental ? "engine_incremental" : "engine_dense";
        rec.threads = threads;
        rec.batchWidth = cfg.batchWidth;
        rec.injections = res.totalInjections;
        rec.wallSeconds = secs;
        records.push_back(rec);
    }
    t.print(std::cout);
    writeThroughputJson("parallel_scaling", records);
    std::cout << (all_identical
                      ? "\nresults bit-identical across thread counts\n"
                      : "\nERROR: results differ across thread counts\n");

    // Crash-safety leg: stop the same campaign mid-flight (after half
    // of its shards, whatever the sample scale), snapshot, resume from
    // the snapshot at a different thread count, and check the merged
    // result is bit-identical to the uninterrupted runs.
    const std::string ckpt = "bench_parallel_scaling.ckpt";
    const int slice = std::max<int>(
        1, static_cast<int>(fixedShardPlan(net, cfg).size() / 2));
    bool sliced = true;
    bool resume_identical = true;
    for (int threads : {1, 8}) {
        cfg.numThreads = threads;
        cfg.checkpointPath = ckpt;
        cfg.stopAfterShards = slice;
        cfg.resumeFrom.clear();
        CampaignResult part = runCampaign(net, input, top1Metric(), cfg);
        sliced = sliced && !part.complete;
        cfg.stopAfterShards = 0;
        cfg.resumeFrom = ckpt;
        cfg.numThreads = threads == 1 ? 8 : 1; // resume elsewhere
        CampaignResult res = runCampaign(net, input, top1Metric(), cfg);
        resume_identical = resume_identical &&
                           campaignChecksum(res) == base_checksum;
        std::remove(ckpt.c_str());
    }
    cfg.checkpointPath.clear();
    cfg.resumeFrom.clear();
    if (!sliced)
        std::cout << "ERROR: time-sliced campaign finished early (stop "
                     "after "
                  << slice << " shards)\n";
    std::cout << (resume_identical
                      ? "checkpoint/resume bit-identical to "
                        "uninterrupted runs\n"
                      : "ERROR: resumed campaign diverged from the "
                        "uninterrupted result\n")
              << std::flush;
    return all_identical && sliced && resume_identical ? 0 : 1;
}
