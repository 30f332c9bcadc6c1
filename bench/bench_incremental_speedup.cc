/**
 * @file
 * Dense vs. incremental injection throughput.
 *
 * Runs the same campaign twice per network — once with the dense
 * forwardFrom re-execution and once with the fault-cone incremental
 * engine — at an equal thread count and seed, and reports the
 * injections/sec speedup together with a checksum proving the two
 * CampaignResults are bit-identical (the engine's correctness
 * contract: incrementality is purely a performance knob).
 */

#include <cstdint>
#include <cstdio>

#include "bench/common.hh"
#include "sim/thread_pool.hh"

using namespace fidelity;
using namespace fidelity::bench;

int
main()
{
    const int samples = scaledSamples(40);
    const int threads = static_cast<int>(ThreadPool::hardwareThreads());

    printHeading(std::cout,
                 "Incremental fault-cone engine speedup (" +
                     std::to_string(samples) +
                     " samples per layer/category, " +
                     std::to_string(threads) + " threads)");

    // The CNNs exercise the spatial cones; the transformer the row
    // cones of its FC, softmax and matmul layers.
    struct Workload
    {
        std::string network;
        Precision precision;
        CorrectnessFn metric;
    };
    const Workload workloads[] = {
        {"resnet", Precision::FP16, top1Metric()},
        {"mobilenet", Precision::FP16, top1Metric()},
        {"inception", Precision::FP16, top1Metric()},
        {"transformer", Precision::INT8, bleuMetric(0.10)},
    };

    Table t({"network", "precision", "dense s", "incr s", "dense inj/s",
             "incr inj/s", "speedup", "identical"});
    std::vector<ThroughputRecord> records;
    bool all_identical = true;
    double best_speedup = 0.0;
    for (const Workload &wl : workloads) {
        const std::string &network = wl.network;
        Network net = buildNetwork(network, 2020);
        Tensor input = defaultInputFor(network, 2021);
        net.setPrecision(wl.precision);
        if (wl.precision == Precision::INT8)
            net.calibrate(input);

        CampaignConfig cfg;
        cfg.samplesPerCategory = samples;
        cfg.seed = 2027;
        cfg.numThreads = threads;
        // This bench isolates the fault-cone engine itself; the
        // fault-batched layer on top has its own gate
        // (bench_batched_injection).
        cfg.batchWidth = 1;

        double secs[2] = {0.0, 0.0};
        std::uint64_t checksum[2] = {0, 0};
        std::uint64_t injections = 0;
        for (int mode = 0; mode < 2; ++mode) {
            cfg.incremental = mode == 1;
            CampaignResult res;
            secs[mode] = timeSeconds([&] {
                res = runCampaign(net, input, wl.metric, cfg);
            });
            checksum[mode] = campaignChecksum(res);
            injections = res.totalInjections;

            ThroughputRecord rec;
            rec.bench = "incremental_speedup";
            rec.network = network;
            rec.mode = cfg.incremental ? "engine_incremental"
                                       : "engine_dense";
            rec.threads = threads;
            rec.batchWidth = cfg.batchWidth;
            rec.injections = injections;
            rec.wallSeconds = secs[mode];
            records.push_back(rec);
        }
        bool identical = checksum[0] == checksum[1];
        all_identical = all_identical && identical;
        double speedup = secs[1] > 0.0 ? secs[0] / secs[1] : 0.0;
        best_speedup = std::max(best_speedup, speedup);
        double dense_rate = static_cast<double>(injections) / secs[0];
        double incr_rate = static_cast<double>(injections) / secs[1];
        t.addRow({network, precisionName(wl.precision),
                  Table::num(secs[0], 2),
                  Table::num(secs[1], 2), Table::num(dense_rate, 0),
                  Table::num(incr_rate, 0), Table::num(speedup, 2),
                  identical ? "yes" : "NO"});
    }
    t.print(std::cout);
    writeThroughputJson("incremental_speedup", records);

    std::cout << (all_identical
                      ? "\nresults bit-identical between dense and "
                        "incremental modes\n"
                      : "\nERROR: dense and incremental results "
                        "differ\n");
    std::printf("best speedup: %.2fx (target >= 3x at paper-scale "
                "samples)\n",
                best_speedup);
    std::cout << std::flush;
    return all_identical ? 0 : 1;
}
