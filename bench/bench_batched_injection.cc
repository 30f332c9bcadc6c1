/**
 * @file
 * Fault-batched re-execution throughput and bit-identity gate.
 *
 * Runs the result-cache bench's cache-off adaptive campaign (same
 * networks, seed, schedule, and thread count) once unbatched (B = 1)
 * and once with the fault-batched engine at full width (B = 8), where
 * SIMD lanes carry independent injections of one (layer, category)
 * cell through the network in a single pass (DESIGN.md §12).
 *
 * The bench fails (non-zero exit) if
 *  - the batched campaignChecksum differs from the B = 1 checksum on
 *    any network and dtype (batching must be a pure performance
 *    knob), or
 *  - on an FP16 leg, the batched injections/s falls below the B = 1
 *    injections/s measured in the same run: batching that does not
 *    pay for itself on this host is a regression.
 *
 * Each configuration is timed kRepeats times and the gate uses the
 * best wall clock: single sub-second campaign runs swing by tens of
 * percent under host scheduling noise, and the minimum is the
 * standard low-variance estimator of attainable throughput.  The
 * checksum is verified on every repeat.
 *
 * An INT8 leg runs the same schedule through the narrow integer
 * kernels (modes "engine_incremental_int8" / "engine_batched_int8"),
 * so BENCH_injection_throughput.json tracks the integer campaign rate
 * across PRs; its gate is checksum identity only.
 *
 * Rows are merged into BENCH_injection_throughput.json with their
 * batch_width tag.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>

#include "bench/common.hh"

using namespace fidelity;
using namespace fidelity::bench;

namespace
{

constexpr const char *kNetworks[] = {"resnet", "mobilenet"};
constexpr int kRepeats = 5;

} // namespace

int
main()
{
    const int samples = scaledSamples(60);
    const int threads = 4;
    const int width = 8;

    printHeading(std::cout,
                 "Fault-batched injection throughput (FP16 + INT8, "
                 "adaptive, " +
                     std::to_string(samples) +
                     " samples per cell cap base, " +
                     std::to_string(threads) + " threads)");

    // The INT8 leg tracks the narrow integer kernels' campaign rate
    // (modes tagged "_int8"); only its checksum identity is gated.
    struct Leg
    {
        Precision precision;
        const char *suffix;
    };
    constexpr Leg kLegs[] = {
        {Precision::FP16, ""},
        {Precision::INT8, "_int8"},
    };

    Table t({"Network", "dtype", "B", "injections", "wall s", "inj/s",
             "uplift", "identical"});
    std::vector<ThroughputRecord> records;
    bool checksum_ok = true;
    bool speedup_ok = true;

    for (const char *network : kNetworks) {
        for (const Leg &leg : kLegs) {
        CampaignConfig cfg;
        cfg.samplesPerCategory = samples;
        cfg.seed = 2033;
        cfg.targetHalfWidth = 0.10;
        cfg.confidenceZ = 1.96;
        cfg.minSamples = 16;
        cfg.maxSamplesPerCategory = samples * 8;
        cfg.numThreads = threads;
        cfg.resultCacheEnabled = false;

        std::uint64_t checksum[2] = {0, 0};
        double b1Rate = 0.0;
        for (int run = 0; run < 2; ++run) {
            cfg.batchWidth = run == 0 ? 1 : width;
            CampaignResult res;
            double secs = 0.0;
            bool stable = true;
            for (int rep = 0; rep < kRepeats; ++rep) {
                CampaignResult r;
                const double s = timeSeconds([&] {
                    r = runStudyCampaignCfg(network,
                                            leg.precision,
                                            top1Metric(), cfg);
                });
                if (rep == 0) {
                    res = r;
                    secs = s;
                } else {
                    stable = stable &&
                             campaignChecksum(r) == campaignChecksum(res);
                    secs = std::min(secs, s);
                }
            }
            checksum_ok = checksum_ok && stable;
            checksum[run] = campaignChecksum(res);

            ThroughputRecord rec;
            rec.bench = "batched_injection";
            rec.network = network;
            rec.mode = std::string(cfg.batchWidth > 1
                                       ? "engine_batched"
                                       : "engine_incremental") +
                       leg.suffix;
            rec.threads = threads;
            rec.batchWidth = cfg.batchWidth;
            rec.injections = res.totalInjections;
            rec.wallSeconds = secs;
            records.push_back(rec);

            const bool fp16 = leg.precision == Precision::FP16;
            if (run == 0)
                b1Rate = rec.injPerSec();
            const double uplift = rec.injPerSec() / b1Rate;
            const bool identical = checksum[run] == checksum[0];
            if (run == 1) {
                checksum_ok = checksum_ok && identical;
                if (fp16)
                    speedup_ok = speedup_ok && uplift >= 1.0;
            }
            t.addRow({network, fp16 ? "fp16" : "int8",
                      std::to_string(cfg.batchWidth),
                      std::to_string(rec.injections),
                      Table::num(secs, 2),
                      Table::num(rec.injPerSec(), 0),
                      Table::num(uplift, 2),
                      identical ? "yes" : "NO"});
        }
        }
    }

    t.print(std::cout);
    writeThroughputJson("batched_injection", records);

    std::cout << (checksum_ok
                      ? "\nbatched results bit-identical to B = 1\n"
                      : "\nERROR: batched campaign diverges from the "
                        "B = 1 result\n")
              << (speedup_ok
                      ? "FP16 batched throughput at or above B = 1\n"
                      : "ERROR: FP16 batched throughput below the "
                        "same-run B = 1 rate\n")
              << std::flush;
    return checksum_ok && speedup_ok ? 0 : 1;
}
