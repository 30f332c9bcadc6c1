/**
 * @file
 * Shared helpers for the benchmark harnesses.
 *
 * Every bench binary regenerates one of the paper's tables or figures.
 * Sample counts default to sizes that finish in seconds on one core and
 * scale with the FIDELITY_SAMPLES environment variable (a multiplier;
 * e.g. FIDELITY_SAMPLES=10 approaches paper-scale statistics).
 */

#ifndef FIDELITY_BENCH_COMMON_HH
#define FIDELITY_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/campaign.hh"
#include "sim/json.hh"
#include "sim/table.hh"
#include "simd/simd.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

namespace fidelity::bench
{

/** Scale a default sample count by $FIDELITY_SAMPLES (default 1.0). */
inline int
scaledSamples(int base)
{
    const char *env = std::getenv("FIDELITY_SAMPLES");
    if (!env)
        return base;
    double factor = std::atof(env);
    if (factor <= 0.0)
        return base;
    double scaled = base * factor;
    return scaled < 1.0 ? 1 : static_cast<int>(scaled);
}

/** Wall-clock seconds of a callable. */
template <typename Fn>
double
timeSeconds(Fn &&fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

/** Build, calibrate, and campaign one study network. */
inline CampaignResult
runStudyCampaign(const std::string &network, Precision precision,
                 const CorrectnessFn &metric, int samples,
                 std::uint64_t seed = 2020)
{
    Network net = buildNetwork(network, seed);
    Tensor input = defaultInputFor(network, seed + 1);
    net.setPrecision(precision);
    if (precision == Precision::INT16 || precision == Precision::INT8)
        net.calibrate(input);

    CampaignConfig cfg;
    cfg.samplesPerCategory = samples;
    cfg.seed = seed + 7;
    return runCampaign(net, input, metric, cfg);
}

// campaignChecksum() — the bit-identity digest the benches gate on —
// now lives in core/campaign.hh so the checkpoint/resume tests can
// assert the same digest the benches report.

/**
 * Build, calibrate, and campaign one study network with a caller-built
 * config (adaptive targets, checkpointing, ...).  The config's
 * samplesPerCategory/seed are used as given.
 */
inline CampaignResult
runStudyCampaignCfg(const std::string &network, Precision precision,
                    const CorrectnessFn &metric, CampaignConfig cfg,
                    std::uint64_t seed = 2020)
{
    Network net = buildNetwork(network, seed);
    Tensor input = defaultInputFor(network, seed + 1);
    net.setPrecision(precision);
    if (precision == Precision::INT16 || precision == Precision::INT8)
        net.calibrate(input);
    return runCampaign(net, input, metric, cfg);
}

/**
 * Largest Wilson half-width over the sampled (non-GlobalControl)
 * cells — the campaign's achieved per-cell confidence-interval width.
 */
inline double
maxCellHalfWidth(const CampaignResult &res, double z = 1.96)
{
    double worst = 0.0;
    for (const CellResult &cell : res.cells) {
        if (cell.category == FFCategory::GlobalControl ||
            cell.masked.trials() == 0)
            continue;
        worst = std::max(worst, cell.masked.halfWidth(z));
    }
    return worst;
}

/** One machine-readable throughput measurement. */
struct ThroughputRecord
{
    std::string bench;    //!< producing binary, e.g. "parallel_scaling"
    std::string network;
    std::string mode;     //!< e.g. "engine_dense", "engine_incremental"
    int threads = 1;
    int batchWidth = 1;   //!< fault-batch lane width (1 = unbatched)
    std::uint64_t injections = 0;
    double wallSeconds = 0.0;

    double
    injPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(injections) / wallSeconds
            : 0.0;
    }
};

// The merge-by-bench line writer the BENCH_*.json files share now
// lives in sim/json.hh (fidelity::mergeJsonLines): same line-oriented
// format, but the file is republished via temp-file + atomic rename,
// and rows are rendered through JsonLineBuilder so string fields are
// escaped instead of pasted.

/** The CPU's brand string from CPUID, or "unknown". */
inline std::string
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

/**
 * Source revision the bench was built from: the git revision at
 * configure time (FIDELITY_GIT_REV, set by bench/CMakeLists.txt), or
 * "unknown" outside a git checkout.
 */
inline const char *
sourceRev()
{
#ifdef FIDELITY_GIT_REV
    return FIDELITY_GIT_REV;
#else
    return "unknown";
#endif
}

/** Append the host stamp (cores, CPU, dispatch mode, revision) that
 *  makes a bench row comparable across machines and commits. */
inline JsonLineBuilder &
stampHost(JsonLineBuilder &row)
{
    return row
        .field("nproc",
               static_cast<int>(std::thread::hardware_concurrency()))
        .field("cpu", cpuModel())
        .field("simd_dispatch", simd::dispatchMode())
        .field("rev", sourceRev());
}

/**
 * Merge this bench's throughput records into the trajectory file.
 * Every row carries the host stamp.
 */
inline void
writeThroughputJson(const std::string &bench,
                    const std::vector<ThroughputRecord> &records,
                    const std::string &path =
                        "BENCH_injection_throughput.json")
{
    std::vector<std::string> rows;
    for (const ThroughputRecord &r : records) {
        JsonLineBuilder row;
        row.field("bench", bench)
            .field("network", r.network)
            .field("mode", r.mode)
            .field("threads", r.threads)
            .field("batch_width", r.batchWidth)
            .field("injections", r.injections)
            .field("wall_s", r.wallSeconds)
            .field("inj_per_s", r.injPerSec());
        rows.push_back(stampHost(row).str());
    }
    mergeJsonLines(path, bench, rows);
}

/** One per-kernel throughput measurement (scalar vs SIMD). */
struct KernelThroughputRecord
{
    std::string bench;   //!< producing binary, e.g. "bench_kernels"
    std::string kernel;  //!< "conv3x3", "fc", "matmul", ...
    std::string dtype;   //!< "fp32", "fp16", "int8", "int16"
    std::string backend; //!< simd::backendName() or "scalar"
    double gflops = 0.0; //!< MAC throughput, 2*macs/seconds/1e9
    double wallSeconds = 0.0;
};

/** Cost of one fault-model application on one layer. */
struct FaultApplyRecord
{
    std::string layer;    //!< e.g. "resnet.block0.c1"
    std::string dtype;    //!< "fp32", "fp16", "int8", "int16"
    std::string category; //!< ffCategoryName()
    std::string backend;  //!< simd::backendName()
    double us = 0.0;      //!< microseconds per FaultModels::apply
};

/**
 * Merge per-kernel GFLOP/s records and fault-application costs into
 * the kernel trajectory file.  Every row carries the host stamp.
 */
inline void
writeKernelThroughputJson(const std::string &bench,
                          const std::vector<KernelThroughputRecord> &records,
                          const std::vector<FaultApplyRecord> &applies,
                          const std::string &path =
                              "BENCH_kernel_throughput.json")
{
    std::vector<std::string> rows;
    for (const KernelThroughputRecord &r : records) {
        JsonLineBuilder row;
        row.field("bench", bench)
            .field("kernel", r.kernel)
            .field("dtype", r.dtype)
            .field("backend", r.backend)
            .field("gflops", r.gflops)
            .field("wall_s", r.wallSeconds);
        rows.push_back(stampHost(row).str());
    }
    for (const FaultApplyRecord &r : applies) {
        JsonLineBuilder row;
        row.field("bench", bench)
            .field("kernel", "fault_apply")
            .field("layer", r.layer)
            .field("dtype", r.dtype)
            .field("category", r.category)
            .field("backend", r.backend)
            .field("fault_apply_us", r.us);
        rows.push_back(stampHost(row).str());
    }
    mergeJsonLines(path, bench, rows);
}

/** One adaptive-vs-fixed sampling measurement. */
struct AdaptiveRecord
{
    std::string bench;   //!< producing binary, e.g. "adaptive_sampling"
    std::string network;
    std::string mode;    //!< "fixed" or "adaptive"
    double targetHalfWidth = 0.0; //!< CI half-width both modes achieve
    double confidenceZ = 0.0;
    std::uint64_t injections = 0;
    double maxHalfWidth = 0.0;    //!< achieved worst-cell half-width
    double wallSeconds = 0.0;
};

/**
 * Merge adaptive-sampling records into their trajectory file.  Every
 * row carries the host stamp.
 */
inline void
writeAdaptiveJson(const std::string &bench,
                  const std::vector<AdaptiveRecord> &records,
                  const std::string &path =
                      "BENCH_adaptive_sampling.json")
{
    std::vector<std::string> rows;
    for (const AdaptiveRecord &r : records) {
        JsonLineBuilder row;
        row.field("bench", bench)
            .field("network", r.network)
            .field("mode", r.mode)
            .field("target_half_width", r.targetHalfWidth)
            .field("z", r.confidenceZ)
            .field("injections", r.injections)
            .field("max_half_width", r.maxHalfWidth)
            .field("wall_s", r.wallSeconds);
        rows.push_back(stampHost(row).str());
    }
    mergeJsonLines(path, bench, rows);
}

/** Format a FIT breakdown row: datapath / local / global / total. */
inline std::vector<std::string>
fitCells(const FitBreakdown &fit)
{
    return {Table::num(fit.datapath, 3), Table::num(fit.local, 3),
            Table::num(fit.global, 3), Table::num(fit.total(), 3)};
}

} // namespace fidelity::bench

#endif // FIDELITY_BENCH_COMMON_HH
