/**
 * @file
 * Kernel throughput and kernel-identity harness.
 *
 * Phase 1 measures per-layer-type MAC throughput (GFLOP/s, counting
 * 2 ops per MAC) three ways, writing all to
 * BENCH_kernel_throughput.json so the speedup is recorded from one
 * machine and one binary:
 *
 *  - backend "<isa>" (e.g. "avx2"): the packed block kernels with the
 *    intrinsic backend — the production forward path;
 *  - backend "scalar": the per-neuron scalar reference
 *    (computeNeuron() over every output), which is the execution
 *    model the engine used before the kernel layer existed and still
 *    uses for single-neuron probes — the speedup baseline;
 *  - backend "scalar-block": the block kernels with the scalar twin
 *    backend (runtime toggle off), isolating what the pack/block
 *    restructure contributes without hand-written intrinsics.  On
 *    hosts where the compiler auto-vectorizes the twin's lane arrays
 *    this leg can approach the intrinsic one; it is a correctness
 *    reference, not the baseline.
 *
 * All three outputs are compared bit-for-bit as a side effect.
 *
 * Phase 1 also times fault-model application: microseconds per
 * FaultModels::apply for each dtype x datapath category on the ResNet
 * campaign network's first residual 3x3 conv (the `fault_apply_us`
 * rows).  Before timing, Conv2D::forwardWithSub is bit-compared
 * against computeNeuron for every bit flip of sampled weights and
 * inputs on that layer; a mismatch fails the run like a kernel
 * mismatch.
 *
 * Phase 1 also times the fault-batched engine's conv kernel: GFLOP/s
 * of Conv2D::forwardRegionBatched at lane width 8 over the whole
 * output of that same layer (the `batched_conv3x3` rows, FP32, FP16
 * and INT8, counting every lane's MACs).  Each lane carries its own
 * perturbed input, and every lane of the result is bit-compared
 * against forward() on that lane's input; a mismatch fails the run.
 * Every JSON row carries the host stamp (cores, CPU, dispatch mode,
 * source revision).
 *
 * Phase 2 runs a small injection campaign twice — SIMD on and off —
 * and exits non-zero if the campaign checksums differ: the CI smoke
 * gate for the kernels' bit-identity contract.
 *
 * Phase 3 hands over to the original google-benchmark micros
 * (forward conv, single-neuron recompute, engine cycle rate, fault
 * models, RNG); `--benchmark_filter=^$` skips them for smoke runs.
 *
 * Flags (see -h): `--kernel=<substr>` / `--dtype=<name>` narrow phase
 * 1 to the kernels under study (a kernel filter also skips the
 * campaign gate), `--backend=<name>` forces a dispatch backend for
 * the whole run (an unavailable backend exits non-zero), and
 * `--min-ms=<n>` sets the per-measurement floor.  Only the default
 * full sweep rewrites BENCH_kernel_throughput.json (rows tagged with
 * the dispatched backend); filtered or backend-forced runs print but
 * do not touch the tracked file, since the JSON merge replaces a
 * bench's whole row set.  Unrecognized arguments still flow to
 * google-benchmark.
 */

#include <benchmark/benchmark.h>

#include <bit>
#include <cstring>
#include <memory>

#include "accel/nvdla_fi.hh"
#include "bench/common.hh"
#include "core/fault_models.hh"
#include "nn/conv.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/lanes.hh"
#include "nn/layer.hh"
#include "nn/matmul.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/rng.hh"
#include "simd/simd.hh"
#include "tensor/bitops.hh"

using namespace fidelity;

namespace
{

/** A layer with its inputs and the MAC count of one forward pass. */
struct KernelCase
{
    std::string name;
    std::unique_ptr<Layer> layer;
    std::vector<Tensor> inputs;
    std::int64_t macs = 0;

    std::vector<const Tensor *>
    ins() const
    {
        std::vector<const Tensor *> p;
        for (const Tensor &t : inputs)
            p.push_back(&t);
        return p;
    }
};

Tensor
randomTensor(Rng &rng, int n, int h, int w, int c)
{
    Tensor t(n, h, w, c);
    for (auto &v : t.data())
        v = static_cast<float>(rng.normal(0, 1));
    return t;
}

KernelCase
convCase(const std::string &name, int hw, int inC, int outC, int k,
         int groups = 1)
{
    Rng rng(11);
    KernelCase kc;
    kc.name = name;
    ConvSpec spec;
    spec.inC = inC;
    spec.outC = outC;
    spec.kh = spec.kw = k;
    spec.pad = k / 2;
    spec.groups = groups;
    std::size_t nw = static_cast<std::size_t>(k) * k *
                     (inC / groups) * outC;
    auto conv = std::make_unique<Conv2D>(
        name, spec, heWeights(rng, nw, k * k * inC / groups),
        smallBiases(rng, outC));
    kc.inputs.push_back(randomTensor(rng, 1, hw, hw, inC));
    Tensor out = conv->makeOutput({&kc.inputs[0]});
    kc.macs = static_cast<std::int64_t>(out.size()) *
              conv->reductionLength();
    kc.layer = std::move(conv);
    return kc;
}

KernelCase
fcCase(const std::string &name, int inC, int units)
{
    Rng rng(13);
    KernelCase kc;
    kc.name = name;
    auto fc = std::make_unique<FC>(
        name, inC, units,
        heWeights(rng, static_cast<std::size_t>(inC) * units, inC),
        smallBiases(rng, units));
    kc.inputs.push_back(randomTensor(rng, 1, 4, 1, inC));
    kc.macs = static_cast<std::int64_t>(4) * units * inC;
    kc.layer = std::move(fc);
    return kc;
}

KernelCase
matmulCase(const std::string &name, int rows, int red, int cols,
           bool transB)
{
    Rng rng(17);
    KernelCase kc;
    kc.name = name;
    kc.layer = std::make_unique<MatMulAB>(name, transB, red, 1.0f);
    kc.inputs.push_back(randomTensor(rng, 1, rows, 1, red));
    kc.inputs.push_back(transB ? randomTensor(rng, 1, cols, 1, red)
                               : randomTensor(rng, 1, red, 1, cols));
    kc.macs = static_cast<std::int64_t>(rows) * red * cols;
    return kc;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float)) == 0;
}

/** Forward repeatedly for >= minSeconds; returns per-pass seconds. */
double
timeForward(const KernelCase &kc, double minSeconds)
{
    auto ins = kc.ins();
    kc.layer->forward(ins); // warm up; builds weight packs
    int iters = 0;
    double elapsed = 0.0;
    while (elapsed < minSeconds) {
        elapsed += bench::timeSeconds([&] {
            for (int i = 0; i < 4; ++i)
                benchmark::DoNotOptimize(kc.layer->forward(ins));
        });
        iters += 4;
    }
    return elapsed / iters;
}

/** One forward pass through the per-neuron scalar reference path. */
Tensor
neuronForward(const KernelCase &kc)
{
    auto ins = kc.ins();
    const auto *mac = dynamic_cast<const MacLayer *>(kc.layer.get());
    Tensor out = kc.layer->makeOutput(ins);
    for (int n = 0; n < out.n(); ++n)
        for (int h = 0; h < out.h(); ++h)
            for (int w = 0; w < out.w(); ++w)
                for (int c = 0; c < out.c(); ++c)
                    out.at(n, h, w, c) = mac->computeNeuron(
                        ins, NeuronIndex{n, h, w, c}, nullptr);
    return out;
}

/** Time the per-neuron reference like timeForward(). */
double
timeNeuronForward(const KernelCase &kc, double minSeconds)
{
    int iters = 0;
    double elapsed = 0.0;
    while (elapsed < minSeconds) {
        elapsed += bench::timeSeconds(
            [&] { benchmark::DoNotOptimize(neuronForward(kc)); });
        ++iters;
    }
    return elapsed / iters;
}

struct DtypeSpec
{
    const char *name;
    Precision precision;
};

constexpr DtypeSpec kDtypes[] = {
    {"fp32", Precision::FP32},
    {"fp16", Precision::FP16},
    {"int8", Precision::INT8},
    {"int16", Precision::INT16},
};

/** Parsed command-line options (see usage()). */
struct Options
{
    std::string kernel;  //!< substring filter on the kernel name
    std::string dtype;   //!< exact dtype filter ("fp32", "int8", ...)
    std::string backend; //!< forced dispatch backend, "" = auto
    int minMs = 50;      //!< per-measurement wall-clock floor
};

void
usage(const char *argv0)
{
    std::cout
        << "usage: " << argv0 << " [options] [benchmark options]\n"
        << "  --kernel=<substr>   only kernels whose name contains "
           "<substr>\n"
        << "                      (conv3x3, conv1x1, fc, matmul, "
           "batched_conv3x3,\n"
        << "                      fault_apply);\n"
        << "                      a kernel filter also skips the "
           "campaign\n"
        << "                      checksum gate\n"
        << "  --dtype=<name>      only one dtype: fp32, fp16, int8, "
           "int16\n"
        << "  --backend=<name>    force the dispatch backend (scalar, "
           "sse2, avx2,\n"
        << "                      neon, auto); exits non-zero when "
           "unavailable\n"
        << "  --min-ms=<n>        per-measurement floor in ms "
           "(default 50,\n"
        << "                      scaled by FIDELITY_SAMPLES)\n"
        << "  -h, --help          this message\n"
        << "only the default full sweep rewrites "
           "BENCH_kernel_throughput.json;\n"
        << "filtered/forced runs leave it untouched\n"
        << "remaining arguments go to google-benchmark "
           "(--benchmark_filter=...)\n";
}

int
runThroughput(const Options &opt,
              std::vector<bench::KernelThroughputRecord> &records)
{
    const double minSeconds =
        (opt.minMs / 1000.0) * bench::scaledSamples(10) / 10.0;
    std::vector<KernelCase> cases;
    cases.push_back(convCase("conv3x3", 16, 32, 64, 3));
    cases.push_back(convCase("conv1x1", 16, 64, 64, 1));
    cases.push_back(fcCase("fc", 256, 256));
    cases.push_back(matmulCase("matmul", 64, 64, 64, false));

    int failures = 0;
    for (KernelCase &kc : cases) {
        if (!opt.kernel.empty() &&
            kc.name.find(opt.kernel) == std::string::npos)
            continue;
        for (const DtypeSpec &dt : kDtypes) {
            if (!opt.dtype.empty() && opt.dtype != dt.name)
                continue;
            kc.layer->setPrecision(dt.precision);
            if (dt.precision == Precision::INT8 ||
                dt.precision == Precision::INT16) {
                auto ins = kc.ins();
                Tensor ref = kc.layer->forward(ins);
                kc.layer->calibrate(ins, ref);
            }

            simd::setEnabled(true);
            Tensor outSimd = kc.layer->forward(kc.ins());
            double tSimd = timeForward(kc, minSeconds);
            simd::setEnabled(false);
            Tensor outTwin = kc.layer->forward(kc.ins());
            double tTwin = timeForward(kc, minSeconds);
            simd::setEnabled(true);
            Tensor outRef = neuronForward(kc);
            double tRef = timeNeuronForward(kc, minSeconds);

            if (!bitIdentical(outSimd, outTwin)) {
                std::cerr << "FAIL: " << kc.name << " " << dt.name
                          << ": SIMD and scalar-twin outputs differ\n";
                ++failures;
            }
            if (!bitIdentical(outSimd, outRef)) {
                std::cerr << "FAIL: " << kc.name << " " << dt.name
                          << ": SIMD and per-neuron outputs differ\n";
                ++failures;
            }

            auto gflops = [&](double sec) {
                return 2.0 * static_cast<double>(kc.macs) / sec / 1e9;
            };
            records.push_back({"bench_kernels", kc.name, dt.name,
                               simd::backendName(), gflops(tSimd),
                               tSimd});
            records.push_back({"bench_kernels", kc.name, dt.name,
                               "scalar", gflops(tRef), tRef});
            records.push_back({"bench_kernels", kc.name, dt.name,
                               "scalar-block", gflops(tTwin), tTwin});
            std::cout << kc.name << " " << dt.name << ": simd "
                      << gflops(tSimd) << " GFLOP/s, scalar "
                      << gflops(tRef) << " GFLOP/s, scalar-block "
                      << gflops(tTwin) << " GFLOP/s ("
                      << tRef / tSimd << "x vs scalar)\n";
        }
    }
    return failures;
}

/**
 * Bit check of Conv2D's substituted re-execution (forwardWithSub) on
 * one layer: every bit flip of sampled weights (position lanes, one
 * output plane) and inputs (channel lanes, every consumer) against
 * per-neuron computeNeuron.  Runs under whichever kernel table is
 * dispatched, so the forced-backend legs check every table.  Returns
 * the number of mismatching neurons.
 */
int
checkSubstitutions(const Conv2D &conv, const std::vector<const Tensor *> &ins,
                   const Tensor &golden, const char *dtype)
{
    Rng rng(19);
    const Precision p = conv.precision();
    const int bits = FaultModels::operandBits(p);
    Tensor out = golden;
    int mismatches = 0;
    auto compare = [&](const OperandSub &sub,
                       const std::vector<NeuronIndex> &cons,
                       const std::vector<Region> &boxes) {
        if (!conv.forwardWithSub(ins, &sub, boxes.data(), boxes.size(),
                                 out)) {
            ++mismatches; // both kinds must take their vector path
            return;
        }
        for (const NeuronIndex &n : cons)
            if (std::bit_cast<std::uint32_t>(out.at(n)) !=
                std::bit_cast<std::uint32_t>(
                    conv.computeNeuron(ins, n, &sub)))
                ++mismatches;
    };
    for (int draw = 0; draw < 8; ++draw) {
        std::size_t widx = rng.below(
            static_cast<std::uint32_t>(conv.weightCount(ins)));
        int oc = static_cast<int>(widx % conv.spec().outC);
        auto cons = conv.weightConsumers(ins, widx);
        std::vector<Region> plane;
        for (int n = 0; n < golden.n(); ++n)
            plane.push_back(
                {n, n + 1, 0, golden.h(), 0, golden.w(), oc, oc + 1});
        for (int bit = 0; bit < bits; ++bit) {
            OperandSub sub;
            sub.kind = OperandSub::Kind::Weight;
            sub.flatIndex = widx;
            sub.value = FaultModels::flipStoredOperand(
                conv.weightAt(ins, widx), p, conv.weightQuant(), bit);
            compare(sub, cons, plane);
        }
    }
    for (int draw = 0; draw < 8; ++draw) {
        std::size_t elem =
            rng.below(static_cast<std::uint32_t>(ins[0]->size()));
        auto cons = conv.inputConsumers(ins, elem);
        std::vector<Region> runs; // channel runs at one position
        for (const NeuronIndex &n : cons) {
            if (!runs.empty() && runs.back().h0 == n.h &&
                runs.back().w0 == n.w && runs.back().c1 == n.c)
                ++runs.back().c1;
            else
                runs.push_back(Region::of(n));
        }
        for (int bit = 0; bit < bits; ++bit) {
            OperandSub sub;
            sub.kind = OperandSub::Kind::Input;
            sub.flatIndex = elem;
            sub.value = FaultModels::flipStoredOperand(
                (*ins[0])[elem], p, conv.inputQuant(), bit);
            compare(sub, cons, runs);
        }
    }
    if (mismatches)
        std::cerr << "FAIL: " << conv.name() << " " << dtype << ": "
                  << mismatches
                  << " forwardWithSub neurons differ from computeNeuron\n";
    return mismatches;
}

/**
 * The ResNet campaign network's first residual 3x3 conv at one
 * precision, with the network's golden activations.
 */
struct ResnetConv
{
    static constexpr const char *kLayer = "block0.c1";

    Network net = buildNetwork("resnet", 2020);
    std::vector<Tensor> acts;
    NodeId id = -1;

    explicit ResnetConv(Precision p)
    {
        Tensor input = defaultInputFor("resnet", 2021);
        net.setPrecision(p);
        if (p == Precision::INT8 || p == Precision::INT16)
            net.calibrate(input);
        acts = net.forwardAll(input);
        for (NodeId m : net.macNodes())
            if (net.layer(m).name() == kLayer)
                id = m;
    }

    const Conv2D &
    conv() const
    {
        return dynamic_cast<const Conv2D &>(net.layer(id));
    }

    std::vector<const Tensor *>
    ins() const
    {
        return net.gatherInputs(id, acts);
    }
};

/**
 * GFLOP/s of the fault-batched conv kernel (forwardRegionBatched at
 * lane width 8, no cover, whole output) on the ResNet layer, for
 * FP32, FP16 and INT8.  Lane l's input is the golden input with a few
 * elements perturbed; FP16 lanes hold stored-form values, as the
 * engine's planes do downstream of a writeback.  Every lane of the
 * result must equal forward() on that lane's input bit for bit.
 * Returns the number of failed checks.
 */
int
runBatchedConv(const Options &opt,
               std::vector<bench::KernelThroughputRecord> &records)
{
    constexpr int W = 8;
    const double minSeconds =
        (opt.minMs / 1000.0) * bench::scaledSamples(10) / 10.0;
    int failures = 0;
    for (const DtypeSpec &dt : kDtypes) {
        if (dt.precision == Precision::INT16 ||
            (!opt.dtype.empty() && opt.dtype != dt.name))
            continue;
        ResnetConv rc(dt.precision);
        const Conv2D &conv = rc.conv();
        const auto ins = rc.ins();
        const Tensor &x = *ins[0];
        const Tensor &golden = rc.acts[rc.id];

        Rng rng(23);
        std::vector<Tensor> lx(W, x);
        LanePlane xp, op;
        xp.reset(W);
        xp.ensure(x, Region::full(x));
        for (int l = 0; l < W; ++l) {
            for (int i = 0; i < 4; ++i)
                lx[l][rng.below(static_cast<std::uint32_t>(x.size()))] +=
                    static_cast<float>(rng.normal(0, 4));
            if (dt.precision == Precision::FP16)
                for (float &v : lx[l].data())
                    v = roundToHalf(v);
            for (std::size_t f = 0; f < x.size(); ++f)
                xp.lanes(f)[l] = lx[l][f];
        }
        LanePlane *planes[1] = {&xp};
        const Region all = Region::full(golden);
        op.reset(W);
        op.ensure(golden, all);
        auto run = [&] {
            conv.forwardRegionBatched(ins, planes, all, nullptr, golden,
                                      op, nullptr);
        };

        run();
        int mismatches = 0;
        for (int l = 0; l < W; ++l) {
            const Tensor want = conv.forward({&lx[l]});
            for (std::size_t f = 0; f < want.size(); ++f)
                mismatches += std::bit_cast<std::uint32_t>(
                                  op.lanes(f)[l]) !=
                              std::bit_cast<std::uint32_t>(want[f]);
        }
        if (mismatches) {
            std::cerr << "FAIL: batched_conv3x3 " << dt.name << ": "
                      << mismatches
                      << " lane outputs differ from per-lane forward()\n";
            ++failures;
        }

        int iters = 0;
        double elapsed = 0.0;
        while (elapsed < minSeconds) {
            elapsed += bench::timeSeconds([&] {
                for (int i = 0; i < 4; ++i)
                    run();
            });
            iters += 4;
        }
        const double sec = elapsed / iters;
        const double gflops = 2.0 * static_cast<double>(golden.size()) *
                              conv.reductionLength() * W / sec / 1e9;
        records.push_back({"bench_kernels", "batched_conv3x3", dt.name,
                           simd::backendName(), gflops, sec});
        std::cout << "batched_conv3x3 resnet." << ResnetConv::kLayer
                  << " " << dt.name << " W=" << W << ": " << gflops
                  << " GFLOP/s\n";
    }
    return failures;
}

/**
 * Microseconds per FaultModels::apply for every datapath category on
 * the ResNet campaign network's first residual 3x3 conv, at each
 * dtype, after the layer's substitution bit check.  Returns the
 * number of failed checks.
 */
int
runFaultApply(const Options &opt, std::vector<bench::FaultApplyRecord> &records)
{
    const double minSeconds =
        (opt.minMs / 1000.0) * bench::scaledSamples(10) / 10.0;
    int failures = 0;
    for (const DtypeSpec &dt : kDtypes) {
        if (!opt.dtype.empty() && opt.dtype != dt.name)
            continue;
        ResnetConv rc(dt.precision);
        const Conv2D &conv = rc.conv();
        const auto ins = rc.ins();
        const Tensor &golden = rc.acts[rc.id];
        failures += checkSubstitutions(conv, ins, golden, dt.name) > 0;

        NvdlaConfig cfg;
        FaultModels models(cfg);
        std::cout << "fault_apply resnet." << ResnetConv::kLayer << " "
                  << dt.name << " (us/apply):";
        for (FFCategory cat : allFFCategories()) {
            if (!isDatapathCategory(cat))
                continue;
            Rng rng(5);
            int calls = 0;
            double elapsed = 0.0;
            while (elapsed < minSeconds) {
                elapsed += bench::timeSeconds([&] {
                    for (int i = 0; i < 16; ++i)
                        benchmark::DoNotOptimize(
                            models.apply(cat, conv, ins, golden, rng));
                });
                calls += 16;
            }
            double us = 1e6 * elapsed / calls;
            records.push_back({std::string("resnet.") + ResnetConv::kLayer,
                               dt.name, ffCategoryName(cat),
                               simd::backendName(), us});
            std::cout << " " << ffCategoryName(cat) << " " << us;
        }
        std::cout << "\n";
    }
    return failures;
}

int
runChecksumGate(const Options &opt)
{
    // Whole-campaign identity: golden runs, fault injection, the
    // incremental engine, and the metric all ride on the kernels, so
    // equal checksums mean the backend toggle changed nothing.
    int samples = bench::scaledSamples(20);
    int failures = 0;
    for (const DtypeSpec &dt : kDtypes) {
        if (!opt.dtype.empty() && opt.dtype != dt.name)
            continue;
        simd::setEnabled(true);
        std::uint64_t withSimd = campaignChecksum(
            bench::runStudyCampaign("resnet", dt.precision,
                                    top1Metric(), samples));
        simd::setEnabled(false);
        std::uint64_t scalar = campaignChecksum(
            bench::runStudyCampaign("resnet", dt.precision,
                                    top1Metric(), samples));
        simd::setEnabled(true);
        std::cout << "campaign checksum resnet " << dt.name
                  << ": simd " << std::hex << withSimd << ", scalar "
                  << scalar << std::dec
                  << (withSimd == scalar ? " (equal)\n"
                                         : " MISMATCH\n");
        if (withSimd != scalar)
            ++failures;
    }
    return failures;
}

struct ConvSetup
{
    ConvSpec spec;
    std::unique_ptr<Conv2D> conv;
    Tensor x;
    std::vector<const Tensor *> ins;
    Tensor golden;

    ConvSetup()
        : x(1, 8, 8, 8)
    {
        Rng rng(1);
        spec.inC = 8;
        spec.outC = 32;
        spec.kh = 3;
        spec.kw = 3;
        spec.pad = 1;
        conv = std::make_unique<Conv2D>(
            "c", spec, heWeights(rng, 9u * 8 * 32, 72),
            smallBiases(rng, 32));
        conv->setPrecision(Precision::FP16);
        for (auto &v : x.data())
            v = static_cast<float>(rng.normal(0, 1));
        ins = {&x};
        golden = conv->forward(ins);
    }
};

ConvSetup &
setup()
{
    static ConvSetup s;
    return s;
}

void
BM_ConvForward(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(s.conv->forward(s.ins));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(s.golden.size()) *
                            s.conv->reductionLength());
}
BENCHMARK(BM_ConvForward);

void
BM_ComputeNeuron(benchmark::State &state)
{
    auto &s = setup();
    NeuronIndex n{0, 4, 4, 7};
    for (auto _ : state)
        benchmark::DoNotOptimize(s.conv->computeNeuron(s.ins, n,
                                                       nullptr));
    state.SetItemsProcessed(state.iterations() *
                            s.conv->reductionLength());
}
BENCHMARK(BM_ComputeNeuron);

void
BM_EngineGoldenRun(benchmark::State &state)
{
    auto &s = setup();
    NvdlaConfig cfg;
    NvdlaEngine engine(cfg, engineLayerFromConv(*s.conv, s.x));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        EngineResult r = engine.run(s.x, nullptr);
        cycles = r.cycles;
        benchmark::DoNotOptimize(r.output);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cycles));
    state.counters["cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_EngineGoldenRun);

void
BM_EngineInjection(benchmark::State &state)
{
    auto &s = setup();
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*s.conv, s.x), s.x);
    Rng rng(3);
    for (auto _ : state) {
        FaultSite site = fi.sampleSite(rng);
        benchmark::DoNotOptimize(fi.inject(site));
    }
}
BENCHMARK(BM_EngineInjection);

void
BM_FaultModelApply(benchmark::State &state)
{
    auto &s = setup();
    NvdlaConfig cfg;
    FaultModels models(cfg);
    Rng rng(5);
    auto cat = static_cast<FFCategory>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            models.apply(cat, *s.conv, s.ins, s.golden, rng));
    state.SetLabel(ffCategoryName(cat));
}
BENCHMARK(BM_FaultModelApply)
    ->DenseRange(0, static_cast<int>(FFCategory::GlobalControl));

void
BM_RngDraws(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next32());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraws);

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&](const char *flag) {
            return arg.substr(std::strlen(flag));
        };
        if (arg == "-h" || arg == "--help") {
            usage(argv[0]);
            return 0;
        } else if (arg.rfind("--kernel=", 0) == 0) {
            opt.kernel = val("--kernel=");
        } else if (arg.rfind("--dtype=", 0) == 0) {
            opt.dtype = val("--dtype=");
        } else if (arg.rfind("--backend=", 0) == 0) {
            opt.backend = val("--backend=");
        } else if (arg.rfind("--min-ms=", 0) == 0) {
            opt.minMs = static_cast<int>(
                parseIntArg("--min-ms", val("--min-ms="), 1, 60000));
        } else {
            rest.push_back(argv[i]);
        }
    }
    if (!opt.dtype.empty()) {
        bool known = false;
        for (const DtypeSpec &dt : kDtypes)
            known = known || opt.dtype == dt.name;
        fatal_if(!known, "--dtype=", opt.dtype,
                 ": expected fp32, fp16, int8, or int16");
    }
    if (!opt.backend.empty() &&
        !simd::forceBackend(opt.backend.c_str()))
        fatal("--backend=", opt.backend,
              " is not available on this host (not compiled in, or "
              "the CPU lacks the ISA)");
    std::cout << "dispatch backend " << simd::backendName() << " ("
              << simd::dispatchMode() << ")\n";

    std::vector<bench::KernelThroughputRecord> records;
    std::vector<bench::FaultApplyRecord> applies;
    int failures = runThroughput(opt, records);
    if (std::string("batched_conv3x3").find(opt.kernel) !=
        std::string::npos)
        failures += runBatchedConv(opt, records);
    if (std::string("fault_apply").find(opt.kernel) != std::string::npos)
        failures += runFaultApply(opt, applies);
    if (records.empty() && applies.empty()) {
        std::cerr << "no kernel/dtype matches --kernel=" << opt.kernel
                  << " --dtype=" << opt.dtype << "\n";
        return 1;
    }
    // mergeJsonLines replaces all of a bench's rows at once, so a
    // filtered or backend-forced run would clobber the full tracked
    // row set with a partial one — only the default full sweep under
    // the dispatched backend updates the trajectory file.
    if (opt.kernel.empty() && opt.dtype.empty() && opt.backend.empty()) {
        bench::writeKernelThroughputJson("bench_kernels", records,
                                         applies);
        std::cout << "wrote BENCH_kernel_throughput.json ("
                  << simd::backendName() << " vs scalar)\n";
    } else {
        std::cout << "filtered run: BENCH_kernel_throughput.json "
                     "not rewritten\n";
    }
    // The campaign gate is whole-network; a kernel filter means a
    // targeted microbench run, so only the filtered phases execute.
    if (opt.kernel.empty())
        failures += runChecksumGate(opt);
    if (failures) {
        std::cerr << failures
                  << " SIMD-vs-scalar identity failure(s)\n";
        return 1;
    }
    int bargc = static_cast<int>(rest.size());
    benchmark::Initialize(&bargc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
