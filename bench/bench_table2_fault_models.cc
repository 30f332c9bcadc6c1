/**
 * @file
 * Regenerates Table II: the NVDLA software fault models per flip-flop
 * category, with the %FF census column and the reuse-factor behaviour
 * measured by applying each model to live Conv / FC / MatMul layers.
 */

#include <algorithm>
#include <iostream>

#include "bench/common.hh"
#include "core/fault_models.hh"
#include "nn/conv.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/matmul.hh"
#include "sim/table.hh"

using namespace fidelity;
using namespace fidelity::bench;

namespace
{

const char *
modelDescription(FFCategory cat)
{
    switch (cat) {
      case FFCategory::PreBufInput:
        return "bit-flip in one input; all users faulty";
      case FFCategory::PreBufWeight:
        return "bit-flip in one weight; all users faulty";
      case FFCategory::OperandInput:
        return "bit-flip in one input; 16 neurons (one group)";
      case FFCategory::OperandWeight:
        return "bit-flip in one weight; <= 16 neurons (one run)";
      case FFCategory::OutputPsum:
        return "bit-flip in one output word or partial sum";
      case FFCategory::LocalControl:
        return "random value at one output neuron";
      case FFCategory::GlobalControl:
        return "system failure (app error / time-out)";
    }
    return "";
}

const char *
rfColumn(FFCategory cat)
{
    switch (cat) {
      case FFCategory::PreBufInput:
      case FFCategory::PreBufWeight:
        return "all users";
      case FFCategory::OperandInput:
        return "16";
      case FFCategory::OperandWeight:
        return "<= 16";
      case FFCategory::OutputPsum:
      case FFCategory::LocalControl:
        return "1";
      case FFCategory::GlobalControl:
        return "ALL";
    }
    return "";
}

struct LayerUnderTest
{
    std::string name;
    const MacLayer *layer;
    const std::vector<const Tensor *> *ins;
    const Tensor *golden;
};

} // namespace

int
main()
{
    NvdlaConfig cfg;
    FaultModels models(cfg);

    printHeading(std::cout,
                 "Table II: NVDLA software fault models (k^2 = 16 MACs, "
                 "t = 16)");
    Table t({"Category", "%FF", "RF", "Software fault model"});
    for (FFCategory cat : allFFCategories())
        t.addRow({ffCategoryName(cat),
                  Table::pct(ffCategoryShare(cat)), rfColumn(cat),
                  modelDescription(cat)});
    t.print(std::cout);

    // Measure the realised faulty-neuron counts per layer type.
    Rng wrng(3);
    ConvSpec spec;
    spec.inC = 8;
    spec.outC = 32;
    spec.kh = 3;
    spec.kw = 3;
    spec.pad = 1;
    Conv2D conv("conv", spec, heWeights(wrng, 9u * 8 * 32, 72),
                smallBiases(wrng, 32));
    conv.setPrecision(Precision::FP16);
    Tensor cx(1, 8, 8, 8);
    for (auto &v : cx.data())
        v = static_cast<float>(wrng.normal(0, 1));
    std::vector<const Tensor *> cins{&cx};
    Tensor cgold = conv.forward(cins);

    FC fc("fc", 64, 48, heWeights(wrng, 64u * 48, 64),
          smallBiases(wrng, 48));
    fc.setPrecision(Precision::FP16);
    Tensor fx(1, 1, 1, 64);
    for (auto &v : fx.data())
        v = static_cast<float>(wrng.normal(0, 1));
    std::vector<const Tensor *> fins{&fx};
    Tensor fgold = fc.forward(fins);

    MatMulAB mm("matmul", true, 32, 0.25f);
    mm.setPrecision(Precision::FP16);
    Tensor ma(1, 16, 1, 32), mb(1, 16, 1, 32);
    for (auto &v : ma.data())
        v = static_cast<float>(wrng.normal(0, 1));
    for (auto &v : mb.data())
        v = static_cast<float>(wrng.normal(0, 1));
    std::vector<const Tensor *> mins{&ma, &mb};
    Tensor mgold = mm.forward(mins);

    LayerUnderTest layers[] = {
        {"Conv", &conv, &cins, &cgold},
        {"FC", &fc, &fins, &fgold},
        {"MatMul", &mm, &mins, &mgold},
    };

    printHeading(std::cout,
                 "Measured faulty-neuron counts per layer type "
                 "(min/mean/max over samples)");
    int samples = scaledSamples(200);
    Table m({"Category", "Layer", "min", "mean", "max"});
    Rng rng(11);
    for (FFCategory cat : allFFCategories()) {
        if (cat == FFCategory::GlobalControl)
            continue;
        for (const LayerUnderTest &l : layers) {
            std::size_t mn = SIZE_MAX, mx = 0;
            double sum = 0.0;
            int counted = 0;
            for (int s = 0; s < samples; ++s) {
                FaultApplication app = models.apply(
                    cat, *l.layer, *l.ins, *l.golden, rng);
                if (app.neurons.empty())
                    continue;
                counted += 1;
                mn = std::min(mn, app.neurons.size());
                mx = std::max(mx, app.neurons.size());
                sum += static_cast<double>(app.neurons.size());
            }
            if (counted == 0)
                continue;
            m.addRow({ffCategoryName(cat), l.name,
                      Table::num(static_cast<std::uint64_t>(mn)),
                      Table::num(sum / counted, 1),
                      Table::num(static_cast<std::uint64_t>(mx))});
        }
    }
    m.print(std::cout);
    std::cout << "\nGlobalControl: always modelled as system failure "
                 "(no neuron set).\n";
    return 0;
}
