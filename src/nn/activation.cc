#include "nn/activation.hh"

#include <cmath>

#include "nn/lanes.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/simd.hh"

namespace fidelity
{

Activation::Activation(std::string name, Func func, float alpha)
    : Layer(std::move(name)), func_(func), alpha_(alpha)
{
}

float
Activation::apply(float x) const
{
    switch (func_) {
      case Func::ReLU:
        return x > 0.0f ? x : 0.0f;
      case Func::LeakyReLU:
        return x > 0.0f ? x : alpha_ * x;
      case Func::Sigmoid:
        return 1.0f / (1.0f + std::exp(-x));
      case Func::Tanh:
        return std::tanh(x);
    }
    panic("unknown activation");
}

Tensor
Activation::makeOutput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "activation expects one input");
    const Tensor &x = *ins[0];
    return Tensor(x.n(), x.h(), x.w(), x.c());
}

Region
Activation::propagateRegion(const std::vector<const Tensor *> &, int,
                            const Region &in, const Tensor &out) const
{
    return in.clipped(out);
}

void
Activation::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                                 LanePlane *const *inPlanes,
                                 const Region &region,
                                 const BatchCover *cover,
                                 const Tensor &golden,
                                 LanePlane &out,
                                 const GoldenPrep *) const
{
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    LanePlane &xp = *inPlanes[0];
    xp.ensure(x, region);

    // Lane rows of consecutive channels are one contiguous float run,
    // as are whole-channel rows of consecutive cells, so each run
    // applies the function in one call — the vector select for the
    // ReLU family, whose ordered-GT select matches the scalar ternary
    // exactly (NaN takes the negative branch) — and rounds as one
    // batch (identical per element to apply() + round).
    const int W = out.laneWidth();
    const bool half = precision_ == Precision::FP16;
    const simd::KernelTable &kt = simd::table();
    forEachCoveredRun(region, cover, golden,
                      [&](std::size_t f0, std::size_t count) {
        const std::size_t run = count * W;
        const float *ip = xp.lanes(f0);
        float *op = out.lanes(f0);
        if (func_ == Func::ReLU) {
            kt.reluF32(ip, op, run);
        } else if (func_ == Func::LeakyReLU) {
            kt.lreluF32(ip, alpha_, op, run);
        } else {
            for (std::size_t i = 0; i < run; ++i)
                op[i] = apply(ip[i]);
        }
        if (half)
            simd::roundToHalfBatch(op, op, run);
    });
}

} // namespace fidelity
