#include "nn/activation.hh"

#include <cmath>

#include "nn/lanes.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/simd.hh"
#include "tensor/bitops.hh"

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

Tensor
Activation::forward(const std::vector<const Tensor *> &ins) const
{
    const Tensor &x = *ins[0];
    Tensor out = makeOutput(ins);
    const float *xd = x.data().data();
    float *od = out.data().data();
    const std::size_t sz = x.size();
    if (func_ == Func::ReLU || func_ == Func::LeakyReLU) {
        // x > 0 ? x : {0, alpha*x} — the kernels' ordered-GT select
        // matches the scalar ternary exactly (NaN takes the negative
        // branch).
        const simd::KernelTable &kt = simd::table();
        if (func_ == Func::ReLU)
            kt.reluF32(xd, od, sz);
        else
            kt.lreluF32(xd, alpha_, od, sz);
    } else {
        for (std::size_t i = 0; i < sz; ++i)
            od[i] = apply(xd[i]);
    }
    if (precision_ == Precision::FP16)
        simd::roundToHalfBatch(od, od, sz);
    return out;
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
    // so each (n, h, w) row applies the function like forward() does —
    // vector select for the ReLU family — and rounds the whole run as
    // one batch (identical per element to the scalar ternary + round).
    const int W = out.laneWidth();
    const bool half = precision_ == Precision::FP16;
    const std::size_t run =
        static_cast<std::size_t>(region.c1 - region.c0) * W;
    const simd::KernelTable &kt = simd::table();
    forEachCoveredCell(region, cover, [&](int n, int h, int w) {
        std::size_t f0 = golden.offset(n, h, w, region.c0);
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
