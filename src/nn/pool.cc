#include "nn/pool.hh"

#include <algorithm>
#include <limits>

#include "nn/lanes.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "tensor/bitops.hh"

namespace fidelity
{

namespace
{

/** FP16 execution rounds every produced activation through binary16. */
void
roundForPrecision(Tensor &t, Precision p)
{
    if (p == Precision::FP16)
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = roundToHalf(t[i]);
}

} // namespace

Pool::Pool(std::string name, Mode mode, int window, int stride, int pad)
    : Layer(std::move(name)), mode_(mode), window_(window),
      stride_(stride > 0 ? stride : window), pad_(pad)
{
    fatal_if(window <= 0, "pool ", name_, ": window must be positive");
    fatal_if(pad < 0, "pool ", name_, ": negative padding");
}

Tensor
Pool::makeOutput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "pool expects one input");
    const Tensor &x = *ins[0];
    int oh = (x.h() + 2 * pad_ - window_) / stride_ + 1;
    int ow = (x.w() + 2 * pad_ - window_) / stride_ + 1;
    fatal_if(oh <= 0 || ow <= 0, "pool ", name_,
             ": window larger than input ", x.shapeStr());
    return Tensor(x.n(), oh, ow, x.c());
}

Tensor
Pool::forward(const std::vector<const Tensor *> &ins) const
{
    const Tensor &x = *ins[0];
    Tensor out = makeOutput(ins);
    for (int n = 0; n < out.n(); ++n) {
        for (int oh = 0; oh < out.h(); ++oh) {
            for (int ow = 0; ow < out.w(); ++ow) {
                for (int c = 0; c < out.c(); ++c) {
                    float acc = mode_ == Mode::Max
                        ? -std::numeric_limits<float>::infinity()
                        : 0.0f;
                    for (int ph = 0; ph < window_; ++ph) {
                        for (int pw = 0; pw < window_; ++pw) {
                            int ih = oh * stride_ - pad_ + ph;
                            int iw = ow * stride_ - pad_ + pw;
                            float v = 0.0f;
                            if (ih >= 0 && ih < x.h() && iw >= 0 &&
                                iw < x.w())
                                v = x.at(n, ih, iw, c);
                            if (mode_ == Mode::Max)
                                acc = std::max(acc, v);
                            else
                                acc += v;
                        }
                    }
                    if (mode_ == Mode::Avg)
                        acc /= static_cast<float>(window_ * window_);
                    out.at(n, oh, ow, c) = acc;
                }
            }
        }
    }
    roundForPrecision(out, precision_);
    return out;
}

Region
Pool::propagateRegion(const std::vector<const Tensor *> &, int,
                      const Region &in, const Tensor &out) const
{
    if (in.empty())
        return Region{};
    auto [h0, h1] = windowCone(in.h0, in.h1, window_, stride_, pad_, 1,
                               out.h());
    auto [w0, w1] = windowCone(in.w0, in.w1, window_, stride_, pad_, 1,
                               out.w());
    Region r{in.n0, in.n1, h0, h1, w0, w1, in.c0, in.c1};
    return r.clipped(out);
}

void
Pool::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                           LanePlane *const *inPlanes,
                           const Region &region,
                           const BatchCover *cover,
                           const Tensor &golden,
                           LanePlane &out,
                           const GoldenPrep *) const
{
    // The window walk and padding tests run once per output cell, the
    // pool reduction per lane column.
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    LanePlane &xp = *inPlanes[0];
    Region fp{region.n0,
              region.n1,
              region.h0 * stride_ - pad_,
              (region.h1 - 1) * stride_ - pad_ + window_,
              region.w0 * stride_ - pad_,
              (region.w1 - 1) * stride_ - pad_ + window_,
              region.c0,
              region.c1};
    xp.ensure(x, fp.clipped(x));

    const int W = out.laneWidth();
    const bool half = precision_ == Precision::FP16;
    const bool isMax = mode_ == Mode::Max;
    const float init = isMax
        ? -std::numeric_limits<float>::infinity()
        : 0.0f;
    float acc[kMaxBatchLanes];
    forEachCoveredCell(region, cover, [&](int n, int oh, int ow) {
        for (int c = region.c0; c < region.c1; ++c) {
            for (int l = 0; l < W; ++l)
                acc[l] = init;
            for (int ph = 0; ph < window_; ++ph) {
                for (int pw = 0; pw < window_; ++pw) {
                    int ih = oh * stride_ - pad_ + ph;
                    int iw = ow * stride_ - pad_ + pw;
                    bool ok = ih >= 0 && ih < x.h() && iw >= 0 && iw < x.w();
                    const float *ip = ok
                        ? xp.lanes(x.offset(n, ih, iw, c))
                        : nullptr;
                    for (int l = 0; l < W; ++l) {
                        float v = ok ? ip[l] : 0.0f;
                        if (isMax)
                            acc[l] = std::max(acc[l], v);
                        else
                            acc[l] += v;
                    }
                }
            }
            float *op = out.lanes(golden.offset(n, oh, ow, c));
            for (int l = 0; l < W; ++l) {
                float v = acc[l];
                if (!isMax)
                    v /= static_cast<float>(window_ * window_);
                op[l] = v;
            }
            if (half)
                simd::roundToHalfBatch(op, op, W);
        }
    });
}

GlobalAvgPool::GlobalAvgPool(std::string name)
    : Layer(std::move(name))
{
}

Tensor
GlobalAvgPool::makeOutput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "pool expects one input");
    const Tensor &x = *ins[0];
    return Tensor(x.n(), 1, 1, x.c());
}

Tensor
GlobalAvgPool::forward(const std::vector<const Tensor *> &ins) const
{
    const Tensor &x = *ins[0];
    Tensor out = makeOutput(ins);
    double denom = static_cast<double>(x.h()) * x.w();
    for (int n = 0; n < x.n(); ++n) {
        for (int c = 0; c < x.c(); ++c) {
            double acc = 0.0;
            for (int h = 0; h < x.h(); ++h)
                for (int w = 0; w < x.w(); ++w)
                    acc += x.at(n, h, w, c);
            out.at(n, 0, 0, c) = static_cast<float>(acc / denom);
        }
    }
    roundForPrecision(out, precision_);
    return out;
}

Region
GlobalAvgPool::propagateRegion(const std::vector<const Tensor *> &, int,
                               const Region &in, const Tensor &out) const
{
    if (in.empty())
        return Region{};
    Region r{in.n0, in.n1, 0, 1, 0, 1, in.c0, in.c1};
    return r.clipped(out);
}

void
GlobalAvgPool::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                                    LanePlane *const *inPlanes,
                                    const Region &region,
                                    const BatchCover *cover,
                                    const Tensor &golden,
                                    LanePlane &out,
                                    const GoldenPrep *) const
{
    // The spatial collapse reads the whole H x W extent of every
    // region channel; without a lane kernel the batched engine would
    // have to materialise a full input copy per lane.
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    LanePlane &xp = *inPlanes[0];
    Region fp{region.n0, region.n1, 0,         x.h(),
              0,         x.w(),     region.c0, region.c1};
    xp.ensure(x, fp);

    const int W = out.laneWidth();
    const bool half = precision_ == Precision::FP16;
    const double denom = static_cast<double>(x.h()) * x.w();
    double acc[kMaxBatchLanes];
    for (int n = region.n0; n < region.n1; ++n) {
        if (cover) {
            // Output rows are (n, 0); a batch whose cones exclude this
            // n keeps the golden fill and skips the whole reduction.
            int nsp = 0;
            cover->row(n, region.h0, nsp);
            if (nsp == 0)
                continue;
        }
        for (int c = region.c0; c < region.c1; ++c) {
            for (int l = 0; l < W; ++l)
                acc[l] = 0.0;
            for (int h = 0; h < x.h(); ++h) {
                for (int w = 0; w < x.w(); ++w) {
                    const float *ip = xp.lanes(x.offset(n, h, w, c));
                    for (int l = 0; l < W; ++l)
                        acc[l] += ip[l];
                }
            }
            float *op = out.lanes(golden.offset(n, 0, 0, c));
            for (int l = 0; l < W; ++l)
                op[l] = static_cast<float>(acc[l] / denom);
            if (half)
                simd::roundToHalfBatch(op, op, W);
        }
    }
}

} // namespace fidelity
