#include "nn/pool.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "nn/lanes.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"

namespace fidelity
{

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
    // The window walk and padding tests run once per output cell.
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

    // A cell's lane rows of consecutive channels are one contiguous
    // run in both planes: each window tap streams the whole run into
    // the output (every element still reduces its taps in window
    // order), and the cell rounds as one batch.
    const bool half = precision_ == Precision::FP16;
    const bool isMax = mode_ == Mode::Max;
    const float init = isMax
        ? -std::numeric_limits<float>::infinity()
        : 0.0f;
    const float area = static_cast<float>(window_ * window_);
    const std::size_t run =
        static_cast<std::size_t>(region.c1 - region.c0) * out.laneWidth();
    forEachCoveredCell(region, cover, [&](int n, int oh, int ow) {
        float *op = out.lanes(golden.offset(n, oh, ow, region.c0));
        std::fill_n(op, run, init);
        for (int ph = 0; ph < window_; ++ph) {
            for (int pw = 0; pw < window_; ++pw) {
                int ih = oh * stride_ - pad_ + ph;
                int iw = ow * stride_ - pad_ + pw;
                if (ih < 0 || ih >= x.h() || iw < 0 || iw >= x.w()) {
                    // Padding taps read 0 (which also turns an avg
                    // accumulator's -0 into +0).
                    for (std::size_t i = 0; i < run; ++i)
                        op[i] = isMax ? std::max(op[i], 0.0f)
                                      : op[i] + 0.0f;
                    continue;
                }
                const float *ip = xp.lanes(x.offset(n, ih, iw, region.c0));
                if (isMax) {
                    for (std::size_t i = 0; i < run; ++i)
                        op[i] = std::max(op[i], ip[i]);
                } else {
                    for (std::size_t i = 0; i < run; ++i)
                        op[i] += ip[i];
                }
            }
        }
        if (!isMax)
            for (std::size_t i = 0; i < run; ++i)
                op[i] /= area;
        if (half)
            simd::roundToHalfBatch(op, op, run);
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

    // The channels' lane rows of one (h, w) cell are one contiguous
    // run: accumulate it into a per-element double sum cell by cell
    // (each element still sums in (h, w) order), then divide and round
    // the run as one batch.
    const bool half = precision_ == Precision::FP16;
    const double denom = static_cast<double>(x.h()) * x.w();
    const std::size_t run =
        static_cast<std::size_t>(region.c1 - region.c0) * out.laneWidth();
    std::vector<double> acc(run);
    for (int n = region.n0; n < region.n1; ++n) {
        if (cover) {
            // Output rows are (n, 0); a batch whose cones exclude this
            // n keeps the golden fill and skips the whole reduction.
            int nsp = 0;
            cover->row(n, region.h0, nsp);
            if (nsp == 0)
                continue;
        }
        std::fill(acc.begin(), acc.end(), 0.0);
        for (int h = 0; h < x.h(); ++h) {
            for (int w = 0; w < x.w(); ++w) {
                const float *ip = xp.lanes(x.offset(n, h, w, region.c0));
                for (std::size_t i = 0; i < run; ++i)
                    acc[i] += ip[i];
            }
        }
        float *op = out.lanes(golden.offset(n, 0, 0, region.c0));
        for (std::size_t i = 0; i < run; ++i)
            op[i] = static_cast<float>(acc[i] / denom);
        if (half)
            simd::roundToHalfBatch(op, op, run);
    }
}

} // namespace fidelity
