#include "nn/softmax.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "nn/lanes.hh"
#include "sim/logging.hh"

namespace fidelity
{

Softmax::Softmax(std::string name)
    : Layer(std::move(name))
{
}

Tensor
Softmax::makeOutput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "softmax expects one input");
    const Tensor &x = *ins[0];
    return Tensor(x.n(), x.h(), x.w(), x.c());
}

namespace
{

/**
 * The layer's one row loop: softmax over the `c` values of one
 * position, read from `x` and written to `y` at a stride of `stride`
 * floats (a plane's lane width; 1 for a tensor), storing only channels
 * [c0, c1).  Each exp is computed once, into `e` (c doubles), and
 * feeds both the sum and the division unchanged, so the bits equal
 * evaluating it twice.
 */
void
softmaxRow(const float *x, float *y, int c, std::size_t stride, int c0,
           int c1, double *e)
{
    float mx = -std::numeric_limits<float>::infinity();
    for (int k = 0; k < c; ++k)
        mx = std::max(mx, x[k * stride]);
    // NaN inputs (possible under fault injection) make the whole
    // distribution NaN, which downstream metrics treat as an output
    // error.
    double denom = 0.0;
    for (int k = 0; k < c; ++k) {
        e[k] = std::exp(static_cast<double>(x[k * stride] - mx));
        denom += e[k];
    }
    for (int k = c0; k < c1; ++k)
        y[k * stride] = static_cast<float>(e[k] / denom);
}

} // namespace

Tensor
Softmax::forward(const std::vector<const Tensor *> &ins) const
{
    const Tensor &x = *ins[0];
    Tensor out = makeOutput(ins);
    std::vector<double> e(x.c());
    const float *xd = x.data().data();
    float *od = out.data().data();
    for (std::size_t f = 0; f < x.size(); f += x.c())
        softmaxRow(xd + f, od + f, x.c(), 1, 0, x.c(), e.data());
    return out;
}

Region
Softmax::propagateRegion(const std::vector<const Tensor *> &, int,
                         const Region &in, const Tensor &out) const
{
    Region r{in.n0, in.n1, in.h0, in.h1, in.w0, in.w1, 0, out.c()};
    return r.clipped(out);
}

void
Softmax::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden, LanePlane &out) const
{
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    LanePlane &xp = *inPlanes[0];
    xp.ensure(x, Region{region.n0, region.n1, region.h0, region.h1,
                        region.w0, region.w1, 0, x.c()});
    // Softmax writes raw FP32 in every precision: its output never
    // passes a precision writeback, so it is not in stored form.
    out.markRaw();

    const int W = out.laneWidth();
    std::vector<double> e(x.c());
    forEachCoveredLaneCell(
        region, cover, W, [&](int n, int h, int w, std::uint32_t lanes) {
            const std::size_t f0 = golden.offset(n, h, w, 0);
            for (; lanes; lanes &= lanes - 1) {
                const int l = std::countr_zero(lanes);
                softmaxRow(xp.lanes(f0) + l, out.lanes(f0) + l, x.c(), W,
                           region.c0, region.c1, e.data());
            }
        });
}

} // namespace fidelity
