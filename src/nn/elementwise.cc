#include "nn/elementwise.hh"

#include <algorithm>

#include "nn/lanes.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/simd.hh"

namespace fidelity
{

Elementwise::Elementwise(std::string name, Op op)
    : Layer(std::move(name)), op_(op)
{
}

Tensor
Elementwise::makeOutput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 2, "elementwise expects two inputs");
    panic_if(!ins[0]->sameShape(*ins[1]),
             "elementwise ", name_, ": shape mismatch ",
             ins[0]->shapeStr(), " vs ", ins[1]->shapeStr());
    const Tensor &x = *ins[0];
    return Tensor(x.n(), x.h(), x.w(), x.c());
}

Region
Elementwise::propagateRegion(const std::vector<const Tensor *> &, int,
                             const Region &in, const Tensor &out) const
{
    return in.clipped(out);
}

void
Elementwise::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                                  LanePlane *const *inPlanes,
                                  const Region &region,
                                  const BatchCover *cover,
                                  const Tensor &golden,
                                  LanePlane &out,
                                  const GoldenPrep *) const
{
    if (region.empty())
        return;
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    LanePlane &ap = *inPlanes[0];
    LanePlane &bp = *inPlanes[1];
    ap.ensure(a, region);
    bp.ensure(b, region);

    // Lane rows of consecutive channels are one contiguous float run,
    // as are whole-channel rows of consecutive cells; combine each run
    // with the vector op and round it as one batch (identical per
    // element to a op b + round).
    const int W = out.laneWidth();
    const bool half = precision_ == Precision::FP16;
    const simd::KernelTable &kt = simd::table();
    auto op = op_ == Op::Add ? kt.addF32
              : op_ == Op::Mul ? kt.mulF32
                               : kt.subF32;
    forEachCoveredRun(region, cover, golden,
                      [&](std::size_t f0, std::size_t count) {
        const std::size_t run = count * W;
        float *od = out.lanes(f0);
        op(ap.lanes(f0), bp.lanes(f0), od, run);
        if (half)
            simd::roundToHalfBatch(od, od, run);
    });
}

ConcatC::ConcatC(std::string name)
    : Layer(std::move(name))
{
}

Tensor
ConcatC::makeOutput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 2, "concat expects two inputs");
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    panic_if(a.n() != b.n() || a.h() != b.h() || a.w() != b.w(),
             "concat ", name_, ": spatial mismatch ", a.shapeStr(),
             " vs ", b.shapeStr());
    return Tensor(a.n(), a.h(), a.w(), a.c() + b.c());
}

Region
ConcatC::propagateRegion(const std::vector<const Tensor *> &ins,
                         int inputIdx, const Region &in,
                         const Tensor &out) const
{
    if (in.empty())
        return Region{};
    Region r = in;
    if (inputIdx == 1) {
        r.c0 += ins[0]->c();
        r.c1 += ins[0]->c();
    }
    return r.clipped(out);
}

void
ConcatC::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out,
                              const GoldenPrep *) const
{
    if (region.empty())
        return;
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    LanePlane &ap = *inPlanes[0];
    LanePlane &bp = *inPlanes[1];
    const int ac = a.c();

    Region ra = region;
    ra.c1 = std::min(ra.c1, ac);
    if (!ra.empty())
        ap.ensure(a, ra);
    Region rb = region;
    rb.c0 = std::max(rb.c0, ac) - ac;
    rb.c1 = rb.c1 - ac;
    if (!rb.empty())
        bp.ensure(b, rb);

    const int W = out.laneWidth();
    forEachCoveredCell(region, cover, [&](int n, int h, int w) {
        for (int c = region.c0; c < region.c1; ++c) {
            const float *ip = c < ac
                ? ap.lanes(a.offset(n, h, w, c))
                : bp.lanes(b.offset(n, h, w, c - ac));
            float *op = out.lanes(golden.offset(n, h, w, c));
            for (int l = 0; l < W; ++l)
                op[l] = ip[l];
        }
    });
}

Slice::Slice(std::string name, Axis axis, int offset, int length)
    : Layer(std::move(name)), axis_(axis), offset_(offset), length_(length)
{
    fatal_if(offset < 0 || length <= 0,
             "slice ", name_, ": invalid offset/length");
}

Tensor
Slice::makeOutput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "slice expects one input");
    const Tensor &x = *ins[0];
    int dim = axis_ == Axis::H ? x.h() : x.c();
    fatal_if(offset_ + length_ > dim, "slice ", name_, ": range [",
             offset_, ", ", offset_ + length_, ") exceeds axis size ", dim);
    if (axis_ == Axis::H)
        return Tensor(x.n(), length_, x.w(), x.c());
    return Tensor(x.n(), x.h(), x.w(), length_);
}

Region
Slice::propagateRegion(const std::vector<const Tensor *> &, int,
                       const Region &in, const Tensor &out) const
{
    if (in.empty())
        return Region{};
    Region r = in;
    if (axis_ == Axis::H) {
        r.h0 = std::max(in.h0, offset_) - offset_;
        r.h1 = std::min(in.h1, offset_ + length_) - offset_;
    } else {
        r.c0 = std::max(in.c0, offset_) - offset_;
        r.c1 = std::min(in.c1, offset_ + length_) - offset_;
    }
    if (r.empty())
        return Region{};
    return r.clipped(out);
}

void
Slice::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                            LanePlane *const *inPlanes,
                            const Region &region,
                            const BatchCover *cover,
                            const Tensor &golden, LanePlane &out,
                            const GoldenPrep *) const
{
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    LanePlane &xp = *inPlanes[0];
    Region src = region;
    if (axis_ == Axis::H) {
        src.h0 += offset_;
        src.h1 += offset_;
    } else {
        src.c0 += offset_;
        src.c1 += offset_;
    }
    xp.ensure(x, src);

    const int W = out.laneWidth();
    forEachCoveredCell(region, cover, [&](int n, int h, int w) {
        for (int c = region.c0; c < region.c1; ++c) {
            int sh = axis_ == Axis::H ? h + offset_ : h;
            int sc = axis_ == Axis::C ? c + offset_ : c;
            const float *ip = xp.lanes(x.offset(n, sh, w, sc));
            float *op = out.lanes(golden.offset(n, h, w, c));
            for (int l = 0; l < W; ++l)
                op[l] = ip[l];
        }
    });
}

ScaleShift::ScaleShift(std::string name, float scale, float shift)
    : Layer(std::move(name)), scale_(scale), shift_(shift)
{
}

Tensor
ScaleShift::makeOutput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "scaleshift expects one input");
    const Tensor &x = *ins[0];
    return Tensor(x.n(), x.h(), x.w(), x.c());
}

Region
ScaleShift::propagateRegion(const std::vector<const Tensor *> &, int,
                            const Region &in, const Tensor &out) const
{
    return in.clipped(out);
}

void
ScaleShift::forwardRegionBatched(const std::vector<const Tensor *> &ins,
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

    // Each contiguous run of covered elements: vector scale/shift,
    // then one batch round (identical per element to x*scale+shift +
    // round).
    const int W = out.laneWidth();
    const bool half = precision_ == Precision::FP16;
    const simd::KernelTable &kt = simd::table();
    forEachCoveredRun(region, cover, golden,
                      [&](std::size_t f0, std::size_t count) {
        const std::size_t run = count * W;
        float *op = out.lanes(f0);
        kt.scaleShiftF32(xp.lanes(f0), scale_, shift_, op, run);
        if (half)
            simd::roundToHalfBatch(op, op, run);
    });
}

} // namespace fidelity
