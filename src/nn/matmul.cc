#include "nn/matmul.hh"

#include <bit>

#include "nn/lanes.hh"
#include "sim/arena.hh"
#include "sim/logging.hh"
#include "simd/simd.hh"

namespace fidelity
{

MatMulAB::MatMulAB(std::string name, bool trans_b, int reduction,
                   float scale)
    : MacLayer(std::move(name)), transB_(trans_b), reduction_(reduction),
      scale_(scale)
{
    fatal_if(reduction <= 0, "matmul ", name_,
             ": reduction depth must be positive");
}

void
MatMulAB::checkInputs(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 2, "matmul expects two inputs");
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    panic_if(a.w() != 1 || b.w() != 1,
             "matmul ", name_, ": operands must have W = 1, got ",
             a.shapeStr(), " and ", b.shapeStr());
    panic_if(b.n() != 1, "matmul ", name_, ": B must have N = 1");
    panic_if(a.c() != reduction_, "matmul ", name_, ": A columns ",
             a.c(), " != reduction depth ", reduction_);
    if (transB_) {
        panic_if(a.c() != b.c(), "matmul ", name_, " (transB): A columns ",
                 a.c(), " != B columns ", b.c());
    } else {
        panic_if(a.c() != b.h(), "matmul ", name_, ": A columns ", a.c(),
                 " != B rows ", b.h());
    }
}

Tensor
MatMulAB::makeOutput(const std::vector<const Tensor *> &ins) const
{
    checkInputs(ins);
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    int out_cols = transB_ ? b.h() : b.c();
    return Tensor(a.n(), a.h(), 1, out_cols);
}

float
MatMulAB::computeNeuron(const std::vector<const Tensor *> &ins,
                        const NeuronIndex &out, const OperandSub *sub) const
{
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    int red = a.c();
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    const std::size_t a_base =
        (static_cast<std::size_t>(out.n) * a.h() + out.h) * a.c();
    const std::size_t b_row =
        transB_ ? static_cast<std::size_t>(out.c) * b.c() : 0;
    const std::size_t b_cols = b.c();
    float acc = 0.0f;
    std::int64_t iacc = 0;
    for (int k = 0; k < red; ++k) {
        std::size_t aoff = a_base + k;
        std::size_t boff = transB_
            ? b_row + k
            : static_cast<std::size_t>(k) * b_cols + out.c;
        float av = ad[aoff];
        float bv = bd[boff];
        for (const OperandSub *s = sub; s; s = s->next) {
            if (s->kind == OperandSub::Kind::Input &&
                (s->termIndex >= 0 ? k == s->termIndex
                                   : aoff == s->flatIndex)) {
                av = s->value;
            } else if (s->kind == OperandSub::Kind::Weight &&
                       boff == s->flatIndex) {
                bv = s->value;
            }
        }
        for (const OperandSub *s = sub; s; s = s->next) {
            if (s->kind == OperandSub::Kind::PsumFlip &&
                k == static_cast<int>(s->flatIndex)) {
                if (integer)
                    iacc = psumFlipInt(iacc, s->flipMask());
                else
                    acc = psumFlipFloat(acc, s->flipMask());
            }
        }
        if (integer)
            iacc += static_cast<std::int64_t>(quantInput(av)) *
                    quantWeight(bv);
        else
            acc += storeInput(av) * storeWeight(bv);
    }
    for (const OperandSub *s = sub; s; s = s->next) {
        if (s->kind == OperandSub::Kind::PsumFlip &&
            red == static_cast<int>(s->flatIndex)) {
            if (integer)
                iacc = psumFlipInt(iacc, s->flipMask());
            else
                acc = psumFlipFloat(acc, s->flipMask());
        }
    }
    double facc = integer
        ? static_cast<double>(iacc) * inQuant_.scale * wQuant_.scale
        : static_cast<double>(acc);
    return writeback(facc * scale_, 0.0f);
}

/** The golden B's pack: the golden pass's prep of this layer. */
struct MatMulAB::GoldenB final : GoldenPrep
{
    PackedOperand pack;
};

std::unique_ptr<const GoldenPrep>
MatMulAB::prepareGolden(const std::vector<const Tensor *> &ins) const
{
    // B is an activation, so its pack cannot live in the layer: one
    // pack per golden pass, owned next to the activations it came from.
    checkInputs(ins);
    const Tensor &b = *ins[1];
    auto gb = std::make_unique<GoldenB>();
    packOperand(b.data().data(), ins[0]->c(), transB_ ? b.h() : b.c(),
                transB_, gb->pack);
    return gb;
}

void
MatMulAB::mulRows(const float *a, std::size_t rows, int red, int cols,
                  const float *b, const PackedOperand *bp, float *y) const
{
    if (!bp)
        bp = &packScratch(b, red, cols, transB_);
    // computeNeuron's writeback(facc * scale_, 0.0f): no bias, and the
    // + 0.0f turns -0 into +0.
    mulPacked(a, rows, red, cols, *bp, nullptr, scale_, y);
}

Region
MatMulAB::propagateRegion(const std::vector<const Tensor *> &,
                          int inputIdx, const Region &in,
                          const Tensor &out) const
{
    Region r;
    if (inputIdx == 0) {
        // An A row feeds only its own output row.
        r = Region{in.n0, in.n1, in.h0, in.h1, 0, 1, 0, out.c()};
    } else {
        // A B row (transB) or column feeds one output column of every
        // row — where attention mixes positions.
        const int c0 = transB_ ? in.h0 : in.c0;
        const int c1 = transB_ ? in.h1 : in.c1;
        r = Region{0, out.n(), 0, out.h(), 0, 1, c0, c1};
    }
    return r.clipped(out);
}

void
MatMulAB::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                               LanePlane *const *inPlanes,
                               const Region &region,
                               const BatchCover *cover,
                               const Tensor &golden, LanePlane &out,
                               const GoldenPrep *prep) const
{
    checkInputs(ins);
    if (region.empty())
        return;
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    const int red = a.c();
    const int cols = golden.c();
    LanePlane &ap = *inPlanes[0];
    LanePlane &bpl = *inPlanes[1];
    ap.ensure(a, Region{region.n0, region.n1, region.h0, region.h1, 0, 1,
                        0, red});

    // Lanes whose B differs from the golden B (only possible inside the
    // B plane's valid box) need a pack of their own; the rest share
    // one pack of the golden B.  At width 1 each row of the box is one
    // block compare.
    const int W = out.laneWidth();
    const float *bd = b.data().data();
    std::uint32_t dirtyB = 0;
    const Region &bv = bpl.valid();
    const std::size_t bLen = bv.c1 - bv.c0;
    forEachCoveredCell(bv, nullptr, [&](int n, int h, int w) {
        std::size_t flat = b.offset(n, h, w, bv.c0);
        if (W == 1) {
            dirtyB |= simd::firstBitDiff(bpl.lanes(flat), bd + flat,
                                         bLen) != bLen;
            return;
        }
        for (int c = bv.c0; c < bv.c1; ++c, ++flat)
            dirtyB |= simd::laneNeMask(bpl.lanes(flat), bd[flat]);
    });

    const PackedOperand *goldenPack =
        prep ? &static_cast<const GoldenB *>(prep)->pack : nullptr;
    // One lane over whole output rows that form one run: A's rows and
    // the output's rows are read and written in place (always so in
    // forward()), against the lane's one B.
    std::size_t start = 0, count = 0;
    if (W == 1 && region.c0 == 0 && region.c1 == cols &&
        singleCoveredRun(region, cover, golden, start, count)) {
        if (dirtyB)
            bpl.ensure(b, Region::full(b));
        mulRows(ap.lanes(start / cols * red), count / cols, red, cols,
                dirtyB ? bpl.lanes(0) : bd, dirtyB ? nullptr : goldenPack,
                out.lanes(start));
        return;
    }

    // The (row, lane) pairs to recompute, numbered in gather order:
    // the lanes that share the golden B pack first, row-major, then
    // each dirty lane's rows as one contiguous block.  f(i, n, h,
    // lanes) takes A row (n, h) of every lane in `lanes` at once, as
    // rows i, i + 1, ... lowest lane first.
    const std::uint32_t shared = ((1u << W) - 1) & ~dirtyB;
    auto forEachRun = [&](auto &&f) {
        std::size_t i = 0;
        forEachCoveredLaneCell(
            region, cover, W, [&](int n, int h, int, std::uint32_t lanes) {
                if ((lanes &= shared)) {
                    f(i, n, h, lanes);
                    i += std::popcount(lanes);
                }
            });
        for (std::uint32_t d = dirtyB; d; d &= d - 1) {
            const std::uint32_t bit = d & -d;
            forEachCoveredLaneCell(region, cover, W,
                                   [&](int n, int h, int,
                                       std::uint32_t lanes) {
                                       if (lanes & bit)
                                           f(i++, n, h, bit);
                                   });
        }
    };
    std::size_t sharedRows = 0, laneRows[kMaxBatchLanes] = {};
    forEachCoveredLaneCell(region, cover, W,
                           [&](int, int, int, std::uint32_t lanes) {
                               sharedRows += std::popcount(lanes & shared);
                               for (lanes &= dirtyB; lanes;
                                    lanes &= lanes - 1)
                                   ++laneRows[std::countr_zero(lanes)];
                           });
    std::size_t rows = sharedRows;
    for (int l = 0; l < W; ++l)
        rows += laneRows[l];

    Arena &arena = Arena::local();
    auto xr = arena.floats(rows * red);
    auto yr = arena.floats(rows * cols);
    forEachRun([&](std::size_t i, int n, int h, std::uint32_t lanes) {
        gatherLanes(ap.lanes(a.offset(n, h, 0, 0)), W, lanes, red,
                    xr.data() + i * red, red);
    });

    if (sharedRows > 0)
        mulRows(xr.data(), sharedRows, red, cols, bd, goldenPack,
                yr.data());
    if (dirtyB) {
        bpl.ensure(b, Region::full(b));
        auto bl = arena.floats(W == 1 ? 0 : b.size());
        std::size_t start = sharedRows;
        for (std::uint32_t d = dirtyB; d; d &= d - 1) {
            const int l = std::countr_zero(d);
            if (laneRows[l] == 0)
                continue;
            // One lane's B is the plane itself at width 1.
            const float *lb = bpl.lanes(0);
            if (W > 1) {
                gatherLanes(lb, W, 1u << l, static_cast<int>(b.size()),
                            bl.data(), b.size());
                lb = bl.data();
            }
            mulRows(xr.data() + start * red, laneRows[l], red, cols, lb,
                    nullptr, yr.data() + start * cols);
            start += laneRows[l];
        }
    }

    forEachRun([&](std::size_t i, int n, int h, std::uint32_t lanes) {
        scatterLanes(yr.data() + i * cols + region.c0, cols,
                     region.c1 - region.c0,
                     out.lanes(golden.offset(n, h, 0, region.c0)), W,
                     lanes);
    });
}

std::size_t
MatMulAB::weightCount(const std::vector<const Tensor *> &ins) const
{
    checkInputs(ins);
    return ins[1]->size();
}

float
MatMulAB::weightAt(const std::vector<const Tensor *> &ins,
                   std::size_t idx) const
{
    panic_if(idx >= ins[1]->size(), "B index out of range");
    return (*ins[1])[idx];
}

std::vector<NeuronIndex>
MatMulAB::inputConsumers(const std::vector<const Tensor *> &ins,
                         std::size_t elem) const
{
    checkInputs(ins);
    const Tensor &a = *ins[0];
    NeuronIndex e = a.indexOf(elem);
    int out_cols = transB_ ? ins[1]->h() : ins[1]->c();
    // An A element feeds every neuron of its output row.
    std::vector<NeuronIndex> out;
    out.reserve(out_cols);
    for (int j = 0; j < out_cols; ++j)
        out.push_back({e.n, e.h, 0, j});
    return out;
}

std::vector<NeuronIndex>
MatMulAB::weightConsumers(const std::vector<const Tensor *> &ins,
                          std::size_t widx) const
{
    checkInputs(ins);
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    NeuronIndex e = b.indexOf(widx);
    int col = transB_ ? e.h : e.c;
    // A B element feeds every neuron of its output column, in all
    // batches of A.
    std::vector<NeuronIndex> out;
    for (int n = 0; n < a.n(); ++n)
        for (int i = 0; i < a.h(); ++i)
            out.push_back({n, i, 0, col});
    return out;
}

} // namespace fidelity
