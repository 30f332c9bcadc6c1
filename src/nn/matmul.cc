#include "nn/matmul.hh"

#include <bit>

#include "nn/lanes.hh"
#include "sim/arena.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/gemm.hh"

namespace fidelity
{

MatMulAB::MatMulAB(std::string name, bool trans_b, float scale)
    : MacLayer(std::move(name)), transB_(trans_b), scale_(scale)
{
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
    lastReduction_.store(red, std::memory_order_relaxed);
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

struct MatMulAB::PackedB
{
    Arena::Lease<float> f;        //!< FP32 / FP16 lane-blocked pack
    Arena::Lease<std::int32_t> i; //!< wide integer pack
    Arena::Lease<std::int16_t> s; //!< narrow integer pack
    int chunkPairs = 0;           //!< > 0: the narrow pack is live
};

MatMulAB::PackedB
MatMulAB::packB(const float *b, std::size_t size, int red, int cols) const
{
    // B is an activation, so its pack is per-call arena scratch
    // rather than a persistent cache; the pack step also resolves
    // transB so the kernel always streams the fixed-width layouts.
    auto bAt = [&](int k, int c) {
        return transB_ ? static_cast<std::size_t>(c) * red + k
                       : static_cast<std::size_t>(k) * cols + c;
    };
    Arena &arena = Arena::local();
    if (precision_ == Precision::INT8 || precision_ == Precision::INT16) {
        auto bq = arena.ints(size);
        simd::quantizeBatch(b, bq.data(), size, wQuant_);
        // Per-pack narrow eligibility: scan this B's quantised
        // magnitudes for the chunk bound (see Conv2D::packWeights).
        std::int32_t maxAbsW = 0;
        for (std::size_t i = 0; i < size; ++i) {
            std::int32_t v = bq[i] < 0 ? -bq[i] : bq[i];
            maxAbsW = v > maxAbsW ? v : maxAbsW;
        }
        const int bits = precision_ == Precision::INT8 ? 8 : 16;
        const int chunk = simd::narrowChunkPairs(bits, maxAbsW);
        auto get = [&](int k, int c) { return bq[bAt(k, c)]; };
        if (simd::narrowEligible(chunk)) {
            PackedB p{arena.floats(0), arena.ints(0),
                      arena.shorts(simd::packNarrowSize(red, cols)),
                      chunk};
            simd::packNarrow(red, cols, get, p.s.data());
            return p;
        }
        constexpr int L = simd::kI64Lanes;
        PackedB p{arena.floats(0),
                  arena.ints(simd::packSize(red, cols, L)),
                  arena.shorts(0), 0};
        simd::packLaneBlocked(red, cols, L, get, p.i.data());
        return p;
    }
    constexpr int L = simd::kF32Lanes;
    const bool half = precision_ == Precision::FP16;
    auto bs = arena.floats(half ? size : 0);
    const float *bf = b;
    if (half) {
        simd::roundToHalfBatch(b, bs.data(), size);
        bf = bs.data();
    }
    PackedB p{arena.floats(simd::packSize(red, cols, L)), arena.ints(0),
              arena.shorts(0), 0};
    simd::packLaneBlocked(
        red, cols, L, [&](int k, int c) { return bf[bAt(k, c)]; },
        p.f.data());
    return p;
}

void
MatMulAB::mulRows(const float *a, std::size_t rows, int red, int cols,
                  const PackedB &bp, float *y) const
{
    // Fast path, bit-identical to computeNeuron(): A converts once per
    // call, then accumulates against B in canonical k order.
    const std::size_t size = rows * red;
    Arena &arena = Arena::local();
    const simd::KernelTable &kt = simd::table();
    if (precision_ == Precision::INT8 || precision_ == Precision::INT16) {
        auto aq = arena.ints(size);
        simd::quantizeBatch(a, aq.data(), size, inQuant_);
        auto wb = [&](std::int64_t iacc, int) {
            double facc = static_cast<double>(iacc) * inQuant_.scale *
                          wQuant_.scale;
            return writeback(facc * scale_, 0.0f);
        };
        if (bp.chunkPairs > 0) {
            // One zeroed pad element past the end keeps the final
            // row's odd-reduction pair readable (its B entry is zero).
            auto an = arena.shorts(size + 1);
            for (std::size_t i = 0; i < size; ++i)
                an[i] = static_cast<std::int16_t>(aq[i]);
            an[size] = 0;
            auto accL = arena.longs(
                simd::packSize(1, cols, simd::kNarrowLanes));
            simd::denseNarrow(kt, an.data(), rows, red, cols,
                              bp.s.data(), bp.chunkPairs, accL.data(),
                              y, wb);
        } else {
            auto accL =
                arena.longs(simd::packSize(1, cols, simd::kI64Lanes));
            simd::denseInt(kt, aq.data(), rows, red, cols, bp.i.data(),
                           accL.data(), y, wb);
        }
        return;
    }
    const bool half = precision_ == Precision::FP16;
    auto as = arena.floats(half ? size : 0);
    const float *af = a;
    if (half) {
        simd::roundToHalfBatch(a, as.data(), size);
        af = as.data();
    }
    auto accF = arena.floats(simd::packSize(1, cols, simd::kF32Lanes));
    simd::denseFloat(kt, af, rows, red, cols, bp.f.data(), accF.data(),
                     y, [&](double acc, int) {
                         return writeback(acc * scale_, 0.0f);
                     });
}

Tensor
MatMulAB::forward(const std::vector<const Tensor *> &ins) const
{
    Tensor out = makeOutput(ins);
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    const int red = a.c();
    lastReduction_.store(red, std::memory_order_relaxed);
    PackedB bp = packB(b.data().data(), b.size(), red, out.c());
    mulRows(a.data().data(), static_cast<std::size_t>(a.n()) * a.h(),
            red, out.c(), bp, out.data().data());
    return out;
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
                               const Tensor &golden, LanePlane &out) const
{
    checkInputs(ins);
    if (region.empty())
        return;
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    const int red = a.c();
    const int cols = golden.c();
    lastReduction_.store(red, std::memory_order_relaxed);
    LanePlane &ap = *inPlanes[0];
    LanePlane &bpl = *inPlanes[1];
    ap.ensure(a, Region{region.n0, region.n1, region.h0, region.h1, 0, 1,
                        0, red});

    // Lanes whose B differs from the golden B (only possible inside the
    // B plane's valid box) need a pack of their own; the rest share
    // one pack of the golden B.
    const int W = out.laneWidth();
    const float *bd = b.data().data();
    std::uint32_t dirtyB = 0;
    const Region &bv = bpl.valid();
    for (int n = bv.n0; n < bv.n1; ++n) {
        for (int h = bv.h0; h < bv.h1; ++h) {
            for (int w = bv.w0; w < bv.w1; ++w) {
                std::size_t flat = b.offset(n, h, w, bv.c0);
                for (int c = bv.c0; c < bv.c1; ++c, ++flat)
                    dirtyB |= simd::laneNeMask(bpl.lanes(flat), bd[flat],
                                               W);
            }
        }
    }

    // The (row, lane) pairs to recompute, numbered in gather order:
    // the lanes that share the golden B pack first, row-major, then
    // each dirty lane's rows as one contiguous block.
    const std::uint32_t shared = ((1u << W) - 1) & ~dirtyB;
    auto forEachRow = [&](auto &&f) {
        std::size_t i = 0;
        forEachCoveredLaneCell(
            region, cover, W, [&](int n, int h, int, std::uint32_t lanes) {
                for (lanes &= shared; lanes; lanes &= lanes - 1)
                    f(i++, n, h, std::countr_zero(lanes));
            });
        for (std::uint32_t d = dirtyB; d; d &= d - 1) {
            const int l = std::countr_zero(d);
            forEachCoveredLaneCell(region, cover, W,
                                   [&](int n, int h, int,
                                       std::uint32_t lanes) {
                                       if ((lanes >> l) & 1u)
                                           f(i++, n, h, l);
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
    forEachRow([&](std::size_t i, int n, int h, int l) {
        const float *src = ap.lanes(a.offset(n, h, 0, 0));
        float *dst = xr.data() + i * red;
        for (int k = 0; k < red; ++k)
            dst[k] = src[k * W + l];
    });

    if (sharedRows > 0)
        mulRows(xr.data(), sharedRows, red, cols,
                packB(bd, b.size(), red, cols), yr.data());
    if (dirtyB) {
        bpl.ensure(b, Region::full(b));
        auto bl = arena.floats(b.size());
        std::size_t start = sharedRows;
        for (std::uint32_t d = dirtyB; d; d &= d - 1) {
            const int l = std::countr_zero(d);
            if (laneRows[l] == 0)
                continue;
            for (std::size_t f = 0; f < b.size(); ++f)
                bl[f] = bpl.lanes(f)[l];
            mulRows(xr.data() + start * red, laneRows[l], red, cols,
                    packB(bl.data(), b.size(), red, cols),
                    yr.data() + start * cols);
            start += laneRows[l];
        }
    }

    forEachRow([&](std::size_t i, int n, int h, int l) {
        float *dst = out.lanes(golden.offset(n, h, 0, 0));
        const float *src = yr.data() + i * cols;
        for (int c = region.c0; c < region.c1; ++c)
            dst[c * W + l] = src[c];
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
