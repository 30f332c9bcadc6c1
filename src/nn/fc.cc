#include "nn/fc.hh"

#include <bit>

#include "nn/lanes.hh"
#include "sim/arena.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/gemm.hh"

namespace fidelity
{

FC::FC(std::string name, int in_c, int units, std::vector<float> weights,
       std::vector<float> bias)
    : MacLayer(std::move(name)), inC_(in_c), units_(units),
      weights_(std::move(weights)), bias_(std::move(bias))
{
    fatal_if(in_c <= 0 || units <= 0, "fc ", name_,
             ": dimensions must be positive");
    std::size_t expect = static_cast<std::size_t>(in_c) * units;
    fatal_if(weights_.size() != expect, "fc ", name_, ": expected ",
             expect, " weights, got ", weights_.size());
    fatal_if(!bias_.empty() &&
             bias_.size() != static_cast<std::size_t>(units),
             "fc ", name_, ": bias size mismatch");
    // Immutable weights pack once, here; the quantised modes repack
    // lazily through onQuantChanged().
    packWeights();
}

void
FC::checkInput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "fc expects one input");
    panic_if(ins[0]->c() != inC_, "fc ", name_, ": input channels ",
             ins[0]->c(), " != ", inC_);
}

Tensor
FC::makeOutput(const std::vector<const Tensor *> &ins) const
{
    checkInput(ins);
    const Tensor &x = *ins[0];
    return Tensor(x.n(), x.h(), x.w(), units_);
}

float
FC::computeNeuron(const std::vector<const Tensor *> &ins,
                  const NeuronIndex &out, const OperandSub *sub) const
{
    const Tensor &x = *ins[0];
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    const float *xd = x.data().data();
    const float *wd = weights_.data();
    const std::size_t pos_base =
        ((static_cast<std::size_t>(out.n) * x.h() + out.h) * x.w() +
         out.w) * x.c();
    float acc = 0.0f;
    std::int64_t iacc = 0;
    for (int ci = 0; ci < inC_; ++ci) {
        std::size_t xoff = pos_base + ci;
        std::size_t widx = static_cast<std::size_t>(ci) * units_ + out.c;
        float xin = xd[xoff];
        float wv = wd[widx];
        for (const OperandSub *s = sub; s; s = s->next) {
            if (s->kind == OperandSub::Kind::Input &&
                (s->termIndex >= 0 ? ci == s->termIndex
                                   : xoff == s->flatIndex)) {
                xin = s->value;
            } else if (s->kind == OperandSub::Kind::Weight &&
                       widx == s->flatIndex) {
                wv = s->value;
            }
        }
        for (const OperandSub *s = sub; s; s = s->next) {
            if (s->kind == OperandSub::Kind::PsumFlip &&
                ci == static_cast<int>(s->flatIndex)) {
                if (integer)
                    iacc = psumFlipInt(iacc, s->flipMask());
                else
                    acc = psumFlipFloat(acc, s->flipMask());
            }
        }
        if (integer)
            iacc += static_cast<std::int64_t>(quantInput(xin)) *
                    quantWeight(wv);
        else
            acc += storeInput(xin) * storeWeight(wv);
    }
    for (const OperandSub *s = sub; s; s = s->next) {
        if (s->kind == OperandSub::Kind::PsumFlip &&
            inC_ == static_cast<int>(s->flatIndex)) {
            if (integer)
                iacc = psumFlipInt(iacc, s->flipMask());
            else
                acc = psumFlipFloat(acc, s->flipMask());
        }
    }
    double facc = integer
        ? static_cast<double>(iacc) * inQuant_.scale * wQuant_.scale
        : static_cast<double>(acc);
    float b = bias_.empty() ? 0.0f : bias_[out.c];
    for (const OperandSub *s = sub; s; s = s->next)
        if (s->kind == OperandSub::Kind::Bias)
            b = s->value;
    return writeback(facc, b);
}

void
FC::packWeights() const
{
    // Stored-form conversion + lane-blocked scatter (see Conv2D).
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    Arena &arena = Arena::local();
    auto get = [&](const auto *src) {
        return [src, this](int k, int c) {
            return src[static_cast<std::size_t>(k) * units_ + c];
        };
    };
    if (integer) {
        auto tmp = arena.ints(weights_.size());
        simd::quantizeBatch(weights_.data(), tmp.data(),
                            weights_.size(), wQuant_);
        // Max |w| plus the operand bound |x| <= 2^(bits-1) proves the
        // narrow kernels' int32 chunk length; commit to the narrow or
        // the wide pack accordingly (both exact — see Conv2D).
        std::int32_t maxAbsW = 0;
        for (std::size_t i = 0; i < weights_.size(); ++i) {
            std::int32_t a = tmp[i] < 0 ? -tmp[i] : tmp[i];
            maxAbsW = a > maxAbsW ? a : maxAbsW;
        }
        const int bits = precision_ == Precision::INT8 ? 8 : 16;
        int chunk = simd::narrowChunkPairs(bits, maxAbsW);
        if (simd::narrowEligible(chunk)) {
            chunkPairs_ = chunk;
            wPackN_.resize(simd::packNarrowSize(inC_, units_));
            wPackI_.clear();
            wPackF_.clear();
            simd::packNarrow(inC_, units_, get(tmp.data()),
                             wPackN_.data());
        } else {
            constexpr int L = simd::kI64Lanes;
            chunkPairs_ = 0;
            wPackI_.resize(simd::packSize(inC_, units_, L));
            wPackN_.clear();
            wPackF_.clear();
            simd::packLaneBlocked(inC_, units_, L, get(tmp.data()),
                                  wPackI_.data());
        }
    } else {
        constexpr int L = simd::kF32Lanes;
        chunkPairs_ = 0;
        const float *src = weights_.data();
        Arena::Lease<float> tmp = arena.floats(
            precision_ == Precision::FP16 ? weights_.size() : 0);
        if (precision_ == Precision::FP16) {
            simd::roundToHalfBatch(weights_.data(), tmp.data(),
                                   weights_.size());
            src = tmp.data();
        }
        wPackF_.resize(simd::packSize(inC_, units_, L));
        wPackI_.clear();
        wPackN_.clear();
        simd::packLaneBlocked(inC_, units_, L, get(src),
                              wPackF_.data());
    }
    wPackValid_ = true;
}

void
FC::denseRows(const float *x, std::size_t rows, float *y) const
{
    // Fast path, bit-identical to computeNeuron(); see Conv2D.
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();

    const std::size_t size = rows * inC_;
    const bool narrow = integer && chunkPairs_ > 0;
    Arena &arena = Arena::local();
    auto xs = arena.floats(
        integer || precision_ == Precision::FP32 ? 0 : size);
    auto xq = arena.ints(integer ? size : 0);
    // Narrowed operands, one zeroed pad element past the end so the
    // final position's odd-reduction pair is readable (its weight is
    // zero, so the value cannot matter).
    auto xn = arena.shorts(narrow ? size + 1 : 0);
    auto accF = arena.floats(
        integer ? 0 : simd::packSize(1, units_, simd::kF32Lanes));
    auto accL = arena.longs(
        integer
            ? (narrow ? simd::packSize(1, units_, simd::kNarrowLanes)
                      : simd::packSize(1, units_, simd::kI64Lanes))
            : 0);
    const float *xf = x;
    if (integer) {
        simd::quantizeBatch(xf, xq.data(), size, inQuant_);
        if (narrow) {
            for (std::size_t i = 0; i < size; ++i)
                xn[i] = static_cast<std::int16_t>(xq[i]);
            xn[size] = 0;
        }
    } else if (precision_ == Precision::FP16) {
        simd::roundToHalfBatch(xf, xs.data(), size);
        xf = xs.data();
    }

    auto biasAt = [&](int u) {
        return bias_.empty() ? 0.0f : bias_[u];
    };
    const simd::KernelTable &kt = simd::table();
    if (integer) {
        auto wb = [&](std::int64_t iacc, int u) {
            return writeback(static_cast<double>(iacc) *
                                 inQuant_.scale * wQuant_.scale,
                             biasAt(u));
        };
        if (narrow)
            simd::denseNarrow(kt, xn.data(), rows, inC_, units_,
                              wPackN_.data(), chunkPairs_, accL.data(),
                              y, wb);
        else
            simd::denseInt(kt, xq.data(), rows, inC_, units_,
                           wPackI_.data(), accL.data(), y, wb);
    } else {
        simd::denseFloat(kt, xf, rows, inC_, units_, wPackF_.data(),
                         accF.data(), y, [&](double acc, int u) {
                             return writeback(acc, biasAt(u));
                         });
    }
}

Tensor
FC::forward(const std::vector<const Tensor *> &ins) const
{
    Tensor out = makeOutput(ins);
    const Tensor &x = *ins[0];
    denseRows(x.data().data(), x.size() / inC_, out.data().data());
    return out;
}

Region
FC::propagateRegion(const std::vector<const Tensor *> &, int,
                    const Region &in, const Tensor &out) const
{
    // Each output position reduces over its own input position's
    // channels only.
    Region r{in.n0, in.n1, in.h0, in.h1, in.w0, in.w1, 0, units_};
    return r.clipped(out);
}

void
FC::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                         LanePlane *const *inPlanes, const Region &region,
                         const BatchCover *cover, const Tensor &golden,
                         LanePlane &out) const
{
    checkInput(ins);
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    LanePlane &xp = *inPlanes[0];
    xp.ensure(x, Region{region.n0, region.n1, region.h0, region.h1,
                        region.w0, region.w1, 0, inC_});

    // Injections are just more positions: gather the input row of
    // every (position, lane) pair to recompute into one
    // [position][lane] matrix, run the row loop once, scatter the
    // region's units back.
    const int W = out.laneWidth();
    std::size_t rows = 0;
    forEachCoveredLaneCell(region, cover, W,
                           [&](int, int, int, std::uint32_t lanes) {
                               rows += std::popcount(lanes);
                           });
    Arena &arena = Arena::local();
    auto xr = arena.floats(rows * inC_);
    auto yr = arena.floats(rows * units_);
    float *xw = xr.data();
    forEachCoveredLaneCell(
        region, cover, W, [&](int n, int h, int w, std::uint32_t lanes) {
            const float *src = xp.lanes(x.offset(n, h, w, 0));
            for (; lanes; lanes &= lanes - 1, xw += inC_) {
                const int l = std::countr_zero(lanes);
                for (int c = 0; c < inC_; ++c)
                    xw[c] = src[c * W + l];
            }
        });
    denseRows(xr.data(), rows, yr.data());
    const float *yw = yr.data();
    forEachCoveredLaneCell(
        region, cover, W, [&](int n, int h, int w, std::uint32_t lanes) {
            float *dst = out.lanes(golden.offset(n, h, w, 0));
            for (; lanes; lanes &= lanes - 1, yw += units_) {
                const int l = std::countr_zero(lanes);
                for (int c = region.c0; c < region.c1; ++c)
                    dst[c * W + l] = yw[c];
            }
        });
}

std::size_t
FC::weightCount(const std::vector<const Tensor *> &) const
{
    return weights_.size();
}

float
FC::weightAt(const std::vector<const Tensor *> &, std::size_t idx) const
{
    panic_if(idx >= weights_.size(), "weight index out of range");
    return weights_[idx];
}

std::vector<NeuronIndex>
FC::inputConsumers(const std::vector<const Tensor *> &ins,
                   std::size_t elem) const
{
    checkInput(ins);
    NeuronIndex e = ins[0]->indexOf(elem);
    std::vector<NeuronIndex> out;
    out.reserve(units_);
    for (int u = 0; u < units_; ++u)
        out.push_back({e.n, e.h, e.w, u});
    return out;
}

std::vector<NeuronIndex>
FC::weightConsumers(const std::vector<const Tensor *> &ins,
                    std::size_t widx) const
{
    checkInput(ins);
    panic_if(widx >= weights_.size(), "weight index out of range");
    const Tensor &x = *ins[0];
    int u = static_cast<int>(widx % units_);
    std::vector<NeuronIndex> out;
    // One neuron per (n, h, w) position uses each weight.
    for (int n = 0; n < x.n(); ++n)
        for (int h = 0; h < x.h(); ++h)
            for (int w = 0; w < x.w(); ++w)
                out.push_back({n, h, w, u});
    return out;
}

} // namespace fidelity
