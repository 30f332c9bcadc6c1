#include "nn/conv.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "nn/lanes.hh"
#include "sim/arena.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/pack.hh"
#include "simd/simd.hh"
#include "tensor/bitops.hh"

namespace fidelity
{

namespace
{

/**
 * Where a group's weights sit in the lane-blocked pack of operand type
 * T (simd/pack.hh): per group, blocks of `lanes` output channels, each
 * holding the reduction lane-minor — one weight per row for the float
 * and wide int32 packs, one int16 pair per row for the narrow
 * pair-interleaved pack.
 */
template <class T>
struct WeightPack
{
    static constexpr int pairs = std::is_same_v<T, std::int16_t> ? 2 : 1;
    static constexpr int lanes = std::is_same_v<T, float> ? simd::kF32Lanes
                                 : pairs == 2        ? simd::kNarrowLanes
                                                     : simd::kI64Lanes;

    const T *data;
    std::size_t blkStride;
    std::size_t gStride;

    WeightPack(const T *d, int redLen, int opg)
        : data(d),
          blkStride(static_cast<std::size_t>(
                        pairs == 2 ? 2 * simd::packPairs(redLen) : redLen) *
                    lanes),
          gStride(simd::packBlocks(opg, lanes) * blkStride)
    {
    }

    /** Lane block `b` of group `g`. */
    const T *
    block(int g, int b) const
    {
        return data + g * gStride + b * blkStride;
    }

    /** Weight column of channel `ocg` of group `g`; rows are
     *  lanes * pairs elements apart. */
    const T *
    column(int g, int ocg) const
    {
        return block(g, ocg / lanes) + (ocg % lanes) * pairs;
    }
};

/**
 * Visit the MAC terms of output pixel (oh, ow) in group `g` in the
 * canonical (ci, kh, kw) order: `fn(t, ih, iw, ci)` for term t, where
 * out-of-range (ih, iw) is padding.
 */
template <class Fn>
void
forEachTerm(const ConvSpec &spec, int cpg, int g, int oh, int ow, Fn fn)
{
    std::size_t t = 0;
    for (int cig = 0; cig < cpg; ++cig) {
        int ci = g * cpg + cig;
        for (int kh = 0; kh < spec.kh; ++kh) {
            int ih = oh * spec.stride - spec.pad + kh * spec.dilation;
            for (int kw = 0; kw < spec.kw; ++kw) {
                int iw = ow * spec.stride - spec.pad + kw * spec.dilation;
                fn(t++, ih, iw, ci);
            }
        }
    }
}

/**
 * Channel-lane kernel: the width-1 back end.  Vectorizes across
 * output-channel lanes: each lane accumulates its own output in the
 * canonical (ci, kh, kw) order with an unfused multiply-add per term,
 * so every lane is bit-identical to computeNeuron().  Per output pixel
 * and group, `load(dst, n, ih, iw, ci)` gathers the stored-form
 * operands into `xg` (the zero stored form when out of range), one
 * dispatched-table microkernel call `gemm(xg, nblocks, block, acc)`
 * covers every touched lane block, and `wb(acc, oc)` applies bias and
 * the writeback path into `od` (laid out like `shape`).  `acc` is
 * caller scratch for the padded block results.
 */
template <class T, class Acc, class Load, class Gemm, class WB>
void
convChannelLanes(const ConvSpec &spec, int cpg, int opg,
                 const WeightPack<T> &pk, const Region &r,
                 const Tensor &shape, float *od, T *xg, Acc *acc,
                 Load load, Gemm gemm, WB wb)
{
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;
    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            for (int ow = r.w0; ow < r.w1; ++ow) {
                std::size_t base = shape.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    forEachTerm(spec, cpg, g, oh, ow,
                                [&](std::size_t t, int ih, int iw,
                                    int ci) {
                                    load(xg + t, n, ih, iw, ci);
                                });
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    int b0 = (lo - g * opg) / pk.lanes;
                    int b1 = (hi - 1 - g * opg) / pk.lanes;
                    gemm(xg, b1 - b0 + 1, pk.block(g, b0), acc);
                    const int ob = g * opg + b0 * pk.lanes;
                    for (int oc = lo; oc < hi; ++oc)
                        od[base + oc] = wb(acc[oc - ob], oc);
                }
            }
        }
    }
}

/**
 * Injection-lane kernel: the width-4/8 back end of the fault-batched
 * engine.  The SIMD lanes hold W *injections* of the same fault cell
 * instead of output channels: the window math, padding tests and
 * packed-weight stream are shared by the batch, `load` fills W
 * stored-form lane operands per term, and `rowMac(xg, column, cols,
 * op, oc)` runs the dispatched table's lane-minor MAC row over `cols`
 * adjacent weight columns of one pack block, starting at output
 * channel `oc` (canonical k order, unfused per-lane multiply-adds, so
 * every lane is bit-identical to the channel-lane kernel), and writes
 * the `cols` lane rows at `op` back through bias and the output path.
 * Only the cover's row and channel spans are walked, one call per
 * pack block a span touches.
 */
template <int W, class T, class Load, class RowMac>
void
convInjectionLanes(const ConvSpec &spec, int cpg, int opg,
                   const WeightPack<T> &pk, const Region &r,
                   const BatchCover *cover, const Tensor &golden,
                   LanePlane &out, T *xg, Load load, RowMac rowMac)
{
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;
    const BatchCover::Span cfull{r.c0, r.c1};
    const BatchCover::Span *csp = &cfull;
    int ncs = 1;
    if (cover)
        csp = cover->chanSpans(ncs);
    forEachCoveredCell(r, cover, [&](int n, int oh, int ow) {
        std::size_t base = golden.offset(n, oh, ow, 0);
        for (int g = g0; g <= g1; ++g) {
            int lo = std::max(r.c0, g * opg);
            int hi = std::min(r.c1, (g + 1) * opg);
            bool any = false;
            for (int cs = 0; cs < ncs && !any; ++cs)
                any = std::min(hi, csp[cs].w1) > std::max(lo, csp[cs].w0);
            if (!any)
                continue; // no covered channel in this group
            forEachTerm(spec, cpg, g, oh, ow,
                        [&](std::size_t t, int ih, int iw, int ci) {
                            load(xg + t * W, n, ih, iw, ci);
                        });
            for (int cs = 0; cs < ncs; ++cs) {
                int clo = std::max(lo, csp[cs].w0);
                int chi = std::min(hi, csp[cs].w1);
                for (int oc = clo; oc < chi;) {
                    const int ocg = oc - g * opg;
                    const int cols =
                        std::min(chi - oc, pk.lanes - ocg % pk.lanes);
                    rowMac(xg, pk.column(g, ocg), cols,
                           out.lanes(base + oc), oc);
                    oc += cols;
                }
            }
        }
    });
}

/** Output positions per MAC row of the weight-substitution kernel. */
constexpr int kPosLanes = 8;

/**
 * Position-lane gather for one substituted weight: the SIMD lanes hold
 * kPosLanes output *positions* of one channel instead of output
 * channels, so a corrupted weight's whole output plane runs through the
 * lane-minor MAC rows of the fault-batched engine.  `xg[k*kPosLanes+l]`
 * receives the stored-form operand of term k (computeNeuron's cig, kh,
 * kw order) at the l-th queued position, read from `xs`: a zero-padded
 * stored-form copy of the group's input channels over the padded rows
 * the boxes read, laid out channel-major as [n - n0][cig][padded row -
 * hp0][padded col] with `rows` x `cols` elements per plane.  `off[k]`
 * is term k's offset from the window's first operand, so a position
 * costs one base address, and the kPosLanes positions of a stride-1
 * row segment read each term as one contiguous run.  Each time
 * kPosLanes positions are queued, and once for the tail, `mac(xg, pos,
 * count)` runs one MAC row and writes back the first `count` lanes;
 * the tail's unused lanes hold stale, in-range operands.
 */
template <class T, class Mac>
void
convPositionLanes(const ConvSpec &spec, const Region *boxes,
                  std::size_t numBoxes, const T *xs, int n0, int hp0,
                  int rows, int cols, int cpg, const std::int32_t *off,
                  int redLen, T *xg, Mac mac)
{
    constexpr int L = kPosLanes;
    NeuronIndex pos[L] = {};
    const T *win[L] = {};
    int cnt = 0;
    auto flush = [&] {
        if (cnt == L && win[L - 1] - win[0] == L - 1) {
            for (int k = 0; k < redLen; ++k)
                std::memcpy(xg + k * L, win[0] + off[k], L * sizeof(T));
        } else {
            for (int k = 0; k < redLen; ++k)
                for (int l = 0; l < cnt; ++l)
                    xg[k * L + l] = win[l][off[k]];
        }
        mac(xg, pos, cnt);
        cnt = 0;
    };
    for (std::size_t i = 0; i < numBoxes; ++i) {
        const Region &b = boxes[i];
        for (int n = b.n0; n < b.n1; ++n) {
            for (int oh = b.h0; oh < b.h1; ++oh) {
                const T *row =
                    xs + (static_cast<std::size_t>(n - n0) * cpg * rows +
                          (oh * spec.stride - hp0)) * cols;
                for (int ow = b.w0; ow < b.w1; ++ow) {
                    win[cnt] = row + ow * spec.stride;
                    pos[cnt] = {n, oh, ow, b.c0};
                    if (++cnt == L)
                        flush();
                }
            }
        }
    }
    if (cnt)
        flush();
}

} // namespace

Conv2D::Conv2D(std::string name, const ConvSpec &spec,
               std::vector<float> weights, std::vector<float> bias)
    : MacLayer(std::move(name)), spec_(spec), weights_(std::move(weights)),
      bias_(std::move(bias))
{
    fatal_if(spec_.groups <= 0 || spec_.inC % spec_.groups != 0 ||
             spec_.outC % spec_.groups != 0,
             "conv ", name_, ": groups must divide inC and outC");
    fatal_if(spec_.stride <= 0 || spec_.dilation <= 0,
             "conv ", name_, ": stride/dilation must be positive");
    std::size_t expect = static_cast<std::size_t>(spec_.kh) * spec_.kw *
                         (spec_.inC / spec_.groups) * spec_.outC;
    fatal_if(weights_.size() != expect,
             "conv ", name_, ": expected ", expect, " weights, got ",
             weights_.size());
    if (spec_.bias) {
        fatal_if(bias_.size() != static_cast<std::size_t>(spec_.outC),
                 "conv ", name_, ": expected ", spec_.outC, " biases");
    } else {
        fatal_if(!bias_.empty(), "conv ", name_,
                 ": bias data given but spec.bias is false");
    }
    // Immutable weights pack once, here; the quantised modes repack
    // lazily through onQuantChanged().
    packWeights();
}

int
Conv2D::outDim(int in_dim, int k) const
{
    int eff_k = (k - 1) * spec_.dilation + 1;
    return (in_dim + 2 * spec_.pad - eff_k) / spec_.stride + 1;
}

std::size_t
Conv2D::weightIndex(int kh, int kw, int cig, int oc) const
{
    int cpg = spec_.inC / spec_.groups;
    return ((static_cast<std::size_t>(kh) * spec_.kw + kw) * cpg + cig) *
               spec_.outC +
           oc;
}

void
Conv2D::checkInput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "conv expects one input");
    panic_if(ins[0]->c() != spec_.inC,
             "conv ", name_, ": input channels ", ins[0]->c(),
             " != spec ", spec_.inC);
}

Tensor
Conv2D::makeOutput(const std::vector<const Tensor *> &ins) const
{
    checkInput(ins);
    const Tensor &x = *ins[0];
    int oh = outDim(x.h(), spec_.kh);
    int ow = outDim(x.w(), spec_.kw);
    fatal_if(oh <= 0 || ow <= 0, "conv ", name_,
             ": non-positive output size for input ", x.shapeStr());
    return Tensor(x.n(), oh, ow, spec_.outC);
}

float
Conv2D::computeNeuron(const std::vector<const Tensor *> &ins,
                      const NeuronIndex &out, const OperandSub *sub) const
{
    const Tensor &x = *ins[0];
    int cpg = spec_.inC / spec_.groups;
    int opg = spec_.outC / spec_.groups;
    int g = out.c / opg;
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;

    // Hot path: the loop bounds already guarantee in-range addresses,
    // so indices are computed directly instead of via the checked
    // Tensor accessors.
    const float *xd = x.data().data();
    const float *wd = weights_.data();
    const int xh = x.h(), xw = x.w(), xc = x.c();
    const std::size_t n_base =
        static_cast<std::size_t>(out.n) * xh;

    float acc = 0.0f;
    std::int64_t iacc = 0;
    int term = 0;
    for (int cig = 0; cig < cpg; ++cig) {
        int ci = g * cpg + cig;
        for (int kh = 0; kh < spec_.kh; ++kh) {
            int ih = out.h * spec_.stride - spec_.pad + kh * spec_.dilation;
            for (int kw = 0; kw < spec_.kw; ++kw) {
                int iw =
                    out.w * spec_.stride - spec_.pad + kw * spec_.dilation;
                bool in_range = ih >= 0 && ih < xh && iw >= 0 &&
                                iw < xw;
                float xin = 0.0f;
                std::size_t xoff = 0;
                if (in_range) {
                    xoff = ((n_base + ih) * xw + iw) * xc + ci;
                    xin = xd[xoff];
                }
                std::size_t widx =
                    ((static_cast<std::size_t>(kh) * spec_.kw + kw) *
                         cpg + cig) * spec_.outC + out.c;
                float wv = wd[widx];
                for (const OperandSub *s = sub; s; s = s->next) {
                    if (s->kind == OperandSub::Kind::Input &&
                        (s->termIndex >= 0
                             ? term == s->termIndex
                             : (in_range && xoff == s->flatIndex))) {
                        xin = s->value;
                    } else if (s->kind == OperandSub::Kind::Weight &&
                               widx == s->flatIndex) {
                        wv = s->value;
                    }
                }
                for (const OperandSub *s = sub; s; s = s->next) {
                    if (s->kind == OperandSub::Kind::PsumFlip &&
                        term == static_cast<int>(s->flatIndex)) {
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
                ++term;
            }
        }
    }
    for (const OperandSub *s = sub; s; s = s->next) {
        if (s->kind == OperandSub::Kind::PsumFlip &&
            term == static_cast<int>(s->flatIndex)) {
            if (integer)
                iacc = psumFlipInt(iacc, s->flipMask());
            else
                acc = psumFlipFloat(acc, s->flipMask());
        }
    }
    double facc = integer
        ? static_cast<double>(iacc) * inQuant_.scale * wQuant_.scale
        : static_cast<double>(acc);
    float b = spec_.bias ? bias_[out.c] : 0.0f;
    for (const OperandSub *s = sub; s; s = s->next)
        if (s->kind == OperandSub::Kind::Bias)
            b = s->value;
    return writeback(facc, b);
}

void
Conv2D::packWeights() const
{
    // Convert the raw weights into the active precision's stored form
    // (vectorized batch converters), then scatter into the lane-
    // blocked layout the block kernels stream.  Integer precisions
    // scan the quantised weights' max magnitude first: with the
    // operand bound |x| <= 2^(bits-1) it proves the narrow kernels'
    // int32 chunk length (narrowChunkPairs), and the layer commits to
    // the narrow pair-interleaved pack or the wide int32 pack
    // accordingly — both paths are exact, so the choice cannot change
    // results.
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int khw = spec_.kh * spec_.kw;
    const int redLen = cpg * khw;
    Arena &arena = Arena::local();

    auto origIndex = [&](int g, int k, int c) {
        int cig = k / khw;
        int kh = (k % khw) / spec_.kw;
        int kw = k % spec_.kw;
        return ((static_cast<std::size_t>(kh) * spec_.kw + kw) * cpg +
                cig) * spec_.outC + g * opg + c;
    };

    if (integer) {
        auto tmp = arena.ints(weights_.size());
        simd::quantizeBatch(weights_.data(), tmp.data(),
                            weights_.size(), wQuant_);
        std::int32_t maxAbsW = 0;
        for (std::size_t i = 0; i < weights_.size(); ++i) {
            std::int32_t a = tmp[i] < 0 ? -tmp[i] : tmp[i];
            maxAbsW = a > maxAbsW ? a : maxAbsW;
        }
        const int bits = precision_ == Precision::INT8 ? 8 : 16;
        int chunk = simd::narrowChunkPairs(bits, maxAbsW);
        if (simd::narrowEligible(chunk)) {
            chunkPairs_ = chunk;
            std::size_t gStride = simd::packNarrowSize(redLen, opg);
            wPackN_.resize(gStride * spec_.groups);
            wPackI_.clear();
            wPackF_.clear();
            for (int g = 0; g < spec_.groups; ++g)
                simd::packNarrow(
                    redLen, opg,
                    [&](int k, int c) { return tmp[origIndex(g, k, c)]; },
                    wPackN_.data() + g * gStride);
        } else {
            constexpr int L = simd::kI64Lanes;
            chunkPairs_ = 0;
            std::size_t gStride = simd::packSize(redLen, opg, L);
            wPackI_.resize(gStride * spec_.groups);
            wPackN_.clear();
            wPackF_.clear();
            for (int g = 0; g < spec_.groups; ++g)
                simd::packLaneBlocked(
                    redLen, opg, L,
                    [&](int k, int c) { return tmp[origIndex(g, k, c)]; },
                    wPackI_.data() + g * gStride);
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
        std::size_t gStride = simd::packSize(redLen, opg, L);
        wPackF_.resize(gStride * spec_.groups);
        wPackI_.clear();
        wPackN_.clear();
        for (int g = 0; g < spec_.groups; ++g)
            simd::packLaneBlocked(
                redLen, opg, L,
                [&](int k, int c) { return src[origIndex(g, k, c)]; },
                wPackF_.data() + g * gStride);
    }
    wPackValid_ = true;
}

Tensor
Conv2D::forward(const std::vector<const Tensor *> &ins) const
{
    // The region kernel over the full output: every input element
    // converts to its stored form once, then the channel-lane kernel
    // runs (bit-identical to computeNeuron()).
    Tensor out = makeOutput(ins);
    forwardRegion(ins, Region::full(out), out);
    return out;
}

Region
Conv2D::propagateRegion(const std::vector<const Tensor *> &ins, int,
                        const Region &in, const Tensor &out) const
{
    checkInput(ins);
    if (in.empty())
        return Region{};
    auto [h0, h1] = windowCone(in.h0, in.h1, spec_.kh, spec_.stride,
                               spec_.pad, spec_.dilation, out.h());
    auto [w0, w1] = windowCone(in.w0, in.w1, spec_.kw, spec_.stride,
                               spec_.pad, spec_.dilation, out.w());
    // A changed input channel reaches every output channel of its
    // group.
    int cpg = spec_.inC / spec_.groups;
    int opg = spec_.outC / spec_.groups;
    int g0 = in.c0 / cpg;
    int g1 = (in.c1 - 1) / cpg;
    Region r{in.n0, in.n1, h0, h1, w0, w1, g0 * opg, (g1 + 1) * opg};
    return r.clipped(out);
}

bool
Conv2D::forwardWithSub(const std::vector<const Tensor *> &ins,
                       const OperandSub *sub, const Region *boxes,
                       std::size_t numBoxes, Tensor &out) const
{
    // Two vector paths, one per single-operand substitution kind.  An
    // input substitution's consumers are channel runs at a few window
    // positions: the channel-lane block kernels recompute them, with
    // the substitution folded into the gather as one index compare.  A
    // weight substitution's consumers are one channel's output plane:
    // forwardWeightSub() puts output positions in the lanes instead.
    // Psum flips, chains and padded-term substitutions stay on
    // per-neuron computeNeuron().
    if (!sub || sub->next)
        return false;
    if (sub->kind == OperandSub::Kind::Weight) {
        checkInput(ins);
        return forwardWeightSub(*ins[0], *sub, boxes, numBoxes, out);
    }
    if (sub->kind != OperandSub::Kind::Input || sub->termIndex >= 0)
        return false;
    checkInput(ins);
    const Tensor &x = *ins[0];
    const int xh = x.h(), xw = x.w(), xc = x.c();
    const float *xd = x.data().data();
    const std::size_t flat = sub->flatIndex;
    const bool integer = precision_ == Precision::INT8 ||
                         precision_ == Precision::INT16;
    const float zero_s = integer ? 0.0f : storeInput(0.0f);
    const float sub_s = integer ? 0.0f : storeInput(sub->value);
    const std::int32_t zero_q = integer ? quantInput(0.0f) : 0;
    const std::int32_t sub_q = integer ? quantInput(sub->value) : 0;
    // Operands convert on the fly, the substituted one by index.
    auto load = [=, this](auto *dst, int n, int ih, int iw, int ci) {
        using T = std::remove_pointer_t<decltype(dst)>;
        const bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
        const std::size_t off =
            ((static_cast<std::size_t>(n) * xh + ih) * xw + iw) * xc + ci;
        if constexpr (std::is_same_v<T, float>)
            *dst = !ok ? zero_s
                 : off == flat ? sub_s
                               : storeInput(xd[off]);
        else
            *dst = static_cast<T>(!ok ? zero_q
                                  : off == flat ? sub_q
                                                : quantInput(xd[off]));
    };
    LanePlane outView;
    outView.borrow(out);
    laneKernels<1>(boxes, numBoxes, nullptr, out, outView, load);
    return true;
}

bool
Conv2D::forwardWeightSub(const Tensor &x, const OperandSub &sub,
                         const Region *boxes, std::size_t numBoxes,
                         Tensor &out) const
{
    // Every consumer of weight (kh, kw, cig, oc) lies in channel oc, so
    // the lanes hold output positions of that channel: one gathered
    // operand row per term, the channel's weight column with the
    // substituted entry, one lane-minor MAC row per kPosLanes
    // positions.  The per-lane arithmetic is computeNeuron's (same
    // stored-form operands, canonical term order, unfused multiply-adds,
    // same writeback), and multiplication commutes, so every lane is
    // bit-identical to it.  A box outside channel oc is not a consumer
    // of the substitution; the caller recomputes it per neuron.
    const int oc = static_cast<int>(sub.flatIndex % spec_.outC);
    for (std::size_t i = 0; i < numBoxes; ++i)
        if (boxes[i].empty() || boxes[i].c0 != oc ||
            boxes[i].c1 != oc + 1)
            return false;
    if (numBoxes == 0)
        return true;
    const bool integer = precision_ == Precision::INT8 ||
                         precision_ == Precision::INT16;
    const int cpg = spec_.inC / spec_.groups;
    const int g = oc / (spec_.outC / spec_.groups);
    const int redLen = spec_.kh * spec_.kw * cpg;

    // The input, converted to stored form once per call: the group's
    // channels over the padded rows the boxes' windows read, laid out
    // channel-major so a stride-1 row segment is contiguous.  Padding
    // holds raw zeros, which convert to the zero stored-form operand
    // computeNeuron uses for padded terms, so the gather needs no range
    // tests.
    const int xh = x.h(), xw = x.w(), xc = x.c();
    const int effKh = (spec_.kh - 1) * spec_.dilation + 1;
    int n0 = boxes[0].n0, n1 = boxes[0].n1;
    int hp0 = boxes[0].h0 * spec_.stride;
    int hp1 = (boxes[0].h1 - 1) * spec_.stride + effKh;
    for (std::size_t i = 1; i < numBoxes; ++i) {
        n0 = std::min(n0, boxes[i].n0);
        n1 = std::max(n1, boxes[i].n1);
        hp0 = std::min(hp0, boxes[i].h0 * spec_.stride);
        hp1 = std::max(hp1, (boxes[i].h1 - 1) * spec_.stride + effKh);
    }
    const int rows = hp1 - hp0;
    const int cols = xw + 2 * spec_.pad;
    const std::size_t plane = static_cast<std::size_t>(rows) * cols;
    const std::size_t xsLen =
        static_cast<std::size_t>(n1 - n0) * cpg * plane;
    Arena &arena = Arena::local();
    auto xs = arena.floats(xsLen);
    std::fill(xs.data(), xs.data() + xsLen, 0.0f);
    for (int n = n0; n < n1; ++n)
        for (int hp = std::max(hp0, spec_.pad);
             hp < std::min(hp1, xh + spec_.pad); ++hp) {
            const float *src = x.data().data() +
                               x.offset(n, hp - spec_.pad, 0, g * cpg);
            float *dst = xs.data() +
                         static_cast<std::size_t>(n - n0) * cpg * plane +
                         static_cast<std::size_t>(hp - hp0) * cols +
                         spec_.pad;
            for (int iw = 0; iw < xw; ++iw)
                for (int cig = 0; cig < cpg; ++cig)
                    dst[cig * plane + iw] = src[iw * xc + cig];
        }

    // Term k's operand offset from its window's first operand, and the
    // raw weight it meets — matched against the substitution exactly as
    // computeNeuron matches it.
    auto off = arena.ints(redLen);
    auto wcol = arena.floats(redLen);
    for (int cig = 0, k = 0; cig < cpg; ++cig)
        for (int kh = 0; kh < spec_.kh; ++kh)
            for (int kw = 0; kw < spec_.kw; ++kw, ++k) {
                off[k] = static_cast<std::int32_t>(
                    cig * plane + kh * spec_.dilation * cols +
                    kw * spec_.dilation);
                std::size_t widx = weightIndex(kh, kw, cig, oc);
                wcol[k] = widx == sub.flatIndex ? sub.value
                                                : weights_[widx];
            }
    const float b = spec_.bias ? bias_[oc] : 0.0f;
    const simd::KernelTable &kt = simd::table();

    if (integer) {
        auto xq = arena.ints(xsLen);
        auto wq = arena.ints(redLen);
        auto xg = arena.ints(static_cast<std::size_t>(redLen) * kPosLanes);
        simd::quantizeBatch(xs.data(), xq.data(), xsLen, inQuant_);
        simd::quantizeBatch(wcol.data(), wq.data(), redLen, wQuant_);
        std::fill(xg.data(), xg.data() + xg.size(), 0);
        std::int64_t acc[kPosLanes] = {};
        convPositionLanes(
            spec_, boxes, numBoxes, xq.data(), n0, hp0, rows, cols, cpg,
            off.data(), redLen, xg.data(),
            [&](const std::int32_t *rowsG, const NeuronIndex *pos,
                int count) {
                kt.batchMacI64(rowsG, wq.data(), redLen, 1, kPosLanes,
                               acc);
                // Left-associated like computeNeuron: the double
                // rounding order is part of the bit contract.
                for (int l = 0; l < count; ++l)
                    out.at(pos[l]) = writeback(
                        static_cast<double>(acc[l]) * inQuant_.scale *
                            wQuant_.scale,
                        b);
            });
        return true;
    }

    if (precision_ == Precision::FP16) {
        simd::roundToHalfBatch(xs.data(), xs.data(), xsLen);
        simd::roundToHalfBatch(wcol.data(), wcol.data(), redLen);
    }
    auto xg = arena.floats(static_cast<std::size_t>(redLen) * kPosLanes);
    std::fill(xg.data(), xg.data() + xg.size(), 0.0f);
    float acc[kPosLanes] = {};
    convPositionLanes(
        spec_, boxes, numBoxes, xs.data(), n0, hp0, rows, cols, cpg,
        off.data(), redLen, xg.data(),
        [&](const float *rowsG, const NeuronIndex *pos, int count) {
            kt.batchMacF32(rowsG, wcol.data(), redLen, 1, 1, kPosLanes,
                           acc);
            for (int l = 0; l < count; ++l)
                out.at(pos[l]) = writeback(static_cast<double>(acc[l]), b);
        });
    return true;
}

template <int W, class Load>
void
Conv2D::laneKernels(const Region *boxes, std::size_t numBoxes,
                    const BatchCover *cover, const Tensor &shape,
                    LanePlane &out, Load load) const
{
    const bool integer = precision_ == Precision::INT8 ||
                         precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;
    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int redLen = spec_.kh * spec_.kw * cpg;
    const int redPairs = simd::packPairs(redLen);
    const std::size_t rows = narrow ? 2 * redPairs : redLen;
    Arena &arena = Arena::local();
    const simd::KernelTable &kt = simd::table();
    auto biasAt = [&](int oc) {
        return spec_.bias ? bias_[oc] : 0.0f;
    };
    // Lane rows of one pack block: every pack is at most kF32Lanes wide.
    static_assert(simd::kNarrowLanes <= simd::kF32Lanes &&
                  simd::kI64Lanes <= simd::kF32Lanes);
    constexpr int kBlockRow = simd::kF32Lanes * W;

    // One loop nest per lane axis, shared by the three operand types.
    // Width 1 runs the channel-lane kernel: `gemm` over lane blocks,
    // then the scalar writeback `wb`.  Widths 4 and 8 run the
    // injection-lane rows: `mac` per pack block over `cols` adjacent
    // output channels, then `wbRow`, which is `wb` per element over
    // the block's lane rows.
    auto run = [&](const auto &pk, auto *xg, auto *acc, auto gemm,
                   auto mac, auto wb, auto wbRow) {
        for (std::size_t i = 0; i < numBoxes; ++i) {
            if constexpr (W == 1) {
                convChannelLanes(spec_, cpg, opg, pk, boxes[i], shape,
                                 out.lanes(0), xg, acc, load, gemm, wb);
            } else {
                convInjectionLanes<W>(
                    spec_, cpg, opg, pk, boxes[i], cover, shape, out,
                    xg, load,
                    [&](const auto *x, const auto *col, int cols,
                        float *op, int oc) {
                        std::remove_pointer_t<decltype(acc)> row[kBlockRow];
                        mac(x, col, cols, row);
                        wbRow(row, cols, op, oc);
                    });
            }
        }
    };

    if (!integer) {
        const bool half = precision_ == Precision::FP16;
        WeightPack<float> pk(wPackF_.data(), redLen, opg);
        auto xg = arena.floats(rows * W);
        auto acc = arena.floats(
            W == 1 ? simd::packSize(1, opg, pk.lanes) : 0);
        run(pk, xg.data(), acc.data(),
            [&](const float *x, int nb, const float *w, float *a) {
                kt.gemmF32(x, redLen, nb, w, a);
            },
            [&](const float *x, const float *col, int cols, float *a) {
                kt.batchMacF32(x, col, redLen, pk.lanes, cols, W, a);
            },
            [&](float a, int oc) { return writeback(a, biasAt(oc)); },
            [&](const float *row, int cols, float *op, int oc) {
                for (int c = 0; c < cols; ++c) {
                    const float b = biasAt(oc + c);
                    for (int l = 0; l < W; ++l)
                        op[c * W + l] = row[c * W + l] + b;
                }
                if (half)
                    simd::roundToHalfBatch(op, op, cols * W);
            });
        return;
    }

    // Integer writeback, left-associated like computeNeuron: the double
    // rounding order is part of the bit contract.  The row form splits
    // it into real value, batch quantise and dequantise, which keeps
    // each lane's arithmetic exactly the scalar sequence.
    const double s = inQuant_.scale;
    const double ws = wQuant_.scale;
    auto wb = [&](std::int64_t a, int oc) {
        return writeback(static_cast<double>(a) * s * ws, biasAt(oc));
    };
    auto wbRow = [&](const std::int64_t *row, int cols, float *op,
                     int oc) {
        float real[kBlockRow] = {}; // zeroed: GCC cannot see cols >= 1
        std::int32_t q[kBlockRow];
        for (int c = 0; c < cols; ++c) {
            const float b = biasAt(oc + c);
            for (int l = c * W; l < (c + 1) * W; ++l)
                real[l] = static_cast<float>(static_cast<double>(row[l]) *
                                             s * ws) +
                          b;
        }
        simd::quantizeBatch(real, q, cols * W, outQuant_);
        for (int l = 0; l < cols * W; ++l)
            op[l] = dequantize(q[l], outQuant_);
    };
    auto acc = arena.longs(
        W == 1 ? simd::packSize(1, opg,
                                narrow ? simd::kNarrowLanes
                                       : simd::kI64Lanes)
               : 0);
    if (narrow) {
        WeightPack<std::int16_t> pk(wPackN_.data(), redLen, opg);
        auto xg = arena.shorts(rows * W);
        // The gather writes only redLen rows; an odd reduction's pad
        // row stays zero.
        std::fill(xg.data() + redLen * W, xg.data() + rows * W,
                  std::int16_t{0});
        run(pk, xg.data(), acc.data(),
            [&](const std::int16_t *x, int nb, const std::int16_t *w,
                std::int64_t *a) {
                kt.gemmNarrow(x, redPairs, nb, w, chunkPairs_, a);
            },
            [&](const std::int16_t *x, const std::int16_t *col, int cols,
                std::int64_t *a) {
                for (int c = 0; c < cols; ++c)
                    kt.batchMacNarrow(x, col + 2 * c, redPairs,
                                      2 * pk.lanes, chunkPairs_, W,
                                      a + c * W);
            },
            wb, wbRow);
    } else {
        WeightPack<std::int32_t> pk(wPackI_.data(), redLen, opg);
        auto xg = arena.ints(rows * W);
        run(pk, xg.data(), acc.data(),
            [&](const std::int32_t *x, int nb, const std::int32_t *w,
                std::int64_t *a) { kt.gemmI64(x, redLen, nb, w, a); },
            [&](const std::int32_t *x, const std::int32_t *col, int cols,
                std::int64_t *a) {
                for (int c = 0; c < cols; ++c)
                    kt.batchMacI64(x, col + c, redLen, pk.lanes, W,
                                   a + c * W);
            },
            wb, wbRow);
    }
}

template <int W>
void
Conv2D::forwardBatchedImpl(const Tensor &x, LanePlane &xplane,
                           const Region &region, const BatchCover *cover,
                           const Tensor &golden, LanePlane &out) const
{
    const bool integer = precision_ == Precision::INT8 ||
                         precision_ == Precision::INT16;
    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int xh = x.h(), xw = x.w(), xc = x.c();

    // Input footprint of the output region: every cell any window of
    // the region can read.  The lane plane materialises (golden-fills)
    // it once, and the batch conversion below covers exactly it.
    const int effKh = (spec_.kh - 1) * spec_.dilation + 1;
    const int effKw = (spec_.kw - 1) * spec_.dilation + 1;
    const int g0 = region.c0 / opg;
    const int g1 = (region.c1 - 1) / opg;
    Region fp{region.n0,
              region.n1,
              region.h0 * spec_.stride - spec_.pad,
              (region.h1 - 1) * spec_.stride - spec_.pad + effKh,
              region.w0 * spec_.stride - spec_.pad,
              (region.w1 - 1) * spec_.stride - spec_.pad + effKw,
              g0 * cpg,
              (g1 + 1) * cpg};
    fp = fp.clipped(x);
    xplane.ensure(x, fp);
    const float *xlane = fp.empty() ? nullptr : xplane.lanes(0);

    // Stored-form lane operands over the footprint (same global
    // lane-minor indexing as the plane, converted rows only), so a
    // cone converts each input element once, not once per MAC term.
    // FP16 planes of the batched engine usually hold stored-form
    // values already (golden fills and kernel writebacks both round
    // through binary16, and rounding is idempotent), so the conversion
    // pass is only needed when the plane carries raw bits: the injected
    // node's fault values, the unrounded network input, or a borrowed
    // width-1 plane.  Integer modes always convert — the kernels
    // consume quantised operands.
    bool convert = !fp.empty() &&
                   (integer || (precision_ == Precision::FP16 &&
                                !xplane.storedForm()));
    Arena &arena = Arena::local();
    auto xsF = arena.floats(convert && !integer ? x.size() * W : 0);
    auto xsI = arena.ints(convert && integer ? x.size() * W : 0);
    if (convert) {
        // With every channel in the footprint, a row's cells are one
        // contiguous run.
        const bool allC = fp.c0 == 0 && fp.c1 == xc;
        auto convRow = [&](int n, int ih, int w0, int w1) {
            const int cells = allC ? 1 : w1 - w0;
            const std::size_t run =
                static_cast<std::size_t>(allC ? (w1 - w0) * xc
                                              : fp.c1 - fp.c0) *
                W;
            for (int i = 0; i < cells; ++i) {
                std::size_t f0 = x.offset(n, ih, w0 + i, fp.c0) *
                                 static_cast<std::size_t>(W);
                if (integer)
                    simd::quantizeBatch(xlane + f0, xsI.data() + f0,
                                        run, inQuant_);
                else
                    simd::roundToHalfBatch(xlane + f0, xsF.data() + f0,
                                           run);
            }
        };
        if (cover) {
            // Convert only under covered output cells' windows: per
            // input row, the merged w-intervals any covered span of an
            // output row whose window overlaps this row can read.  The
            // kernels never load stored-form operands outside these
            // intervals, so the rest of the scratch stays unwritten.
            constexpr int kMaxIv = 64;
            BatchCover::Span iv[kMaxIv];
            for (int n = fp.n0; n < fp.n1; ++n) {
                for (int ih = fp.h0; ih < fp.h1; ++ih) {
                    int m = 0;
                    int ohLo = ih + spec_.pad - effKh + 1;
                    ohLo = ohLo > 0 ? (ohLo + spec_.stride - 1) /
                                          spec_.stride
                                    : 0;
                    ohLo = std::max(ohLo, region.h0);
                    int ohHi =
                        std::min((ih + spec_.pad) / spec_.stride,
                                 region.h1 - 1);
                    for (int oh = ohLo; oh <= ohHi; ++oh) {
                        int nsp = 0;
                        const BatchCover::Span *sp =
                            cover->row(n, oh, nsp);
                        for (int si = 0; si < nsp && m < kMaxIv;
                             ++si) {
                            int a = sp[si].w0 * spec_.stride -
                                    spec_.pad;
                            int b = (sp[si].w1 - 1) * spec_.stride -
                                    spec_.pad + effKw;
                            a = std::max(a, fp.w0);
                            b = std::min(b, fp.w1);
                            if (a < b)
                                iv[m++] = BatchCover::Span{a, b};
                        }
                    }
                    if (m == kMaxIv) {
                        convRow(n, ih, fp.w0, fp.w1);
                        continue;
                    }
                    for (int i = 1; i < m; ++i) {
                        BatchCover::Span key = iv[i];
                        int j = i - 1;
                        for (; j >= 0 && iv[j].w0 > key.w0; --j)
                            iv[j + 1] = iv[j];
                        iv[j + 1] = key;
                    }
                    int e = 0;
                    for (int i = 0; i < m; ++i) {
                        if (e > 0 && iv[e - 1].w1 >= iv[i].w0) {
                            iv[e - 1].w1 =
                                std::max(iv[e - 1].w1, iv[i].w1);
                        } else {
                            iv[e++] = iv[i];
                        }
                    }
                    for (int i = 0; i < e; ++i)
                        convRow(n, ih, iv[i].w0, iv[i].w1);
                }
            }
        } else {
            for (int n = fp.n0; n < fp.n1; ++n)
                for (int h = fp.h0; h < fp.h1; ++h)
                    convRow(n, h, fp.w0, fp.w1);
        }
    }

    // The loader copies its few scalars (by-value capture), so the
    // kernels behind laneKernels' call boundary need not reload them
    // from this frame after every table call.
    const float *srcF = convert ? xsF.data() : xlane;
    const std::int32_t *srcQ = xsI.data();
    const float zero_s = integer ? 0.0f : storeInput(0.0f);
    const std::int32_t zero_q = integer ? quantInput(0.0f) : 0;
    auto load = [=](auto *dst, int n, int ih, int iw, int ci) {
        using T = std::remove_pointer_t<decltype(dst)>;
        constexpr bool isFloat = std::is_same_v<T, float>;
        if (ih < 0 || ih >= xh || iw < 0 || iw >= xw) {
            for (int l = 0; l < W; ++l)
                dst[l] = static_cast<T>(isFloat ? zero_s : zero_q);
            return;
        }
        const std::size_t off =
            (((static_cast<std::size_t>(n) * xh + ih) * xw + iw) * xc +
             ci) * W;
        if constexpr (isFloat)
            std::memcpy(dst, srcF + off, W * sizeof(T));
        else if constexpr (std::is_same_v<T, std::int32_t>)
            std::memcpy(dst, srcQ + off, W * sizeof(T));
        else
            for (int l = 0; l < W; ++l)
                dst[l] = static_cast<T>(srcQ[off + l]);
    };
    laneKernels<W>(&region, 1, cover, golden, out, load);
}

void
Conv2D::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                             LanePlane *const *inPlanes,
                             const Region &region,
                             const BatchCover *cover,
                             const Tensor &golden, LanePlane &out) const
{
    checkInput(ins);
    if (region.empty())
        return;
    switch (out.laneWidth()) {
      case 1:
        forwardBatchedImpl<1>(*ins[0], *inPlanes[0], region, nullptr,
                              golden, out);
        return;
      case 4:
        forwardBatchedImpl<4>(*ins[0], *inPlanes[0], region, cover,
                              golden, out);
        return;
      case 8:
        forwardBatchedImpl<8>(*ins[0], *inPlanes[0], region, cover,
                              golden, out);
        return;
    }
    panic("conv ", name_, ": unsupported lane width ", out.laneWidth());
}

std::size_t
Conv2D::weightCount(const std::vector<const Tensor *> &) const
{
    return weights_.size();
}

float
Conv2D::weightAt(const std::vector<const Tensor *> &, std::size_t idx) const
{
    panic_if(idx >= weights_.size(), "weight index out of range");
    return weights_[idx];
}

std::vector<NeuronIndex>
Conv2D::inputConsumers(const std::vector<const Tensor *> &ins,
                       std::size_t elem) const
{
    checkInput(ins);
    const Tensor &x = *ins[0];
    NeuronIndex e = x.indexOf(elem);
    int cpg = spec_.inC / spec_.groups;
    int opg = spec_.outC / spec_.groups;
    int g = e.c / cpg;
    int oh_max = outDim(x.h(), spec_.kh);
    int ow_max = outDim(x.w(), spec_.kw);

    std::vector<NeuronIndex> out;
    for (int kh = 0; kh < spec_.kh; ++kh) {
        int num_h = e.h + spec_.pad - kh * spec_.dilation;
        if (num_h < 0 || num_h % spec_.stride != 0)
            continue;
        int oh = num_h / spec_.stride;
        if (oh >= oh_max)
            continue;
        for (int kw = 0; kw < spec_.kw; ++kw) {
            int num_w = e.w + spec_.pad - kw * spec_.dilation;
            if (num_w < 0 || num_w % spec_.stride != 0)
                continue;
            int ow = num_w / spec_.stride;
            if (ow >= ow_max)
                continue;
            for (int oc = g * opg; oc < (g + 1) * opg; ++oc)
                out.push_back({e.n, oh, ow, oc});
        }
    }
    return out;
}

std::vector<NeuronIndex>
Conv2D::weightConsumers(const std::vector<const Tensor *> &ins,
                        std::size_t widx) const
{
    checkInput(ins);
    const Tensor &x = *ins[0];
    panic_if(widx >= weights_.size(), "weight index out of range");
    int oc = static_cast<int>(widx % spec_.outC);
    int oh_max = outDim(x.h(), spec_.kh);
    int ow_max = outDim(x.w(), spec_.kw);

    // With zero padding materialised in the datapath, a weight value is
    // streamed through the MACs for every output position of its output
    // channel (padded terms multiply zero and leave values unchanged).
    std::vector<NeuronIndex> out;
    out.reserve(static_cast<std::size_t>(x.n()) * oh_max * ow_max);
    for (int n = 0; n < x.n(); ++n)
        for (int oh = 0; oh < oh_max; ++oh)
            for (int ow = 0; ow < ow_max; ++ow)
                out.push_back({n, oh, ow, oc});
    return out;
}

int
Conv2D::reductionLength() const
{
    return (spec_.inC / spec_.groups) * spec_.kh * spec_.kw;
}

} // namespace fidelity
