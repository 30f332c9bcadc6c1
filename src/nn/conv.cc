#include "nn/conv.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

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
 * Float-mode block kernel over one output region.
 *
 * Vectorizes across output-channel lanes: each lane accumulates its
 * own output in the canonical (ci, kh, kw) order with an unfused
 * multiply-add per term, so every lane is bit-identical to the scalar
 * kernel and to computeNeuron().  `loadX(n, ih, iw, ci)` returns the
 * stored-form operand (the zero stored-form when out of range), and
 * `wb(acc, oc)` applies bias and the writeback path.
 *
 * The operands for one output pixel are gathered into `xg` (caller
 * scratch of `cpg * kh * kw` elements) once per group, then one
 * dispatched-table GEMM microkernel call covers every touched lane
 * block of the group; `acc` is caller scratch for the padded block
 * results (packBlocks(opg, kF32Lanes) * kF32Lanes elements).
 */
template <class LoadX, class WB>
void
convRegionFloat(const simd::KernelTable &kt, const ConvSpec &spec,
                int cpg, int opg, const float *packed, const Region &r,
                Tensor &out, float *xg, float *acc, LoadX loadX, WB wb)
{
    constexpr int L = simd::kF32Lanes;
    const int blocksPerGroup = simd::packBlocks(opg, L);
    const int redLen = cpg * spec.kh * spec.kw;
    const std::size_t blkStride = static_cast<std::size_t>(redLen) * L;
    const std::size_t gStride = blocksPerGroup * blkStride;
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;

    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            for (int ow = r.w0; ow < r.w1; ++ow) {
                std::size_t base = out.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    std::size_t t = 0;
                    for (int cig = 0; cig < cpg; ++cig) {
                        int ci = g * cpg + cig;
                        for (int kh = 0; kh < spec.kh; ++kh) {
                            int ih = oh * spec.stride - spec.pad +
                                     kh * spec.dilation;
                            for (int kw = 0; kw < spec.kw; ++kw) {
                                int iw = ow * spec.stride - spec.pad +
                                         kw * spec.dilation;
                                xg[t++] = loadX(n, ih, iw, ci);
                            }
                        }
                    }
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    int b0 = (lo - g * opg) / L;
                    int b1 = (hi - 1 - g * opg) / L;
                    kt.gemmF32(xg, redLen, b1 - b0 + 1,
                               packed + g * gStride + b0 * blkStride,
                               acc);
                    for (int blk = b0; blk <= b1; ++blk) {
                        int ocb = g * opg + blk * L;
                        int s = std::max(lo, ocb);
                        int e = std::min(hi, ocb + L);
                        const float *ab = acc + (blk - b0) * L;
                        for (int oc = s; oc < e; ++oc)
                            out[base + oc] = wb(
                                static_cast<double>(ab[oc - ocb]), oc);
                    }
                }
            }
        }
    }
}

/** Wide integer twin: int64 lane accumulators over int32 operands. */
template <class LoadX, class WB>
void
convRegionInt(const simd::KernelTable &kt, const ConvSpec &spec,
              int cpg, int opg, const std::int32_t *packed,
              const Region &r, Tensor &out, std::int32_t *xg,
              std::int64_t *acc, LoadX loadX, WB wb)
{
    constexpr int L = simd::kI64Lanes;
    const int blocksPerGroup = simd::packBlocks(opg, L);
    const int redLen = cpg * spec.kh * spec.kw;
    const std::size_t blkStride = static_cast<std::size_t>(redLen) * L;
    const std::size_t gStride = blocksPerGroup * blkStride;
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;

    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            for (int ow = r.w0; ow < r.w1; ++ow) {
                std::size_t base = out.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    std::size_t t = 0;
                    for (int cig = 0; cig < cpg; ++cig) {
                        int ci = g * cpg + cig;
                        for (int kh = 0; kh < spec.kh; ++kh) {
                            int ih = oh * spec.stride - spec.pad +
                                     kh * spec.dilation;
                            for (int kw = 0; kw < spec.kw; ++kw) {
                                int iw = ow * spec.stride - spec.pad +
                                         kw * spec.dilation;
                                xg[t++] = loadX(n, ih, iw, ci);
                            }
                        }
                    }
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    int b0 = (lo - g * opg) / L;
                    int b1 = (hi - 1 - g * opg) / L;
                    kt.gemmI64(xg, redLen, b1 - b0 + 1,
                               packed + g * gStride + b0 * blkStride,
                               acc);
                    for (int blk = b0; blk <= b1; ++blk) {
                        int ocb = g * opg + blk * L;
                        int s = std::max(lo, ocb);
                        int e = std::min(hi, ocb + L);
                        const std::int64_t *ab = acc + (blk - b0) * L;
                        for (int oc = s; oc < e; ++oc)
                            out[base + oc] = wb(ab[oc - ocb], oc);
                    }
                }
            }
        }
    }
}

/**
 * Narrow integer kernel over the pair-interleaved int16 pack.  The
 * gather narrows the quantised operands to int16 (lossless, bits <=
 * 16) into `xg`, which the caller sizes to 2 * packPairs(redLen)
 * elements with the pad element (odd reductions) pre-zeroed; the
 * kernel never writes past redLen, so the pad survives re-use.  Exact
 * by the chunk bound, hence bit-identical to convRegionInt.
 */
template <class LoadX, class WB>
void
convRegionNarrow(const simd::KernelTable &kt, const ConvSpec &spec,
                 int cpg, int opg, const std::int16_t *packed,
                 int chunkPairs, const Region &r, Tensor &out,
                 std::int16_t *xg, std::int64_t *acc, LoadX loadX,
                 WB wb)
{
    constexpr int L = simd::kNarrowLanes;
    const int blocksPerGroup = simd::packBlocks(opg, L);
    const int redLen = cpg * spec.kh * spec.kw;
    const int redPairs = simd::packPairs(redLen);
    const std::size_t blkStride =
        static_cast<std::size_t>(redPairs) * 2 * L;
    const std::size_t gStride = blocksPerGroup * blkStride;
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;

    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            for (int ow = r.w0; ow < r.w1; ++ow) {
                std::size_t base = out.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    std::size_t t = 0;
                    for (int cig = 0; cig < cpg; ++cig) {
                        int ci = g * cpg + cig;
                        for (int kh = 0; kh < spec.kh; ++kh) {
                            int ih = oh * spec.stride - spec.pad +
                                     kh * spec.dilation;
                            for (int kw = 0; kw < spec.kw; ++kw) {
                                int iw = ow * spec.stride - spec.pad +
                                         kw * spec.dilation;
                                xg[t++] = static_cast<std::int16_t>(
                                    loadX(n, ih, iw, ci));
                            }
                        }
                    }
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    int b0 = (lo - g * opg) / L;
                    int b1 = (hi - 1 - g * opg) / L;
                    kt.gemmNarrow(xg, redPairs, b1 - b0 + 1,
                                  packed + g * gStride + b0 * blkStride,
                                  chunkPairs, acc);
                    for (int blk = b0; blk <= b1; ++blk) {
                        int ocb = g * opg + blk * L;
                        int s = std::max(lo, ocb);
                        int e = std::min(hi, ocb + L);
                        const std::int64_t *ab = acc + (blk - b0) * L;
                        for (int oc = s; oc < e; ++oc)
                            out[base + oc] = wb(ab[oc - ocb], oc);
                    }
                }
            }
        }
    }
}

/**
 * Fault-batched float kernel: the SIMD lanes hold W *injections* of
 * the same fault cell instead of W output channels.  The window math,
 * padding tests, and packed-weight stream are shared by the batch; the
 * dispatched table's lane-minor MAC row accumulates all W lanes of one
 * output channel per call (canonical k order, unfused per-lane
 * multiply-adds, so every lane is bit-identical to the scalar
 * kernels).  `loadG(dst, n, ih, iw, ci)` fills W stored-form lane
 * operands (the zero stored-form when out of range), and `wbRow(op,
 * oc)` applies bias and the writeback path to the whole lane row in
 * place (rounding the row as one batch).
 */
template <int W, class LoadG, class WBRow>
void
convBatchedFloat(const simd::KernelTable &kt, const ConvSpec &spec,
                 int cpg, int opg, const float *packed, const Region &r,
                 const BatchCover *cover, const Tensor &golden,
                 LanePlane &out, float *xg, LoadG loadG, WBRow wbRow)
{
    // The weight pack is laid out for the *channel* kernels' lane
    // width; here it is walked scalar, one output channel at a time.
    constexpr int PL = simd::kF32Lanes;
    const int blocksPerGroup = simd::packBlocks(opg, PL);
    const std::size_t redLen =
        static_cast<std::size_t>(cpg) * spec.kh * spec.kw;
    const std::size_t blkStride = redLen * PL;
    const std::size_t gStride = blocksPerGroup * blkStride;
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;

    const BatchCover::Span full{r.w0, r.w1};
    const BatchCover::Span cfull{r.c0, r.c1};
    const BatchCover::Span *csp = &cfull;
    int ncs = 1;
    if (cover)
        csp = cover->chanSpans(ncs);
    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            const BatchCover::Span *sp = &full;
            int nsp = 1;
            if (cover)
                sp = cover->row(n, oh, nsp);
            for (int si = 0; si < nsp; ++si) {
            for (int ow = sp[si].w0; ow < sp[si].w1; ++ow) {
                std::size_t base = golden.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    bool any = false;
                    for (int cs = 0; cs < ncs && !any; ++cs)
                        any = std::min(hi, csp[cs].w1) >
                              std::max(lo, csp[cs].w0);
                    if (!any)
                        continue; // no covered channel in this group
                    std::size_t t = 0;
                    for (int cig = 0; cig < cpg; ++cig) {
                        int ci = g * cpg + cig;
                        for (int kh = 0; kh < spec.kh; ++kh) {
                            int ih = oh * spec.stride - spec.pad +
                                     kh * spec.dilation;
                            for (int kw = 0; kw < spec.kw; ++kw) {
                                int iw = ow * spec.stride - spec.pad +
                                         kw * spec.dilation;
                                loadG(xg + t * W, n, ih, iw, ci);
                                ++t;
                            }
                        }
                    }
                    for (int cs = 0; cs < ncs; ++cs) {
                    int clo = std::max(lo, csp[cs].w0);
                    int chi = std::min(hi, csp[cs].w1);
                    for (int oc = clo; oc < chi; ++oc) {
                        int ocg = oc - g * opg;
                        const float *wrow = packed + g * gStride +
                                            (ocg / PL) * blkStride +
                                            (ocg % PL);
                        float *op = out.lanes(base + oc);
                        kt.batchMacF32(xg, wrow, redLen, PL, W, op);
                        wbRow(op, oc);
                    }
                    }
                }
            }
            }
        }
    }
}

/**
 * Integer-mode twin: W int64 lane accumulators.  The weight scalar
 * and the lane-operand pointer swap roles relative to the channel
 * kernel — multiplication commutes, so the lane-minor MAC row is the
 * exact product either way.  `wbRow(lanes, op, oc)` turns the W int64
 * accumulators into the lane row's stored outputs in one batch.
 */
template <int W, class LoadG, class WBRow>
void
convBatchedInt(const simd::KernelTable &kt, const ConvSpec &spec,
               int cpg, int opg, const std::int32_t *packed,
               const Region &r, const BatchCover *cover,
               const Tensor &golden, LanePlane &out, std::int32_t *xg,
               LoadG loadG, WBRow wbRow)
{
    constexpr int PL = simd::kI64Lanes;
    const int blocksPerGroup = simd::packBlocks(opg, PL);
    const std::size_t redLen =
        static_cast<std::size_t>(cpg) * spec.kh * spec.kw;
    const std::size_t blkStride = redLen * PL;
    const std::size_t gStride = blocksPerGroup * blkStride;
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;

    std::int64_t lanes[W];
    const BatchCover::Span full{r.w0, r.w1};
    const BatchCover::Span cfull{r.c0, r.c1};
    const BatchCover::Span *csp = &cfull;
    int ncs = 1;
    if (cover)
        csp = cover->chanSpans(ncs);
    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            const BatchCover::Span *sp = &full;
            int nsp = 1;
            if (cover)
                sp = cover->row(n, oh, nsp);
            for (int si = 0; si < nsp; ++si) {
            for (int ow = sp[si].w0; ow < sp[si].w1; ++ow) {
                std::size_t base = golden.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    bool any = false;
                    for (int cs = 0; cs < ncs && !any; ++cs)
                        any = std::min(hi, csp[cs].w1) >
                              std::max(lo, csp[cs].w0);
                    if (!any)
                        continue; // no covered channel in this group
                    std::size_t t = 0;
                    for (int cig = 0; cig < cpg; ++cig) {
                        int ci = g * cpg + cig;
                        for (int kh = 0; kh < spec.kh; ++kh) {
                            int ih = oh * spec.stride - spec.pad +
                                     kh * spec.dilation;
                            for (int kw = 0; kw < spec.kw; ++kw) {
                                int iw = ow * spec.stride - spec.pad +
                                         kw * spec.dilation;
                                loadG(xg + t * W, n, ih, iw, ci);
                                ++t;
                            }
                        }
                    }
                    for (int cs = 0; cs < ncs; ++cs) {
                    int clo = std::max(lo, csp[cs].w0);
                    int chi = std::min(hi, csp[cs].w1);
                    for (int oc = clo; oc < chi; ++oc) {
                        int ocg = oc - g * opg;
                        const std::int32_t *wrow =
                            packed + g * gStride +
                            (ocg / PL) * blkStride + (ocg % PL);
                        kt.batchMacI64(xg, wrow, redLen, PL, W, lanes);
                        wbRow(lanes, out.lanes(base + oc), oc);
                    }
                    }
                }
            }
            }
        }
    }
}

/**
 * Narrow integer batched kernel: int16 lane rows against the
 * pair-interleaved pack.  `xg` holds 2 * packPairs(redLen) rows of W
 * lanes; the caller zeroes the pad row (odd reductions) once — the
 * gather only writes redLen rows.  Exact by the chunk bound, hence
 * bit-identical to convBatchedInt.
 */
template <int W, class LoadG, class WBRow>
void
convBatchedNarrow(const simd::KernelTable &kt, const ConvSpec &spec,
                  int cpg, int opg, const std::int16_t *packed,
                  int chunkPairs, const Region &r,
                  const BatchCover *cover, const Tensor &golden,
                  LanePlane &out, std::int16_t *xg, LoadG loadG,
                  WBRow wbRow)
{
    constexpr int PL = simd::kNarrowLanes;
    const int blocksPerGroup = simd::packBlocks(opg, PL);
    const int redLen = cpg * spec.kh * spec.kw;
    const int redPairs = simd::packPairs(redLen);
    const std::size_t blkStride =
        static_cast<std::size_t>(redPairs) * 2 * PL;
    const std::size_t gStride = blocksPerGroup * blkStride;
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;

    std::int64_t lanes[W];
    const BatchCover::Span full{r.w0, r.w1};
    const BatchCover::Span cfull{r.c0, r.c1};
    const BatchCover::Span *csp = &cfull;
    int ncs = 1;
    if (cover)
        csp = cover->chanSpans(ncs);
    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            const BatchCover::Span *sp = &full;
            int nsp = 1;
            if (cover)
                sp = cover->row(n, oh, nsp);
            for (int si = 0; si < nsp; ++si) {
            for (int ow = sp[si].w0; ow < sp[si].w1; ++ow) {
                std::size_t base = golden.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    bool any = false;
                    for (int cs = 0; cs < ncs && !any; ++cs)
                        any = std::min(hi, csp[cs].w1) >
                              std::max(lo, csp[cs].w0);
                    if (!any)
                        continue; // no covered channel in this group
                    std::size_t t = 0;
                    for (int cig = 0; cig < cpg; ++cig) {
                        int ci = g * cpg + cig;
                        for (int kh = 0; kh < spec.kh; ++kh) {
                            int ih = oh * spec.stride - spec.pad +
                                     kh * spec.dilation;
                            for (int kw = 0; kw < spec.kw; ++kw) {
                                int iw = ow * spec.stride - spec.pad +
                                         kw * spec.dilation;
                                loadG(xg + t * W, n, ih, iw, ci);
                                ++t;
                            }
                        }
                    }
                    for (int cs = 0; cs < ncs; ++cs) {
                    int clo = std::max(lo, csp[cs].w0);
                    int chi = std::min(hi, csp[cs].w1);
                    for (int oc = clo; oc < chi; ++oc) {
                        int ocg = oc - g * opg;
                        const std::int16_t *wrow =
                            packed + g * gStride +
                            (ocg / PL) * blkStride + (ocg % PL) * 2;
                        kt.batchMacNarrow(xg, wrow, redPairs, PL * 2,
                                          chunkPairs, W, lanes);
                        wbRow(lanes, out.lanes(base + oc), oc);
                    }
                    }
                }
            }
            }
        }
    }
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
    // Fast path, bit-identical to computeNeuron(): operands are
    // converted into their stored form once, then lane blocks of
    // output channels accumulate in the canonical (ci, kh, kw) order
    // with the same arithmetic.
    Tensor out = makeOutput(ins);
    const Tensor &x = *ins[0];
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;

    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int redLen = spec_.kh * spec_.kw * cpg;
    const int redPairs = simd::packPairs(redLen);
    Arena &arena = Arena::local();
    auto xs = arena.floats(
        integer || precision_ == Precision::FP32 ? 0 : x.size());
    auto xq = arena.ints(integer ? x.size() : 0);
    auto xgF = arena.floats(integer ? 0 : redLen);
    auto xgI = arena.ints(integer && !narrow ? redLen : 0);
    auto xgN = arena.shorts(narrow ? 2 * redPairs : 0);
    auto accF = arena.floats(
        integer ? 0
                : simd::packSize(1, opg, simd::kF32Lanes));
    auto accL = arena.longs(
        integer ? (narrow ? simd::packSize(1, opg, simd::kNarrowLanes)
                          : simd::packSize(1, opg, simd::kI64Lanes))
                : 0);
    if (narrow)
        for (int k = redLen; k < 2 * redPairs; ++k)
            xgN[k] = 0;
    const float *xf = x.data().data();
    if (integer) {
        simd::quantizeBatch(xf, xq.data(), x.size(), inQuant_);
    } else if (precision_ == Precision::FP16) {
        simd::roundToHalfBatch(xf, xs.data(), x.size());
        xf = xs.data();
    }

    const int xh = x.h(), xw = x.w(), xc = x.c();
    const Region full = Region::full(out);
    auto biasAt = [&](int oc) {
        return spec_.bias ? bias_[oc] : 0.0f;
    };

    const simd::KernelTable &kt = simd::table();
    if (integer) {
        const std::int32_t *xqd = xq.data();
        const std::int32_t zero_q = quantInput(0.0f);
        auto loadX = [&](int n, int ih, int iw, int ci) {
            bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
            return ok
                ? xqd[((static_cast<std::size_t>(n) * xh + ih) * xw +
                       iw) * xc + ci]
                : zero_q;
        };
        auto wb = [&](std::int64_t iacc, int oc) {
            // Left-associated like computeNeuron: the double
            // rounding order is part of the bit contract.
            return writeback(static_cast<double>(iacc) *
                                 inQuant_.scale * wQuant_.scale,
                             biasAt(oc));
        };
        if (narrow)
            convRegionNarrow(kt, spec_, cpg, opg, wPackN_.data(),
                             chunkPairs_, full, out, xgN.data(),
                             accL.data(), loadX, wb);
        else
            convRegionInt(kt, spec_, cpg, opg, wPackI_.data(), full,
                          out, xgI.data(), accL.data(), loadX, wb);
    } else {
        const float zero_s = storeInput(0.0f);
        convRegionFloat(
            kt, spec_, cpg, opg, wPackF_.data(), full, out, xgF.data(),
            accF.data(),
            [&](int n, int ih, int iw, int ci) {
                bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
                return ok
                    ? xf[((static_cast<std::size_t>(n) * xh + ih) *
                              xw + iw) * xc + ci]
                    : zero_s;
            },
            [&](double acc, int oc) {
                return writeback(acc, biasAt(oc));
            });
    }
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

void
Conv2D::forwardRegion(const std::vector<const Tensor *> &ins,
                      const Region &region, Tensor &out) const
{
    // Same block kernels as forward(), restricted to the requested
    // output box; operands convert on the fly (once per broadcast
    // term, not once per output channel).
    checkInput(ins);
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;

    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int xh = x.h(), xw = x.w(), xc = x.c();
    const float *xd = x.data().data();
    const int redLen = spec_.kh * spec_.kw * cpg;
    const int redPairs = simd::packPairs(redLen);
    Arena &arena = Arena::local();
    auto xgF = arena.floats(integer ? 0 : redLen);
    auto xgI = arena.ints(integer && !narrow ? redLen : 0);
    auto xgN = arena.shorts(narrow ? 2 * redPairs : 0);
    auto accF = arena.floats(
        integer ? 0 : simd::packSize(1, opg, simd::kF32Lanes));
    auto accL = arena.longs(
        integer ? (narrow ? simd::packSize(1, opg, simd::kNarrowLanes)
                          : simd::packSize(1, opg, simd::kI64Lanes))
                : 0);
    if (narrow)
        for (int k = redLen; k < 2 * redPairs; ++k)
            xgN[k] = 0;
    auto biasAt = [&](int oc) {
        return spec_.bias ? bias_[oc] : 0.0f;
    };

    const simd::KernelTable &kt = simd::table();
    if (integer) {
        const std::int32_t zero_q = quantInput(0.0f);
        auto loadX = [&](int n, int ih, int iw, int ci) {
            bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
            return ok
                ? quantInput(
                      xd[((static_cast<std::size_t>(n) * xh + ih) *
                          xw + iw) * xc + ci])
                : zero_q;
        };
        auto wb = [&](std::int64_t iacc, int oc) {
            // Left-associated like computeNeuron: the double
            // rounding order is part of the bit contract.
            return writeback(static_cast<double>(iacc) *
                                 inQuant_.scale * wQuant_.scale,
                             biasAt(oc));
        };
        if (narrow)
            convRegionNarrow(kt, spec_, cpg, opg, wPackN_.data(),
                             chunkPairs_, region, out, xgN.data(),
                             accL.data(), loadX, wb);
        else
            convRegionInt(kt, spec_, cpg, opg, wPackI_.data(), region,
                          out, xgI.data(), accL.data(), loadX, wb);
    } else {
        const float zero_s = storeInput(0.0f);
        convRegionFloat(
            kt, spec_, cpg, opg, wPackF_.data(), region, out,
            xgF.data(), accF.data(),
            [&](int n, int ih, int iw, int ci) {
                bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
                return ok
                    ? storeInput(
                          xd[((static_cast<std::size_t>(n) * xh +
                               ih) * xw + iw) * xc + ci])
                    : zero_s;
            },
            [&](double acc, int oc) {
                return writeback(acc, biasAt(oc));
            });
    }
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
    if (numBoxes == 0)
        return true;
    const Tensor &x = *ins[0];
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;

    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int xh = x.h(), xw = x.w(), xc = x.c();
    const float *xd = x.data().data();
    const std::size_t flat = sub->flatIndex;
    const int redLen = spec_.kh * spec_.kw * cpg;
    const int redPairs = simd::packPairs(redLen);
    Arena &arena = Arena::local();
    auto xgF = arena.floats(integer ? 0 : redLen);
    auto xgI = arena.ints(integer && !narrow ? redLen : 0);
    auto xgN = arena.shorts(narrow ? 2 * redPairs : 0);
    auto accF = arena.floats(
        integer ? 0 : simd::packSize(1, opg, simd::kF32Lanes));
    auto accL = arena.longs(
        integer ? (narrow ? simd::packSize(1, opg, simd::kNarrowLanes)
                          : simd::packSize(1, opg, simd::kI64Lanes))
                : 0);
    if (narrow)
        for (int k = redLen; k < 2 * redPairs; ++k)
            xgN[k] = 0;
    auto biasAt = [&](int oc) {
        return spec_.bias ? bias_[oc] : 0.0f;
    };

    const simd::KernelTable &kt = simd::table();
    if (integer) {
        const std::int32_t zero_q = quantInput(0.0f);
        const std::int32_t sub_q = quantInput(sub->value);
        auto loadX = [&](int n, int ih, int iw, int ci) {
            bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
            if (!ok)
                return zero_q;
            std::size_t off =
                ((static_cast<std::size_t>(n) * xh + ih) * xw + iw) *
                    xc + ci;
            return off == flat ? sub_q : quantInput(xd[off]);
        };
        auto wb = [&](std::int64_t iacc, int oc) {
            // Left-associated like computeNeuron: the double
            // rounding order is part of the bit contract.
            return writeback(static_cast<double>(iacc) *
                                 inQuant_.scale * wQuant_.scale,
                             biasAt(oc));
        };
        for (std::size_t i = 0; i < numBoxes; ++i) {
            if (narrow)
                convRegionNarrow(kt, spec_, cpg, opg, wPackN_.data(),
                                 chunkPairs_, boxes[i], out,
                                 xgN.data(), accL.data(), loadX, wb);
            else
                convRegionInt(kt, spec_, cpg, opg, wPackI_.data(),
                              boxes[i], out, xgI.data(), accL.data(),
                              loadX, wb);
        }
    } else {
        const float zero_s = storeInput(0.0f);
        const float sub_s = storeInput(sub->value);
        auto loadX = [&](int n, int ih, int iw, int ci) {
            bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
            if (!ok)
                return zero_s;
            std::size_t off =
                ((static_cast<std::size_t>(n) * xh + ih) * xw + iw) *
                    xc + ci;
            return off == flat ? sub_s : storeInput(xd[off]);
        };
        auto wb = [&](double acc, int oc) {
            return writeback(acc, biasAt(oc));
        };
        for (std::size_t i = 0; i < numBoxes; ++i)
            convRegionFloat(kt, spec_, cpg, opg, wPackF_.data(),
                            boxes[i], out, xgF.data(), accF.data(),
                            loadX, wb);
    }
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
            kt.batchMacF32(rowsG, wcol.data(), redLen, 1, kPosLanes, acc);
            for (int l = 0; l < count; ++l)
                out.at(pos[l]) = writeback(static_cast<double>(acc[l]), b);
        });
    return true;
}

template <int W>
void
Conv2D::forwardBatchedImpl(const Tensor &x, LanePlane &xplane,
                           const Region &region, const BatchCover *cover,
                           const Tensor &golden, LanePlane &out) const
{
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;

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

    const int redLen = spec_.kh * spec_.kw * cpg;
    const int redPairs = simd::packPairs(redLen);
    Arena &arena = Arena::local();
    auto xgF = arena.floats(integer ? 0 : static_cast<std::size_t>(redLen) * W);
    auto xgI = arena.ints(
        integer && !narrow ? static_cast<std::size_t>(redLen) * W : 0);
    auto xgN = arena.shorts(
        narrow ? static_cast<std::size_t>(2 * redPairs) * W : 0);
    if (narrow && 2 * redPairs > redLen)
        std::memset(xgN.data() + static_cast<std::size_t>(redLen) * W,
                    0, W * sizeof(std::int16_t));
    // Stored-form lane operands over the footprint (same global
    // lane-minor indexing as the plane, converted rows only).
    // FP16 planes usually hold stored-form values already (golden
    // fills and kernel writebacks both round through binary16, and
    // rounding is idempotent), so the conversion pass is only needed
    // when the plane carries raw bits: the injected node's fault
    // values or the unrounded network input.  Integer modes always
    // convert — the kernels consume quantised operands.
    bool convert = !fp.empty() &&
                   (integer || (precision_ == Precision::FP16 &&
                                !xplane.storedForm()));
    auto xsF = arena.floats(convert && !integer ? x.size() * W : 0);
    auto xsI = arena.ints(convert && integer ? x.size() * W : 0);
    if (convert) {
        const std::size_t run =
            static_cast<std::size_t>(fp.c1 - fp.c0) * W;
        auto convRow = [&](int n, int ih, int w0, int w1) {
            for (int w = w0; w < w1; ++w) {
                std::size_t f0 = x.offset(n, ih, w, fp.c0) *
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

    auto biasAt = [&](int oc) {
        return spec_.bias ? bias_[oc] : 0.0f;
    };

    const simd::KernelTable &kt = simd::table();
    if (integer) {
        const std::int32_t *xsrc = xsI.data();
        const std::int32_t zero_q = quantInput(0.0f);
        auto wb = [&](const std::int64_t *lanes, float *op, int oc) {
            // Left-associated like computeNeuron: the double rounding
            // order is part of the bit contract.  Splitting writeback
            // into real-value, batch-quantise, dequantise steps keeps
            // each lane's arithmetic exactly the scalar sequence.
            const float b = biasAt(oc);
            float real[W];
            std::int32_t q[W];
            for (int l = 0; l < W; ++l)
                real[l] = static_cast<float>(
                              static_cast<double>(lanes[l]) *
                              inQuant_.scale * wQuant_.scale) +
                          b;
            simd::quantizeBatch(real, q, W, outQuant_);
            for (int l = 0; l < W; ++l)
                op[l] = dequantize(q[l], outQuant_);
        };
        if (narrow) {
            auto loadG = [&](std::int16_t *dst, int n, int ih, int iw,
                             int ci) {
                bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
                if (!ok) {
                    for (int l = 0; l < W; ++l)
                        dst[l] = static_cast<std::int16_t>(zero_q);
                    return;
                }
                const std::int32_t *src =
                    xsrc +
                    (((static_cast<std::size_t>(n) * xh + ih) * xw +
                      iw) * xc + ci) * W;
                for (int l = 0; l < W; ++l)
                    dst[l] = static_cast<std::int16_t>(src[l]);
            };
            convBatchedNarrow<W>(kt, spec_, cpg, opg, wPackN_.data(),
                                 chunkPairs_, region, cover, golden,
                                 out, xgN.data(), loadG, wb);
        } else {
            auto loadG = [&](std::int32_t *dst, int n, int ih, int iw,
                             int ci) {
                bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
                if (!ok) {
                    for (int l = 0; l < W; ++l)
                        dst[l] = zero_q;
                    return;
                }
                std::size_t off =
                    ((static_cast<std::size_t>(n) * xh + ih) * xw +
                     iw) * xc + ci;
                std::memcpy(dst, xsrc + off * W,
                            W * sizeof(std::int32_t));
            };
            convBatchedInt<W>(kt, spec_, cpg, opg, wPackI_.data(),
                              region, cover, golden, out, xgI.data(),
                              loadG, wb);
        }
    } else {
        const float *xsrc = convert ? xsF.data() : xlane;
        const float zero_s = storeInput(0.0f);
        auto loadG = [&](float *dst, int n, int ih, int iw, int ci) {
            bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
            if (!ok) {
                for (int l = 0; l < W; ++l)
                    dst[l] = zero_s;
                return;
            }
            std::size_t off =
                ((static_cast<std::size_t>(n) * xh + ih) * xw + iw) *
                    xc + ci;
            std::memcpy(dst, xsrc + off * W, W * sizeof(float));
        };
        const bool half = precision_ == Precision::FP16;
        auto wb = [&](float *op, int oc) {
            // writeback(acc, bias) over the row: the accumulators are
            // already in op, so add bias in place and round the whole
            // lane row as one batch (identical per element).
            const float b = biasAt(oc);
            for (int l = 0; l < W; ++l)
                op[l] += b;
            if (half)
                simd::roundToHalfBatch(op, op, W);
        };
        convBatchedFloat<W>(kt, spec_, cpg, opg, wPackF_.data(),
                            region, cover, golden, out, xgF.data(),
                            loadG, wb);
    }
}

bool
Conv2D::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                             LanePlane *const *inPlanes,
                             const Region &region,
                             const BatchCover *cover,
                             const Tensor &golden, LanePlane &out) const
{
    checkInput(ins);
    if (region.empty())
        return true;
    switch (out.laneWidth()) {
      case 4:
        forwardBatchedImpl<4>(*ins[0], *inPlanes[0], region, cover,
                              golden, out);
        return true;
      case 8:
        forwardBatchedImpl<8>(*ins[0], *inPlanes[0], region, cover,
                              golden, out);
        return true;
    }
    return false;
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
