/**
 * @file
 * Structure-of-arrays activation planes for sparse re-execution.
 *
 * The sparse engine (nn/batched) evaluates up to W injections of the
 * same fault cell in one sweep.  Per network node it keeps a
 * LanePlane: for every tensor element inside a growing `valid` box,
 * `lanes` consecutive floats — one per in-flight injection — so the
 * batched kernels walk the cone geometry once and stream lane columns
 * instead of whole per-injection tensors.  Outside the valid box every lane equals the
 * golden activation by construction, so readers first `ensure` the box
 * they need: newly covered cells are broadcast-filled with golden
 * values while previously written lane columns survive.
 *
 * At lane width 1 the lane-minor layout is the tensor's own NHWC
 * layout: the one-lane engine's planes are tensor-shaped, and a plane
 * can also borrow a tensor's storage, which is how Layer::forwardRegion
 * runs a layer's one region kernel on plain tensors.
 */

#ifndef FIDELITY_NN_LANES_HH
#define FIDELITY_NN_LANES_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "nn/region.hh"
#include "sim/logging.hh"
#include "simd/simd.hh"
#include "tensor/tensor.hh"

namespace fidelity
{

/** The batched engine's lane count above width 1: one batched MAC
 *  row. */
constexpr int kMaxBatchLanes = simd::kBatchLanes;

/** Lane-minor SoA view of one node's activation under B injections. */
class LanePlane
{
  public:
    /** Set the lane width, 1 or kMaxBatchLanes, and invalidate
     *  (storage is retained). */
    void
    reset(int lanes)
    {
        panic_if(lanes != 1 && lanes != kMaxBatchLanes,
                 "lane plane width must be 1 or ", kMaxBatchLanes,
                 ", got ", lanes);
        lanes_ = lanes;
        valid_ = Region{};
        stored_ = true;
        data_ = soa_.data();
    }

    /**
     * A width-1 view of `t`'s storage.  The whole tensor counts as
     * valid, so ensure() does nothing, and the plane counts as raw
     * (values need not be in stored form).  Kernels only write their
     * output plane, so borrowing a const input is safe.
     */
    void
    borrow(const Tensor &t)
    {
        lanes_ = 1;
        valid_ = Region::full(t);
        stored_ = false;
        data_ = const_cast<float *>(t.data().data());
    }

    /**
     * Whether every lane value already has the FP16 stored form
     * (rounded to binary16).  True for planes filled by golden
     * broadcasts and batched-kernel writebacks — both round — so FP16
     * consumers can skip their operand conversion pass.  The engine
     * clears it on the injected node (fault values are arbitrary FP32
     * bit patterns) and on network inputs (never passed through a
     * writeback).
     */
    bool storedForm() const { return stored_; }
    void markRaw() { stored_ = false; }

    int laneWidth() const { return lanes_; }

    /** Box inside which lane columns are materialised. */
    const Region &valid() const { return valid_; }

    /**
     * Grow the valid box to cover `need` (clipped to the tensor).
     * Cells that become covered are broadcast-filled with the golden
     * value; cells already inside the box keep their lane columns.
     * Note the box is the bounding box of the union, so cells in
     * neither the old box nor `need` may be filled too — they read as
     * golden, which is exactly their lane value.
     */
    void
    ensure(const Tensor &golden, const Region &need)
    {
        Region nd = need.clipped(golden);
        Region merged = valid_;
        merged.merge(nd);
        if (merged == valid_)
            return; // includes every borrowed plane
        std::size_t want = golden.size() * lanes_;
        if (soa_.size() < want)
            soa_.resize(want);
        data_ = soa_.data();
        if (valid_.empty()) {
            fillBox(golden, nd);
            valid_ = nd;
            return;
        }
        for (int n = merged.n0; n < merged.n1; ++n) {
            for (int h = merged.h0; h < merged.h1; ++h) {
                for (int w = merged.w0; w < merged.w1; ++w) {
                    bool inOld = n >= valid_.n0 && n < valid_.n1 &&
                                 h >= valid_.h0 && h < valid_.h1 &&
                                 w >= valid_.w0 && w < valid_.w1;
                    if (inOld) {
                        fillRun(golden, n, h, w, merged.c0, valid_.c0);
                        fillRun(golden, n, h, w, valid_.c1, merged.c1);
                    } else {
                        fillRun(golden, n, h, w, merged.c0, merged.c1);
                    }
                }
            }
        }
        valid_ = merged;
    }

    /** The lane column of one flat tensor element. */
    float *lanes(std::size_t flat) { return data_ + flat * lanes_; }

    const float *
    lanes(std::size_t flat) const
    {
        return data_ + flat * lanes_;
    }

  private:
    void
    fillBox(const Tensor &golden, const Region &r)
    {
        if (lanes_ == 1 && r.w0 == 0 && r.w1 == golden.w() && r.c0 == 0 &&
            r.c1 == golden.c()) {
            // One lane over whole image rows: the rows of each n are
            // one contiguous block of the golden tensor.
            const std::size_t len = static_cast<std::size_t>(r.h1 - r.h0) *
                                    golden.w() * golden.c();
            for (int n = r.n0; n < r.n1; ++n) {
                const std::size_t f = golden.offset(n, r.h0, 0, 0);
                std::copy_n(golden.data().data() + f, len, data_ + f);
            }
            return;
        }
        for (int n = r.n0; n < r.n1; ++n)
            for (int h = r.h0; h < r.h1; ++h)
                for (int w = r.w0; w < r.w1; ++w)
                    fillRun(golden, n, h, w, r.c0, r.c1);
    }

    void
    fillRun(const Tensor &golden, int n, int h, int w, int c0, int c1)
    {
        if (c0 >= c1)
            return;
        std::size_t flat = golden.offset(n, h, w, c0);
        float *p = data_ + flat * lanes_;
        if (lanes_ == 1) {
            // One lane: the run is a contiguous copy of the golden row.
            std::copy_n(golden.data().data() + flat, c1 - c0, p);
            return;
        }
        // Fixed-width splat: the compiler turns the constant-count
        // inner loop into one broadcast store per cell.
        for (int c = c0; c < c1; ++c, ++flat, p += kMaxBatchLanes) {
            float g = golden[flat];
            for (int l = 0; l < kMaxBatchLanes; ++l)
                p[l] = g;
        }
    }

    std::vector<float> soa_;
    float *data_ = nullptr; //!< soa_, or a borrowed tensor's storage
    Region valid_;
    int lanes_ = 0;
    bool stored_ = true;
};

/**
 * Union-of-cones coverage of one batch's recompute box.
 *
 * The batched walk recomputes the bounding box of the live lanes'
 * fault cones, but scattered cones can leave much of that box covered
 * by no cone at all — cells where every lane provably recomputes
 * golden bits.  BatchCover stores, for each (n, h) row of the box, the
 * merged disjoint w-intervals covered by at least one cone; kernels
 * and the diff scan walk these spans instead of the full box.  Skipped
 * cells keep their golden broadcast fill, which is exactly the value
 * recomputation would store, so coverage clipping cannot change any
 * lane's result.
 */
class BatchCover
{
  public:
    /** One covered w-interval [w0, w1) of a row. */
    struct Span
    {
        int w0, w1;
    };

    /** Build coverage of `bbox` from the lanes set in `mask`. */
    void
    build(const Region *cones, std::uint32_t mask, int lanes,
          const Region &bbox)
    {
        mask_ = 0;
        for (int l = 0; l < lanes && l < kMaxBatchLanes; ++l) {
            if ((mask >> l) & 1u) {
                cones_[l] = cones[l];
                mask_ |= 1u << l;
            }
        }
        n0_ = bbox.n0;
        h0_ = bbox.h0;
        rowsPerN_ = std::max(0, bbox.h1 - bbox.h0);
        const int rows = std::max(0, bbox.n1 - bbox.n0) * rowsPerN_;
        rowEnd_.assign(rows, 0);
        spans_.clear();
        covered_ = 0;

        // Merged channel intervals of the live cones.  A channel
        // outside every cone's [c0, c1) is touched by no lane at all,
        // so kernels may skip it even inside a covered (n, h, w) cell
        // — weight faults perturb a single output channel each, and a
        // batch of them covers 8 scattered channels, not the interval.
        numCSpans_ = 0;
        coveredChans_ = 0;
        {
            Span ctmp[kMaxBatchLanes];
            int m = 0;
            for (int l = 0; l < lanes && l < kMaxBatchLanes; ++l)
                if ((mask >> l) & 1u)
                    ctmp[m++] = Span{cones[l].c0, cones[l].c1};
            for (int i = 1; i < m; ++i) {
                Span key = ctmp[i];
                int j = i - 1;
                for (; j >= 0 && ctmp[j].w0 > key.w0; --j)
                    ctmp[j + 1] = ctmp[j];
                ctmp[j + 1] = key;
            }
            for (int i = 0; i < m; ++i) {
                if (numCSpans_ > 0 &&
                    cspans_[numCSpans_ - 1].w1 >= ctmp[i].w0) {
                    cspans_[numCSpans_ - 1].w1 = std::max(
                        cspans_[numCSpans_ - 1].w1, ctmp[i].w1);
                } else {
                    cspans_[numCSpans_++] = ctmp[i];
                }
            }
            for (int i = 0; i < numCSpans_; ++i)
                coveredChans_ += cspans_[i].w1 - cspans_[i].w0;
        }

        Span tmp[kMaxBatchLanes];
        int ri = 0;
        for (int n = bbox.n0; n < bbox.n1; ++n) {
            for (int h = bbox.h0; h < bbox.h1; ++h, ++ri) {
                int m = 0;
                for (int l = 0; l < lanes && l < kMaxBatchLanes; ++l) {
                    if (!((mask >> l) & 1u))
                        continue;
                    const Region &c = cones[l];
                    if (n < c.n0 || n >= c.n1 || h < c.h0 ||
                        h >= c.h1)
                        continue;
                    tmp[m++] = Span{c.w0, c.w1};
                }
                for (int i = 1; i < m; ++i) {
                    Span key = tmp[i];
                    int j = i - 1;
                    for (; j >= 0 && tmp[j].w0 > key.w0; --j)
                        tmp[j + 1] = tmp[j];
                    tmp[j + 1] = key;
                }
                const std::size_t first = spans_.size();
                for (int i = 0; i < m; ++i) {
                    if (spans_.size() > first &&
                        spans_.back().w1 >= tmp[i].w0) {
                        spans_.back().w1 =
                            std::max(spans_.back().w1, tmp[i].w1);
                    } else {
                        spans_.push_back(tmp[i]);
                    }
                }
                for (std::size_t s = first; s < spans_.size(); ++s)
                    covered_ += static_cast<std::uint64_t>(
                        spans_[s].w1 - spans_[s].w0);
                rowEnd_[ri] = spans_.size();
            }
        }
    }

    /**
     * The merged spans of row (n, h), which must lie inside the built
     * box.  `count` receives the number of spans (possibly zero).
     */
    const Span *
    row(int n, int h, int &count) const
    {
        const std::size_t ri = static_cast<std::size_t>(n - n0_) *
                                   rowsPerN_ +
                               (h - h0_);
        const std::size_t b = ri > 0 ? rowEnd_[ri - 1] : 0;
        count = static_cast<int>(rowEnd_[ri] - b);
        return spans_.data() + b;
    }

    /** Covered cells summed over all rows (at channel depth one). */
    std::uint64_t coveredCells() const { return covered_; }

    /** Merged channel intervals of the live cones (box-wide). */
    const Span *
    chanSpans(int &count) const
    {
        count = numCSpans_;
        return cspans_;
    }

    /** Total channels inside some cone's channel interval. */
    int coveredChans() const { return coveredChans_; }

    /** The lanes (bit l for lane l) whose cone holds cell (n, h, w). */
    std::uint32_t
    lanesAt(int n, int h, int w) const
    {
        std::uint32_t m = 0;
        for (std::uint32_t rest = mask_; rest; rest &= rest - 1) {
            const int l = std::countr_zero(rest);
            const Region &c = cones_[l];
            if (n >= c.n0 && n < c.n1 && h >= c.h0 && h < c.h1 &&
                w >= c.w0 && w < c.w1)
                m |= 1u << l;
        }
        return m;
    }

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> rowEnd_;
    std::uint64_t covered_ = 0;
    int n0_ = 0, h0_ = 0, rowsPerN_ = 0;
    Span cspans_[kMaxBatchLanes];
    int numCSpans_ = 0;
    int coveredChans_ = 0;
    Region cones_[kMaxBatchLanes];
    std::uint32_t mask_ = 0;
};

/**
 * Call f(n, h, w0, w1) for every covered w-interval [w0, w1) of each
 * (n, h) row of `region` — the row's whole [region.w0, region.w1) when
 * `cover` is null — in NHW order.
 */
template <class F>
void
forEachCoveredSpan(const Region &region, const BatchCover *cover, F &&f)
{
    const BatchCover::Span full{region.w0, region.w1};
    for (int n = region.n0; n < region.n1; ++n) {
        for (int h = region.h0; h < region.h1; ++h) {
            const BatchCover::Span *sp = &full;
            int nsp = 1;
            if (cover)
                sp = cover->row(n, h, nsp);
            for (int si = 0; si < nsp; ++si)
                f(n, h, sp[si].w0, sp[si].w1);
        }
    }
}

/**
 * Call f(n, h, w) for every (n, h, w) cell of `region` that `cover`
 * covers — every cell when `cover` is null — in NHW order.
 */
template <class F>
void
forEachCoveredCell(const Region &region, const BatchCover *cover, F &&f)
{
    forEachCoveredSpan(region, cover, [&](int n, int h, int w0, int w1) {
        for (int w = w0; w < w1; ++w)
            f(n, h, w);
    });
}

/**
 * forEachCoveredCell for kernels that treat every element alike:
 * f(flat, count) receives the covered cells' channel runs [c0, c1) as
 * maximal runs of `count` consecutive flat elements of `t` starting at
 * `flat`, in NHW order.  Where the channel range is all of `t`'s, a
 * covered span is one run and adjacent spans merge, so a full-tensor
 * region is a single run.
 */
template <class F>
void
forEachCoveredRun(const Region &region, const BatchCover *cover,
                  const Tensor &t, F &&f)
{
    const std::size_t depth = static_cast<std::size_t>(region.c1 - region.c0);
    const bool whole = region.c0 == 0 && region.c1 == t.c();
    std::size_t start = 0, count = 0;
    auto add = [&](std::size_t flat, std::size_t len) {
        if (count > 0 && start + count == flat) {
            count += len;
            return;
        }
        if (count > 0)
            f(start, count);
        start = flat;
        count = len;
    };
    forEachCoveredSpan(region, cover, [&](int n, int h, int w0, int w1) {
        if (whole) {
            const std::size_t cells = static_cast<std::size_t>(w1 - w0);
            add(t.offset(n, h, w0, 0), cells * depth);
            return;
        }
        for (int w = w0; w < w1; ++w)
            add(t.offset(n, h, w, region.c0), depth);
    });
    if (count > 0)
        f(start, count);
}

/**
 * Whether forEachCoveredRun visits exactly one run: then `start` and
 * `count` receive it.  With every channel of `t` in the region, that
 * run is whole cells, so a row kernel can read and write it in place.
 */
inline bool
singleCoveredRun(const Region &region, const BatchCover *cover,
                 const Tensor &t, std::size_t &start, std::size_t &count)
{
    int runs = 0;
    forEachCoveredRun(region, cover, t, [&](std::size_t s, std::size_t c) {
        ++runs;
        start = s;
        count = c;
    });
    return runs == 1;
}

/**
 * forEachCoveredCell for kernels whose lanes need not share work:
 * f(n, h, w, lanes) also receives the lanes (of `width`) that must
 * recompute the cell.  Under coverage those are the lanes whose own
 * cone holds it — elsewhere a lane's value is golden, which the plane
 * already holds — and without coverage every lane.
 */
template <class F>
void
forEachCoveredLaneCell(const Region &region, const BatchCover *cover,
                       int width, F &&f)
{
    const std::uint32_t all = (1u << width) - 1;
    forEachCoveredCell(region, cover, [&](int n, int h, int w) {
        const std::uint32_t lanes = cover ? cover->lanesAt(n, h, w) : all;
        if (lanes)
            f(n, h, w, lanes);
    });
}

/**
 * Copy the lanes set in `mask` of the `count` consecutive lane columns
 * (of `width` floats each) at `cols` into popcount(mask) runs of
 * `count` floats, `stride` floats apart, lowest lane first: how the
 * row kernels gather the operand rows of every injection that
 * recomputes one cell.  Under a full 8-lane mask the columns go as 8x8
 * transposes (simd::transpose8x8), reading each cache line of the
 * plane once for all lanes; other masks copy lane by lane.  At width 1
 * the columns are the run already, so it is one row copy.
 */
inline void
gatherLanes(const float *cols, int width, std::uint32_t mask, int count,
            float *rows, std::size_t stride)
{
    if (width == 1) {
        if (mask)
            std::copy_n(cols, count, rows);
        return;
    }
    constexpr int B = kMaxBatchLanes;
    int c = 0;
    if (mask == (1u << B) - 1) {
        for (; c + B <= count; c += B)
            simd::transpose8x8(cols + static_cast<std::size_t>(c) * B, B,
                               rows + c, stride);
    }
    for (float *row = rows; mask; mask &= mask - 1, row += stride) {
        const int l = std::countr_zero(mask);
        for (int j = c; j < count; ++j)
            row[j] = cols[static_cast<std::size_t>(j) * B + l];
    }
}

/** gatherLanes' inverse: write the popcount(mask) runs of `count`
 *  floats at `rows` (`stride` apart) into the lanes set in `mask` of
 *  the `count` lane columns at `cols`; other lanes keep their
 *  values. */
inline void
scatterLanes(const float *rows, std::size_t stride, int count, float *cols,
             int width, std::uint32_t mask)
{
    if (width == 1) {
        if (mask)
            std::copy_n(rows, count, cols);
        return;
    }
    constexpr int B = kMaxBatchLanes;
    int c = 0;
    if (mask == (1u << B) - 1) {
        for (; c + B <= count; c += B)
            simd::transpose8x8(rows + c, stride,
                               cols + static_cast<std::size_t>(c) * B, B);
    }
    for (const float *row = rows; mask; mask &= mask - 1, row += stride) {
        const int l = std::countr_zero(mask);
        for (int j = c; j < count; ++j)
            cols[static_cast<std::size_t>(j) * B + l] = row[j];
    }
}

} // namespace fidelity

#endif // FIDELITY_NN_LANES_HH
