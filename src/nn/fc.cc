#include "nn/fc.hh"

#include <algorithm>
#include <bit>

#include "nn/lanes.hh"
#include "sim/arena.hh"
#include "sim/logging.hh"

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
    // Pack for the constructed precision; every later precision or
    // quantisation change repacks through onQuantChanged().
    FC::onQuantChanged();
}

void
FC::onQuantChanged()
{
    packOperand(weights_.data(), inC_, units_, false, wPack_);
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
                         LanePlane &out,
                         const GoldenPrep *) const
{
    checkInput(ins);
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    LanePlane &xp = *inPlanes[0];
    xp.ensure(x, Region{region.n0, region.n1, region.h0, region.h1,
                        region.w0, region.w1, 0, inC_});

    const float *bias = bias_.empty() ? nullptr : bias_.data();
    const int W = out.laneWidth();
    // One lane over whole output rows that form one run: the run is
    // [cells][inC] rows of the input plane and [cells][units] rows of
    // the output plane, so the row loop reads and writes them in
    // place (always so in forward()).
    std::size_t start = 0, count = 0;
    if (W == 1 && region.c0 == 0 && region.c1 == units_ &&
        singleCoveredRun(region, cover, golden, start, count)) {
        mulPacked(xp.lanes(start / units_ * inC_), count / units_, inC_,
                  units_, wPack_, bias, 1.0, out.lanes(start));
        return;
    }

    // Injections are just more positions: gather the input row of
    // every (position, lane) pair to recompute into one
    // [position][lane] matrix, run the packed row loop once (y = W^T x
    // + b per row), scatter the region's units back.
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
            gatherLanes(xp.lanes(x.offset(n, h, w, 0)), W, lanes, inC_, xw,
                        inC_);
            xw += std::popcount(lanes) * static_cast<std::size_t>(inC_);
        });
    mulPacked(xr.data(), rows, inC_, units_, wPack_, bias, 1.0,
              yr.data());
    const float *yw = yr.data();
    forEachCoveredLaneCell(
        region, cover, W, [&](int n, int h, int w, std::uint32_t lanes) {
            scatterLanes(yw + region.c0, units_, region.c1 - region.c0,
                         out.lanes(golden.offset(n, h, w, region.c0)), W,
                         lanes);
            yw += std::popcount(lanes) * static_cast<std::size_t>(units_);
        });
}

bool
FC::forwardWithSub(const std::vector<const Tensor *> &ins,
                   const OperandSub *sub, const Region *boxes,
                   std::size_t numBoxes, Tensor &out) const
{
    // The packed row loop over the boxes' positions.  An input
    // substitution changes one operand of its position's input row:
    // gather the rows, substitute, multiply by the layer's pack.  A
    // weight substitution changes one column: multiply the rows by a
    // one-column pack of the substituted column.  Both are
    // computeNeuron's arithmetic (mulPacked matches it, and a row or
    // column the substitution misses is the golden one).  Psum flips,
    // chains, padded-term substitutions and boxes outside the
    // substituted column stay on per-neuron computeNeuron().
    if (!sub || sub->next)
        return false;
    const bool weight = sub->kind == OperandSub::Kind::Weight;
    if (!weight &&
        (sub->kind != OperandSub::Kind::Input || sub->termIndex >= 0))
        return false;
    checkInput(ins);
    const Tensor &x = *ins[0];
    const int u = weight ? static_cast<int>(sub->flatIndex % units_) : 0;
    std::size_t rows = 0;
    for (std::size_t i = 0; i < numBoxes; ++i) {
        const Region &b = boxes[i];
        const bool otherColumn = weight && (b.c0 != u || b.c1 != u + 1);
        if (b.empty() || b.clipped(out) != b || otherColumn)
            return false;
        rows += static_cast<std::size_t>(b.n1 - b.n0) * (b.h1 - b.h0) *
                (b.w1 - b.w0);
    }
    if (rows == 0)
        return true;

    Arena &arena = Arena::local();
    auto xr = arena.floats(rows * inC_);
    float *xw = xr.data();
    for (std::size_t i = 0; i < numBoxes; ++i)
        forEachCoveredCell(boxes[i], nullptr, [&](int n, int h, int w) {
            const std::size_t off = x.offset(n, h, w, 0);
            std::copy_n(x.data().data() + off, inC_, xw);
            if (!weight && sub->flatIndex >= off &&
                sub->flatIndex < off + inC_)
                xw[sub->flatIndex - off] = sub->value;
            xw += inC_;
        });

    const float *bias = bias_.empty() ? nullptr : bias_.data();
    const int cols = weight ? 1 : units_;
    auto yr = arena.floats(rows * cols);
    if (weight) {
        auto col = arena.floats(inC_);
        for (int k = 0; k < inC_; ++k)
            col[k] = weights_[static_cast<std::size_t>(k) * units_ + u];
        if (sub->flatIndex < weights_.size())
            col[sub->flatIndex / units_] = sub->value;
        mulPacked(xr.data(), rows, inC_, 1,
                  packScratch(col.data(), inC_, 1, false),
                  bias ? bias + u : nullptr, 1.0, yr.data());
    } else {
        mulPacked(xr.data(), rows, inC_, units_, wPack_, bias, 1.0,
                  yr.data());
    }
    const float *yw = yr.data();
    for (std::size_t i = 0; i < numBoxes; ++i)
        forEachCoveredCell(boxes[i], nullptr, [&](int n, int h, int w) {
            const Region &b = boxes[i];
            for (int c = b.c0; c < b.c1; ++c)
                out.at(n, h, w, c) = yw[weight ? 0 : c];
            yw += cols;
        });
    return true;
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
