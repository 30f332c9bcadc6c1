#include "nn/fc.hh"

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
    // Immutable weights pack once, here; the quantised modes repack
    // lazily after onQuantChanged().
    packed();
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

const PackedOperand &
FC::packed() const
{
    if (!wPackValid_) {
        wPack_ = packOperand(weights_.data(), inC_, units_, false);
        wPackValid_ = true;
    }
    return wPack_;
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

    // Injections are just more positions: gather the input row of
    // every (position, lane) pair to recompute into one
    // [position][lane] matrix, run the packed row loop once (y = W^T x
    // + b per row), scatter the region's units back.
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
            gatherLanes(xp.lanes(x.offset(n, h, w, 0)), W, lanes, inC_, xw,
                        inC_);
            xw += std::popcount(lanes) * static_cast<std::size_t>(inC_);
        });
    mulPacked(xr.data(), rows, inC_, units_, packed(),
              bias_.empty() ? nullptr : bias_.data(), 1.0, yr.data());
    const float *yw = yr.data();
    forEachCoveredLaneCell(
        region, cover, W, [&](int n, int h, int w, std::uint32_t lanes) {
            scatterLanes(yw + region.c0, units_, region.c1 - region.c0,
                         out.lanes(golden.offset(n, h, w, region.c0)), W,
                         lanes);
            yw += std::popcount(lanes) * static_cast<std::size_t>(units_);
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
