#include "nn/batched.hh"

#include <array>
#include <bit>
#include <cstddef>

#include "sim/logging.hh"
#include "simd/simd.hh"

namespace fidelity
{

namespace
{

/**
 * The concrete engine.  BMAX is the structural lane count: every
 * LanePlane column holds BMAX floats and every kernel computes all BMAX
 * lanes, so unseeded / retired lanes simply recompute golden values —
 * they are excluded from the diff bookkeeping by the lane masks, never
 * by per-lane branches inside the kernels.
 */
template <int BMAX>
class BatchedEngineT final : public BatchedEngine
{
  public:
    int maxLanes() const override { return BMAX; }

    void begin(const Network &net, NodeId node,
               const std::vector<Tensor> &cached) override;
    void seedLane(int lane, const NeuronIndex *neurons,
                  const float *values, std::size_t count) override;
    void execute() override;
    bool laneEarlyMasked(int lane) const override;
    const Tensor &laneOutput(int lane) override;

    const BatchedTotals &totals() const override { return totals_; }
    void resetTotals() override { totals_ = BatchedTotals{}; }

  private:
    void fallbackLanes(const Layer &layer, const Tensor &golden,
                       const std::vector<NodeId> &prods, NodeId id,
                       std::uint32_t coneMask, bool dense,
                       const Region &region,
                       const std::array<Region, BMAX> &cones);

    BatchedTotals totals_;

    const Network *net_ = nullptr;
    const std::vector<Tensor> *cached_ = nullptr;
    NodeId node_ = -1;
    std::uint32_t seeded_ = 0;
    std::uint32_t outMask_ = 0;

    // Per-node state, reused across batches (capacity is retained).
    std::vector<LanePlane> planes_;
    std::vector<std::array<Region, BMAX>> laneRegions_;
    std::vector<std::uint32_t> dirtyMask_;
    std::vector<unsigned char> denseDirty_;
    std::vector<const Tensor *> ins_;
    std::vector<LanePlane *> inPlanes_;
    BatchCover cover_;

    // Per-lane fallback scratch (materialised inputs / output).
    std::vector<Tensor> fbIn_;
    Tensor fbOut_;
    std::vector<const Tensor *> insLane_;

    Tensor outBuf_;
};

template <int BMAX>
void
BatchedEngineT<BMAX>::begin(const Network &net, NodeId node,
                            const std::vector<Tensor> &cached)
{
    const int num = net.numNodes();
    panic_if(node <= 0 || node >= num, "bad node id ", node);
    panic_if(cached.size() != static_cast<std::size_t>(num),
             "cached activation count mismatch");

    net_ = &net;
    cached_ = &cached;
    node_ = node;
    seeded_ = 0;
    outMask_ = 0;

    planes_.resize(num);
    laneRegions_.resize(num);
    dirtyMask_.assign(num, 0);
    denseDirty_.assign(num, 0);
    for (int i = 0; i < num; ++i)
        planes_[i].reset(BMAX);
    // Node 0 holds the raw network input, which never passed through a
    // precision writeback — consumers must convert it.
    planes_[0].markRaw();
    denseDirty_[node] = 1;
}

template <int BMAX>
void
BatchedEngineT<BMAX>::seedLane(int lane, const NeuronIndex *neurons,
                               const float *values, std::size_t count)
{
    panic_if(lane < 0 || lane >= BMAX, "bad lane ", lane);
    panic_if(net_ == nullptr, "seedLane before begin");
    seeded_ |= 1u << lane;

    const Tensor &golden = (*cached_)[node_];
    Region seed;
    for (std::size_t i = 0; i < count; ++i)
        seed.include(neurons[i]);
    if (seed.empty())
        return; // nothing changed; the lane is early-masked by design

    LanePlane &plane = planes_[node_];
    plane.ensure(golden, seed);
    plane.markRaw(); // fault values are arbitrary FP32 bit patterns
    for (std::size_t i = 0; i < count; ++i) {
        const NeuronIndex &ni = neurons[i];
        plane.lanes(golden.offset(ni.n, ni.h, ni.w, ni.c))[lane] =
            values[i];
    }

    dirtyMask_[node_] |= 1u << lane;
    laneRegions_[node_][lane] = seed;
}

template <int BMAX>
void
BatchedEngineT<BMAX>::execute()
{
    panic_if(net_ == nullptr, "execute before begin");
    totals_.batches += 1;
    totals_.lanesSeeded += std::popcount(seeded_);

    const Network &net = *net_;
    const std::vector<Tensor> &cached = *cached_;
    const NodeId out = net.outputNode();
    const int num = net.numNodes();

    if (node_ == out) {
        // The injected node is the output: like the scalar engine,
        // the seeded activation *is* the result — no early masking.
        outMask_ = seeded_;
        return;
    }

    for (NodeId id = node_ + 1; id < num; ++id) {
        const std::vector<NodeId> &prods = net.producers(id);
        std::uint32_t touched = 0;
        bool reachable = false;
        for (NodeId in : prods) {
            touched |= dirtyMask_[in];
            reachable = reachable || denseDirty_[in];
        }
        denseDirty_[id] = reachable ? 1 : 0;
        if (!touched) {
            if (reachable)
                ++totals_.layersSkipped;
            continue;
        }

        const Layer &layer = net.layer(id);
        const Tensor &golden = cached[id];
        ins_.clear();
        inPlanes_.clear();
        for (NodeId in : prods) {
            ins_.push_back(&cached[in]);
            inPlanes_.push_back(&planes_[in]);
        }

        // Per-lane fault cones, plus their union (the recompute box
        // shared by the whole batch).
        std::array<Region, BMAX> cones{};
        std::uint32_t coneMask = 0;
        bool anyFull = false;
        Region unionBox;
        for (int l = 0; l < BMAX; ++l) {
            if (!((touched >> l) & 1u))
                continue;
            Region cone;
            bool full = false;
            for (std::size_t k = 0; k < prods.size(); ++k) {
                if (!((dirtyMask_[prods[k]] >> l) & 1u))
                    continue;
                cone.merge(layer.propagateRegion(
                    ins_, static_cast<int>(k), laneRegions_[prods[k]][l],
                    golden));
                if (cone.covers(golden)) {
                    full = true;
                    break;
                }
            }
            if (cone.empty())
                continue; // this lane's change was clipped away
            cones[l] = cone;
            coneMask |= 1u << l;
            anyFull = anyFull || full;
            unionBox.merge(cone);
        }
        if (!coneMask) {
            dirtyMask_[id] = 0;
            continue;
        }

        // Union-of-cones coverage: per (n, h) row of the union bbox,
        // the merged w-intervals covered by at least one live cone.
        // Cells inside the bbox but outside every cone provably
        // recompute golden bits, so kernels and the diff scan skip
        // them (the plane's golden fill already holds their value).
        // The dense decision compares the *covered* volume — not the
        // bbox volume — against the threshold: scattered small cones
        // span a huge bbox but cost only their own cells to recompute.
        bool dense = anyFull;
        if (!dense) {
            cover_.build(cones.data(), coneMask, BMAX, unionBox);
            const double coveredVol =
                static_cast<double>(cover_.coveredCells()) *
                cover_.coveredChans();
            dense = coveredVol >= kDenseConeFraction *
                                      static_cast<double>(golden.size());
        }
        Region region = dense ? Region::full(golden) : unionBox;
        if (dense)
            for (int l = 0; l < BMAX; ++l)
                if ((coneMask >> l) & 1u)
                    cones[l] = region;
        const BatchCover *cover = dense ? nullptr : &cover_;

        LanePlane &plane = planes_[id];
        plane.ensure(golden, region);
        if (layer.forwardRegionBatched(ins_, inPlanes_.data(), region,
                                       cover, golden, plane)) {
            ++totals_.layersBatchedKernel;
        } else {
            fallbackLanes(layer, golden, prods, id, coneMask, dense,
                          region, cones);
            ++totals_.layersLaneFallback;
        }
        const std::uint64_t cells =
            cover ? cover_.coveredCells() *
                        static_cast<std::uint64_t>(cover_.coveredChans())
                  : region.volume();
        totals_.laneElements += cells *
                                static_cast<std::uint64_t>(
                                    std::popcount(coneMask));

        // Shrink every live lane to the box that actually changed.
        // Scanning the shared union region is equivalent to the
        // scalar per-cone scan: outside its own cone a lane
        // provably recomputes golden bits, so it cannot light the
        // mask there.
        std::array<Region, BMAX> diffs{};
        const float *gd = golden.data().data();
        const BatchCover::Span full{region.w0, region.w1};
        const BatchCover::Span cfull{region.c0, region.c1};
        const BatchCover::Span *csp = &cfull;
        int ncs = 1;
        if (cover)
            csp = cover->chanSpans(ncs);
        for (int n = region.n0; n < region.n1; ++n) {
            for (int h = region.h0; h < region.h1; ++h) {
                const BatchCover::Span *sp = &full;
                int nsp = 1;
                if (cover)
                    sp = cover->row(n, h, nsp);
                for (int si = 0; si < nsp; ++si) {
                for (int w = sp[si].w0; w < sp[si].w1; ++w) {
                    for (int cs = 0; cs < ncs; ++cs) {
                    std::size_t flat =
                        golden.offset(n, h, w, csp[cs].w0);
                    for (int c = csp[cs].w0; c < csp[cs].w1;
                         ++c, ++flat) {
                        std::uint32_t m =
                            simd::laneNeMask(plane.lanes(flat),
                                             gd[flat], BMAX) &
                            coneMask;
                        if (!m)
                            continue;
                        while (m) {
                            int l = std::countr_zero(m);
                            m &= m - 1;
                            diffs[l].include({n, h, w, c});
                        }
                    }
                    }
                }
                }
            }
        }
        std::uint32_t live = 0;
        for (int l = 0; l < BMAX; ++l) {
            if (!((coneMask >> l) & 1u) || diffs[l].empty())
                continue;
            live |= 1u << l;
            laneRegions_[id][l] = diffs[l];
        }
        dirtyMask_[id] = live;
    }

    outMask_ = dirtyMask_[out];
    totals_.lanesRetiredEarly += std::popcount(seeded_ & ~outMask_);
}

/**
 * Per-lane fallback for layers without a region kernel (FC / matmul /
 * softmax — small, post-pooling tensors): materialise each live lane's
 * inputs as plain tensors, run the layer's dense forward() (directly,
 * or through forwardRegion, which has no kernel to call), and scatter
 * the result back into the output plane's lane column.
 */
template <int BMAX>
void
BatchedEngineT<BMAX>::fallbackLanes(const Layer &layer,
                                    const Tensor &golden,
                                    const std::vector<NodeId> &prods,
                                    NodeId id, std::uint32_t coneMask,
                                    bool dense, const Region &region,
                                    const std::array<Region, BMAX> &cones)
{
    const std::vector<Tensor> &cached = *cached_;
    if (fbIn_.size() < prods.size())
        fbIn_.resize(prods.size());

    for (int l = 0; l < BMAX; ++l) {
        if (!((coneMask >> l) & 1u))
            continue;
        insLane_.clear();
        for (std::size_t k = 0; k < prods.size(); ++k) {
            NodeId in = prods[k];
            if (!((dirtyMask_[in] >> l) & 1u)) {
                insLane_.push_back(&cached[in]);
                continue;
            }
            Tensor &buf = fbIn_[k];
            buf = cached[in]; // capacity-reusing copy
            const LanePlane &pp = planes_[in];
            const Region &r = laneRegions_[in][l];
            for (int n = r.n0; n < r.n1; ++n) {
                for (int h = r.h0; h < r.h1; ++h) {
                    for (int w = r.w0; w < r.w1; ++w) {
                        std::size_t flat = buf.offset(n, h, w, r.c0);
                        float *bd = buf.data().data();
                        for (int c = r.c0; c < r.c1; ++c, ++flat)
                            bd[flat] = pp.lanes(flat)[l];
                    }
                }
            }
            insLane_.push_back(&buf);
        }

        const Region &sc = dense ? region : cones[l];
        if (dense) {
            fbOut_ = layer.forward(insLane_);
        } else {
            fbOut_ = golden; // capacity-reusing copy; patch the cone
            layer.forwardRegion(insLane_, sc, fbOut_);
        }

        LanePlane &plane = planes_[id];
        const float *od = fbOut_.data().data();
        for (int n = sc.n0; n < sc.n1; ++n) {
            for (int h = sc.h0; h < sc.h1; ++h) {
                for (int w = sc.w0; w < sc.w1; ++w) {
                    std::size_t flat = golden.offset(n, h, w, sc.c0);
                    for (int c = sc.c0; c < sc.c1; ++c, ++flat)
                        plane.lanes(flat)[l] = od[flat];
                }
            }
        }
    }
}

template <int BMAX>
bool
BatchedEngineT<BMAX>::laneEarlyMasked(int lane) const
{
    panic_if(lane < 0 || lane >= BMAX, "bad lane ", lane);
    if (node_ == net_->outputNode())
        return false;
    return ((outMask_ >> lane) & 1u) == 0;
}

template <int BMAX>
const Tensor &
BatchedEngineT<BMAX>::laneOutput(int lane)
{
    panic_if(lane < 0 || lane >= BMAX, "bad lane ", lane);
    const NodeId out = net_->outputNode();
    const Tensor &golden = (*cached_)[out];
    if (((outMask_ >> lane) & 1u) == 0)
        return golden;

    // Overlay the lane column onto a golden copy.  Inside the valid
    // box but outside the lane's own diff the column holds golden bits
    // anyway, so overlaying the whole box is safe.
    outBuf_ = golden;
    const LanePlane &plane = planes_[out];
    const Region &v = plane.valid();
    float *od = outBuf_.data().data();
    for (int n = v.n0; n < v.n1; ++n) {
        for (int h = v.h0; h < v.h1; ++h) {
            for (int w = v.w0; w < v.w1; ++w) {
                std::size_t flat = golden.offset(n, h, w, v.c0);
                for (int c = v.c0; c < v.c1; ++c, ++flat)
                    od[flat] = plane.lanes(flat)[lane];
            }
        }
    }
    return outBuf_;
}

} // namespace

std::unique_ptr<BatchedEngine>
makeBatchedEngine(int width)
{
    panic_if(width < 1 || width > kMaxBatchLanes,
             "batched engine width must be in [1, ", kMaxBatchLanes,
             "], got ", width);
    if (width <= 4)
        return std::make_unique<BatchedEngineT<4>>();
    return std::make_unique<BatchedEngineT<8>>();
}

} // namespace fidelity
