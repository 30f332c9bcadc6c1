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
        double coneVolume = 0.0;
        Region unionBox;
        for (int l = 0; l < BMAX; ++l) {
            if (!((touched >> l) & 1u))
                continue;
            Region cone;
            for (std::size_t k = 0; k < prods.size(); ++k) {
                if (!((dirtyMask_[prods[k]] >> l) & 1u))
                    continue;
                cone.merge(layer.propagateRegion(
                    ins_, static_cast<int>(k), laneRegions_[prods[k]][l],
                    golden));
                if (cone.covers(golden))
                    break;
            }
            if (cone.empty())
                continue; // this lane's change was clipped away
            cones[l] = cone;
            coneMask |= 1u << l;
            coneVolume += static_cast<double>(cone.volume());
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
        // The dense decision is the scalar engine's, applied to the
        // mean live cone: kernels that share work across lanes (conv)
        // pay for the covered cells and the row kernels only for each
        // lane's own cone, so below that mean the sparse walk computes
        // no more than the dense one.
        cover_.build(cones.data(), coneMask, BMAX, unionBox);
        const bool dense =
            coneVolume >= kDenseConeFraction *
                              static_cast<double>(golden.size()) *
                              std::popcount(coneMask);
        Region region = dense ? Region::full(golden) : unionBox;
        const BatchCover *cover = dense ? nullptr : &cover_;

        LanePlane &plane = planes_[id];
        plane.ensure(golden, region);
        layer.forwardRegionBatched(ins_, inPlanes_.data(), region, cover,
                                   golden, plane);
        ++totals_.layersBatchedKernel;
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
        const BatchCover::Span cfull{region.c0, region.c1};
        const BatchCover::Span *csp = &cfull;
        int ncs = 1;
        if (cover)
            csp = cover->chanSpans(ncs);
        forEachCoveredCell(region, cover, [&](int n, int h, int w) {
            for (int cs = 0; cs < ncs; ++cs) {
                // Only each lane's first and last differing channel of
                // the row matter for its box: scan forward for the
                // firsts, then backward until every lane seen has its
                // last.
                const int c0 = csp[cs].w0, c1 = csp[cs].w1;
                const std::size_t f0 = golden.offset(n, h, w, c0);
                auto ne = [&](int c) {
                    const std::size_t f = f0 + (c - c0);
                    return simd::laneNeMask(plane.lanes(f), gd[f], BMAX) &
                           coneMask;
                };
                int first[BMAX], last[BMAX];
                std::uint32_t seen = 0;
                for (int c = c0; c < c1; ++c) {
                    const std::uint32_t m = ne(c);
                    for (std::uint32_t f = m & ~seen; f; f &= f - 1)
                        first[std::countr_zero(f)] = c;
                    seen |= m;
                }
                std::uint32_t found = 0;
                for (int c = c1 - 1; found != seen; --c) {
                    const std::uint32_t m = ne(c) & ~found;
                    for (std::uint32_t f = m; f; f &= f - 1)
                        last[std::countr_zero(f)] = c;
                    found |= m;
                }
                for (; seen; seen &= seen - 1) {
                    const int l = std::countr_zero(seen);
                    diffs[l].include({n, h, w, first[l]});
                    diffs[l].include({n, h, w, last[l]});
                }
            }
        });
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
