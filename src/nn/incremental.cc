#include "nn/incremental.hh"

#include <bit>
#include <cstdint>

#include "sim/logging.hh"
#include "simd/simd.hh"

namespace fidelity
{

namespace
{

/**
 * Tight bounding box of the elements of `a` that differ from `b`
 * bit-for-bit, scanned only inside `within`.  Bitwise comparison keeps
 * the shrink conservative under the oddballs numeric equality would
 * hide: a -0.0/+0.0 swap or a NaN payload change stays "different" and
 * keeps propagating, so skipped work can never diverge from the dense
 * path.
 */
Region
changedBox(const Tensor &a, const Tensor &b, const Region &within)
{
    Region diff;
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    const std::size_t len = within.c1 - within.c0;
    for (int n = within.n0; n < within.n1; ++n) {
        for (int h = within.h0; h < within.h1; ++h) {
            for (int w = within.w0; w < within.w1; ++w) {
                // Only the first and last differing channel of a row
                // matter for the box; block-compare scans find both
                // without visiting every element.
                std::size_t base = a.offset(n, h, w, within.c0);
                std::size_t first =
                    simd::firstBitDiff(ad + base, bd + base, len);
                if (first == len)
                    continue;
                std::size_t last =
                    simd::lastBitDiff(ad + base, bd + base, len);
                diff.include(
                    {n, h, w, within.c0 + static_cast<int>(first)});
                diff.include(
                    {n, h, w, within.c0 + static_cast<int>(last)});
            }
        }
    }
    return diff;
}

} // namespace

const Tensor &
IncrementalEngine::run(const Network &net, NodeId node,
                       const Tensor &replacement,
                       const Region &faultRegion,
                       const std::vector<Tensor> &cached)
{
    const Tensor &out = runImpl(net, node, replacement, faultRegion,
                                cached);
    totals_.runs += 1;
    totals_.earlyMasked += stats_.earlyMasked ? 1 : 0;
    totals_.layersIncremental +=
        static_cast<std::uint64_t>(stats_.layersIncremental);
    totals_.layersDense += static_cast<std::uint64_t>(stats_.layersDense);
    totals_.layersSkipped +=
        static_cast<std::uint64_t>(stats_.layersSkipped);
    totals_.elementsRecomputed += stats_.elementsRecomputed;
    return out;
}

const Tensor &
IncrementalEngine::runImpl(const Network &net, NodeId node,
                           const Tensor &replacement,
                           const Region &faultRegion,
                           const std::vector<Tensor> &cached)
{
    const int num = net.numNodes();
    panic_if(node <= 0 || node >= num, "bad node id ", node);
    panic_if(cached.size() != static_cast<std::size_t>(num),
             "cached activation count mismatch");

    stats_ = IncrementalStats{};
    NodeId out = net.outputNode();
    if (node == out)
        return replacement;

    scratch_.resize(num);
    regions_.assign(num, Region{});
    cur_.resize(num);
    dirty_.assign(num, 0);
    denseDirty_.assign(num, 0);
    for (int i = 0; i < num; ++i)
        cur_[i] = &cached[i];

    Region seed = faultRegion.clipped(cached[node]);
    if (seed.empty()) {
        // Nothing actually changed; every downstream recompute would
        // reproduce the golden activations bit-for-bit.
        stats_.earlyMasked = true;
        return cached[out];
    }
    dirty_[node] = 1;
    denseDirty_[node] = 1;
    regions_[node] = seed;
    cur_[node] = &replacement;

    for (NodeId id = node + 1; id < num; ++id) {
        const std::vector<NodeId> &prods = net.producers(id);
        bool touched = false;
        bool reachable = false;
        for (NodeId in : prods) {
            touched = touched || dirty_[in];
            reachable = reachable || denseDirty_[in];
        }
        denseDirty_[id] = reachable ? 1 : 0;
        if (!touched) {
            // The dense path would have recomputed this node; the
            // delta died before reaching it.
            if (reachable)
                ++stats_.layersSkipped;
            continue;
        }

        const Layer &layer = net.layer(id);
        const Tensor &golden = cached[id];
        ins_.clear();
        for (NodeId in : prods)
            ins_.push_back(cur_[in]);

        // Union of the per-input fault cones.
        Region cone;
        bool full = false;
        for (std::size_t k = 0; k < prods.size(); ++k) {
            if (!dirty_[prods[k]])
                continue;
            cone.merge(layer.propagateRegion(
                ins_, static_cast<int>(k), regions_[prods[k]], golden));
            if (cone.covers(golden)) {
                full = true;
                break;
            }
        }
        if (cone.empty())
            continue; // the change was clipped away (e.g. Slice)

        bool dense = full || static_cast<double>(cone.volume()) >=
                                 kDenseConeFraction *
                                     static_cast<double>(golden.size());
        Tensor &slot = scratch_[id];
        if (dense) {
            slot = layer.forward(ins_);
            cone = Region::full(golden);
            ++stats_.layersDense;
        } else {
            slot = golden; // capacity-reusing copy; then patch the cone
            layer.forwardRegion(ins_, cone, slot);
            ++stats_.layersIncremental;
        }
        stats_.elementsRecomputed += cone.volume();

        cone = changedBox(slot, golden, cone);
        if (cone.empty())
            continue; // fault fully absorbed at this node
        dirty_[id] = 1;
        regions_[id] = cone;
        cur_[id] = &slot;
    }

    if (!dirty_[out]) {
        stats_.earlyMasked = true;
        return cached[out];
    }
    return scratch_[out];
}

} // namespace fidelity
