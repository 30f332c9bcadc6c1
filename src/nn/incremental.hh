/**
 * @file
 * Incremental re-execution of a network under a localised fault.
 *
 * A Table-II fault corrupts at most RF neurons of one layer output
 * (usually 1-16), yet the dense injection path recomputes every
 * downstream layer in full.  The incremental engine instead walks the
 * downstream graph carrying, per node, a bounding box of elements that
 * may differ from the cached golden activation (the fault cone):
 *
 *  - Every layer recomputes only its cone via Layer::forwardRegion;
 *    the rest of the output is the golden value.  Spatially local
 *    layers (conv / pool / activation / elementwise / concat / slice)
 *    have receptive-field cones, position-wise ones (FC / softmax /
 *    matmul, hence attention and LSTM) row cones: a faulty token row
 *    re-executes that row, and only a matmul's B operand spreads a
 *    change over every row.
 *  - A layer whose cone covers kDenseConeFraction of its output or
 *    more recomputes densely.
 *  - After each recompute the engine compares the cone against the
 *    golden activation bit-for-bit and shrinks it to the box that
 *    actually changed.  When the delta dies (ReLU clipping, pooling,
 *    quantisation), downstream layers are skipped entirely and the
 *    injection is classified against the cached golden output — the
 *    early masking exit.
 *
 * The result is bit-identical to Network::forwardFrom: every element
 * inside a cone is produced by the same canonical accumulation order
 * the dense kernels use, and every element outside a cone provably
 * cannot differ from its golden value.  All per-node scratch
 * activations live in the engine and are reused across injections, so
 * one engine per campaign worker makes the hot loop allocation-free at
 * steady state.
 */

#ifndef FIDELITY_NN_INCREMENTAL_HH
#define FIDELITY_NN_INCREMENTAL_HH

#include <cstdint>
#include <vector>

#include "nn/network.hh"
#include "nn/region.hh"

namespace fidelity
{

/** Cone-volume fraction of a layer output at which the sparse engines
 *  (this one and nn/batched) recompute the layer densely: region
 *  bookkeeping stops paying. */
inline constexpr double kDenseConeFraction = 0.5;

/** Per-run observability counters. */
struct IncrementalStats
{
    /** The delta converged to zero before reaching the output. */
    bool earlyMasked = false;

    int layersIncremental = 0; //!< recomputed via forwardRegion
    int layersDense = 0;       //!< recomputed via dense forward
    int layersSkipped = 0;     //!< downstream layers never touched
    std::size_t elementsRecomputed = 0;
};

/**
 * Lifetime totals over every run() of one engine.  A campaign keeps
 * one engine per worker; harvesting these after the fan-out gives the
 * run manifest its incremental-vs-dense engine-decision record without
 * any hot-path synchronisation.
 */
struct IncrementalTotals
{
    std::uint64_t runs = 0;
    std::uint64_t earlyMasked = 0;       //!< runs that exited early
    std::uint64_t layersIncremental = 0; //!< forwardRegion recomputes
    std::uint64_t layersDense = 0;       //!< dense-fallback recomputes
    std::uint64_t layersSkipped = 0;     //!< layers never touched
    std::uint64_t elementsRecomputed = 0;

    void
    mergeFrom(const IncrementalTotals &o)
    {
        runs += o.runs;
        earlyMasked += o.earlyMasked;
        layersIncremental += o.layersIncremental;
        layersDense += o.layersDense;
        layersSkipped += o.layersSkipped;
        elementsRecomputed += o.elementsRecomputed;
    }
};

/**
 * The incremental re-execution engine.  One instance per worker
 * thread; run() may be called with different networks (scratch is
 * resized on demand).  Not thread-safe.
 */
class IncrementalEngine
{
  public:
    /**
     * Reusable buffer for building the corrupted layer output; callers
     * typically copy the golden activation in (reusing capacity) and
     * overwrite the faulty neurons.
     */
    Tensor &replacementBuffer() { return replacement_; }

    /**
     * Re-run everything downstream of `node` under `replacement`,
     * which differs from cached[node] only inside `faultRegion`.
     *
     * @param net The network (same topology contract as forwardFrom).
     * @param node The injected node.
     * @param replacement The corrupted activation of `node`.
     * @param faultRegion Conservative box of the corrupted elements.
     * @param cached Golden activations from Network::forwardAll.
     * @return The network output under the replacement — bit-identical
     *         to Network::forwardFrom.  The reference is either into
     *         `cached` or into engine-owned scratch; it stays valid
     *         until the next run() on this engine.
     */
    const Tensor &run(const Network &net, NodeId node,
                      const Tensor &replacement,
                      const Region &faultRegion,
                      const std::vector<Tensor> &cached);

    /** Counters of the most recent run(). */
    const IncrementalStats &lastStats() const { return stats_; }

    /** Totals accumulated over every run() since construction (or the
     *  last resetTotals()). */
    const IncrementalTotals &totals() const { return totals_; }

    void resetTotals() { totals_ = IncrementalTotals{}; }

  private:
    const Tensor &runImpl(const Network &net, NodeId node,
                          const Tensor &replacement,
                          const Region &faultRegion,
                          const std::vector<Tensor> &cached);

    IncrementalStats stats_;
    IncrementalTotals totals_;
    Tensor replacement_;

    // Per-node state, reused across runs (capacity is retained).
    std::vector<Tensor> scratch_;
    std::vector<Region> regions_;
    std::vector<const Tensor *> cur_;
    std::vector<unsigned char> dirty_;
    std::vector<unsigned char> denseDirty_;
    std::vector<const Tensor *> ins_;
};

} // namespace fidelity

#endif // FIDELITY_NN_INCREMENTAL_HH
