/**
 * @file
 * Sparse re-execution of a network under localised faults: the one
 * engine behind every incremental injection.
 *
 * A Table-II fault corrupts at most RF neurons of one layer output
 * (usually 1-16), yet the dense injection path recomputes every
 * downstream layer in full.  This engine instead walks the downstream
 * graph carrying, per node and per injection, a bounding box of the
 * elements that may differ from the cached golden activation (the
 * fault cone):
 *
 *  - Every layer recomputes only its cone via its region kernel
 *    (Layer::forwardRegionBatched); the rest of the output keeps the
 *    golden value.  Spatially local layers (conv / pool / activation /
 *    elementwise / concat / slice) have receptive-field cones,
 *    position-wise ones (FC / softmax / matmul, hence attention and
 *    LSTM) row cones: a faulty token row re-executes that row, and
 *    only a matmul's B operand spreads a change over every row.
 *  - A layer whose mean live cone covers kDenseConeFraction of its
 *    output or more recomputes the whole output.
 *  - After each recompute the engine compares the cone against the
 *    golden activation bit-for-bit and shrinks each injection's box to
 *    what actually changed.  When an injection's delta dies (ReLU
 *    clipping, pooling, quantisation) it is retired; when every delta
 *    has died, downstream layers are skipped entirely and the outputs
 *    are the cached golden one — the early masking exit.
 *
 * One walk carries up to W injections of the same (layer, flip-flop
 * category) cell, W = 1 or kMaxBatchLanes (8).  Per-node activations are
 * structure-of-arrays lane columns (nn/lanes), so at W > 1 the cone
 * geometry — window math, operand gathers, packed-weight streams,
 * padding — is computed once and shared across the batch, and the SIMD
 * lanes of the MAC kernels hold *injections* instead of output pixels.
 * At W = 1 a lane column is one element and a plane is the tensor's own
 * NHWC layout, so the engine runs the same kernels on contiguous rows.
 *
 * Every lane's output is bit-identical to Network::forwardFrom for that
 * injection alone: every element inside a cone is the layer's
 * per-element definition, which its region kernel produces at any
 * region and lane width (forwardFrom runs the same kernel over the
 * whole output at width 1), and every element outside a cone provably
 * cannot differ from its golden value.  So
 * campaign checksums are invariant under the batch width.  Per-node
 * scratch lives in the engine and is reused across batches, so one
 * engine per campaign worker keeps the hot loop allocation-free at
 * steady state.
 */

#ifndef FIDELITY_NN_BATCHED_HH
#define FIDELITY_NN_BATCHED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/lanes.hh"
#include "nn/network.hh"

namespace fidelity
{

/** Mean live cone volume, as a fraction of a layer's output, at which
 *  the engine recomputes the layer densely: region bookkeeping stops
 *  paying. */
inline constexpr double kDenseConeFraction = 0.5;

/** Lifetime counters of one engine (per campaign worker). */
struct BatchedTotals
{
    std::uint64_t batches = 0;     //!< execute() calls
    std::uint64_t lanesSeeded = 0; //!< injections carried, all batches

    /** Lanes whose delta died before the output node. */
    std::uint64_t lanesRetiredEarly = 0;

    /** Layer visits, each served by one region-kernel call. */
    std::uint64_t layersBatchedKernel = 0;

    /** The visits among them that recomputed the whole output. */
    std::uint64_t layersDense = 0;

    /** Layers downstream of a changed neuron never touched (every
     *  lane's delta was dead).  A batch with no changed neuron in any
     *  lane counts none, at every width. */
    std::uint64_t layersSkipped = 0;

    /** Output elements recomputed, summed over live lanes. */
    std::uint64_t laneElements = 0;

    void
    mergeFrom(const BatchedTotals &o)
    {
        batches += o.batches;
        lanesSeeded += o.lanesSeeded;
        lanesRetiredEarly += o.lanesRetiredEarly;
        layersBatchedKernel += o.layersBatchedKernel;
        layersDense += o.layersDense;
        layersSkipped += o.layersSkipped;
        laneElements += o.laneElements;
    }
};

/**
 * The sparse re-execution engine.  One instance per worker thread;
 * not thread-safe.  Usage, per batch of up to maxLanes() injections of
 * the same node:
 *
 *   eng.begin(net, node, cached, preps);
 *   for each injection i:  eng.seedLane(i, neurons, values, count);
 *   eng.execute();
 *   for each injection i:  classify(eng.laneOutput(i));
 *
 * The lane width is a compile-time template parameter of the concrete
 * engine, 1 or kMaxBatchLanes; makeBatchedEngine picks it from the
 * requested runtime width.
 */
class BatchedEngine
{
  public:
    virtual ~BatchedEngine() = default;

    /** Lanes per batch (the template width of this instantiation). */
    virtual int maxLanes() const = 0;

    /**
     * Start a batch at `node`, against the golden activations `cached`
     * of Network::forwardAll and, when non-null, their golden preps
     * (Network::prepareGolden of `cached`).  All must stay alive until
     * the last laneOutput() call.
     */
    virtual void begin(const Network &net, NodeId node,
                       const std::vector<Tensor> &cached,
                       const GoldenPreps *preps) = 0;

    /**
     * Load one injection into lane `lane`: the corrupted activation of
     * `node` equals the golden one except at `neurons[k]`, which read
     * `values[k]`.  Callers may pass only the neurons whose bits
     * changed; with none, the lane is early-masked by construction.
     */
    virtual void seedLane(int lane, const NeuronIndex *neurons,
                          const float *values, std::size_t count) = 0;

    /** Run every seeded lane through the downstream graph. */
    virtual void execute() = 0;

    /**
     * Whether lane's delta died before the output node (never when the
     * injected node is the output).  Valid after execute().
     */
    virtual bool laneEarlyMasked(int lane) const = 0;

    /**
     * The network output under lane's injection — bit-identical to
     * Network::forwardFrom for the same injection.  The reference is
     * into `cached` or into an engine buffer that the next laneOutput()
     * or begin() call reuses; classify before asking for another lane.
     */
    virtual const Tensor &laneOutput(int lane) = 0;

    virtual const BatchedTotals &totals() const = 0;
};

/**
 * Build the engine for `width`, which must lie in [1, kMaxBatchLanes]:
 * width 1 gets the one-lane instantiation, every wider one the
 * kMaxBatchLanes-lane one.
 */
std::unique_ptr<BatchedEngine> makeBatchedEngine(int width);

} // namespace fidelity

#endif // FIDELITY_NN_BATCHED_HH
