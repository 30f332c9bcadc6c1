/**
 * @file
 * Fault-batched re-execution: SIMD lanes over injections, not pixels.
 *
 * A resilience campaign evaluates thousands of perturbations of the
 * same (layer, flip-flop category) cell, and each perturbation differs
 * from the golden run only inside a small fault cone.  The incremental
 * engine (nn/incremental) exploits the cone; the batched engine
 * additionally exploits the *sameness*: it carries B injections of the
 * same cell through the downstream graph in one walk, storing per-node
 * activations as structure-of-arrays lane columns (nn/lanes) so the
 * cone geometry — window math, operand gathers, packed-weight streams,
 * padding — is computed once and shared across the batch, and the SIMD
 * lanes of the MAC kernels hold *injections* instead of output pixels.
 *
 * Per-lane dirty masks track which injections still carry a live delta
 * at each node; lanes whose delta dies (ReLU clipping, pooling,
 * quantisation) are retired from the diff bookkeeping without blocking
 * the batch.  Every lane's output is bit-identical to what the scalar
 * IncrementalEngine (and hence Network::forwardFrom) produces for that
 * injection alone, so campaign checksums are invariant under the batch
 * width.
 */

#ifndef FIDELITY_NN_BATCHED_HH
#define FIDELITY_NN_BATCHED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/incremental.hh"
#include "nn/lanes.hh"
#include "nn/network.hh"

namespace fidelity
{

/** Lifetime counters of one batched engine (per campaign worker). */
struct BatchedTotals
{
    std::uint64_t batches = 0;     //!< execute() calls
    std::uint64_t lanesSeeded = 0; //!< injections carried, all batches

    /** Lanes whose delta died before the output node. */
    std::uint64_t lanesRetiredEarly = 0;

    /** Layer visits served by a batched SoA kernel (every visit). */
    std::uint64_t layersBatchedKernel = 0;

    /** Downstream layers never touched (every lane's delta was dead). */
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
        layersSkipped += o.layersSkipped;
        laneElements += o.laneElements;
    }
};

/**
 * The batched re-execution engine.  One instance per worker thread;
 * not thread-safe.  Usage, per batch of up to maxLanes() injections of
 * the same node:
 *
 *   eng.begin(net, node, cached);
 *   for each injection i:  eng.seedLane(i, neurons, values, count);
 *   eng.execute();
 *   for each injection i:  classify(eng.laneOutput(i));
 *
 * The lane width is a compile-time template parameter of the concrete
 * engine (4 or 8); makeBatchedEngine picks the narrowest instantiation
 * whose width covers the requested runtime cap.
 */
class BatchedEngine
{
  public:
    virtual ~BatchedEngine() = default;

    /** Lanes per batch (the template width of this instantiation). */
    virtual int maxLanes() const = 0;

    /**
     * Start a batch at `node`, against the golden activations `cached`
     * (both must stay alive until the last laneOutput() call).
     */
    virtual void begin(const Network &net, NodeId node,
                       const std::vector<Tensor> &cached) = 0;

    /**
     * Load one injection into lane `lane`: the corrupted activation of
     * `node` equals the golden one except at `neurons[k]`, which read
     * `values[k]`.  Equivalent to the replacement tensor + fault-region
     * pair of IncrementalEngine::run.
     */
    virtual void seedLane(int lane, const NeuronIndex *neurons,
                          const float *values, std::size_t count) = 0;

    /** Run every seeded lane through the downstream graph. */
    virtual void execute() = 0;

    /**
     * Whether lane's delta died before the output node (the batched
     * analogue of IncrementalStats::earlyMasked).  Valid after
     * execute().
     */
    virtual bool laneEarlyMasked(int lane) const = 0;

    /**
     * The network output under lane's injection — bit-identical to the
     * scalar engine's result for the same injection.  The reference is
     * into `cached` or into an engine buffer that the next laneOutput()
     * or begin() call reuses; classify before asking for another lane.
     */
    virtual const Tensor &laneOutput(int lane) = 0;

    virtual const BatchedTotals &totals() const = 0;
    virtual void resetTotals() = 0;
};

/**
 * Build a batched engine whose lane count covers `width` (clamped to
 * [1, kMaxBatchLanes]): widths up to 4 get the 4-lane instantiation,
 * wider ones the 8-lane.
 */
std::unique_ptr<BatchedEngine> makeBatchedEngine(int width);

} // namespace fidelity

#endif // FIDELITY_NN_BATCHED_HH
