/**
 * @file
 * Software fault injection on a Network (step 2 of FIdelity's flow).
 *
 * One experiment: pick a layer and an FF category, apply the category's
 * software fault model to the layer's (cached) golden execution,
 * propagate the corrupted layer output through the rest of the network,
 * and classify the final output with the application's correctness
 * metric.  Global-control faults are classified as system failures
 * without propagation (Prob_SWmask = 0), as the framework defines.
 */

#ifndef FIDELITY_CORE_INJECTOR_HH
#define FIDELITY_CORE_INJECTOR_HH

#include <cstdint>
#include <functional>
#include <span>

#include "core/fault_models.hh"
#include "nn/batched.hh"
#include "nn/network.hh"
#include "sim/result_cache.hh"
#include "sim/rng.hh"

namespace fidelity
{

/**
 * Application correctness metric: true when the faulty final output is
 * acceptably close to the golden one (the fault is masked).
 */
using CorrectnessFn =
    std::function<bool(const Tensor &golden, const Tensor &faulty)>;

/** Result of one software fault-injection experiment. */
struct InjectionRecord
{
    FFCategory category = FFCategory::OutputPsum;
    NodeId node = 0;
    bool masked = true;
    bool globalFailure = false;
    int numFaultyNeurons = 0;
    double maxAbsDelta = 0.0; //!< layer-level perturbation magnitude

    /** Sparse engine only: the delta died before the output and
     *  downstream layers were skipped (the early masking exit). */
    bool earlyExit = false;

    /** Fault-site fingerprint (0 unless cacheEligible); see
     *  faultSiteFingerprint() for what it pins. */
    std::uint64_t fingerprint = 0;

    /** The experiment reached the forward pass with a result cache
     *  attached (GlobalControl and model-masked faults never do). */
    bool cacheEligible = false;

    /** The forward pass was skipped: the outcome came from the cache. */
    bool cacheHit = false;
};

/** Fault-injection engine bound to one network + input. */
class Injector
{
  public:
    /**
     * Caches the golden activations of the network on this input.
     * @param net Target network (already calibrated if integer mode).
     * @param input Network input.
     * @param cfg Accelerator configuration (RF-pattern geometry).
     */
    Injector(const Network &net, Tensor input, const NvdlaConfig &cfg);

    const Tensor &goldenOutput() const;
    const std::vector<Tensor> &goldenActs() const { return acts_; }

    /**
     * Run one experiment at the given MAC node with the given model.
     *
     * Safe to call concurrently from multiple threads against the same
     * Injector: the golden activations are only read, forwardFrom
     * allocates per-call scratch, and each caller supplies its own Rng
     * stream.  The constructor must have completed first (it warms the
     * layers' precision-converted weight caches).
     *
     * @param clamp_abs When > 0, model the value-bounding co-design
     *        of Key result 5: a hardware range checker saturates every
     *        written-back neuron into [-clamp_abs, clamp_abs],
     *        saturates infinities to the bound of their own sign, and
     *        flushes NaN to zero (see boundValue), limiting the
     *        perturbation a fault can inject.
     *
     * The corrupted activation propagates through the dense
     * Network::forwardFrom path, the reference the sparse engine of
     * injectBatch() must match bit for bit.
     */
    InjectionRecord inject(NodeId node, FFCategory cat,
                           const CorrectnessFn &correct, Rng &rng,
                           double clamp_abs = 0.0) const;

    /** One shard's share of a pooled injectBatch() call. */
    struct ShardDraws
    {
        Rng *rng = nullptr;              //!< the shard's own stream
        int count = 0;                   //!< draws of the shard
        InjectionRecord *recs = nullptr; //!< its records, [0, count)
    };

    /**
     * Run the draws of a group of shards of one (node, category) cell
     * through the sparse engine `eng`, pooling the survivors of every
     * shard and carrying them through the network in SIMD-lane
     * batches of eng.maxLanes() (a ragged last batch fills fewer
     * lanes).  Shards draw in the order given, each from its own
     * stream into its own records, so sample identity is untouched
     * relative to `count` sequential inject() calls per shard: the
     * fault models draw from each `rng` in the same order, the result
     * cache is probed per injection *before* batching, and every
     * record field except cacheHit (a site repeated within the group
     * computes instead of hitting) is identical — outputs are
     * bit-identical, so masked/earlyExit agree.  Pooling only decides
     * which survivors share a walk: the pool is Morton-sorted by seed
     * site, so spatially close faults of different shards batch
     * together.  At width 1 each survivor runs before the next draw.
     * Returns the draws of all shards.  Thread-safe under the same
     * contract as inject() (engines are per-caller).
     */
    std::size_t injectBatch(NodeId node, FFCategory cat,
                            const CorrectnessFn &correct,
                            std::span<const ShardDraws> shards,
                            double clamp_abs, BatchedEngine &eng) const;

    const FaultModels &models() const { return models_; }
    const Network &network() const { return net_; }

    /**
     * Attach a fault-site memo table.  Subsequent inject() calls probe
     * it before paying the forward pass and store their outcome after;
     * the sampled fault identity is unaffected (the fault model and its
     * rng draws run either way), only the propagation is skipped on a
     * hit.  Computes this injector's context digest — a conservative
     * hash over everything a forward pass reads: network name and
     * precision, the input bits, every layer's name/kind/precision,
     * every golden activation bit, every MAC weight bit and quant
     * param — plus `salt`.  Two injectors sharing a cache can only
     * exchange outcomes when their digests match, so a different
     * input, weight set, or quantisation can never serve a stale
     * entry.  Pass a distinct `salt` per correctness metric when one
     * cache is shared across metrics (the CorrectnessFn is opaque and
     * cannot be hashed).  Pass nullptr to detach.
     */
    void attachResultCache(ResultCache *cache, std::uint64_t salt = 0);

    /** Context digest of the attached cache (0 when detached). */
    std::uint64_t resultCacheContext() const { return cacheContext_; }

  private:
    const Network &net_;
    Tensor input_;
    std::vector<Tensor> acts_;
    GoldenPreps preps_; //!< built from acts_, read by injectBatch
    FaultModels models_;
    ResultCache *cache_ = nullptr;
    std::uint64_t cacheContext_ = 0;
};

/**
 * 64-bit fault-site fingerprint: the injector context digest (see
 * attachResultCache) mixed with the target node, fault category, the
 * value-bound knob, and the exact per-neuron corruption — coordinates,
 * written (post-bounding) value bits, and displaced golden value bits.
 * Equal fingerprints identify injections whose forward passes read and
 * write identical values, hence produce identical outcomes.
 */
std::uint64_t faultSiteFingerprint(std::uint64_t context, NodeId node,
                                   FFCategory cat, double clamp_abs,
                                   const FaultApplication &app,
                                   const Tensor &golden);

/**
 * Top-1 classification metric: the predicted class (argmax of the
 * final output) must match.  NaN elements are treated as invalid
 * scores that can never win the argmax — a NaN only breaks the match
 * when it displaces the golden top-1 — and infinities order as usual.
 * When every element of an output is NaN its prediction is undefined;
 * two undefined predictions compare equal.
 */
bool top1Match(const Tensor &golden, const Tensor &faulty);

/**
 * Range-checker co-design transfer function (Key result 5): saturate a
 * written-back value into [-clamp_abs, clamp_abs].  Infinities keep
 * their sign (saturating to the matching bound); NaN — which has no
 * meaningful sign — is flushed to zero by policy.
 */
float boundValue(float v, double clamp_abs);

} // namespace fidelity

#endif // FIDELITY_CORE_INJECTOR_HH
