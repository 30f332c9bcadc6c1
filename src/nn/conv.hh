/**
 * @file
 * 2-D convolution layer (NHWC, grouped/depthwise capable).
 *
 * Weight layout is [kh][kw][cin_per_group][cout] flattened, matching the
 * order in which the accelerator model streams weights into CBUF.  The
 * reduction order for one output neuron is (ci, kh, kw) lexicographic
 * with FP32 (or integer) accumulation — the shared convention that lets
 * validation compare faulty neuron values bitwise against the
 * accelerator simulator.
 */

#ifndef FIDELITY_NN_CONV_HH
#define FIDELITY_NN_CONV_HH

#include <cstdint>

#include "nn/layer.hh"
#include "sim/arena.hh"

namespace fidelity
{

/** Static configuration of a convolution layer. */
struct ConvSpec
{
    int inC = 1;
    int outC = 1;
    int kh = 3;
    int kw = 3;
    int stride = 1;
    int pad = 0;      //!< symmetric zero padding
    int dilation = 1;
    int groups = 1;   //!< inC and outC must both be divisible by groups
    bool bias = true;
};

/** A grouped 2-D convolution with optional bias. */
class Conv2D : public MacLayer
{
  public:
    /**
     * @param name Layer name for reports.
     * @param spec Convolution geometry.
     * @param weights Flat [kh][kw][cin/groups][cout] weights.
     * @param bias Per-output-channel bias (empty if spec.bias false).
     */
    Conv2D(std::string name, const ConvSpec &spec,
           std::vector<float> weights, std::vector<float> bias);

    LayerKind kind() const override { return LayerKind::Conv; }

    const ConvSpec &spec() const { return spec_; }

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;

    /** Receptive cone: output box whose windows touch the input box. */
    Region propagateRegion(const std::vector<const Tensor *> &ins,
                           int inputIdx, const Region &in,
                           const Tensor &out) const override;


    std::size_t
    weightCount(const std::vector<const Tensor *> &ins) const override;
    float weightAt(const std::vector<const Tensor *> &ins,
                   std::size_t idx) const override;

    std::vector<NeuronIndex>
    inputConsumers(const std::vector<const Tensor *> &ins,
                   std::size_t elem) const override;
    std::vector<NeuronIndex>
    weightConsumers(const std::vector<const Tensor *> &ins,
                    std::size_t widx) const override;

    float computeNeuron(const std::vector<const Tensor *> &ins,
                        const NeuronIndex &out,
                        const OperandSub *sub) const override;

    int reductionLength() const override;
    bool hasBias() const override { return spec_.bias; }

    /**
     * Vector paths for a single Input substitution (output-channel
     * lanes, as in the width-1 region kernel) and a single Weight
     * substitution (output positions of the weight's channel in the
     * lanes); psum flips, chains and termIndex substitutions return
     * false.
     */
    bool forwardWithSub(const std::vector<const Tensor *> &ins,
                        const OperandSub *sub, const Region *boxes,
                        std::size_t numBoxes, Tensor &out) const override;

    /**
     * The region kernel: lane width 1 runs the channel-lane kernel,
     * width kBatchLanes the injection-lane rows; other widths panic.
     */
    void forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out,
                              const GoldenPrep *prep) const override;

    /** Flat weight index of (kh, kw, ci_in_group, oc). */
    std::size_t weightIndex(int kh, int kw, int cig, int oc) const;

    /** Raw weight storage ([kh][kw][cin/groups][cout] flat). */
    const std::vector<float> &weightData() const { return weights_; }

    /** Raw bias storage (empty when spec.bias is false). */
    const std::vector<float> &biasData() const { return bias_; }

    /** Output spatial height for the given input height. */
    int outDim(int in_dim, int k) const;

  protected:
    void onQuantChanged() override { packWeights(); }

  private:
    /** Validate the shape of the input tensor. */
    void checkInput(const std::vector<const Tensor *> &ins) const;

    /** Re-pack weights into the lane-blocked kernel layout. */
    void packWeights();

    /**
     * forwardWithSub() for one Weight substitution: recompute the
     * boxes (all in the weight's output channel; false otherwise) with
     * output positions in the SIMD lanes.
     */
    bool forwardWeightSub(const Tensor &x, const OperandSub &sub,
                          const Region *boxes, std::size_t numBoxes,
                          Tensor &out) const;

    /**
     * Region kernel front end for a compile-time lane width: ensure and
     * convert the region's input footprint once, then run laneKernels.
     */
    template <int W>
    void forwardBatchedImpl(const Tensor &x, LanePlane &xplane,
                            const Region &region,
                            const BatchCover *cover,
                            const Tensor &golden, LanePlane &out) const;

    /**
     * The back ends: the channel-lane kernel at W = 1, the
     * injection-lane rows at W = kBatchLanes, over each box, for the active
     * precision's operand type, into `out` (indexed like `shape`).
     * `load(dst, n, ih, iw, ci)` writes the W stored-form operands of
     * input cell (n, ih, iw, ci), the zero stored form when it is
     * padding.
     */
    template <int W, class Load>
    void laneKernels(const Region *boxes, std::size_t numBoxes,
                     const BatchCover *cover, const Tensor &shape,
                     LanePlane &out, Load load) const;

    ConvSpec spec_;
    std::vector<float> weights_;
    std::vector<float> bias_;

    // Kernel fast path: weights pre-converted into the active
    // precision's stored form (bit-identical to storeWeight /
    // quantWeight per element) and packed lane-blocked per group
    // (see simd/pack.hh).  Built at construction and rebuilt by every
    // precision or quantisation change (onQuantChanged), so a
    // configured layer is read-only to its forward calls.  Integer
    // precisions pack *either* the narrow pair-interleaved int16
    // layout (when the statically proven chunk bound makes the narrow
    // kernels legal and profitable — chunkPairs_ > 0) *or* the wide
    // int32 layout; the narrow result is exact, hence bit-identical
    // to the wide path.
    AlignedVec<float> wPackF_;
    AlignedVec<std::int32_t> wPackI_;
    AlignedVec<std::int16_t> wPackN_;
    int chunkPairs_ = 0; //!< 0: narrow path off (wide pack)
};

} // namespace fidelity

#endif // FIDELITY_NN_CONV_HH
