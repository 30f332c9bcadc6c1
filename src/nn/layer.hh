/**
 * @file
 * Layer abstractions for the DNN inference engine.
 *
 * The engine plays the role the paper assigns to (modified) TensorFlow:
 * a fast forward-pass substrate whose per-layer outputs can be
 * overridden by FIdelity's software fault models.  Layers that perform
 * multiply-accumulate work (conv / FC / matmul) additionally expose the
 * structural queries the fault models need: which output neurons
 * consume a given input or weight element, and bit-exact recomputation
 * of a single output neuron with one operand substituted.
 */

#ifndef FIDELITY_NN_LAYER_HH
#define FIDELITY_NN_LAYER_HH

#include <memory>
#include <string>
#include <vector>

#include "nn/region.hh"
#include "tensor/quant.hh"
#include "tensor/tensor.hh"

namespace fidelity
{

class LanePlane;
class BatchCover;

/** Numeric execution mode of a layer (the accelerator's data precision). */
enum class Precision
{
    FP32, //!< reference mode, plain float arithmetic
    FP16, //!< binary16 operands/outputs, FP32 accumulation
    INT16, //!< 16-bit symmetric quantised operands, INT accumulation
    INT8, //!< 8-bit symmetric quantised operands, INT accumulation
};

/** Printable name of a precision mode. */
const char *precisionName(Precision p);

/** Coarse layer taxonomy (drives fault-model selection and reporting). */
enum class LayerKind
{
    Conv,
    FC,
    MatMul,
    Pool,
    Activation,
    Elementwise,
    Concat,
    Slice,
    Softmax,
};

/** Printable name of a layer kind. */
const char *layerKindName(LayerKind k);

/**
 * Substitute one operand value (or flip a partial-sum bit) during
 * single-neuron recomputation.
 *
 * Input/Weight: any MAC term whose input (or weight) element has the
 * given flat index reads `value` instead of the stored/golden operand.
 *
 * PsumFlip: immediately before the MAC term with index `flatIndex`
 * (0-based in the canonical reduction order) is accumulated, bit `bit`
 * of the partial-sum register is flipped — in the FP32 accumulator word
 * for floating modes, or in the two's-complement accumulator for
 * integer modes.  Accumulation then continues from the corrupted value,
 * exactly as a transient in the psum flip-flop behaves in hardware.
 * flatIndex == reductionLength() flips after the last term (the drained
 * value).
 */
struct OperandSub
{
    enum class Kind { Input, Weight, PsumFlip, Bias } kind = Kind::Input;

    /**
     * Optional chain link: layers apply every substitution in the
     * list.  Used for multi-word memory faults, where several operand
     * values are corrupted at once (Sec. III-E).
     */
    const OperandSub *next = nullptr;
    std::size_t flatIndex = 0; //!< operand flat index, or psum MAC step
    float value = 0.0f;        //!< substituted value (Input/Weight/Bias)
    int bit = 0;               //!< flipped bit position (PsumFlip)

    /** Extra bits flipped together with `bit` (PsumFlip multi-bit). */
    std::uint32_t extraMask = 0;

    /** Full PsumFlip mask. */
    std::uint32_t flipMask() const { return (1u << bit) | extraMask; }

    /**
     * For Kind::Input only: when >= 0, substitute the operand of the
     * MAC term with this reduction index instead of matching by
     * flatIndex.  This reaches terms that read padded (zero) operands,
     * which have no input-tensor element to match.
     */
    int termIndex = -1;
};

/** Base class of every layer. */
class Layer
{
  public:
    explicit Layer(std::string name);
    virtual ~Layer();

    Layer(const Layer &) = delete;
    Layer &operator=(const Layer &) = delete;

    const std::string &name() const { return name_; }

    virtual LayerKind kind() const = 0;

    /** Number of graph inputs this layer consumes (1 or 2). */
    virtual int numInputs() const { return 1; }

    /** Output shape for the given input shapes. */
    virtual Tensor
    makeOutput(const std::vector<const Tensor *> &ins) const = 0;

    /** Run the layer. Input count must equal numInputs(). */
    virtual Tensor forward(const std::vector<const Tensor *> &ins) const = 0;

    /** Convenience for single-input layers. */
    Tensor forward(const Tensor &in) const;

    /**
     * Record calibration statistics (abs-max of inputs/outputs) used by
     * the integer precision modes.  Called during a calibration pass run
     * in FP32.  The default records nothing.
     */
    virtual void calibrate(const std::vector<const Tensor *> &ins,
                           const Tensor &out);

    /**
     * Fault-cone propagation: a conservative bounding box of the output
     * elements that can change when graph input `inputIdx` changes only
     * inside `in`: the receptive cone of a spatially local layer, the
     * row cone of a position-wise one (FC, softmax, matmul).  A cone
     * that reaches half the output or more makes the sparse engines
     * recompute the layer densely.
     *
     * @param ins The layer's inputs (shapes define the mapping).
     * @param inputIdx Which graph input `in` refers to.
     * @param in Changed region of that input (non-empty, in range).
     * @param out The golden output (shape reference only).
     */
    virtual Region propagateRegion(const std::vector<const Tensor *> &ins,
                                   int inputIdx, const Region &in,
                                   const Tensor &out) const = 0;

    /**
     * Recompute only `region` of the output, in place.  `out` must have
     * the layer's output shape and already hold values that are correct
     * outside the region (the engine seeds it with the golden
     * activation).  Every element inside the region must be
     * bit-identical to what forward() would produce on the same inputs
     * — same operand conversions, same canonical accumulation order.
     * Runs the layer's region kernel (forwardRegionBatched) at lane
     * width 1 on views of `ins` and `out`.
     */
    void forwardRegion(const std::vector<const Tensor *> &ins,
                       const Region &region, Tensor &out) const;

    /**
     * The layer's one region kernel: recompute `region` for every
     * lane of the planes, where lanes are independent injections of the
     * same fault cell (width 4 or 8, from the batched engine) or the
     * plain tensors of forwardRegion (width 1).  `ins` are the golden
     * inputs; `inPlanes[i]` is the SoA plane of input i (lane values
     * inside its valid box, golden outside — callees ensure() the
     * footprint they read).  `golden` is the golden output (shape /
     * offset reference) and `out` the output plane, already ensured
     * over `region` by the caller.  `cover`, when non-null, is the
     * union-of-cones coverage of `region`: cells outside it provably
     * recompute golden bits, so kernels walk only the covered row spans
     * (skipped cells keep the plane's golden fill).  Every written lane
     * value must be bit-identical to what forward() would produce from
     * that lane's inputs.  Every layer has one, so the sparse engines
     * never fall back to a per-lane dense forward().
     */
    virtual void
    forwardRegionBatched(const std::vector<const Tensor *> &ins,
                         LanePlane *const *inPlanes, const Region &region,
                         const BatchCover *cover, const Tensor &golden,
                         LanePlane &out) const = 0;

    /** Set the execution precision (refreshes precision-derived state). */
    void
    setPrecision(Precision p)
    {
        precision_ = p;
        onPrecisionChanged();
    }

    Precision precision() const { return precision_; }

  protected:
    /** Hook for layers with precision-derived state (quant ranges). */
    virtual void onPrecisionChanged() {}

    std::string name_;
    Precision precision_ = Precision::FP32;
};

/**
 * A multiply-accumulate layer (conv / FC / matmul).
 *
 * All MAC layers share the accumulation convention validated against the
 * accelerator model: operands are first stored in the datapath
 * representation of the active precision, products accumulate in FP32
 * (floating modes) or INT64 (integer modes) over the canonical reduction
 * order, bias is added, and the result is written back through the
 * output representation.
 */
class MacLayer : public Layer
{
  public:
    MacLayer(std::string name);

    /**
     * Total number of weight elements.  For two-operand layers
     * (MatMulAB) the "weights" are the second graph input, hence the
     * inputs parameter.
     */
    virtual std::size_t
    weightCount(const std::vector<const Tensor *> &ins) const = 0;

    /** Read a weight element by flat index (real value). */
    virtual float weightAt(const std::vector<const Tensor *> &ins,
                           std::size_t idx) const = 0;

    /**
     * Output neurons that consume the given input element.
     * @param ins Layer inputs (shapes define the iteration space).
     * @param elem Flat NHWC offset into ins[0].
     */
    virtual std::vector<NeuronIndex>
    inputConsumers(const std::vector<const Tensor *> &ins,
                   std::size_t elem) const = 0;

    /** Output neurons that consume the given weight element. */
    virtual std::vector<NeuronIndex>
    weightConsumers(const std::vector<const Tensor *> &ins,
                    std::size_t widx) const = 0;

    /**
     * Recompute one output neuron, optionally substituting an operand.
     * Bit-identical to the value forward() produces for that neuron when
     * sub is null.
     */
    virtual float
    computeNeuron(const std::vector<const Tensor *> &ins,
                  const NeuronIndex &out, const OperandSub *sub) const = 0;

    /** Number of MAC terms contributing to one output neuron. */
    virtual int reductionLength() const = 0;

    /**
     * Vectorized substituted re-execution: recompute the listed output
     * boxes with `sub` applied, writing into `out` (which must have the
     * layer's output shape; only box elements are written).  Every
     * computed element must be bit-identical to computeNeuron() with
     * the same substitution.  Returns false when this layer (or this
     * substitution kind) has no vector path — callers then fall back
     * to per-neuron computeNeuron().  The default has no vector path.
     */
    virtual bool forwardWithSub(const std::vector<const Tensor *> &ins,
                                const OperandSub *sub,
                                const Region *boxes, std::size_t numBoxes,
                                Tensor &out) const;

    /** Whether this layer has a bias vector. */
    virtual bool hasBias() const = 0;

    /** Quantisation parameters of the input operand (integer modes). */
    const QuantParams &inputQuant() const { return inQuant_; }

    /** Quantisation parameters of the weights (integer modes). */
    const QuantParams &weightQuant() const { return wQuant_; }

    /** Quantisation parameters of the output (integer modes). */
    const QuantParams &outputQuant() const { return outQuant_; }

    void calibrate(const std::vector<const Tensor *> &ins,
                   const Tensor &out) override;

  protected:
    /** Store an operand value as the active precision's datapath does. */
    float storeInput(float x) const;
    float storeWeight(float x) const;

    /** Round a finished accumulator + bias through the output path. */
    float writeback(double acc, float bias) const;

    /** Apply a PsumFlip substitution to a floating accumulator. */
    static float psumFlipFloat(float acc, std::uint32_t mask);

    /** Apply a PsumFlip substitution to an integer accumulator. */
    static std::int64_t psumFlipInt(std::int64_t acc,
                                    std::uint32_t mask);

    /** Integer quantisation of operands for the INT modes. */
    std::int32_t quantInput(float x) const;
    std::int32_t quantWeight(float x) const;

    /** Refresh integer quant params from recorded abs-max values. */
    void refreshQuant();

    /** Precision changes re-derive the quantisation ranges. */
    void onPrecisionChanged() override { refreshQuant(); }

    /** Called whenever precision or quant ranges change (cache hook). */
    virtual void onQuantChanged() {}

    QuantParams inQuant_;
    QuantParams wQuant_;
    QuantParams outQuant_;
    double inAbsMax_ = 0.0;
    double wAbsMax_ = 0.0;
    double outAbsMax_ = 0.0;
};

} // namespace fidelity

#endif // FIDELITY_NN_LAYER_HH
