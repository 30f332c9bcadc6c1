/**
 * @file
 * NVDLA software fault models (the paper's Table II).
 *
 * Each flip-flop of the accelerator maps to one category; a category
 * carries (a) the share of the design's FFs it covers (%FF column),
 * (b) a reuse factor, and (c) an executable software fault model that
 * picks the faulty output neurons of a MAC layer and rewrites their
 * values.  Datapath models flip a bit of the equivalent software
 * variable (input / weight / partial sum / output word); local-control
 * models write a random value to one neuron; global-control faults are
 * modelled as guaranteed system failure.
 */

#ifndef FIDELITY_CORE_FAULT_MODELS_HH
#define FIDELITY_CORE_FAULT_MODELS_HH

#include <vector>

#include "accel/nvdla_config.hh"
#include "nn/layer.hh"
#include "sim/rng.hh"
#include "tensor/tensor.hh"

namespace fidelity
{

/** Flip-flop categories of Table II. */
enum class FFCategory
{
    PreBufInput,   //!< datapath before CBUF, input path (2.5% FF)
    PreBufWeight,  //!< datapath before CBUF, weight path (4.8% FF)
    OperandInput,  //!< CBUF-to-MAC input operands, RF = 16 (16.2% FF)
    OperandWeight, //!< CBUF-to-MAC weight operands, RF <= 16 (21.6% FF)
    OutputPsum,    //!< partial sums and outputs, RF = 1 (37.9% FF)
    LocalControl,  //!< local control, RF = 1 (5.7% FF)
    GlobalControl, //!< global control, system failure (11.3% FF)
};

/** Number of categories (array sizing). */
constexpr int numFFCategories = 7;

/** All categories in declaration order. */
const std::vector<FFCategory> &allFFCategories();

/** Printable category name. */
const char *ffCategoryName(FFCategory cat);

/** The %FF column of Table II as a fraction (sums to 1 exactly). */
double ffCategoryShare(FFCategory cat);

/** True for the datapath rows of Table II. */
bool isDatapathCategory(FFCategory cat);

/**
 * Coalesce a consumer list (inputConsumers / weightConsumers order)
 * into the output boxes a layer's forwardWithSub() recomputes, in list
 * order: channel runs at one position, w-runs of a single channel,
 * and consecutive full-width w-runs of one channel folded into one
 * h-range box (a weight's whole output plane becomes one box per
 * sample).  `width` is the output's W extent.  Replaces `boxes`.
 */
void consumerBoxes(const NeuronIndex *cons, std::size_t count, int width,
                   std::vector<Region> &boxes);

/** One applied software fault model. */
struct FaultApplication
{
    FFCategory category = FFCategory::OutputPsum;

    /** Global-control faults: guaranteed system failure. */
    bool globalFailure = false;

    /** Faulty output neurons and their new values (parallel arrays). */
    std::vector<NeuronIndex> neurons;
    std::vector<float> values;

    /** Largest |faulty - golden| over the neurons (Key result 5). */
    double maxAbsDelta = 0.0;

    /** Nothing architecturally changed (all values identical). */
    bool masked() const { return !globalFailure && neurons.empty(); }
};

/**
 * Executable Table II models for one accelerator configuration.
 *
 * The configuration contributes the RF-16 pattern geometry: k^2 = 16
 * parallel MACs define the channel-group width of OperandInput faults,
 * and t = 16 the position-run length of OperandWeight faults.
 */
class FaultModels
{
  public:
    explicit FaultModels(const NvdlaConfig &cfg);

    const NvdlaConfig &config() const { return cfg_; }

    /**
     * Apply one category's software fault model to a layer execution.
     *
     * @param cat Category to inject.
     * @param layer The MAC layer.
     * @param ins The layer's (golden) inputs.
     * @param golden The layer's golden output.
     * @param rng Sampling stream.
     */
    FaultApplication apply(FFCategory cat, const MacLayer &layer,
                           const std::vector<const Tensor *> &ins,
                           const Tensor &golden, Rng &rng) const;

    /** Bit width of the operand representation for a precision. */
    static int operandBits(Precision p);

    /** Flip one bit of an operand value as stored by the datapath. */
    static float flipStoredOperand(float x, Precision p,
                                   const QuantParams &qp, int bit);

    /** Mask-flip of a stored operand (multi-bit transients). */
    static float flipStoredOperandMask(float x, Precision p,
                                       const QuantParams &qp,
                                       std::uint32_t mask);

    /** Flip one bit of an output word as written back. */
    static float flipStoredOutput(float y, Precision p,
                                  const QuantParams &qp, int bit);

    /** Mask-flip of a stored output word. */
    static float flipStoredOutputMask(float y, Precision p,
                                      const QuantParams &qp,
                                      std::uint32_t mask);

    /** A random bit pattern interpreted in the output representation. */
    static float randomOutputValue(Precision p, const QuantParams &qp,
                                   Rng &rng);

  private:
    FaultApplication applyPreBuf(FFCategory cat, const MacLayer &layer,
                                 const std::vector<const Tensor *> &ins,
                                 const Tensor &golden, Rng &rng) const;
    FaultApplication applyOperandInput(const MacLayer &layer,
                                       const std::vector<const Tensor *> &i,
                                       const Tensor &golden,
                                       Rng &rng) const;
    FaultApplication applyOperandWeight(const MacLayer &layer,
                                        const std::vector<const Tensor *> &i,
                                        const Tensor &golden,
                                        Rng &rng) const;
    FaultApplication applyOutputPsum(const MacLayer &layer,
                                     const std::vector<const Tensor *> &ins,
                                     const Tensor &golden, Rng &rng) const;
    FaultApplication applyLocalControl(const MacLayer &layer,
                                       const std::vector<const Tensor *> &i,
                                       const Tensor &golden,
                                       Rng &rng) const;

    NvdlaConfig cfg_;
};

} // namespace fidelity

#endif // FIDELITY_CORE_FAULT_MODELS_HH
