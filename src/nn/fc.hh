/**
 * @file
 * Fully-connected (position-wise dense) layer.
 *
 * Applies y = W^T x + b independently at every (n, h, w) position of the
 * input, reducing over the channel dimension.  This covers classifier
 * heads (H = W = 1), transformer feed-forward blocks (positions are
 * sequence steps), and the LSTM gate projections.
 */

#ifndef FIDELITY_NN_FC_HH
#define FIDELITY_NN_FC_HH

#include <cstdint>

#include "nn/layer.hh"
#include "sim/arena.hh"

namespace fidelity
{

/** Position-wise dense layer with optional bias. */
class FC : public MacLayer
{
  public:
    /**
     * @param name Layer name.
     * @param in_c Input channel count.
     * @param units Output channel count.
     * @param weights Flat [in_c][units] weights.
     * @param bias Per-unit bias (empty to disable).
     */
    FC(std::string name, int in_c, int units, std::vector<float> weights,
       std::vector<float> bias);

    LayerKind kind() const override { return LayerKind::FC; }

    int units() const { return units_; }
    int inC() const { return inC_; }

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;

    /** Row cone: the input box's positions x every output unit. */
    Region propagateRegion(const std::vector<const Tensor *> &ins,
                           int inputIdx, const Region &in,
                           const Tensor &out) const override;

    void forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out,
                              const GoldenPrep *prep) const override;

    /**
     * Vector substituted re-execution for one Input substitution by
     * flat index, or one Weight substitution over boxes inside the
     * weight's output column (see MacLayer::forwardWithSub).
     */
    bool forwardWithSub(const std::vector<const Tensor *> &ins,
                        const OperandSub *sub, const Region *boxes,
                        std::size_t numBoxes, Tensor &out) const override;

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

    int reductionLength() const override { return inC_; }
    bool hasBias() const override { return !bias_.empty(); }

    /** Raw weight storage ([in_c][units] flat). */
    const std::vector<float> &weightData() const { return weights_; }

    /** Raw bias storage (empty when disabled). */
    const std::vector<float> &biasData() const { return bias_; }

  protected:
    void onQuantChanged() override;

  private:
    void checkInput(const std::vector<const Tensor *> &ins) const;

    int inC_;
    int units_;
    std::vector<float> weights_; //!< [in_c][units] flat
    std::vector<float> bias_;

    /** The weights in the active precision's pack, rebuilt by every
     *  precision or quantisation change. */
    PackedOperand wPack_;
};

} // namespace fidelity

#endif // FIDELITY_NN_FC_HH
