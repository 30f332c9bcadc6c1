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

    using Layer::forward;

    int units() const { return units_; }
    int inC() const { return inC_; }

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;
    Tensor forward(const std::vector<const Tensor *> &ins) const override;

    /** Row cone: the input box's positions x every output unit. */
    Region propagateRegion(const std::vector<const Tensor *> &ins,
                           int inputIdx, const Region &in,
                           const Tensor &out) const override;

    void forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out) const override;

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
    void onQuantChanged() override { wPackValid_ = false; }

  private:
    void checkInput(const std::vector<const Tensor *> &ins) const;

    /** Re-pack weights into the lane-blocked kernel layout. */
    void packWeights() const;

    /**
     * The layer's one row loop: y = W^T x + b for `rows` contiguous
     * positions of raw input ([rows][inC] in, [rows][units] out).
     * Positions are independent, so forward() runs it over the whole
     * tensor and the region kernel over gathered (position, lane) rows.
     */
    void denseRows(const float *x, std::size_t rows, float *y) const;

    int inC_;
    int units_;
    std::vector<float> weights_; //!< [in_c][units] flat
    std::vector<float> bias_;

    // Lane-blocked packed weight cache (see Conv2D).  Integer
    // precisions hold either the narrow pair-interleaved int16 pack
    // (chunkPairs_ > 0) or the wide int32 pack.
    mutable bool wPackValid_ = false;
    mutable AlignedVec<float> wPackF_;
    mutable AlignedVec<std::int32_t> wPackI_;
    mutable AlignedVec<std::int16_t> wPackN_;
    mutable int chunkPairs_ = 0; //!< 0: narrow path off (wide pack)
};

} // namespace fidelity

#endif // FIDELITY_NN_FC_HH
