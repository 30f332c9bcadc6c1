/**
 * @file
 * Numerically stable softmax over the channel axis.
 */

#ifndef FIDELITY_NN_SOFTMAX_HH
#define FIDELITY_NN_SOFTMAX_HH

#include "nn/layer.hh"

namespace fidelity
{

/** Softmax applied independently at every (n, h, w) position. */
class Softmax : public Layer
{
  public:
    explicit Softmax(std::string name);

    LayerKind kind() const override { return LayerKind::Softmax; }

    using Layer::forward;

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;
    Tensor forward(const std::vector<const Tensor *> &ins) const override;

    /** Row cone: the input box's positions x every channel. */
    Region propagateRegion(const std::vector<const Tensor *> &ins,
                           int inputIdx, const Region &in,
                           const Tensor &out) const override;

    void forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out) const override;
};

} // namespace fidelity

#endif // FIDELITY_NN_SOFTMAX_HH
