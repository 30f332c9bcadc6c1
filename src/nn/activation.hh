/**
 * @file
 * Element-wise activation functions.
 */

#ifndef FIDELITY_NN_ACTIVATION_HH
#define FIDELITY_NN_ACTIVATION_HH

#include "nn/layer.hh"

namespace fidelity
{

/** Element-wise non-linearity applied to every value of the input. */
class Activation : public Layer
{
  public:
    enum class Func { ReLU, LeakyReLU, Sigmoid, Tanh };

    /**
     * @param func The non-linearity.
     * @param alpha Negative-side slope for LeakyReLU (ignored otherwise).
     */
    Activation(std::string name, Func func, float alpha = 0.1f);

    LayerKind kind() const override { return LayerKind::Activation; }
    Func func() const { return func_; }

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;

    /** Element-wise: the cone is the input box itself. */
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

    /** Apply the scalar function (exposed for the accelerator model). */
    float apply(float x) const;

  private:
    Func func_;
    float alpha_;
};

} // namespace fidelity

#endif // FIDELITY_NN_ACTIVATION_HH
