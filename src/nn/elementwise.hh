/**
 * @file
 * Structural layers: element-wise binary ops, concat, slice, and scale.
 *
 * These cover the glue a DNN graph needs around the MAC layers:
 * residual additions (ResNet/Transformer), gate products (LSTM),
 * channel concatenation (Inception, LSTM input), and tensor slicing
 * (LSTM gates, sequence steps).
 */

#ifndef FIDELITY_NN_ELEMENTWISE_HH
#define FIDELITY_NN_ELEMENTWISE_HH

#include "nn/layer.hh"

namespace fidelity
{

/** Element-wise binary operation over two same-shaped inputs. */
class Elementwise : public Layer
{
  public:
    enum class Op { Add, Mul, Sub };

    Elementwise(std::string name, Op op);

    LayerKind kind() const override { return LayerKind::Elementwise; }
    int numInputs() const override { return 2; }
    Op op() const { return op_; }

    using Layer::forward;

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;
    Tensor forward(const std::vector<const Tensor *> &ins) const override;

    /** Element-wise: the cone is the input box itself. */
    Region propagateRegion(const std::vector<const Tensor *> &ins,
                           int inputIdx, const Region &in,
                           const Tensor &out) const override;


    void forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out) const override;

  private:
    Op op_;
};

/** Concatenate two inputs along the channel axis. */
class ConcatC : public Layer
{
  public:
    explicit ConcatC(std::string name);

    LayerKind kind() const override { return LayerKind::Concat; }
    int numInputs() const override { return 2; }

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;
    Tensor forward(const std::vector<const Tensor *> &ins) const override;

    /** Input 0 maps in place; input 1 shifts by ins[0]'s channels. */
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

/** Slice a contiguous range along one axis (H or C). */
class Slice : public Layer
{
  public:
    enum class Axis { H, C };

    Slice(std::string name, Axis axis, int offset, int length);

    LayerKind kind() const override { return LayerKind::Slice; }

    using Layer::forward;

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;
    Tensor forward(const std::vector<const Tensor *> &ins) const override;

    /** The input box clipped to the slice window, shifted to output
     *  coordinates; empty when the change is sliced away entirely. */
    Region propagateRegion(const std::vector<const Tensor *> &ins,
                           int inputIdx, const Region &in,
                           const Tensor &out) const override;


    void forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out) const override;

  private:
    Axis axis_;
    int offset_;
    int length_;
};

/** Affine map y = a * x + b applied element-wise (normalisation stub). */
class ScaleShift : public Layer
{
  public:
    ScaleShift(std::string name, float scale, float shift);

    LayerKind kind() const override { return LayerKind::Elementwise; }

    using Layer::forward;

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;
    Tensor forward(const std::vector<const Tensor *> &ins) const override;

    /** Element-wise: the cone is the input box itself. */
    Region propagateRegion(const std::vector<const Tensor *> &ins,
                           int inputIdx, const Region &in,
                           const Tensor &out) const override;


    void forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out) const override;

  private:
    float scale_;
    float shift_;
};

} // namespace fidelity

#endif // FIDELITY_NN_ELEMENTWISE_HH
