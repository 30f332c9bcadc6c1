/**
 * @file
 * Spatial pooling layers (max / average).
 */

#ifndef FIDELITY_NN_POOL_HH
#define FIDELITY_NN_POOL_HH

#include "nn/layer.hh"

namespace fidelity
{

/** Max or average pooling over a square window. */
class Pool : public Layer
{
  public:
    enum class Mode { Max, Avg };

    /**
     * @param window Pooling window edge length.
     * @param stride Step between windows (defaults to window).
     * @param pad Symmetric zero padding (Avg divides by full window).
     */
    Pool(std::string name, Mode mode, int window, int stride = 0,
         int pad = 0);

    LayerKind kind() const override { return LayerKind::Pool; }
    Mode mode() const { return mode_; }

    using Layer::forward;

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;
    Tensor forward(const std::vector<const Tensor *> &ins) const override;

    /** Pooling cone: output windows that read the input box. */
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
    Mode mode_;
    int window_;
    int stride_;
    int pad_;
};

/** Global average pooling: (N, H, W, C) -> (N, 1, 1, C). */
class GlobalAvgPool : public Layer
{
  public:
    explicit GlobalAvgPool(std::string name);

    LayerKind kind() const override { return LayerKind::Pool; }

    using Layer::forward;

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;
    Tensor forward(const std::vector<const Tensor *> &ins) const override;

    /** Spatial collapse: batch/channel box preserved, H and W fold. */
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

#endif // FIDELITY_NN_POOL_HH
