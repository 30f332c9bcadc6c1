/**
 * @file
 * Axis-aligned bounding boxes over NHWC tensors (fault cones).
 *
 * The incremental re-execution engine tracks, per layer output, a
 * conservative bounding box of the elements that may differ from the
 * golden activation.  Each layer maps an input box to the box of
 * outputs that read it — the fault cone — so only that box has to be
 * recomputed: the receptive field of conv / pool / activation /
 * elementwise layers, the rows of position-wise FC / softmax / matmul
 * layers.  Boxes are half-open on every axis: [n0, n1) x [h0, h1) x
 * [w0, w1) x [c0, c1).
 */

#ifndef FIDELITY_NN_REGION_HH
#define FIDELITY_NN_REGION_HH

#include <cstddef>
#include <string>
#include <utility>

#include "tensor/tensor.hh"

namespace fidelity
{

/** Half-open NHWC bounding box; the default is the empty region. */
struct Region
{
    int n0 = 0, n1 = 0;
    int h0 = 0, h1 = 0;
    int w0 = 0, w1 = 0;
    int c0 = 0, c1 = 0;

    /** True when the box contains no elements. */
    bool
    empty() const
    {
        return n0 >= n1 || h0 >= h1 || w0 >= w1 || c0 >= c1;
    }

    /** Number of elements in the box. */
    std::size_t volume() const;

    /** The whole of a tensor's index space. */
    static Region full(const Tensor &t);

    /** A single-element box. */
    static Region of(const NeuronIndex &i);

    /** True when the box covers every element of the tensor. */
    bool covers(const Tensor &t) const;

    /** True when the element lies inside the box. */
    bool contains(const NeuronIndex &i) const;

    /** Grow the box to include one element. */
    void include(const NeuronIndex &i);

    /** Grow the box to the bounding box of the union with `o`. */
    void merge(const Region &o);

    /** The box clipped to a tensor's index space. */
    Region clipped(const Tensor &t) const;

    bool operator==(const Region &o) const = default;

    /** "[n0,n1)x[h0,h1)x[w0,w1)x[c0,c1)" for diagnostics. */
    std::string str() const;
};

/**
 * Output index span [lo, hi) of the sliding windows (kernel k, given
 * stride / symmetric pad / dilation) that read any input index in
 * [in0, in1); the shared spatial-cone step of conv and pool layers.
 * The span is clipped to [0, out_dim).
 */
std::pair<int, int> windowCone(int in0, int in1, int k, int stride,
                               int pad, int dilation, int out_dim);

} // namespace fidelity

#endif // FIDELITY_NN_REGION_HH
