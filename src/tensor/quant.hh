/**
 * @file
 * Symmetric integer quantisation for INT16/INT8 execution modes.
 *
 * The paper's INT16/INT8 networks are quantised with TensorFlow's
 * min/max support.  We implement the equivalent symmetric per-tensor
 * scheme: a tensor with observed |max| = A maps x -> round(x / scale)
 * with scale = A / qmax, clamped to [qmin, qmax].  MAC arithmetic is
 * int32 accumulate (as in NVDLA's INT pipelines); results requantise
 * through the product of operand scales.
 */

#ifndef FIDELITY_TENSOR_QUANT_HH
#define FIDELITY_TENSOR_QUANT_HH

#include <cstdint>
#include <vector>

namespace fidelity
{

/** Per-tensor symmetric quantisation parameters. */
struct QuantParams
{
    double scale = 1.0; //!< real value represented by one integer step
    int bits = 8;       //!< 8 or 16

    /** Largest representable quantised magnitude (e.g. 127 for INT8). */
    constexpr std::int32_t qmax() const { return (1 << (bits - 1)) - 1; }

    /** Most negative representable value (e.g. -128 for INT8). */
    constexpr std::int32_t qmin() const { return -(1 << (bits - 1)); }
};

/** Clamp an int32 accumulator into the range of the given params. */
constexpr std::int32_t
clampToRange(std::int64_t v, const QuantParams &qp)
{
    std::int64_t lo = qp.qmin(), hi = qp.qmax();
    return static_cast<std::int32_t>(v < lo ? lo : (v > hi ? hi : v));
}

/** Derive symmetric params from the absolute max of a value set. */
QuantParams calibrate(const std::vector<float> &values, int bits);

/** Derive symmetric params from a known absolute maximum. */
QuantParams calibrateAbsMax(double abs_max, int bits);

/** Quantise one value (round-to-nearest, clamp to range).  NaN
 *  quantises to 0, the value the range checker flushes NaN to. */
std::int32_t quantize(float x, const QuantParams &qp);

/** Dequantise one value. */
inline float
dequantize(std::int32_t q, const QuantParams &qp)
{
    return static_cast<float>(q * qp.scale);
}

} // namespace fidelity

#endif // FIDELITY_TENSOR_QUANT_HH
