#include "tensor/quant.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace fidelity
{

QuantParams
calibrate(const std::vector<float> &values, int bits)
{
    double abs_max = 0.0;
    for (float v : values)
        abs_max = std::max(abs_max, static_cast<double>(std::fabs(v)));
    return calibrateAbsMax(abs_max, bits);
}

QuantParams
calibrateAbsMax(double abs_max, int bits)
{
    fatal_if(bits != 8 && bits != 16,
             "quantisation supports 8 or 16 bits, got ", bits);
    QuantParams qp;
    qp.bits = bits;
    double qmax = static_cast<double>((1 << (bits - 1)) - 1);
    // Avoid a zero scale for all-zero tensors.
    qp.scale = (abs_max > 0.0) ? abs_max / qmax : 1.0 / qmax;
    return qp;
}

std::int32_t
quantize(float x, const QuantParams &qp)
{
    if (std::isnan(x))
        return 0;
    double q = std::nearbyint(static_cast<double>(x) / qp.scale);
    q = std::clamp(q, static_cast<double>(qp.qmin()),
                   static_cast<double>(qp.qmax()));
    return static_cast<std::int32_t>(q);
}

// clampToRange moved to the header as a constexpr inline so the
// compile-time tests can evaluate range edges; qmin()/qmax() are
// likewise constexpr-safe.

} // namespace fidelity
