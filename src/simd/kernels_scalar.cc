/**
 * @file
 * The scalar kernel table: fixed-width lane arrays and per-lane loops,
 * compiled at the baseline ISA.  This is the reference every vector
 * table must match bit-for-bit, the `setEnabled(false)` twin, and the
 * only table in a `FIDELITY_NO_SIMD` build.
 */

#include "simd/kernels_impl.hh"

namespace fidelity::simd
{

const KernelTable *
kernelTableScalar()
{
    static const KernelTable t = {
        "scalar",
        &gemmF32T<Scalar8>,
        &gemmI64T<Scalar4>,
        &gemmNarrowScalarK,
        &batchMacF32T<Scalar8>,
        &batchMacI64T<Scalar4>,
        &batchMacNarrowScalarK,
        &addF32T<Scalar8>,
        &subF32T<Scalar8>,
        &mulF32T<Scalar8>,
        &scaleShiftF32T<Scalar8>,
        &reluF32T<Scalar8>,
        &lreluF32T<Scalar8>,
        &roundToHalfScalarK,
        &quantizeScalarK,
        &requantI64ScalarK,
    };
    return &t;
}

} // namespace fidelity::simd
