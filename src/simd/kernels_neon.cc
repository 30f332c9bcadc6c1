/**
 * @file
 * The NEON kernel table (aarch64, where NEON is baseline — no
 * per-file flags needed).  Float and wide-int kernels use the NEON
 * wrappers; the narrow integer kernels and the converters run the
 * exact scalar implementations — correct by construction, and the
 * x86-only pmaddwd trick has no direct NEON port here yet.
 */

#include "simd/kernels_impl.hh"

namespace fidelity::simd
{

const KernelTable *
kernelTableNeon()
{
#if defined(FIDELITY_KIMPL_NEON)
    static const KernelTable t = {
        "neon",
        &gemmF32T<NeonBackend>,
        &gemmI64T<NeonBackend>,
        &gemmNarrowScalarK,
        &batchMacF32T<NeonBackend>,
        &batchMacI64T<NeonBackend>,
        &batchMacNarrowScalarK,
        &addF32T<NeonBackend>,
        &subF32T<NeonBackend>,
        &mulF32T<NeonBackend>,
        &scaleShiftF32T<NeonBackend>,
        &reluF32T<NeonBackend>,
        &lreluF32T<NeonBackend>,
        &roundToHalfScalarK,
        &quantizeScalarK,
        &requantI64ScalarK,
    };
    return &t;
#else
    return nullptr;
#endif
}

} // namespace fidelity::simd
