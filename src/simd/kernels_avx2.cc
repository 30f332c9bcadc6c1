/**
 * @file
 * The AVX2 kernel table.  This translation unit — and only this one —
 * is compiled with `-mavx2 -mf16c` (per-file flags in
 * src/CMakeLists.txt); the rest of the binary stays at the baseline
 * ISA, and the dispatcher only hands this table out after CPUID
 * confirms avx2+f16c, so the one binary still runs everywhere.
 */

#include "simd/kernels_impl.hh"

namespace fidelity::simd
{

const KernelTable *
kernelTableAvx2()
{
#if defined(FIDELITY_KIMPL_X86) && defined(__AVX2__) && \
    defined(__F16C__)
    static const KernelTable t = {
        "avx2",
        &gemmF32T<Avx2Backend>,
        &gemmI64T<Avx2Backend>,
        &gemmNarrowAvx2K,
        &batchMacF32T<Avx2Backend>,
        &batchMacI64T<Avx2Backend>,
        &batchMacNarrowAvx2K,
        &addF32T<Avx2Backend>,
        &subF32T<Avx2Backend>,
        &mulF32T<Avx2Backend>,
        &scaleShiftF32T<Avx2Backend>,
        &reluF32T<Avx2Backend>,
        &lreluF32T<Avx2Backend>,
        &roundToHalfAvx2K,
        &quantizeAvx2K,
        &requantI64Avx2K,
    };
    return &t;
#else
    return nullptr;
#endif
}

} // namespace fidelity::simd
