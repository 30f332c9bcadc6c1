/**
 * @file
 * Kernel-table implementations, included ONLY by the per-backend
 * translation units (kernels_scalar.cc / kernels_sse2.cc /
 * kernels_avx2.cc / kernels_neon.cc).
 *
 * Everything here lives in an anonymous namespace on purpose: each
 * including TU is compiled with its own ISA flags, and internal
 * linkage guarantees the linker can never merge (comdat-fold) an
 * AVX2-compiled instantiation into a TU that must stay runnable on a
 * baseline host.  Nothing outside `simd.hh`, the standard library,
 * and the out-of-line `roundToHalf()` may be referenced, for the same
 * reason: calling an *inline* repo function from an ISA TU would emit
 * an ISA-flavoured comdat copy of it.
 *
 * Bit-exactness contract (see DESIGN.md §8/§13): float kernels use
 * unfused multiply-then-add in the canonical reduction order, one
 * independent output per lane.  Integer kernels are exact, so any
 * association is legal *iff* no intermediate overflows; the narrow
 * kernels accumulate pair-sums in int32 for at most `chunkPairs`
 * pairs — a bound the packer proves from |x| <= 2^(bits-1) and the
 * scanned max |w| — then spill to int64, which therefore equals the
 * wide kernel's int64 total bit for bit.
 */

#ifndef FIDELITY_SIMD_KERNELS_IMPL_HH
#define FIDELITY_SIMD_KERNELS_IMPL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "simd/simd.hh"

#if !defined(FIDELITY_NO_SIMD)
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#include <immintrin.h>
#define FIDELITY_KIMPL_X86 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define FIDELITY_KIMPL_NEON 1
#endif
#endif

namespace fidelity
{
// Out-of-line in tensor/bitops.cc; safe to call across ISA TUs.
float roundToHalf(float x);
} // namespace fidelity

namespace fidelity::simd
{
namespace
{

// ---------------------------------------------------------------- //
// Backend wrapper structs: the per-lane primitive ops.              //
// ---------------------------------------------------------------- //

/**
 * Fixed-width scalar backend: plain arrays and per-lane loops.  The
 * reference semantics every vector backend must match bit-for-bit.
 */
template <int LF, int LI>
struct ScalarBackendT
{
    static constexpr int kF32W = LF;
    static constexpr int kI64W = LI;

    struct F32
    {
        float v[LF];
    };

    static F32
    f32zero()
    {
        F32 r;
        for (int i = 0; i < LF; ++i)
            r.v[i] = 0.0f;
        return r;
    }

    static F32
    f32load(const float *p)
    {
        F32 r;
        for (int i = 0; i < LF; ++i)
            r.v[i] = p[i];
        return r;
    }

    static F32
    f32broadcast(float x)
    {
        F32 r;
        for (int i = 0; i < LF; ++i)
            r.v[i] = x;
        return r;
    }

    /** acc + a*b per lane; multiply rounds before the add (no FMA). */
    static F32
    f32mulAcc(F32 acc, F32 a, F32 b)
    {
        F32 r;
        for (int i = 0; i < LF; ++i) {
            float prod = a.v[i] * b.v[i];
            r.v[i] = acc.v[i] + prod;
        }
        return r;
    }

    static F32
    f32add(F32 a, F32 b)
    {
        F32 r;
        for (int i = 0; i < LF; ++i)
            r.v[i] = a.v[i] + b.v[i];
        return r;
    }

    static F32
    f32sub(F32 a, F32 b)
    {
        F32 r;
        for (int i = 0; i < LF; ++i)
            r.v[i] = a.v[i] - b.v[i];
        return r;
    }

    static F32
    f32mul(F32 a, F32 b)
    {
        F32 r;
        for (int i = 0; i < LF; ++i)
            r.v[i] = a.v[i] * b.v[i];
        return r;
    }

    /** Per lane: x > 0 ? a : b (NaN lanes select b, like the scalar). */
    static F32
    f32selectGtZero(F32 x, F32 a, F32 b)
    {
        F32 r;
        for (int i = 0; i < LF; ++i)
            r.v[i] = x.v[i] > 0.0f ? a.v[i] : b.v[i];
        return r;
    }

    static void
    f32store(float *p, F32 v)
    {
        for (int i = 0; i < LF; ++i)
            p[i] = v.v[i];
    }

    struct I64
    {
        std::int64_t v[LI];
    };

    static I64
    i64zero()
    {
        I64 r;
        for (int i = 0; i < LI; ++i)
            r.v[i] = 0;
        return r;
    }

    /** acc[l] += (int64)x * w[l] over kI64W int32 weights. */
    static I64
    i64mulAcc(I64 acc, std::int32_t x, const std::int32_t *w)
    {
        I64 r;
        for (int i = 0; i < LI; ++i)
            r.v[i] = acc.v[i] +
                     static_cast<std::int64_t>(x) *
                         static_cast<std::int64_t>(w[i]);
        return r;
    }

    static void
    i64store(std::int64_t *p, I64 v)
    {
        for (int i = 0; i < LI; ++i)
            p[i] = v.v[i];
    }
};

using Scalar8 = ScalarBackendT<8, 4>;
using Scalar4 = ScalarBackendT<4, 4>;

#if defined(FIDELITY_KIMPL_X86)

/** SSE2 (x86-64 baseline): 4 float lanes; the wide int MAC has no
 *  32x32->64 multiply below SSE4.1, so it stays on the scalar ops. */
struct Sse2Backend
{
    static constexpr int kF32W = 4;
    static constexpr int kI64W = 4;

    using F32 = __m128;

    static F32 f32zero() { return _mm_setzero_ps(); }
    static F32 f32load(const float *p) { return _mm_loadu_ps(p); }
    static F32 f32broadcast(float x) { return _mm_set1_ps(x); }

    static F32
    f32mulAcc(F32 acc, F32 a, F32 b)
    {
        // Deliberately mul-then-add: an FMA's single rounding would
        // break bit-identity with the scalar kernels.
        return _mm_add_ps(acc, _mm_mul_ps(a, b));
    }

    static F32 f32add(F32 a, F32 b) { return _mm_add_ps(a, b); }
    static F32 f32sub(F32 a, F32 b) { return _mm_sub_ps(a, b); }
    static F32 f32mul(F32 a, F32 b) { return _mm_mul_ps(a, b); }

    static F32
    f32selectGtZero(F32 x, F32 a, F32 b)
    {
        // Ordered GT: NaN compares false and selects b, matching
        // `x > 0 ? a : b` scalar semantics.
        __m128 m = _mm_cmpgt_ps(x, _mm_setzero_ps());
        return _mm_or_ps(_mm_and_ps(m, a), _mm_andnot_ps(m, b));
    }

    static void f32store(float *p, F32 v) { _mm_storeu_ps(p, v); }

    using I64 = Scalar4::I64;
    static I64 i64zero() { return Scalar4::i64zero(); }
    static I64
    i64mulAcc(I64 acc, std::int32_t x, const std::int32_t *w)
    {
        return Scalar4::i64mulAcc(acc, x, w);
    }
    static void i64store(std::int64_t *p, I64 v)
    {
        Scalar4::i64store(p, v);
    }
};

#endif // FIDELITY_KIMPL_X86

#if defined(FIDELITY_KIMPL_X86) && defined(__AVX2__)

/** AVX2: 8 float lanes, 4 int64 MAC lanes. */
struct Avx2Backend
{
    static constexpr int kF32W = 8;
    static constexpr int kI64W = 4;

    using F32 = __m256;

    static F32 f32zero() { return _mm256_setzero_ps(); }
    static F32 f32load(const float *p) { return _mm256_loadu_ps(p); }
    static F32 f32broadcast(float x) { return _mm256_set1_ps(x); }

    static F32
    f32mulAcc(F32 acc, F32 a, F32 b)
    {
        return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
    }

    static F32 f32add(F32 a, F32 b) { return _mm256_add_ps(a, b); }
    static F32 f32sub(F32 a, F32 b) { return _mm256_sub_ps(a, b); }
    static F32 f32mul(F32 a, F32 b) { return _mm256_mul_ps(a, b); }

    static F32
    f32selectGtZero(F32 x, F32 a, F32 b)
    {
        __m256 m = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ);
        return _mm256_blendv_ps(b, a, m);
    }

    static void f32store(float *p, F32 v) { _mm256_storeu_ps(p, v); }

    using I64 = __m256i;

    static I64 i64zero() { return _mm256_setzero_si256(); }

    static I64
    i64mulAcc(I64 acc, std::int32_t x, const std::int32_t *w)
    {
        __m256i wv = _mm256_cvtepi32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(w)));
        // mul_epi32 reads the low signed 32 bits of each 64-bit lane;
        // zero-extending x keeps exactly those bits.
        __m256i xv = _mm256_set1_epi64x(
            static_cast<std::int64_t>(static_cast<std::uint32_t>(x)));
        return _mm256_add_epi64(acc, _mm256_mul_epi32(xv, wv));
    }

    static void
    i64store(std::int64_t *p, I64 v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
};

#endif // AVX2

#if defined(FIDELITY_KIMPL_NEON)

/** NEON: 4 float lanes, 2 int64 MAC lanes via vmlal_s32. */
struct NeonBackend
{
    static constexpr int kF32W = 4;
    static constexpr int kI64W = 2;

    using F32 = float32x4_t;

    static F32 f32zero() { return vdupq_n_f32(0.0f); }
    static F32 f32load(const float *p) { return vld1q_f32(p); }
    static F32 f32broadcast(float x) { return vdupq_n_f32(x); }

    static F32
    f32mulAcc(F32 acc, F32 a, F32 b)
    {
        // vmlaq may contract to a fused multiply-add; keep the rounding
        // of the scalar kernel with an explicit mul + add.
        return vaddq_f32(acc, vmulq_f32(a, b));
    }

    static F32 f32add(F32 a, F32 b) { return vaddq_f32(a, b); }
    static F32 f32sub(F32 a, F32 b) { return vsubq_f32(a, b); }
    static F32 f32mul(F32 a, F32 b) { return vmulq_f32(a, b); }

    static F32
    f32selectGtZero(F32 x, F32 a, F32 b)
    {
        uint32x4_t m = vcgtq_f32(x, vdupq_n_f32(0.0f));
        return vbslq_f32(m, a, b);
    }

    static void f32store(float *p, F32 v) { vst1q_f32(p, v); }

    using I64 = int64x2_t;

    static I64 i64zero() { return vdupq_n_s64(0); }

    static I64
    i64mulAcc(I64 acc, std::int32_t x, const std::int32_t *w)
    {
        return vmlal_s32(acc, vdup_n_s32(x), vld1_s32(w));
    }

    static void i64store(std::int64_t *p, I64 v) { vst1q_s64(p, v); }
};

#endif // FIDELITY_KIMPL_NEON

// ---------------------------------------------------------------- //
// GEMM microkernels over the fixed-width packed streams.            //
// ---------------------------------------------------------------- //

/** acc[b*8+l] = sum_k x[k] * packed[(b*red+k)*8 + l]; a backend
 *  narrower than the 8-wide pack walks each block in lane slices. */
template <class B>
void
gemmF32T(const float *x, int red, int nblocks, const float *packed,
         float *acc)
{
    constexpr int PL = kF32Lanes;
    constexpr int L = B::kF32W;
    static_assert(PL % L == 0, "pack width must be a lane multiple");
    const std::size_t blkStride = static_cast<std::size_t>(red) * PL;
    for (int b = 0; b < nblocks; ++b) {
        const float *wb = packed + b * blkStride;
        float *ab = acc + b * PL;
        for (int off = 0; off < PL; off += L) {
            auto a = B::f32zero();
            const float *wr = wb + off;
            for (int k = 0; k < red; ++k, wr += PL)
                a = B::f32mulAcc(a, B::f32broadcast(x[k]),
                                 B::f32load(wr));
            B::f32store(ab + off, a);
        }
    }
}

/** Wide integer twin over the kI64Lanes-wide int32 pack. */
template <class B>
void
gemmI64T(const std::int32_t *x, int red, int nblocks,
         const std::int32_t *packed, std::int64_t *acc)
{
    constexpr int PL = kI64Lanes;
    constexpr int L = B::kI64W;
    static_assert(PL % L == 0, "pack width must be a lane multiple");
    const std::size_t blkStride = static_cast<std::size_t>(red) * PL;
    for (int b = 0; b < nblocks; ++b) {
        const std::int32_t *wb = packed + b * blkStride;
        std::int64_t *ab = acc + b * PL;
        for (int off = 0; off < PL; off += L) {
            auto a = B::i64zero();
            const std::int32_t *wr = wb + off;
            for (int k = 0; k < red; ++k, wr += PL)
                a = B::i64mulAcc(a, x[k], wr);
            B::i64store(ab + off, a);
        }
    }
}

/**
 * Narrow reference kernel: pair-sums in int32 chunks, spilled to
 * int64.  Exact (the packer's chunk bound forbids overflow), hence
 * bit-identical to the wide kernel and to any vector narrow kernel.
 */
inline void
gemmNarrowScalarK(const std::int16_t *x, int redPairs, int nblocks,
                  const std::int16_t *packed, int chunkPairs,
                  std::int64_t *acc)
{
    constexpr int L = kNarrowLanes;
    const std::size_t blkStride =
        static_cast<std::size_t>(redPairs) * 2 * L;
    for (int b = 0; b < nblocks; ++b) {
        const std::int16_t *wb = packed + b * blkStride;
        std::int64_t c64[L] = {};
        int p = 0;
        while (p < redPairs) {
            const int end = std::min(p + chunkPairs, redPairs);
            std::int32_t c32[L] = {};
            for (; p < end; ++p) {
                const std::int32_t x0 = x[2 * p];
                const std::int32_t x1 = x[2 * p + 1];
                const std::int16_t *wr = wb + p * 2 * L;
                for (int l = 0; l < L; ++l)
                    c32[l] += x0 * wr[2 * l] + x1 * wr[2 * l + 1];
            }
            for (int l = 0; l < L; ++l)
                c64[l] += c32[l];
        }
        for (int l = 0; l < L; ++l)
            acc[b * L + l] = c64[l];
    }
}

#if defined(FIDELITY_KIMPL_X86)

/** Broadcast one operand pair (two adjacent int16) to every 32-bit
 *  element.  Reading two int16 as one int32 is the pmaddwd layout. */
inline std::int32_t
loadPair32(const std::int16_t *p)
{
    std::int32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** SSE2 narrow kernel: two 128-bit pmaddwd streams per 8-lane block. */
inline void
gemmNarrowSse2K(const std::int16_t *x, int redPairs, int nblocks,
                const std::int16_t *packed, int chunkPairs,
                std::int64_t *acc)
{
    constexpr int L = kNarrowLanes;
    const std::size_t blkStride =
        static_cast<std::size_t>(redPairs) * 2 * L;
    for (int b = 0; b < nblocks; ++b) {
        const std::int16_t *wb = packed + b * blkStride;
        std::int64_t c64[L] = {};
        int p = 0;
        while (p < redPairs) {
            const int end = std::min(p + chunkPairs, redPairs);
            __m128i ca = _mm_setzero_si128();
            __m128i cb = _mm_setzero_si128();
            for (; p < end; ++p) {
                const __m128i xv = _mm_set1_epi32(loadPair32(x + 2 * p));
                const std::int16_t *wr = wb + p * 2 * L;
                __m128i w0 = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(wr));
                __m128i w1 = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(wr + 8));
                ca = _mm_add_epi32(ca, _mm_madd_epi16(w0, xv));
                cb = _mm_add_epi32(cb, _mm_madd_epi16(w1, xv));
            }
            alignas(16) std::int32_t t[L];
            _mm_store_si128(reinterpret_cast<__m128i *>(t), ca);
            _mm_store_si128(reinterpret_cast<__m128i *>(t + 4), cb);
            for (int l = 0; l < L; ++l)
                c64[l] += t[l];
        }
        for (int l = 0; l < L; ++l)
            acc[b * L + l] = c64[l];
    }
}

/** SSE2 narrow batched MAC: the lane row as two 4-lane halves. */
inline void
batchMacNarrowSse2K(const std::int16_t *xg, const std::int16_t *w,
                    std::size_t redPairs, std::size_t wstride,
                    int chunkPairs, std::int64_t *acc)
{
    constexpr int L = kBatchLanes;
    for (int j = 0; j < L; j += 4) {
        std::int64_t c64[4] = {};
        std::size_t p = 0;
        while (p < redPairs) {
            const std::size_t end =
                std::min(p + static_cast<std::size_t>(chunkPairs),
                         redPairs);
            __m128i c32 = _mm_setzero_si128();
            for (; p < end; ++p) {
                const __m128i wv =
                    _mm_set1_epi32(loadPair32(w + p * wstride));
                __m128i r0 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(xg + 2 * p * L +
                                                      j));
                __m128i r1 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(
                        xg + (2 * p + 1) * L + j));
                // Interleave the two k rows into per-lane pairs so
                // pmaddwd forms x0*w0 + x1*w1 per lane.
                __m128i pairs = _mm_unpacklo_epi16(r0, r1);
                c32 = _mm_add_epi32(c32, _mm_madd_epi16(pairs, wv));
            }
            alignas(16) std::int32_t t[4];
            _mm_store_si128(reinterpret_cast<__m128i *>(t), c32);
            for (int l = 0; l < 4; ++l)
                c64[l] += t[l];
        }
        for (int l = 0; l < 4; ++l)
            acc[j + l] = c64[l];
    }
}

#endif // FIDELITY_KIMPL_X86

/** Exact scalar narrow batched MAC. */
inline void
batchMacNarrowScalarK(const std::int16_t *xg, const std::int16_t *w,
                      std::size_t redPairs, std::size_t wstride,
                      int chunkPairs, std::int64_t *acc)
{
    constexpr int L = kBatchLanes;
    std::int64_t c64[L] = {};
    std::size_t p = 0;
    while (p < redPairs) {
        const std::size_t end = std::min(
            p + static_cast<std::size_t>(chunkPairs), redPairs);
        std::int32_t c32[L] = {};
        for (; p < end; ++p) {
            const std::int32_t w0 = w[p * wstride];
            const std::int32_t w1 = w[p * wstride + 1];
            const std::int16_t *r0 = xg + 2 * p * L;
            for (int l = 0; l < L; ++l)
                c32[l] += w0 * r0[l] + w1 * r0[L + l];
        }
        for (int l = 0; l < L; ++l)
            c64[l] += c32[l];
    }
    for (int l = 0; l < L; ++l)
        acc[l] = c64[l];
}

#if defined(FIDELITY_KIMPL_X86) && defined(__AVX2__)

/** AVX2 narrow kernel: one 256-bit pmaddwd stream per 8-lane block. */
inline void
gemmNarrowAvx2K(const std::int16_t *x, int redPairs, int nblocks,
                const std::int16_t *packed, int chunkPairs,
                std::int64_t *acc)
{
    constexpr int L = kNarrowLanes;
    const std::size_t blkStride =
        static_cast<std::size_t>(redPairs) * 2 * L;
    for (int b = 0; b < nblocks; ++b) {
        const std::int16_t *wb = packed + b * blkStride;
        __m256i lo64 = _mm256_setzero_si256();
        __m256i hi64 = _mm256_setzero_si256();
        int p = 0;
        while (p < redPairs) {
            const int end = std::min(p + chunkPairs, redPairs);
            __m256i c32 = _mm256_setzero_si256();
            for (; p < end; ++p) {
                const __m256i xv =
                    _mm256_set1_epi32(loadPair32(x + 2 * p));
                __m256i wv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wb + p * 2 * L));
                c32 = _mm256_add_epi32(c32, _mm256_madd_epi16(wv, xv));
            }
            lo64 = _mm256_add_epi64(
                lo64, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(c32)));
            hi64 = _mm256_add_epi64(
                hi64,
                _mm256_cvtepi32_epi64(_mm256_extracti128_si256(c32, 1)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + b * L),
                            lo64);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(acc + b * L + 4), hi64);
    }
}

/** AVX2 narrow batched MAC: the whole lane row per pmaddwd. */
inline void
batchMacNarrowAvx2K(const std::int16_t *xg, const std::int16_t *w,
                    std::size_t redPairs, std::size_t wstride,
                    int chunkPairs, std::int64_t *acc)
{
    static_assert(kBatchLanes == 8, "one 256-bit pmaddwd per pair row");
    __m256i lo64 = _mm256_setzero_si256();
    __m256i hi64 = _mm256_setzero_si256();
    std::size_t p = 0;
    while (p < redPairs) {
        const std::size_t end = std::min(
            p + static_cast<std::size_t>(chunkPairs), redPairs);
        __m256i c32 = _mm256_setzero_si256();
        for (; p < end; ++p) {
            const __m256i wv =
                _mm256_set1_epi32(loadPair32(w + p * wstride));
            __m128i r0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(xg + 2 * p * 8));
            __m128i r1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(xg +
                                                  (2 * p + 1) * 8));
            __m128i plo = _mm_unpacklo_epi16(r0, r1); // lanes 0..3
            __m128i phi = _mm_unpackhi_epi16(r0, r1); // lanes 4..7
            __m256i pairs = _mm256_set_m128i(phi, plo);
            c32 = _mm256_add_epi32(c32, _mm256_madd_epi16(pairs, wv));
        }
        lo64 = _mm256_add_epi64(
            lo64, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(c32)));
        hi64 = _mm256_add_epi64(
            hi64,
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(c32, 1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc), lo64);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + 4), hi64);
}

#endif // AVX2

// ---------------------------------------------------------------- //
// Lane-minor batched MAC rows (fault-batched engine).               //
// ---------------------------------------------------------------- //

/**
 * One lane-row walk with C adjacent weight columns: a[c] carries
 * column c's independent add chain, so the k loop keeps C chains in
 * flight instead of one.  A backend narrower than the row walks it in
 * kBatchLanes / kF32W chunks.  Per (lane, column) the arithmetic is
 * a + x*w in k order.  The unroll pragmas keep a[] in registers;
 * without them GCC at -O2 leaves it in memory.
 */
template <class B, int C>
void
batchMacF32W(const float *xg, const float *w, std::size_t red,
             std::size_t wstride, float *acc)
{
    constexpr int L = B::kF32W;
    constexpr int W = kBatchLanes;
    static_assert(W % L == 0, "the lane row splits into whole chunks");
    for (int j = 0; j < W; j += L) {
        typename B::F32 a[C];
#pragma GCC unroll 8
        for (int c = 0; c < C; ++c)
            a[c] = B::f32zero();
        for (std::size_t k = 0; k < red; ++k) {
            const auto x = B::f32load(xg + k * W + j);
            const float *wk = w + k * wstride;
#pragma GCC unroll 8
            for (int c = 0; c < C; ++c)
                a[c] = B::f32mulAcc(a[c], x, B::f32broadcast(wk[c]));
        }
#pragma GCC unroll 8
        for (int c = 0; c < C; ++c)
            B::f32store(acc + c * W + j, a[c]);
    }
}

/** The batchMacF32 entry: column count as a template constant. */
template <class B>
void
batchMacF32T(const float *xg, const float *w, std::size_t red,
             std::size_t wstride, int cols, float *acc)
{
    static_assert(kF32Lanes == 8, "one case per pack-block column");
    switch (cols) {
    case 1: return batchMacF32W<B, 1>(xg, w, red, wstride, acc);
    case 2: return batchMacF32W<B, 2>(xg, w, red, wstride, acc);
    case 3: return batchMacF32W<B, 3>(xg, w, red, wstride, acc);
    case 4: return batchMacF32W<B, 4>(xg, w, red, wstride, acc);
    case 5: return batchMacF32W<B, 5>(xg, w, red, wstride, acc);
    case 6: return batchMacF32W<B, 6>(xg, w, red, wstride, acc);
    case 7: return batchMacF32W<B, 7>(xg, w, red, wstride, acc);
    default: return batchMacF32W<B, 8>(xg, w, red, wstride, acc);
    }
}

template <class B>
void
batchMacI64T(const std::int32_t *xg, const std::int32_t *w,
             std::size_t red, std::size_t wstride, std::int64_t *acc)
{
    constexpr int L = B::kI64W;
    constexpr int W = kBatchLanes;
    static_assert(W % L == 0, "the lane row splits into whole chunks");
    for (int j = 0; j < W; j += L) {
        auto a = B::i64zero();
        for (std::size_t k = 0; k < red; ++k)
            a = B::i64mulAcc(a, w[k * wstride], xg + k * W + j);
        B::i64store(acc + j, a);
    }
}

// ---------------------------------------------------------------- //
// Streaming elementwise maps.                                       //
// ---------------------------------------------------------------- //

template <class B>
void
addF32T(const float *a, const float *b, float *o, std::size_t n)
{
    constexpr int L = B::kF32W;
    std::size_t i = 0;
    for (; i + L <= n; i += L)
        B::f32store(o + i, B::f32add(B::f32load(a + i),
                                     B::f32load(b + i)));
    for (; i < n; ++i)
        o[i] = a[i] + b[i];
}

template <class B>
void
subF32T(const float *a, const float *b, float *o, std::size_t n)
{
    constexpr int L = B::kF32W;
    std::size_t i = 0;
    for (; i + L <= n; i += L)
        B::f32store(o + i, B::f32sub(B::f32load(a + i),
                                     B::f32load(b + i)));
    for (; i < n; ++i)
        o[i] = a[i] - b[i];
}

template <class B>
void
mulF32T(const float *a, const float *b, float *o, std::size_t n)
{
    constexpr int L = B::kF32W;
    std::size_t i = 0;
    for (; i + L <= n; i += L)
        B::f32store(o + i, B::f32mul(B::f32load(a + i),
                                     B::f32load(b + i)));
    for (; i < n; ++i)
        o[i] = a[i] * b[i];
}

template <class B>
void
scaleShiftF32T(const float *x, float scale, float shift, float *o,
               std::size_t n)
{
    constexpr int L = B::kF32W;
    const auto vs = B::f32broadcast(scale);
    const auto vt = B::f32broadcast(shift);
    std::size_t i = 0;
    for (; i + L <= n; i += L)
        B::f32store(o + i, B::f32add(B::f32mul(vs, B::f32load(x + i)),
                                     vt));
    for (; i < n; ++i)
        o[i] = scale * x[i] + shift;
}

template <class B>
void
reluF32T(const float *x, float *o, std::size_t n)
{
    constexpr int L = B::kF32W;
    const auto zero = B::f32zero();
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
        auto vx = B::f32load(x + i);
        B::f32store(o + i, B::f32selectGtZero(vx, vx, zero));
    }
    for (; i < n; ++i)
        o[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

template <class B>
void
lreluF32T(const float *x, float alpha, float *o, std::size_t n)
{
    constexpr int L = B::kF32W;
    const auto va = B::f32broadcast(alpha);
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
        auto vx = B::f32load(x + i);
        B::f32store(o + i,
                    B::f32selectGtZero(vx, vx, B::f32mul(va, vx)));
    }
    for (; i < n; ++i)
        o[i] = x[i] > 0.0f ? x[i] : alpha * x[i];
}

// ---------------------------------------------------------------- //
// Stored-form converters.                                           //
// ---------------------------------------------------------------- //

/** Local replica of tensor/quant.cc quantize(): same expression, same
 *  order, so results (NaN → 0 included) are bit-identical.
 *  Internal linkage — tensor/quant.cc stays the public definition. */
inline std::int32_t
quantOne(float x, double scale, std::int32_t qmin, std::int32_t qmax)
{
    if (std::isnan(x))
        return 0;
    double q = std::nearbyint(static_cast<double>(x) / scale);
    q = std::clamp(q, static_cast<double>(qmin),
                   static_cast<double>(qmax));
    return static_cast<std::int32_t>(q);
}

inline void
roundToHalfScalarK(const float *in, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = fidelity::roundToHalf(in[i]);
}

inline void
quantizeScalarK(const float *in, std::int32_t *out, std::size_t n,
                double scale, std::int32_t qmin, std::int32_t qmax)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = quantOne(in[i], scale, qmin, qmax);
}

/** One integer writeback: MacLayer::writeback() of the accumulator's
 *  real value, with tensor/quant.hh's dequantize() spelled out. */
inline float
requantOne(std::int64_t acc, double s0, double s1, double s2, float bias,
           double outScale, std::int32_t qmin, std::int32_t qmax)
{
    const float real =
        static_cast<float>(static_cast<double>(acc) * s0 * s1 * s2) + bias;
    return static_cast<float>(quantOne(real, outScale, qmin, qmax) *
                              outScale);
}

inline void
requantI64ScalarK(const std::int64_t *acc, std::size_t n, double s0,
                  double s1, double s2, const float *bias, double outScale,
                  std::int32_t qmin, std::int32_t qmax, float *y)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = requantOne(acc[i], s0, s1, s2, bias ? bias[i] : 0.0f,
                          outScale, qmin, qmax);
}

#if defined(FIDELITY_KIMPL_X86) && defined(__AVX2__) && \
    defined(__F16C__)

inline void
roundToHalfAvx2K(const float *in, float *out, std::size_t n)
{
    const __m256 sign_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x80000000));
    const __m256 canon_nan =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fc00000));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 x = _mm256_loadu_ps(in + i);
        __m128i h = _mm256_cvtps_ph(
            x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        __m256 y = _mm256_cvtph_ps(h);
        // The hardware keeps NaN payload bits the software path
        // drops; canonicalise unordered lanes to sign|0x7fc00000.
        __m256 unord = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
        if (_mm256_movemask_ps(unord)) {
            __m256 canon =
                _mm256_or_ps(_mm256_and_ps(x, sign_mask), canon_nan);
            y = _mm256_blendv_ps(y, canon, unord);
        }
        _mm256_storeu_ps(out + i, y);
    }
    for (; i < n; ++i)
        out[i] = fidelity::roundToHalf(in[i]);
}

inline void
quantizeAvx2K(const float *in, std::int32_t *out, std::size_t n,
              double scale, std::int32_t qmin, std::int32_t qmax)
{
    const __m256d vscale = _mm256_set1_pd(scale);
    const __m256d lo = _mm256_set1_pd(static_cast<double>(qmin));
    const __m256d hi = _mm256_set1_pd(static_cast<double>(qmax));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m128 xf = _mm_loadu_ps(in + i);
        if (_mm_movemask_ps(_mm_cmpunord_ps(xf, xf))) {
            // NaN operands take the scalar path, which maps them to 0.
            for (std::size_t j = i; j < i + 4; ++j)
                out[j] = quantOne(in[j], scale, qmin, qmax);
            continue;
        }
        __m256d x = _mm256_cvtps_pd(xf);
        __m256d q = _mm256_div_pd(x, vscale);
        q = _mm256_round_pd(
            q, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        q = _mm256_max_pd(_mm256_min_pd(q, hi), lo);
        __m128i r = _mm256_cvttpd_epi32(q);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i), r);
    }
    for (; i < n; ++i)
        out[i] = quantOne(in[i], scale, qmin, qmax);
}

/**
 * requantI64ScalarK four accumulators at a time.  AVX2 has no int64 to
 * double conversion; adding the bit pattern of 1.5 * 2^52 to an int64
 * with |acc| < 2^51 lands in the binade whose spacing is 1, so
 * subtracting 1.5 * 2^52 again leaves exactly (double)acc.  A group
 * with any larger accumulator runs the scalar twin.  Every later step
 * is the scalar expression's IEEE operation in the same order; a NaN
 * real becomes +0 before quantising, which quantises to 0 as
 * quantOne maps NaN to 0.
 */
inline void
requantI64Avx2K(const std::int64_t *acc, std::size_t n, double s0,
                double s1, double s2, const float *bias, double outScale,
                std::int32_t qmin, std::int32_t qmax, float *y)
{
    constexpr std::int64_t kExact = std::int64_t{1} << 51;
    const __m256i magicBits = _mm256_set1_epi64x(0x4338000000000000);
    const __m256d magic = _mm256_set1_pd(6755399441055744.0); // 1.5*2^52
    const __m256i hiLim = _mm256_set1_epi64x(kExact);
    const __m256i loLim = _mm256_set1_epi64x(-kExact);
    const __m256d v0 = _mm256_set1_pd(s0);
    const __m256d v1 = _mm256_set1_pd(s1);
    const __m256d v2 = _mm256_set1_pd(s2);
    const __m256d vout = _mm256_set1_pd(outScale);
    const __m256d lo = _mm256_set1_pd(static_cast<double>(qmin));
    const __m256d hi = _mm256_set1_pd(static_cast<double>(qmax));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + i));
        const __m256i exact =
            _mm256_and_si256(_mm256_cmpgt_epi64(hiLim, a),
                             _mm256_cmpgt_epi64(a, loLim));
        if (_mm256_movemask_pd(_mm256_castsi256_pd(exact)) != 0xf) {
            for (std::size_t j = i; j < i + 4; ++j)
                y[j] = requantOne(acc[j], s0, s1, s2,
                                  bias ? bias[j] : 0.0f, outScale, qmin,
                                  qmax);
            continue;
        }
        __m256d d = _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_add_epi64(a, magicBits)), magic);
        d = _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(d, v0), v1), v2);
        __m128 real = _mm256_cvtpd_ps(d);
        real = _mm_add_ps(real, bias ? _mm_loadu_ps(bias + i)
                                     : _mm_setzero_ps());
        real = _mm_andnot_ps(_mm_cmpunord_ps(real, real), real);
        __m256d q = _mm256_div_pd(_mm256_cvtps_pd(real), vout);
        q = _mm256_round_pd(
            q, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        q = _mm256_max_pd(_mm256_min_pd(q, hi), lo);
        // Through int32 and back, as dequantize() reads it: a -0 from
        // rounding becomes +0 before the scale multiply.
        const __m256d qd = _mm256_cvtepi32_pd(_mm256_cvttpd_epi32(q));
        _mm_storeu_ps(y + i, _mm256_cvtpd_ps(_mm256_mul_pd(qd, vout)));
    }
    for (; i < n; ++i)
        y[i] = requantOne(acc[i], s0, s1, s2, bias ? bias[i] : 0.0f,
                          outScale, qmin, qmax);
}

#endif // AVX2 && F16C

} // namespace
} // namespace fidelity::simd

#endif // FIDELITY_SIMD_KERNELS_IMPL_HH
