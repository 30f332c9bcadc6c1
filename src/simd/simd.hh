/**
 * @file
 * Runtime-dispatched SIMD kernel tables for the forward kernels.
 *
 * The hot kernels (conv / FC / matmul / elementwise) vectorize across
 * *independent output elements* — output-channel lanes for the MAC
 * layers — while each output's reduction keeps the canonical scalar
 * accumulation order.  Per lane, every operation is the exact scalar
 * operation (an unfused multiply followed by an add, never an FMA), so
 * a vector kernel is bit-identical to the scalar kernel for any lane
 * width, and identical across backends.
 *
 * Backends are no longer chosen at compile time.  Each backend lives
 * in its own translation unit (`kernels_scalar.cc`, `kernels_sse2.cc`,
 * `kernels_avx2.cc`, `kernels_neon.cc`) compiled with per-file ISA
 * flags, exposing one `KernelTable` of function pointers.  `table()`
 * picks the best table for the running CPU once (CPUID), so a single
 * x86-64-baseline binary serves AVX2, SSE2-only, and scalar hosts.
 * The choice can be overridden with the `FIDELITY_FORCE_BACKEND`
 * environment variable or `forceBackend()` (the CLI flags route
 * through the latter), and `FIDELITY_NO_SIMD` builds compile every
 * intrinsic table out, leaving only the scalar table.
 *
 * The packed-weight layouts use *fixed* lane widths shared by every
 * backend (kF32Lanes/kI64Lanes/kNarrowLanes below): a 4-lane backend
 * walks an 8-wide block in two halves, the scalar table loops — so a
 * pack built once is valid under any dispatched or forced backend,
 * and switching backends never requires repacking.
 *
 * The runtime toggle (`setEnabled(false)`) routes `table()` to the
 * scalar table inside a SIMD build; the differential tests and the
 * scalar-vs-SIMD benches use it to compare both paths in one binary.
 * Because lane grouping never changes the arithmetic of one output,
 * neither the toggle nor the dispatched backend can change results;
 * tests assert that.
 */

#ifndef FIDELITY_SIMD_SIMD_HH
#define FIDELITY_SIMD_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(FIDELITY_NO_SIMD)
#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#include <immintrin.h>
#define FIDELITY_SIMD_X86_BASELINE 1
#endif
#endif

namespace fidelity::simd
{

/**
 * Fixed pack widths (see pack.hh).  These are properties of the packed
 * data layout, not of any one backend: every KernelTable consumes the
 * same layout, which is what makes runtime backend switching free.
 */
inline constexpr int kF32Lanes = 8;    //!< f32 pack block width
inline constexpr int kI64Lanes = 4;    //!< wide-int pack block width
inline constexpr int kNarrowLanes = 8; //!< narrow-int pack block width

/**
 * Minimum overflow-safe chunk length (in reduction *pairs*) for the
 * narrow integer path to be worth engaging; below this the int64
 * spills dominate and the wide path wins (see narrowChunkPairs() in
 * pack.hh and DESIGN.md §13).
 */
inline constexpr int kNarrowMinChunk = 8;

/**
 * One backend's kernel entry points.  All signatures are plain C data
 * (raw pointers + sizes) so the per-ISA translation units need no
 * repo headers beyond this one: gathers, writebacks, and layer logic
 * stay in baseline-compiled code, only the inner loops cross this
 * boundary.
 *
 * GEMM kernels *overwrite* `acc` with the full padded lane results
 * ([nblocks][L]); callers read back the real columns.  Batched MAC
 * kernels likewise overwrite `acc[0..W)` (`acc[0..cols*W)` for the
 * float row).
 */
struct KernelTable
{
    const char *name; //!< "avx2", "sse2", "neon", or "scalar"

    /**
     * acc[b*8+l] = sum_k x[k] * packed[(b*red + k)*8 + l] with the
     * canonical per-lane unfused multiply-add order (pack.hh layout,
     * width kF32Lanes).
     */
    void (*gemmF32)(const float *x, int red, int nblocks,
                    const float *packed, float *acc);

    /**
     * Wide integer twin: int64 accumulators over int32 operands,
     * pack width kI64Lanes.  acc[b*4+l] = sum_k x[k] * w[k, l].
     */
    void (*gemmI64)(const std::int32_t *x, int red, int nblocks,
                    const std::int32_t *packed, std::int64_t *acc);

    /**
     * Narrow integer kernel over the pair-interleaved int16 pack
     * (packNarrow(): [colBlock][kPair][lane8][2]).  Operands are the
     * stored-form quantised values narrowed to int16 (lossless for
     * bits <= 16); `x` must be readable for 2*redPairs elements (the
     * caller pads odd reductions — the padded weight is zero, so the
     * padded operand's value cannot matter).  Pair products accumulate
     * in int32 for at most `chunkPairs` pairs (statically proven not
     * to overflow — see narrowChunkPairs()), then spill into int64.
     * Integer math is exact, so the result equals the wide kernel's
     * bit for bit.
     */
    void (*gemmNarrow)(const std::int16_t *x, int redPairs, int nblocks,
                       const std::int16_t *packed, int chunkPairs,
                       std::int64_t *acc);

    /**
     * Lane-minor batched MAC row (fault-batched engine) over `cols`
     * (1..kF32Lanes) adjacent weight columns of one pack block:
     * acc[c*W + l] = sum_k xg[k*W + l] * w[k*wstride + c] for l in
     * [0, W), in canonical k order with unfused per-lane multiply-adds.
     * Each (lane, column) is an independent output, so the columns run
     * as independent add chains.
     */
    void (*batchMacF32)(const float *xg, const float *w, std::size_t red,
                        std::size_t wstride, int cols, int W, float *acc);

    /** Wide-int batched twin: acc[l] += (int64)w[k*wstride] * xg[k*W+l]. */
    void (*batchMacI64)(const std::int32_t *xg, const std::int32_t *w,
                        std::size_t red, std::size_t wstride, int W,
                        std::int64_t *acc);

    /**
     * Narrow batched MAC: operands are int16 lane rows (xg must hold
     * 2*redPairs rows of W lanes; the caller zero-pads the last row
     * when the reduction is odd), weights are pairs read from the
     * narrow pack at w[p*wstride], w[p*wstride + 1].  Same chunked
     * int32 accumulation contract as gemmNarrow.
     */
    void (*batchMacNarrow)(const std::int16_t *xg, const std::int16_t *w,
                           std::size_t redPairs, std::size_t wstride,
                           int chunkPairs, int W, std::int64_t *acc);

    // Streaming elementwise maps (whole range, scalar tail inside).
    void (*addF32)(const float *a, const float *b, float *o, std::size_t n);
    void (*subF32)(const float *a, const float *b, float *o, std::size_t n);
    void (*mulF32)(const float *a, const float *b, float *o, std::size_t n);
    /** o[i] = scale * x[i] + shift (unfused). */
    void (*scaleShiftF32)(const float *x, float scale, float shift,
                          float *o, std::size_t n);
    /** o[i] = x[i] > 0 ? x[i] : 0 (NaN takes the 0 branch, like scalar). */
    void (*reluF32)(const float *x, float *o, std::size_t n);
    /** o[i] = x[i] > 0 ? x[i] : alpha * x[i]. */
    void (*lreluF32)(const float *x, float alpha, float *o, std::size_t n);

    /** out[i] = roundToHalf(in[i]); bit-identical to the scalar fn. */
    void (*roundToHalfB)(const float *in, float *out, std::size_t n);

    /** out[i] = quantize(in[i]) with the given params; bit-identical. */
    void (*quantizeB)(const float *in, std::int32_t *out, std::size_t n,
                      double scale, std::int32_t qmin, std::int32_t qmax);
};

/**
 * The kernel table every hot path should use.  Honours (in order) the
 * runtime kill switch (`setEnabled(false)` → scalar table), an active
 * `forceBackend()` / `FIDELITY_FORCE_BACKEND` override, then the
 * CPUID-selected best table.  Hoist the reference out of loops —
 * the selection itself is one relaxed atomic load.
 */
const KernelTable &table();

/**
 * Runtime name of the dispatched backend ("avx2", "sse2", "neon",
 * "scalar") — the table `table()` would return with the kill switch
 * on.  Reported in the run manifest and the bench rows.
 */
const char *backendName();

/** How the backend was chosen: "cpuid", "forced-env", "forced-api",
 *  or "no-simd" (FIDELITY_NO_SIMD build). */
const char *dispatchMode();

/**
 * Force a specific backend by name ("scalar", "sse2", "avx2", "neon");
 * nullptr, "" or "auto" restores CPUID selection.  Returns false (and
 * changes nothing) when the named backend is unavailable — not
 * compiled in, or the CPU lacks the ISA.  Packed weights are
 * backend-independent, so switching never invalidates layer caches.
 */
bool forceBackend(const char *name);

/** Whether the named backend could be forced on this host. */
bool backendAvailable(const char *name);

/**
 * Runtime kill switch: when false, every kernel runs the scalar table
 * (bit-identical by construction).  Global, not thread-local — flip it
 * only around single-threaded comparisons.
 */
bool enabled();
void setEnabled(bool on);

/**
 * First index in [0, n) where a and b differ bit-for-bit, or n.
 * Exact integer comparison (distinguishes -0.0/+0.0 and NaN payloads),
 * used by the incremental engine's cone shrinking.  Compiled at the
 * baseline ISA (SSE2 on x86-64) — comparisons are exact under any
 * vector width, so these do not go through the dispatch table.
 */
std::size_t firstBitDiff(const float *a, const float *b, std::size_t n);

/** Last differing index in [0, n), or n when the ranges are equal. */
std::size_t lastBitDiff(const float *a, const float *b, std::size_t n);

/**
 * Bitmask of the lanes in p[0..lanes) whose 32-bit pattern differs
 * from x's pattern (bit l set when p[l] != x bitwise).  Exact integer
 * comparison like firstBitDiff; the batched engine's per-injection
 * diff scan compares each SoA lane column against the golden value
 * with one movemask where the baseline ISA has it.
 */
inline std::uint32_t
laneNeMask(const float *p, float x, int lanes)
{
    std::uint32_t xb;
    std::memcpy(&xb, &x, sizeof(xb));
#if defined(FIDELITY_SIMD_X86_BASELINE)
    if (lanes == 8) {
        __m128i xv = _mm_set1_epi32(static_cast<std::int32_t>(xb));
        __m128i lo =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        __m128i hi =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + 4));
        std::uint32_t mlo = static_cast<std::uint32_t>(_mm_movemask_ps(
            _mm_castsi128_ps(_mm_cmpeq_epi32(lo, xv))));
        std::uint32_t mhi = static_cast<std::uint32_t>(_mm_movemask_ps(
            _mm_castsi128_ps(_mm_cmpeq_epi32(hi, xv))));
        return ~(mlo | (mhi << 4)) & 0xffu;
    }
    if (lanes == 4) {
        __m128i pv =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        __m128i eq = _mm_cmpeq_epi32(
            pv, _mm_set1_epi32(static_cast<std::int32_t>(xb)));
        return ~static_cast<std::uint32_t>(
                   _mm_movemask_ps(_mm_castsi128_ps(eq))) &
               0xfu;
    }
#endif
    std::uint32_t m = 0;
    for (int l = 0; l < lanes; ++l) {
        std::uint32_t pb;
        std::memcpy(&pb, p + l, sizeof(pb));
        if (pb != xb)
            m |= 1u << l;
    }
    return m;
}

} // namespace fidelity::simd

#endif // FIDELITY_SIMD_SIMD_HH
