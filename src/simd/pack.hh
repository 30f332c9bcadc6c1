/**
 * @file
 * Lane-blocked packing of MAC-layer weights.
 *
 * The vector kernels walk one output block's reduction as a contiguous
 * stream.  Two layouts exist, both with *fixed* lane widths shared by
 * every backend (simd.hh), so a pack built once is valid under any
 * runtime-dispatched or forced backend:
 *
 *  - Wide: [colBlock][k][lane] over float or int32, block width
 *    kF32Lanes / kI64Lanes, zero-padded columns.  `cols` is the
 *    independent output dimension (output channels / FC units /
 *    matmul columns), `k` walks the canonical reduction order.
 *
 *  - Narrow: [colBlock][kPair][lane][2] over int16, block width
 *    kNarrowLanes.  Adjacent reduction steps (2p, 2p+1) interleave
 *    per lane so `pmaddwd` forms both products and their int32 sum in
 *    one instruction; an odd reduction pads the final pair with a
 *    *zero weight*, which keeps the kernel exact regardless of the
 *    paired operand value.  Quantised weights always fit int16
 *    (|w| <= 2^(bits-1), bits <= 16), so narrowing is lossless.
 *
 * Packing happens once per layer at construction (FP32), and again
 * inside the layer's onQuantChanged() whenever the precision or
 * quantisation ranges change — never in the per-forward hot loop, so
 * forward calls only read the pack.
 */

#ifndef FIDELITY_SIMD_PACK_HH
#define FIDELITY_SIMD_PACK_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "simd/simd.hh"

namespace fidelity::simd
{

/** Number of lane-blocks covering `cols` at lane width `L`. */
constexpr int
packBlocks(int cols, int L)
{
    return (cols + L - 1) / L;
}

/** Packed element count for a [red][cols] weight matrix. */
constexpr std::size_t
packSize(int red, int cols, int L)
{
    return static_cast<std::size_t>(packBlocks(cols, L)) * red * L;
}

/**
 * Scatter a logically [red][cols] source into [colBlock][red][L].
 * `get(k, c)` returns the converted weight of reduction step k and
 * output column c; out-of-range lanes are zero-filled.
 */
template <typename T, class Get>
void
packLaneBlocked(int red, int cols, int L, Get get, T *dst)
{
    std::size_t o = 0;
    for (int cb = 0; cb < packBlocks(cols, L); ++cb)
        for (int k = 0; k < red; ++k)
            for (int l = 0; l < L; ++l, ++o) {
                int c = cb * L + l;
                dst[o] = c < cols ? get(k, c) : T{};
            }
}

/** Reduction pairs covering `red` steps (odd reductions round up). */
constexpr int
packPairs(int red)
{
    return (red + 1) / 2;
}

/** Packed element count of the narrow [colBlock][kPair][lane][2]
 *  layout for a [red][cols] weight matrix. */
constexpr std::size_t
packNarrowSize(int red, int cols)
{
    return static_cast<std::size_t>(packBlocks(cols, kNarrowLanes)) *
           packPairs(red) * kNarrowLanes * 2;
}

/**
 * Scatter a logically [red][cols] quantised weight matrix into the
 * narrow pair-interleaved layout.  `get(k, c)` returns the int32
 * quantised weight; out-of-range pairs and lanes are zero-filled
 * (the zero *weight* is what makes the odd-reduction pad exact).
 */
template <class Get>
void
packNarrow(int red, int cols, Get get, std::int16_t *dst)
{
    constexpr int L = kNarrowLanes;
    std::size_t o = 0;
    for (int cb = 0; cb < packBlocks(cols, L); ++cb)
        for (int p = 0; p < packPairs(red); ++p)
            for (int l = 0; l < L; ++l)
                for (int j = 0; j < 2; ++j, ++o) {
                    int c = cb * L + l;
                    int k = 2 * p + j;
                    dst[o] = (c < cols && k < red)
                                 ? static_cast<std::int16_t>(get(k, c))
                                 : std::int16_t{0};
                }
}

/**
 * Statically proven overflow bound for the narrow kernels: the
 * largest number of reduction *pairs* whose int32 pair-sum
 * accumulation cannot overflow, given |x| <= 2^(bits-1) (quantize()
 * clamps operands to [qmin, qmax]) and |w| <= maxAbsW (scanned from
 * the actual quantised weights at pack time).
 *
 * One pair contributes |x0*w0 + x1*w1| <= 2 * 2^(bits-1) * maxAbsW;
 * requiring that bound itself to fit int32 also rules out `pmaddwd`'s
 * single internal wrap case (all four operands -2^15).  Returns 0
 * when even one pair could overflow — the caller must then use the
 * wide int64 path.  Chunks of this many pairs accumulate exactly in
 * int32 and spill exactly into int64, so the narrow result equals
 * the wide kernel's bit for bit (integer reassociation is legal iff
 * nothing overflows — this is the proof the tests exercise).
 */
inline int
narrowChunkPairs(int bits, std::int32_t maxAbsW)
{
    const std::int64_t kInt32Max = 2147483647;
    // Cap so `p + chunk` arithmetic stays comfortably in int range.
    const std::int64_t kCap = std::int64_t{1} << 28;
    const std::int64_t bx = std::int64_t{1} << (bits - 1);
    const std::int64_t pairBound = 2 * bx * maxAbsW;
    if (pairBound == 0)
        return static_cast<int>(kCap); // all-zero weights: any chunk
    if (pairBound > kInt32Max)
        return 0; // narrow path illegal
    const std::int64_t chunk = kInt32Max / pairBound;
    return static_cast<int>(chunk < kCap ? chunk : kCap);
}

/** Whether the narrow path is both legal and profitable. */
inline bool
narrowEligible(int chunkPairs)
{
    return chunkPairs >= kNarrowMinChunk;
}

} // namespace fidelity::simd

#endif // FIDELITY_SIMD_PACK_HH
