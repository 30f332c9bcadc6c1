/**
 * @file
 * Runtime backend dispatch: pick the best kernel table for the CPU we
 * are actually running on, once, with env/API overrides.  This TU is
 * compiled at the baseline ISA; the per-backend tables live in their
 * own translation units with per-file flags.
 */

#include "simd/simd.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fidelity::simd
{

// Defined in kernels_<backend>.cc; null when not compiled in.
const KernelTable *kernelTableScalar();
const KernelTable *kernelTableSse2();
const KernelTable *kernelTableAvx2();
const KernelTable *kernelTableNeon();

namespace
{

std::atomic<bool> g_enabled{true};
std::atomic<const KernelTable *> g_forced{nullptr};
// "forced-env" / "forced-api" when g_forced is set, else selection mode.
std::atomic<const char *> g_forcedMode{nullptr};

bool
cpuSupportsAvx2F16c()
{
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("f16c");
#else
    return false;
#endif
}

/**
 * Resolve a backend name to a runnable table on this host, or null.
 * "Runnable" = compiled into the binary AND supported by the CPU.
 */
const KernelTable *
resolve(const char *name)
{
    if (std::strcmp(name, "scalar") == 0)
        return kernelTableScalar();
    if (std::strcmp(name, "sse2") == 0)
        return kernelTableSse2(); // x86-64 baseline: no CPUID needed
    if (std::strcmp(name, "avx2") == 0) {
        const KernelTable *t = kernelTableAvx2();
        return (t && cpuSupportsAvx2F16c()) ? t : nullptr;
    }
    if (std::strcmp(name, "neon") == 0)
        return kernelTableNeon();
    return nullptr;
}

#if !defined(FIDELITY_NO_SIMD)
const KernelTable *
pickBest()
{
    if (const KernelTable *t = resolve("avx2"))
        return t;
    if (const KernelTable *t = kernelTableSse2())
        return t;
    if (const KernelTable *t = kernelTableNeon())
        return t;
    return kernelTableScalar();
}
#endif

struct Selection
{
    const KernelTable *t;
    const char *mode;
};

Selection
selectOnce()
{
    const char *env = std::getenv("FIDELITY_FORCE_BACKEND");
    if (env && *env && std::strcmp(env, "auto") != 0) {
        const KernelTable *t = resolve(env);
        if (!t) {
            std::fprintf(stderr,
                         "fidelity: FIDELITY_FORCE_BACKEND=%s is not "
                         "available on this host (not compiled in, or "
                         "the CPU lacks the ISA)\n",
                         env);
            std::exit(1);
        }
        return {t, "forced-env"};
    }
#if defined(FIDELITY_NO_SIMD)
    return {kernelTableScalar(), "no-simd"};
#else
    return {pickBest(), "cpuid"};
#endif
}

const Selection &
selection()
{
    static const Selection s = selectOnce();
    return s;
}

} // namespace

const KernelTable &
table()
{
    if (!g_enabled.load(std::memory_order_relaxed))
        return *kernelTableScalar();
    if (const KernelTable *f = g_forced.load(std::memory_order_relaxed))
        return *f;
    return *selection().t;
}

const char *
backendName()
{
    if (const KernelTable *f = g_forced.load(std::memory_order_relaxed))
        return f->name;
    return selection().t->name;
}

const char *
dispatchMode()
{
    if (g_forced.load(std::memory_order_relaxed))
        return g_forcedMode.load(std::memory_order_relaxed);
    return selection().mode;
}

bool
forceBackend(const char *name)
{
    if (!name || !*name || std::strcmp(name, "auto") == 0) {
        g_forced.store(nullptr, std::memory_order_relaxed);
        return true;
    }
    const KernelTable *t = resolve(name);
    if (!t)
        return false;
    g_forcedMode.store("forced-api", std::memory_order_relaxed);
    g_forced.store(t, std::memory_order_relaxed);
    return true;
}

bool
backendAvailable(const char *name)
{
    return name && resolve(name) != nullptr;
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

namespace
{

inline bool
bitsEqual(float a, float b)
{
    std::uint32_t ua, ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

} // namespace

std::size_t
firstBitDiff(const float *a, const float *b, std::size_t n)
{
    std::size_t i = 0;
#if defined(FIDELITY_SIMD_X86_BASELINE)
    for (; i + 4 <= n; i += 4) {
        __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        __m128i vb = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i));
        __m128i eq = _mm_cmpeq_epi32(va, vb);
        std::uint32_t mask = static_cast<std::uint32_t>(
            _mm_movemask_ps(_mm_castsi128_ps(eq)));
        if (mask != 0xfu)
            break;
    }
#endif
    for (; i < n; ++i)
        if (!bitsEqual(a[i], b[i]))
            return i;
    return n;
}

std::size_t
lastBitDiff(const float *a, const float *b, std::size_t n)
{
    std::size_t i = n;
#if defined(FIDELITY_SIMD_X86_BASELINE)
    while (i >= 4) {
        __m128i va = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i - 4));
        __m128i vb = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i - 4));
        __m128i eq = _mm_cmpeq_epi32(va, vb);
        std::uint32_t mask = static_cast<std::uint32_t>(
            _mm_movemask_ps(_mm_castsi128_ps(eq)));
        if (mask != 0xfu)
            break;
        i -= 4;
    }
#endif
    while (i > 0) {
        --i;
        if (!bitsEqual(a[i], b[i]))
            return i;
    }
    return n;
}

} // namespace fidelity::simd
