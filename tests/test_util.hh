/**
 * @file
 * Helpers shared by the test suites: seeded tensors, bitwise tensor
 * equality, the branchy layer-zoo network of the engine tests, the
 * forceable SIMD backends, and self-deleting temp files.
 */

#ifndef FIDELITY_TESTS_TEST_UTIL_HH
#define FIDELITY_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "nn/activation.hh"
#include "nn/conv.hh"
#include "nn/elementwise.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "sim/rng.hh"
#include "simd/simd.hh"

namespace fidelity::test
{

/** n×h×w×c tensor of N(0, 1) draws from Rng(seed). */
inline Tensor
randomTensor(std::uint64_t seed, int n, int h, int w, int c)
{
    Rng rng(seed);
    Tensor t(n, h, w, c);
    for (auto &v : t.data())
        v = static_cast<float>(rng.normal(0, 1));
    return t;
}

/** Same shape and the same bits everywhere (NaN payloads and signed
 *  zeros included). */
inline bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    if (!a.sameShape(b))
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<std::uint32_t>(a[i]) !=
            std::bit_cast<std::uint32_t>(b[i]))
            return false;
    return true;
}

/** A convolution with He-initialised weights drawn from Rng(seed). */
inline std::unique_ptr<Conv2D>
makeConv(std::string name, const ConvSpec &spec, std::uint64_t seed)
{
    Rng rng(seed);
    std::size_t wcount = static_cast<std::size_t>(spec.kh) * spec.kw *
                         (spec.inC / spec.groups) * spec.outC;
    int fan_in = spec.kh * spec.kw * (spec.inC / spec.groups);
    return std::make_unique<Conv2D>(
        std::move(name), spec, heWeights(rng, wcount, fan_in),
        spec.bias ? smallBiases(rng, spec.outC) : std::vector<float>{});
}

/** A position-wise FC with He-initialised weights and small biases. */
inline std::unique_ptr<FC>
makeFc(std::string name, int in_c, int units, std::uint64_t seed)
{
    Rng rng(seed);
    return std::make_unique<FC>(
        std::move(name), in_c, units,
        heWeights(rng, static_cast<std::size_t>(in_c) * units, in_c),
        smallBiases(rng, units));
}

/**
 * A small CNN exercising every spatially-local layer the sparse
 * engines propagate through: padded, grouped (depthwise), dilated, and
 * strided convolutions on two parallel branches, elementwise add,
 * scale, channel concat, slice, max pooling, global average pooling,
 * and an FC head.  Takes 1×8×8×4 inputs.
 */
inline Network
makeBranchy(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("branchy");
    NodeId c1 = net.add(
        makeConv("c1", {.inC = 4, .outC = 8, .pad = 1}, seed + 1), 0);
    NodeId r1 = net.add(
        std::make_unique<Activation>("relu1", Activation::Func::ReLU),
        c1);
    NodeId dw = net.add(
        makeConv("dw", {.inC = 8, .outC = 8, .pad = 1, .groups = 8},
                 seed + 2),
        r1);
    NodeId dil = net.add(
        makeConv("dil", {.inC = 8, .outC = 8, .pad = 2, .dilation = 2},
                 seed + 3),
        r1);
    NodeId add = net.add(std::make_unique<Elementwise>(
                             "add", Elementwise::Op::Add),
                         std::vector<NodeId>{dw, dil});
    NodeId ss = net.add(
        std::make_unique<ScaleShift>("ss", 0.5f, 0.1f), add);
    NodeId cat = net.add(std::make_unique<ConcatC>("cat"),
                         std::vector<NodeId>{add, ss});
    NodeId sl = net.add(
        std::make_unique<Slice>("sl", Slice::Axis::C, 4, 8), cat);
    NodeId p = net.add(
        std::make_unique<Pool>("pool", Pool::Mode::Max, 2, 2), sl);
    NodeId c2 = net.add(
        makeConv("c2", {.inC = 8, .outC = 8, .stride = 2, .pad = 1},
                 seed + 4),
        p);
    NodeId gap = net.add(std::make_unique<GlobalAvgPool>("gap"), c2);
    net.add(std::make_unique<FC>("fc", 8, 5, heWeights(rng, 40, 8),
                                 smallBiases(rng, 5)),
            gap);
    return net;
}

/** Every backend simd::forceBackend accepts on this host, scalar
 *  first. */
inline std::vector<const char *>
availableBackends()
{
    std::vector<const char *> v{"scalar"};
    for (const char *n : {"sse2", "avx2", "neon"})
        if (simd::backendAvailable(n))
            v.push_back(n);
    return v;
}

/**
 * A file path in gtest's temp dir, unique to this process, removed
 * (with its atomic-write ".tmp" sibling) on construction and
 * destruction.
 */
class ScopedPath
{
  public:
    explicit ScopedPath(const std::string &name)
        : path_(testing::TempDir() + "fidelity_" +
                std::to_string(::getpid()) + "_" + name)
    {
        std::remove(path_.c_str());
    }

    ~ScopedPath()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }

    ScopedPath(const ScopedPath &) = delete;
    ScopedPath &operator=(const ScopedPath &) = delete;

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/** The whole file as bytes; a missing file fails the current test. */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace fidelity::test

#endif // FIDELITY_TESTS_TEST_UTIL_HH
