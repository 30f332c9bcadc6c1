#include "nn/layer.hh"

#include <algorithm>
#include <cmath>

#include "nn/lanes.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/pack.hh"
#include "tensor/bitops.hh"
#include "tensor/float16.hh"

namespace fidelity
{

const char *
precisionName(Precision p)
{
    switch (p) {
      case Precision::FP32:
        return "FP32";
      case Precision::FP16:
        return "FP16";
      case Precision::INT16:
        return "INT16";
      case Precision::INT8:
        return "INT8";
    }
    panic("unknown Precision");
}

const char *
layerKindName(LayerKind k)
{
    switch (k) {
      case LayerKind::Conv:
        return "Conv";
      case LayerKind::FC:
        return "FC";
      case LayerKind::MatMul:
        return "MatMul";
      case LayerKind::Pool:
        return "Pool";
      case LayerKind::Activation:
        return "Activation";
      case LayerKind::Elementwise:
        return "Elementwise";
      case LayerKind::Concat:
        return "Concat";
      case LayerKind::Slice:
        return "Slice";
      case LayerKind::Softmax:
        return "Softmax";
    }
    panic("unknown LayerKind");
}

Layer::Layer(std::string name)
    : name_(std::move(name))
{
}

Layer::~Layer() = default;

Tensor
Layer::forward(const std::vector<const Tensor *> &ins) const
{
    Tensor out = makeOutput(ins);
    forwardRegion(ins, Region::full(out), out);
    return out;
}

Tensor
Layer::forward(const Tensor &in) const
{
    panic_if(numInputs() != 1,
             "single-input forward() on multi-input layer ", name_);
    std::vector<const Tensor *> ins{&in};
    return forward(ins);
}

void
Layer::calibrate(const std::vector<const Tensor *> &, const Tensor &)
{
}

void
Layer::forwardRegion(const std::vector<const Tensor *> &ins,
                     const Region &region, Tensor &out) const
{
    // Width-1 views: the region kernel reads the inputs and writes the
    // output tensor in place.
    constexpr std::size_t kMaxInputs = 2;
    panic_if(ins.size() > kMaxInputs, "layer ", name_, " has ",
             ins.size(), " inputs");
    LanePlane views[kMaxInputs];
    LanePlane *inPlanes[kMaxInputs] = {};
    for (std::size_t i = 0; i < ins.size(); ++i) {
        views[i].borrow(*ins[i]);
        inPlanes[i] = &views[i];
    }
    LanePlane outView;
    outView.borrow(out);
    forwardRegionBatched(ins, inPlanes, region, nullptr, out, outView,
                         nullptr);
}

std::unique_ptr<const GoldenPrep>
Layer::prepareGolden(const std::vector<const Tensor *> &) const
{
    return nullptr;
}

MacLayer::MacLayer(std::string name)
    : Layer(std::move(name))
{
}

bool
MacLayer::forwardWithSub(const std::vector<const Tensor *> &,
                         const OperandSub *, const Region *, std::size_t,
                         Tensor &) const
{
    return false;
}

void
MacLayer::calibrate(const std::vector<const Tensor *> &ins,
                    const Tensor &out)
{
    panic_if(ins.empty(), "MacLayer::calibrate requires inputs");
    inAbsMax_ = std::max<double>(inAbsMax_, ins[0]->absMax());
    double wmax = 0.0;
    std::size_t n = weightCount(ins);
    for (std::size_t i = 0; i < n; ++i)
        wmax = std::max<double>(wmax, std::fabs(weightAt(ins, i)));
    wAbsMax_ = std::max(wAbsMax_, wmax);
    outAbsMax_ = std::max<double>(outAbsMax_, out.absMax());
    refreshQuant();
}

void
MacLayer::refreshQuant()
{
    int bits = precision_ == Precision::INT8 ? 8 : 16;
    inQuant_ = calibrateAbsMax(inAbsMax_, bits);
    wQuant_ = calibrateAbsMax(wAbsMax_, bits);
    outQuant_ = calibrateAbsMax(outAbsMax_, bits);
    onQuantChanged();
}

float
MacLayer::storeInput(float x) const
{
    switch (precision_) {
      case Precision::FP32:
        return x;
      case Precision::FP16:
        return roundToHalf(x);
      case Precision::INT16:
      case Precision::INT8:
        return dequantize(quantize(x, inQuant_), inQuant_);
    }
    panic("unknown Precision");
}

float
MacLayer::storeWeight(float x) const
{
    switch (precision_) {
      case Precision::FP32:
        return x;
      case Precision::FP16:
        return roundToHalf(x);
      case Precision::INT16:
      case Precision::INT8:
        return dequantize(quantize(x, wQuant_), wQuant_);
    }
    panic("unknown Precision");
}

std::int32_t
MacLayer::quantInput(float x) const
{
    return quantize(x, inQuant_);
}

std::int32_t
MacLayer::quantWeight(float x) const
{
    return quantize(x, wQuant_);
}

float
MacLayer::psumFlipFloat(float acc, std::uint32_t mask)
{
    return flipBits(acc, Repr::FP32, mask);
}

std::int64_t
MacLayer::psumFlipInt(std::int64_t acc, std::uint32_t mask)
{
    // The integer pipelines hold partial sums in a 32-bit window of
    // the accumulator; flipping bit b perturbs the value by +/- 2^b.
    return acc ^ static_cast<std::int64_t>(mask);
}

float
MacLayer::writeback(double acc, float bias) const
{
    switch (precision_) {
      case Precision::FP32:
        return static_cast<float>(acc) + bias;
      case Precision::FP16:
        return roundToHalf(static_cast<float>(acc) + bias);
      case Precision::INT16:
      case Precision::INT8: {
        // The integer output path re-quantises the real-valued result
        // into the (narrow) output representation, modelling the
        // precision loss and saturation of the writeback datapath.
        float real = static_cast<float>(acc) + bias;
        return dequantize(quantize(real, outQuant_), outQuant_);
      }
    }
    panic("unknown Precision");
}

PackedOperand
MacLayer::packOperand(const float *w, int red, int cols,
                      bool transposed) const
{
    // Stored-form conversion, then the lane-blocked scatter.  Integer
    // precisions scan the quantised magnitudes first: with the operand
    // bound |x| <= 2^(bits-1) the max proves the narrow kernels' int32
    // chunk length, and the pack commits to the narrow or the wide
    // layout accordingly (both exact, see Conv2D::packWeights).
    const std::size_t size = static_cast<std::size_t>(red) * cols;
    auto at = [&](int k, int c) {
        return transposed ? static_cast<std::size_t>(c) * red + k
                          : static_cast<std::size_t>(k) * cols + c;
    };
    PackedOperand p;
    Arena &arena = Arena::local();
    if (precision_ == Precision::INT8 || precision_ == Precision::INT16) {
        auto q = arena.ints(size);
        simd::quantizeBatch(w, q.data(), size, wQuant_);
        std::int32_t maxAbs = 0;
        for (std::size_t i = 0; i < size; ++i)
            maxAbs = std::max(maxAbs, q[i] < 0 ? -q[i] : q[i]);
        const int bits = precision_ == Precision::INT8 ? 8 : 16;
        const int chunk = simd::narrowChunkPairs(bits, maxAbs);
        auto get = [&](int k, int c) { return q[at(k, c)]; };
        if (simd::narrowEligible(chunk)) {
            p.chunkPairs = chunk;
            p.s.resize(simd::packNarrowSize(red, cols));
            simd::packNarrow(red, cols, get, p.s.data());
        } else {
            p.i.resize(simd::packSize(red, cols, simd::kI64Lanes));
            simd::packLaneBlocked(red, cols, simd::kI64Lanes, get,
                                  p.i.data());
        }
        return p;
    }
    const bool half = precision_ == Precision::FP16;
    auto h = arena.floats(half ? size : 0);
    if (half) {
        simd::roundToHalfBatch(w, h.data(), size);
        w = h.data();
    }
    p.f.resize(simd::packSize(red, cols, simd::kF32Lanes));
    simd::packLaneBlocked(
        red, cols, simd::kF32Lanes, [&](int k, int c) { return w[at(k, c)]; },
        p.f.data());
    return p;
}

void
MacLayer::mulPacked(const float *x, std::size_t rows, int red, int cols,
                    const PackedOperand &pk, const float *bias,
                    double scale, float *y) const
{
    // One dispatched-table microkernel call per row covers every column
    // block: lanes span output columns, each accumulating in canonical
    // k order with unfused multiply-adds.  The row's real values then
    // take one batched writeback.
    const std::size_t size = rows * red;
    Arena &arena = Arena::local();
    const simd::KernelTable &kt = simd::table();
    auto finish = [&](float *yr, auto real) {
        for (int c = 0; c < cols; ++c)
            yr[c] = static_cast<float>(real(c) * scale) +
                    (bias ? bias[c] : 0.0f);
        writebackRow(yr, cols, yr);
    };
    if (precision_ == Precision::FP32 || precision_ == Precision::FP16) {
        auto h = arena.floats(precision_ == Precision::FP16 ? size : 0);
        if (precision_ == Precision::FP16) {
            simd::roundToHalfBatch(x, h.data(), size);
            x = h.data();
        }
        auto acc = arena.floats(simd::packSize(1, cols, simd::kF32Lanes));
        const int blocks = simd::packBlocks(cols, simd::kF32Lanes);
        for (std::size_t r = 0; r < rows; ++r) {
            kt.gemmF32(x + r * red, red, blocks, pk.f.data(), acc.data());
            finish(y + r * cols,
                   [&](int c) { return static_cast<double>(acc[c]); });
        }
        return;
    }
    auto xq = arena.ints(size);
    simd::quantizeBatch(x, xq.data(), size, inQuant_);
    // The narrow kernels read int16 operands in pairs; one zeroed pad
    // element keeps an odd reduction's last pair readable (its weight
    // is zero).
    const bool narrow = pk.chunkPairs > 0;
    auto xn = arena.shorts(narrow ? size + 1 : 0);
    if (narrow) {
        for (std::size_t i = 0; i < size; ++i)
            xn[i] = static_cast<std::int16_t>(xq[i]);
        xn[size] = 0;
    }
    const int L = narrow ? simd::kNarrowLanes : simd::kI64Lanes;
    auto acc = arena.longs(simd::packSize(1, cols, L));
    const int blocks = simd::packBlocks(cols, L);
    const double s = inQuant_.scale, ws = wQuant_.scale;
    for (std::size_t r = 0; r < rows; ++r) {
        if (narrow)
            kt.gemmNarrow(xn.data() + r * red, simd::packPairs(red),
                          blocks, pk.s.data(), pk.chunkPairs, acc.data());
        else
            kt.gemmI64(xq.data() + r * red, red, blocks, pk.i.data(),
                       acc.data());
        finish(y + r * cols, [&](int c) {
            return static_cast<double>(acc[c]) * s * ws;
        });
    }
}

void
MacLayer::writebackRow(const float *real, std::size_t n, float *out) const
{
    switch (precision_) {
      case Precision::FP32:
        if (out != real)
            std::copy(real, real + n, out);
        return;
      case Precision::FP16:
        simd::roundToHalfBatch(real, out, n);
        return;
      case Precision::INT16:
      case Precision::INT8: {
        constexpr std::size_t kChunk = 64;
        std::int32_t q[kChunk];
        for (std::size_t i = 0; i < n; i += kChunk) {
            const std::size_t m = std::min(kChunk, n - i);
            simd::quantizeBatch(real + i, q, m, outQuant_);
            for (std::size_t j = 0; j < m; ++j)
                out[i + j] = dequantize(q[j], outQuant_);
        }
        return;
      }
    }
    panic("unknown Precision");
}

} // namespace fidelity
