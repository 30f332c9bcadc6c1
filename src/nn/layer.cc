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

void
MacLayer::packOperand(const float *w, int red, int cols, bool transposed,
                      PackedOperand &p) const
{
    // Stored-form conversion, then the lane-blocked scatter.  Integer
    // precisions scan the quantised magnitudes first: with the operand
    // bound |x| <= 2^(bits-1) the max proves the narrow kernels' int32
    // chunk length, and the pack commits to the narrow or the wide
    // layout accordingly (both exact, see Conv2D::packWeights).  The
    // unused layouts are cleared, keeping their capacity.
    const std::size_t size = static_cast<std::size_t>(red) * cols;
    auto at = [&](int k, int c) {
        return transposed ? static_cast<std::size_t>(c) * red + k
                          : static_cast<std::size_t>(k) * cols + c;
    };
    p.chunkPairs = 0;
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
        p.f.clear();
        if (simd::narrowEligible(chunk)) {
            p.chunkPairs = chunk;
            p.i.clear();
            p.s.resize(simd::packNarrowSize(red, cols));
            simd::packNarrow(red, cols, get, p.s.data());
        } else {
            p.s.clear();
            p.i.resize(simd::packSize(red, cols, simd::kI64Lanes));
            simd::packLaneBlocked(red, cols, simd::kI64Lanes, get,
                                  p.i.data());
        }
        return;
    }
    const bool half = precision_ == Precision::FP16;
    auto h = arena.floats(half ? size : 0);
    if (half) {
        simd::roundToHalfBatch(w, h.data(), size);
        w = h.data();
    }
    p.i.clear();
    p.s.clear();
    p.f.resize(simd::packSize(red, cols, simd::kF32Lanes));
    simd::packLaneBlocked(
        red, cols, simd::kF32Lanes, [&](int k, int c) { return w[at(k, c)]; },
        p.f.data());
}

const PackedOperand &
MacLayer::packScratch(const float *w, int red, int cols,
                      bool transposed) const
{
    thread_local PackedOperand scratch;
    packOperand(w, red, cols, transposed, scratch);
    return scratch;
}

void
MacLayer::mulPacked(const float *x, std::size_t rows, int red, int cols,
                    const PackedOperand &pk, const float *bias,
                    double scale, float *y) const
{
    // One dispatched-table microkernel call per row covers every column
    // block: lanes span output columns, each accumulating in canonical
    // k order with unfused multiply-adds.  Row r's padded blocks land
    // at acc + r * cols, so each row overwrites only the previous
    // row's padding and the finished accumulators form one
    // [rows][cols] block: one writeback for the whole call.
    if (rows == 0)
        return;
    const std::size_t size = rows * red;
    const std::size_t n = rows * cols;
    Arena &arena = Arena::local();
    const simd::KernelTable &kt = simd::table();
    auto biasRows = arena.floats(bias && rows > 1 ? n : 0);
    if (bias && rows > 1) {
        for (std::size_t r = 0; r < rows; ++r)
            std::copy_n(bias, cols, biasRows.data() + r * cols);
        bias = biasRows.data();
    }
    if (precision_ == Precision::FP32 || precision_ == Precision::FP16) {
        auto h = arena.floats(precision_ == Precision::FP16 ? size : 0);
        if (precision_ == Precision::FP16) {
            simd::roundToHalfBatch(x, h.data(), size);
            x = h.data();
        }
        auto acc = arena.floats(n - cols +
                                simd::packSize(1, cols, simd::kF32Lanes));
        const int blocks = simd::packBlocks(cols, simd::kF32Lanes);
        for (std::size_t r = 0; r < rows; ++r)
            kt.gemmF32(x + r * red, red, blocks, pk.f.data(),
                       acc.data() + r * cols);
        writebackRow(acc.data(), n, scale, bias, y);
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
        simd::narrowToInt16(xq.data(), xn.data(), size);
        xn[size] = 0;
    }
    const int L = narrow ? simd::kNarrowLanes : simd::kI64Lanes;
    auto acc = arena.longs(n - cols + simd::packSize(1, cols, L));
    const int blocks = simd::packBlocks(cols, L);
    for (std::size_t r = 0; r < rows; ++r) {
        if (narrow)
            kt.gemmNarrow(xn.data() + r * red, simd::packPairs(red),
                          blocks, pk.s.data(), pk.chunkPairs,
                          acc.data() + r * cols);
        else
            kt.gemmI64(xq.data() + r * red, red, blocks, pk.i.data(),
                       acc.data() + r * cols);
    }
    writebackRow(acc.data(), n, scale, bias, y);
}

void
MacLayer::writebackRow(const float *acc, std::size_t n, double scale,
                       const float *bias, float *out) const
{
    panic_if(precision_ != Precision::FP32 &&
                 precision_ != Precision::FP16,
             "float writeback row in integer mode on ", name_);
    // A float accumulator survives the double round trip through a
    // scale of 1 bit for bit (NaN payloads included; the bias add
    // quiets either way), so conv and FC rows skip it.
    if (scale == 1.0 && bias)
        simd::table().addF32(acc, bias, out, n);
    else
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<float>(static_cast<double>(acc[i]) *
                                        scale) +
                     (bias ? bias[i] : 0.0f);
    if (precision_ == Precision::FP16)
        simd::roundToHalfBatch(out, out, n);
}

void
MacLayer::writebackRow(const std::int64_t *acc, std::size_t n,
                       double scale, const float *bias, float *out) const
{
    panic_if(precision_ != Precision::INT8 &&
                 precision_ != Precision::INT16,
             "integer writeback row in floating mode on ", name_);
    simd::table().requantI64(acc, n, inQuant_.scale, wQuant_.scale, scale,
                             bias, outQuant_.scale, outQuant_.qmin(),
                             outQuant_.qmax(), out);
}

} // namespace fidelity
