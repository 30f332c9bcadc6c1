#include "core/fault_models.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"
#include "tensor/bitops.hh"
#include "tensor/float16.hh"

namespace fidelity
{

const std::vector<FFCategory> &
allFFCategories()
{
    static const std::vector<FFCategory> cats = {
        FFCategory::PreBufInput,  FFCategory::PreBufWeight,
        FFCategory::OperandInput, FFCategory::OperandWeight,
        FFCategory::OutputPsum,   FFCategory::LocalControl,
        FFCategory::GlobalControl,
    };
    return cats;
}

const char *
ffCategoryName(FFCategory cat)
{
    switch (cat) {
      case FFCategory::PreBufInput:
        return "PreBufInput";
      case FFCategory::PreBufWeight:
        return "PreBufWeight";
      case FFCategory::OperandInput:
        return "OperandInput";
      case FFCategory::OperandWeight:
        return "OperandWeight";
      case FFCategory::OutputPsum:
        return "OutputPsum";
      case FFCategory::LocalControl:
        return "LocalControl";
      case FFCategory::GlobalControl:
        return "GlobalControl";
    }
    panic("unknown FFCategory");
}

double
ffCategoryShare(FFCategory cat)
{
    // The %FF column of Table II.
    switch (cat) {
      case FFCategory::PreBufInput:
        return 0.025;
      case FFCategory::PreBufWeight:
        return 0.048;
      case FFCategory::OperandInput:
        return 0.162;
      case FFCategory::OperandWeight:
        return 0.216;
      case FFCategory::OutputPsum:
        return 0.379;
      case FFCategory::LocalControl:
        return 0.057;
      case FFCategory::GlobalControl:
        return 0.113;
    }
    panic("unknown FFCategory");
}

bool
isDatapathCategory(FFCategory cat)
{
    return cat != FFCategory::LocalControl &&
           cat != FFCategory::GlobalControl;
}

FaultModels::FaultModels(const NvdlaConfig &cfg)
    : cfg_(cfg)
{
}

int
FaultModels::operandBits(Precision p)
{
    switch (p) {
      case Precision::FP32:
        return 32;
      case Precision::FP16:
        return 16;
      case Precision::INT16:
        return 16;
      case Precision::INT8:
        return 8;
    }
    panic("unknown Precision");
}

float
FaultModels::flipStoredOperand(float x, Precision p, const QuantParams &qp,
                               int bit)
{
    return flipStoredOperandMask(x, p, qp, 1u << bit);
}

float
FaultModels::flipStoredOperandMask(float x, Precision p,
                                   const QuantParams &qp,
                                   std::uint32_t mask)
{
    switch (p) {
      case Precision::FP32:
        return flipBits(x, Repr::FP32, mask);
      case Precision::FP16:
        return flipBits(roundToHalf(x), Repr::FP16, mask);
      case Precision::INT16:
      case Precision::INT8: {
        Repr r = p == Precision::INT8 ? Repr::INT8 : Repr::INT16;
        return dequantize(flipBitsInt(quantize(x, qp), r, mask), qp);
      }
    }
    panic("unknown Precision");
}

float
FaultModels::flipStoredOutput(float y, Precision p, const QuantParams &qp,
                              int bit)
{
    // Output words share the operand representations.
    return flipStoredOperand(y, p, qp, bit);
}

float
FaultModels::flipStoredOutputMask(float y, Precision p,
                                  const QuantParams &qp,
                                  std::uint32_t mask)
{
    return flipStoredOperandMask(y, p, qp, mask);
}

float
FaultModels::randomOutputValue(Precision p, const QuantParams &qp, Rng &rng)
{
    switch (p) {
      case Precision::FP32:
      case Precision::FP16: {
        // A uniformly random binary16 pattern (NaN/Inf possible, as in
        // hardware where a garbage word is latched).
        std::uint16_t bits = static_cast<std::uint16_t>(rng.next32());
        return halfBitsToFloat(bits);
      }
      case Precision::INT16: {
        auto q = static_cast<std::int16_t>(rng.next32());
        return dequantize(q, qp);
      }
      case Precision::INT8: {
        auto q = static_cast<std::int8_t>(rng.next32());
        return dequantize(q, qp);
      }
    }
    panic("unknown Precision");
}

namespace
{

/** Append neuron/value pairs whose value actually changed. */
void
appendChanged(FaultApplication &app, const Tensor &golden,
              const NeuronIndex &n, float value)
{
    float g = golden.at(n);
    bool same = (g == value) || (std::isnan(g) && std::isnan(value));
    if (same)
        return;
    app.neurons.push_back(n);
    app.values.push_back(value);
    double delta = std::isnan(value) || std::isinf(value)
        ? std::numeric_limits<double>::infinity()
        : std::fabs(static_cast<double>(value) - g);
    app.maxAbsDelta = std::max(app.maxAbsDelta, delta);
}

/**
 * Evaluate the substituted value of every listed consumer and append
 * the changed ones, preserving list order.
 *
 * The consumers are first coalesced into output boxes, matching the
 * orders inputConsumers and weightConsumers produce: channel runs at
 * one position, w-runs of a single channel, and consecutive full-width
 * w-runs of one channel folded into one h-range box (a weight's whole
 * output plane becomes one box per sample).  When the layer has a
 * vector path for the substitution (forwardWithSub: input and weight
 * substitutions of Conv2D) the boxes are re-executed in one kernel
 * sweep into a thread-local scratch tensor; otherwise each neuron
 * recomputes via computeNeuron().  Both paths are bit-identical by
 * contract.
 */
void
evalConsumers(FaultApplication &app, const MacLayer &layer,
              const std::vector<const Tensor *> &ins, const Tensor &golden,
              const OperandSub &sub, const NeuronIndex *cons,
              std::size_t count)
{
    if (count == 0)
        return;
    static thread_local Tensor scratch;
    static thread_local std::vector<Region> boxes;
    boxes.clear();
    const int width = golden.w();
    for (std::size_t i = 0; i < count; ++i) {
        const NeuronIndex &n = cons[i];
        if (!boxes.empty()) {
            Region &b = boxes.back();
            bool one_pos = b.n1 == b.n0 + 1 && b.h1 == b.h0 + 1 &&
                           b.w1 == b.w0 + 1;
            if (one_pos && n.n == b.n0 && n.h == b.h0 && n.w == b.w0 &&
                n.c == b.c1) {
                ++b.c1; // extend the channel run at this position
                continue;
            }
            if (b.c1 == b.c0 + 1 && b.n1 == b.n0 + 1 &&
                b.h1 == b.h0 + 1 && n.n == b.n0 && n.h == b.h0 &&
                n.w == b.w1 && n.c == b.c0) {
                ++b.w1; // extend the w-run of this single channel
                // A completed full-width row continues the rows above
                // it when they are the same channel's full rows.
                if (b.w0 == 0 && b.w1 == width && boxes.size() > 1) {
                    Region &a = boxes[boxes.size() - 2];
                    if (a.n0 == b.n0 && a.n1 == b.n1 && a.c0 == b.c0 &&
                        a.c1 == b.c1 && a.w0 == 0 && a.w1 == width &&
                        a.h1 == b.h0) {
                        a.h1 = b.h1;
                        boxes.pop_back();
                    }
                }
                continue;
            }
        }
        boxes.push_back(Region::of(n));
    }
    if (!scratch.sameShape(golden))
        scratch = Tensor(golden.n(), golden.h(), golden.w(), golden.c());
    bool vec = layer.forwardWithSub(ins, &sub, boxes.data(), boxes.size(),
                                    scratch);
    for (std::size_t i = 0; i < count; ++i) {
        float v = vec ? scratch.at(cons[i])
                      : layer.computeNeuron(ins, cons[i], &sub);
        appendChanged(app, golden, cons[i], v);
    }
}

} // namespace

FaultApplication
FaultModels::apply(FFCategory cat, const MacLayer &layer,
                   const std::vector<const Tensor *> &ins,
                   const Tensor &golden, Rng &rng) const
{
    switch (cat) {
      case FFCategory::PreBufInput:
      case FFCategory::PreBufWeight:
        return applyPreBuf(cat, layer, ins, golden, rng);
      case FFCategory::OperandInput:
        return applyOperandInput(layer, ins, golden, rng);
      case FFCategory::OperandWeight:
        return applyOperandWeight(layer, ins, golden, rng);
      case FFCategory::OutputPsum:
        return applyOutputPsum(layer, ins, golden, rng);
      case FFCategory::LocalControl:
        return applyLocalControl(layer, ins, golden, rng);
      case FFCategory::GlobalControl: {
        FaultApplication app;
        app.category = cat;
        app.globalFailure = true;
        return app;
      }
    }
    panic("unknown FFCategory");
}

FaultApplication
FaultModels::applyPreBuf(FFCategory cat, const MacLayer &layer,
                         const std::vector<const Tensor *> &ins,
                         const Tensor &golden, Rng &rng) const
{
    FaultApplication app;
    app.category = cat;
    Precision p = layer.precision();
    int bits = operandBits(p);

    OperandSub sub;
    std::vector<NeuronIndex> consumers;
    if (cat == FFCategory::PreBufInput) {
        std::size_t elem = rng.below(
            static_cast<std::uint32_t>(ins[0]->size()));
        float v = (*ins[0])[elem];
        sub.kind = OperandSub::Kind::Input;
        sub.flatIndex = elem;
        sub.value = flipStoredOperand(v, p, layer.inputQuant(),
                                      static_cast<int>(rng.below(bits)));
        consumers = layer.inputConsumers(ins, elem);
    } else {
        std::size_t widx = rng.below(
            static_cast<std::uint32_t>(layer.weightCount(ins)));
        float v = layer.weightAt(ins, widx);
        sub.kind = OperandSub::Kind::Weight;
        sub.flatIndex = widx;
        sub.value = flipStoredOperand(v, p, layer.weightQuant(),
                                      static_cast<int>(rng.below(bits)));
        consumers = layer.weightConsumers(ins, widx);
    }
    evalConsumers(app, layer, ins, golden, sub, consumers.data(),
                  consumers.size());
    return app;
}

FaultApplication
FaultModels::applyOperandInput(const MacLayer &layer,
                               const std::vector<const Tensor *> &ins,
                               const Tensor &golden, Rng &rng) const
{
    FaultApplication app;
    app.category = FFCategory::OperandInput;
    Precision p = layer.precision();
    int bits = operandBits(p);
    int macs = cfg_.macs();

    std::size_t elem =
        rng.below(static_cast<std::uint32_t>(ins[0]->size()));
    std::vector<NeuronIndex> consumers = layer.inputConsumers(ins, elem);
    if (consumers.empty())
        return app; // the value feeds no neuron (e.g. unused element)

    OperandSub sub;
    sub.kind = OperandSub::Kind::Input;
    sub.flatIndex = elem;
    sub.value = flipStoredOperand((*ins[0])[elem], p, layer.inputQuant(),
                                  static_cast<int>(rng.below(bits)));

    // The corrupted operand register feeds all k^2 MACs for one cycle:
    // one output position, one aligned group of k^2 consecutive
    // channels.  Pick the position/group uniformly among the users.
    const NeuronIndex &pick = consumers[rng.pick(consumers)];
    int group = (pick.c / macs) * macs;
    static thread_local std::vector<NeuronIndex> picked;
    picked.clear();
    for (const NeuronIndex &n : consumers) {
        if (n.n == pick.n && n.h == pick.h && n.w == pick.w &&
            n.c >= group && n.c < group + macs)
            picked.push_back(n);
    }
    evalConsumers(app, layer, ins, golden, sub, picked.data(),
                  picked.size());
    return app;
}

FaultApplication
FaultModels::applyOperandWeight(const MacLayer &layer,
                                const std::vector<const Tensor *> &ins,
                                const Tensor &golden, Rng &rng) const
{
    FaultApplication app;
    app.category = FFCategory::OperandWeight;
    Precision p = layer.precision();
    int bits = operandBits(p);
    int t = cfg_.t;

    std::size_t widx =
        rng.below(static_cast<std::uint32_t>(layer.weightCount(ins)));
    std::vector<NeuronIndex> consumers = layer.weightConsumers(ins, widx);
    if (consumers.empty())
        return app;

    OperandSub sub;
    sub.kind = OperandSub::Kind::Weight;
    sub.flatIndex = widx;
    sub.value = flipStoredOperand(layer.weightAt(ins, widx), p,
                                  layer.weightQuant(),
                                  static_cast<int>(rng.below(bits)));

    // The weight-hold register keeps the value for a block of t
    // consecutive positions (weightConsumers enumerates positions in
    // generation order); the flip lands at a random cycle of a random
    // block, corrupting the tail of that block.
    std::size_t total = consumers.size();
    std::size_t blocks = (total + t - 1) / t;
    std::size_t blk = rng.below(static_cast<std::uint32_t>(blocks));
    std::size_t start = blk * t;
    std::size_t len = std::min<std::size_t>(t, total - start);
    std::size_t phase = rng.below(static_cast<std::uint32_t>(len));
    evalConsumers(app, layer, ins, golden, sub,
                  consumers.data() + start + phase, len - phase);
    return app;
}

FaultApplication
FaultModels::applyOutputPsum(const MacLayer &layer,
                             const std::vector<const Tensor *> &ins,
                             const Tensor &golden, Rng &rng) const
{
    FaultApplication app;
    app.category = FFCategory::OutputPsum;
    Precision p = layer.precision();

    std::size_t flat =
        rng.below(static_cast<std::uint32_t>(golden.size()));
    NeuronIndex n = golden.indexOf(flat);

    // Partial-sum registers far outnumber the output register (there
    // are macs() * t 32-bit accumulators against one output word), so
    // pick the flipped FF accordingly.
    double psum_bits = static_cast<double>(cfg_.macs()) * cfg_.t * 32.0;
    double out_bits = static_cast<double>(operandBits(p));
    bool flip_psum = rng.uniform() < psum_bits / (psum_bits + out_bits);

    if (flip_psum) {
        // Recompute the neuron; reductionLength() is refreshed by the
        // recompute for shape-dependent layers (MatMulAB).
        layer.computeNeuron(ins, n, nullptr);
        int red = layer.reductionLength();
        OperandSub sub;
        sub.kind = OperandSub::Kind::PsumFlip;
        sub.flatIndex = rng.below(static_cast<std::uint32_t>(red + 1));
        sub.bit = static_cast<int>(rng.below(32));
        appendChanged(app, golden, n, layer.computeNeuron(ins, n, &sub));
    } else {
        int bit = static_cast<int>(rng.below(operandBits(p)));
        float y = golden.at(n);
        appendChanged(app, golden, n,
                      flipStoredOutput(y, p, layer.outputQuant(), bit));
    }
    return app;
}

FaultApplication
FaultModels::applyLocalControl(const MacLayer &layer,
                               const std::vector<const Tensor *> &,
                               const Tensor &golden, Rng &rng) const
{
    FaultApplication app;
    app.category = FFCategory::LocalControl;
    std::size_t flat =
        rng.below(static_cast<std::uint32_t>(golden.size()));
    NeuronIndex n = golden.indexOf(flat);
    float v = randomOutputValue(layer.precision(), layer.outputQuant(),
                                rng);
    appendChanged(app, golden, n, v);
    return app;
}

} // namespace fidelity
