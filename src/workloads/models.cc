#include "workloads/models.hh"

#include <cmath>

#include "nn/activation.hh"
#include "nn/attention.hh"
#include "nn/conv.hh"
#include "nn/elementwise.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/lstm.hh"
#include "nn/matmul.hh"
#include "nn/pool.hh"
#include "nn/softmax.hh"
#include "sim/logging.hh"
#include "workloads/data.hh"

namespace fidelity
{

namespace
{

/** conv3x3 (+optional stride/groups) with He weights. */
NodeId
conv3x3(Network &net, NodeId in, int in_c, int out_c, Rng &rng,
        const std::string &name, int stride = 1, int groups = 1)
{
    ConvSpec spec;
    spec.inC = in_c;
    spec.outC = out_c;
    spec.kh = 3;
    spec.kw = 3;
    spec.pad = 1;
    spec.stride = stride;
    spec.groups = groups;
    std::size_t nw = static_cast<std::size_t>(9) * (in_c / groups) * out_c;
    return net.add(std::make_unique<Conv2D>(
                       name, spec, heWeights(rng, nw, 9 * in_c / groups),
                       smallBiases(rng, out_c)),
                   in);
}

/** conv1x1 with He weights. */
NodeId
conv1x1(Network &net, NodeId in, int in_c, int out_c, Rng &rng,
        const std::string &name)
{
    ConvSpec spec;
    spec.inC = in_c;
    spec.outC = out_c;
    spec.kh = 1;
    spec.kw = 1;
    std::size_t nw = static_cast<std::size_t>(in_c) * out_c;
    return net.add(std::make_unique<Conv2D>(name, spec,
                                            heWeights(rng, nw, in_c),
                                            smallBiases(rng, out_c)),
                   in);
}

NodeId
relu(Network &net, NodeId in, const std::string &name)
{
    return net.add(
        std::make_unique<Activation>(name, Activation::Func::ReLU), in);
}

NodeId
leaky(Network &net, NodeId in, const std::string &name)
{
    return net.add(std::make_unique<Activation>(
                       name, Activation::Func::LeakyReLU, 0.1f),
                   in);
}

/** Classifier tail: global average pool + FC + softmax. */
NodeId
classifierTail(Network &net, NodeId in, int in_c, int classes, Rng &rng,
               const std::string &prefix)
{
    NodeId gap =
        net.add(std::make_unique<GlobalAvgPool>(prefix + ".gap"), in);
    NodeId fc = net.add(
        std::make_unique<FC>(prefix + ".fc", in_c, classes,
                             heWeights(rng,
                                       static_cast<std::size_t>(in_c) *
                                           classes,
                                       in_c),
                             smallBiases(rng, classes)),
        gap);
    return net.add(std::make_unique<Softmax>(prefix + ".softmax"), fc);
}

} // namespace

Network
buildInception(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("inception");
    NodeId x = 0;

    NodeId stem = relu(net, conv3x3(net, x, 8, 16, rng, "stem"),
                       "stem.relu");

    // Inception module: 1x1 branch | 3x3 branch, channel-concatenated.
    NodeId b1 = relu(net, conv1x1(net, stem, 16, 16, rng, "inc1.b1"),
                     "inc1.b1.relu");
    NodeId b2a = relu(net, conv1x1(net, stem, 16, 8, rng, "inc1.b2a"),
                      "inc1.b2a.relu");
    NodeId b2 = relu(net, conv3x3(net, b2a, 8, 16, rng, "inc1.b2"),
                     "inc1.b2.relu");
    NodeId cat = net.add(std::make_unique<ConcatC>("inc1.concat"),
                         std::vector<NodeId>{b1, b2});

    NodeId pool = net.add(
        std::make_unique<Pool>("pool1", Pool::Mode::Max, 2), cat);
    NodeId head = relu(net, conv3x3(net, pool, 32, 32, rng, "conv2"),
                       "conv2.relu");
    classifierTail(net, head, 32, 10, rng, "tail");
    return net;
}

Network
buildResNet(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("resnet");
    NodeId x = 0;

    NodeId stem = relu(net, conv3x3(net, x, 8, 16, rng, "stem"),
                       "stem.relu");
    NodeId cur = stem;
    for (int b = 0; b < 2; ++b) {
        std::string p = "block" + std::to_string(b);
        NodeId c1 = relu(net, conv3x3(net, cur, 16, 16, rng, p + ".c1"),
                         p + ".c1.relu");
        NodeId c2 = conv3x3(net, c1, 16, 16, rng, p + ".c2");
        NodeId add = net.add(std::make_unique<Elementwise>(
                                 p + ".add", Elementwise::Op::Add),
                             std::vector<NodeId>{c2, cur});
        cur = relu(net, add, p + ".relu");
    }
    NodeId pool = net.add(
        std::make_unique<Pool>("pool", Pool::Mode::Max, 2), cur);
    NodeId head = relu(net, conv3x3(net, pool, 16, 32, rng, "head"),
                       "head.relu");
    classifierTail(net, head, 32, 10, rng, "tail");
    return net;
}

Network
buildMobileNet(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("mobilenet");
    NodeId x = 0;

    NodeId stem = relu(net, conv3x3(net, x, 8, 16, rng, "stem"),
                       "stem.relu");
    NodeId cur = stem;
    int channels = 16;
    for (int b = 0; b < 2; ++b) {
        std::string p = "dws" + std::to_string(b);
        // Depthwise 3x3 followed by pointwise 1x1 expansion.
        NodeId dw = relu(net,
                         conv3x3(net, cur, channels, channels, rng,
                                 p + ".dw", /*stride=*/1,
                                 /*groups=*/channels),
                         p + ".dw.relu");
        int next_c = channels * 2;
        NodeId pw = relu(net, conv1x1(net, dw, channels, next_c, rng,
                                      p + ".pw"),
                         p + ".pw.relu");
        channels = next_c;
        cur = pw;
    }
    NodeId pool = net.add(
        std::make_unique<Pool>("pool", Pool::Mode::Avg, 2), cur);
    classifierTail(net, pool, channels, 10, rng, "tail");
    return net;
}

Network
buildYolo(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("yolo");
    NodeId x = 0;

    NodeId c1 = leaky(net, conv3x3(net, x, 8, 16, rng, "c1"), "c1.act");
    NodeId c2 = leaky(net, conv3x3(net, c1, 16, 32, rng, "c2",
                                   /*stride=*/2),
                      "c2.act");
    // Residual block as in the Yolo backbones.
    NodeId r1 = leaky(net, conv1x1(net, c2, 32, 16, rng, "res.c1"),
                      "res.c1.act");
    NodeId r2 = conv3x3(net, r1, 16, 32, rng, "res.c2");
    NodeId add = net.add(std::make_unique<Elementwise>(
                             "res.add", Elementwise::Op::Add),
                         std::vector<NodeId>{r2, c2});
    NodeId body = leaky(net, add, "res.act");
    // Detection head: objectness + box + 3 classes per grid cell.
    conv1x1(net, body, 32, 8, rng, "head");
    return net;
}

Network
buildTransformer(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("transformer");
    AttentionSpec spec;
    spec.seqLen = 12;
    spec.dModel = 32;
    spec.dFF = 64;

    NodeId cur = 0;
    for (int b = 0; b < 2; ++b)
        cur = addAttentionBlock(net, cur, spec, rng,
                                "enc" + std::to_string(b));
    // Per-position vocabulary projection + softmax.
    int vocab = 24;
    NodeId logits = net.add(
        std::make_unique<FC>("vocab", spec.dModel, vocab,
                             heWeights(rng,
                                       static_cast<std::size_t>(
                                           spec.dModel) *
                                           vocab,
                                       spec.dModel),
                             smallBiases(rng, vocab)),
        cur);
    net.add(std::make_unique<Softmax>("softmax"), logits);
    return net;
}

Network
buildLstm(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("rnn");
    LstmSpec spec;
    spec.inputSize = 8;
    spec.hiddenSize = 16;
    spec.timeSteps = 4;

    NodeId h = addLstm(net, 0, spec, rng, "lstm");
    NodeId fc = net.add(
        std::make_unique<FC>("cls", spec.hiddenSize, 6,
                             heWeights(rng, spec.hiddenSize * 6,
                                       spec.hiddenSize),
                             smallBiases(rng, 6)),
        h);
    net.add(std::make_unique<Softmax>("softmax"), fc);
    return net;
}

const std::vector<std::string> &
studyNetworkNames()
{
    static const std::vector<std::string> names = {
        "inception", "resnet", "mobilenet", "yolo", "transformer", "rnn",
    };
    return names;
}

Network
buildNetwork(const std::string &name, std::uint64_t seed)
{
    if (name == "inception")
        return buildInception(seed);
    if (name == "resnet")
        return buildResNet(seed);
    if (name == "mobilenet")
        return buildMobileNet(seed);
    if (name == "yolo")
        return buildYolo(seed);
    if (name == "transformer")
        return buildTransformer(seed);
    if (name == "rnn")
        return buildLstm(seed);
    fatal("unknown network '", name, "'");
}

Tensor
defaultInputFor(const std::string &name, std::uint64_t seed)
{
    if (name == "transformer")
        return makeSequenceInput(seed, 12, 32);
    if (name == "rnn")
        return makeSensorInput(seed, 4, 8);
    // CNNs share a 16x16x8 image input.
    return makeImageInput(seed, 1, 16, 16, 8);
}

std::vector<const Tensor *>
ValidationWorkload::ins() const
{
    std::vector<const Tensor *> out;
    out.reserve(inputs.size());
    for (const Tensor &t : inputs)
        out.push_back(&t);
    return out;
}

std::vector<ValidationWorkload>
buildValidationWorkloads(std::uint64_t seed, Precision precision)
{
    Rng rng(seed);
    std::vector<ValidationWorkload> out;

    auto make_conv = [&](const std::string &name, int in_c, int out_c,
                         int hw) {
        ValidationWorkload w;
        w.name = name;
        ConvSpec spec;
        spec.inC = in_c;
        spec.outC = out_c;
        spec.kh = 3;
        spec.kw = 3;
        spec.pad = 1;
        std::size_t nw = static_cast<std::size_t>(9) * in_c * out_c;
        w.layer = std::make_unique<Conv2D>(
            name, spec, heWeights(rng, nw, 9 * in_c),
            smallBiases(rng, out_c));
        w.inputs.push_back(
            makeImageInput(seed ^ out.size(), 1, hw, hw, in_c));
        return w;
    };

    // Conv 3x3 layers of the Inception / ResNet / Yolo families.
    out.push_back(make_conv("inception-conv3x3", 16, 32, 8));
    out.push_back(make_conv("resnet-conv3x3", 16, 16, 8));

    // Transformer feed-forward FC over a 8-step sequence.
    {
        ValidationWorkload w;
        w.name = "transformer-fc";
        int d = 64, units = 64;
        w.layer = std::make_unique<FC>(
            "transformer-fc", d, units,
            heWeights(rng, static_cast<std::size_t>(d) * units, d),
            smallBiases(rng, units));
        w.inputs.push_back(makeSequenceInput(seed + 11, 8, d));
        out.push_back(std::move(w));
    }

    // Attention MatMul: Q * K^T over a 16-step sequence.
    {
        ValidationWorkload w;
        w.name = "attention-matmul";
        int steps = 16, d = 32;
        w.layer = std::make_unique<MatMulAB>(
            "attention-matmul", /*trans_b=*/true, d,
            1.0f / std::sqrt(static_cast<float>(d)));
        w.inputs.push_back(makeSequenceInput(seed + 21, steps, d));
        w.inputs.push_back(makeSequenceInput(seed + 22, steps, d));
        out.push_back(std::move(w));
    }

    // LSTM gate projection FC.
    {
        ValidationWorkload w;
        w.name = "lstm-fc";
        int in_c = 24, units = 64;
        w.layer = std::make_unique<FC>(
            "lstm-fc", in_c, units,
            heWeights(rng, static_cast<std::size_t>(in_c) * units, in_c),
            smallBiases(rng, units));
        w.inputs.push_back(makeSequenceInput(seed + 31, 1, in_c));
        out.push_back(std::move(w));
    }

    out.push_back(make_conv("yolo-conv3x3", 16, 32, 8));

    for (ValidationWorkload &w : out) {
        w.layer->setPrecision(Precision::FP32);
        // Calibrate integer quantisation ranges from the FP32 pass.
        auto ins = w.ins();
        Tensor golden = w.layer->forward(ins);
        w.layer->calibrate(ins, golden);
        w.layer->setPrecision(precision);
    }
    return out;
}

} // namespace fidelity
