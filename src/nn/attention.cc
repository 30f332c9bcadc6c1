#include "nn/attention.hh"

#include <cmath>
#include <memory>

#include "nn/activation.hh"
#include "nn/elementwise.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/matmul.hh"
#include "nn/softmax.hh"

namespace fidelity
{

namespace
{

/** A dModel -> units projection with He-initialised weights. */
NodeId
proj(Network &net, NodeId in, int in_c, int units, Rng &rng,
     const std::string &name)
{
    return net.add(
        std::make_unique<FC>(name, in_c, units,
                             heWeights(rng,
                                       static_cast<std::size_t>(in_c) *
                                           units,
                                       in_c),
                             smallBiases(rng, units)),
        in);
}

} // namespace

NodeId
addAttentionBlock(Network &net, NodeId input, const AttentionSpec &spec,
                  Rng &rng, const std::string &prefix)
{
    int d = spec.dModel;

    NodeId q = proj(net, input, d, d, rng, prefix + ".q");
    NodeId k = proj(net, input, d, d, rng, prefix + ".k");
    NodeId v = proj(net, input, d, d, rng, prefix + ".v");

    float scale = 1.0f / std::sqrt(static_cast<float>(d));
    NodeId scores = net.add(
        std::make_unique<MatMulAB>(prefix + ".qkT", /*trans_b=*/true, d,
                                   scale),
        std::vector<NodeId>{q, k});
    NodeId attn =
        net.add(std::make_unique<Softmax>(prefix + ".softmax"), scores);
    NodeId ctx = net.add(
        std::make_unique<MatMulAB>(prefix + ".av", /*trans_b=*/false,
                                   spec.seqLen),
        std::vector<NodeId>{attn, v});

    NodeId out_proj = proj(net, ctx, d, d, rng, prefix + ".out");
    NodeId res1 = net.add(std::make_unique<Elementwise>(
                              prefix + ".res1", Elementwise::Op::Add),
                          std::vector<NodeId>{out_proj, input});

    NodeId ff1 = proj(net, res1, d, spec.dFF, rng, prefix + ".ff1");
    NodeId ff1_act = net.add(std::make_unique<Activation>(
                                 prefix + ".ff1.relu",
                                 Activation::Func::ReLU),
                             ff1);
    NodeId ff2 = proj(net, ff1_act, spec.dFF, d, rng, prefix + ".ff2");
    return net.add(std::make_unique<Elementwise>(prefix + ".res2",
                                                 Elementwise::Op::Add),
                   std::vector<NodeId>{ff2, res1});
}

} // namespace fidelity
