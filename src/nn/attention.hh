/**
 * @file
 * Transformer encoder block built from primitive layers.
 *
 * Single-head scaled dot-product attention followed by a position-wise
 * feed-forward network, each with a residual connection — the structure
 * whose FC and MatMul layers Table III uses for validation.
 */

#ifndef FIDELITY_NN_ATTENTION_HH
#define FIDELITY_NN_ATTENTION_HH

#include <string>

#include "nn/network.hh"
#include "sim/rng.hh"

namespace fidelity
{

/** Geometry of one encoder block. */
struct AttentionSpec
{
    int seqLen = 8; //!< Sequence length: the reduction depth of `.av`
    int dModel = 16;
    int dFF = 32;
};

/**
 * Append one encoder block (attention + FFN, residuals) to the network.
 *
 * @param net Target network.
 * @param input Producer node holding a (1, seqLen, 1, dModel) tensor.
 * @param spec Block geometry.
 * @param rng Weight initialisation stream.
 * @param prefix Name prefix for the added layers.
 * @return Node id of the block output (1, seqLen, 1, dModel).
 */
NodeId addAttentionBlock(Network &net, NodeId input,
                         const AttentionSpec &spec, Rng &rng,
                         const std::string &prefix);

} // namespace fidelity

#endif // FIDELITY_NN_ATTENTION_HH
