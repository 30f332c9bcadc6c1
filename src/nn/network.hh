/**
 * @file
 * A DAG of layers with cached activations and partial re-execution.
 *
 * Node 0 is the external input; every other node owns one Layer and
 * names its producer nodes.  Nodes are stored in topological order
 * (producers must precede consumers), which lets the fault injector
 * re-run only the part of the graph downstream of an injected layer —
 * the dominant cost of a software fault-injection experiment.
 */

#ifndef FIDELITY_NN_NETWORK_HH
#define FIDELITY_NN_NETWORK_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hh"

namespace fidelity
{

/** Identifier of a node in a Network (0 is the external input). */
using NodeId = int;

/** A feed-forward DAG of layers. */
class Network
{
  public:
    /** @param name Network name used in reports. */
    explicit Network(std::string name);

    const std::string &name() const { return name_; }

    /**
     * Append a layer fed by the given producer nodes.
     * @return The new node's id.
     */
    NodeId add(std::unique_ptr<Layer> layer, std::vector<NodeId> inputs);

    /** Convenience for a single-producer layer. */
    NodeId add(std::unique_ptr<Layer> layer, NodeId input);

    /** Number of nodes including the input pseudo-node. */
    int numNodes() const { return static_cast<int>(nodes_.size()); }

    /** The layer at a node (node must be >= 1). */
    Layer &layer(NodeId id);
    const Layer &layer(NodeId id) const;

    /** Producer node ids of a node. */
    const std::vector<NodeId> &producers(NodeId id) const;

    /** Id of the last added node (the network output). */
    NodeId outputNode() const;

    /** Set the execution precision of every layer. */
    void setPrecision(Precision p);

    Precision precision() const { return precision_; }

    /**
     * Run a calibration pass in FP32 so integer modes have quantisation
     * ranges, then restore the current precision.
     */
    void calibrate(const Tensor &input);

    /** Forward pass returning the activation of every node. */
    std::vector<Tensor> forwardAll(const Tensor &input) const;

    /** Forward pass returning only the output activation. */
    Tensor forward(const Tensor &input) const;

    /**
     * Re-run everything downstream of `node`, whose activation is
     * replaced by `replacement`; `cached` holds a previous forwardAll
     * result for the same input.
     * @return The network output under the replacement.
     */
    Tensor forwardFrom(NodeId node, const Tensor &replacement,
                       const std::vector<Tensor> &cached) const;

    /** Every layer's golden prep from a forwardAll() result. */
    GoldenPreps prepareGolden(const std::vector<Tensor> &acts) const;

    /** Nodes holding MAC layers (fault-injection targets). */
    std::vector<NodeId> macNodes() const;

    /** Gather the input tensors of a node from an activation vector. */
    std::vector<const Tensor *>
    gatherInputs(NodeId id, const std::vector<Tensor> &acts) const;

  private:
    struct Node
    {
        std::unique_ptr<Layer> layer; //!< null for the input pseudo-node
        std::vector<NodeId> inputs;
    };

    std::string name_;
    std::vector<Node> nodes_;
    Precision precision_ = Precision::FP32;
};

} // namespace fidelity

#endif // FIDELITY_NN_NETWORK_HH
