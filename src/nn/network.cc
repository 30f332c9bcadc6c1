#include "nn/network.hh"

#include "sim/logging.hh"

namespace fidelity
{

Network::Network(std::string name)
    : name_(std::move(name))
{
    // Node 0 is the external input.
    nodes_.push_back(Node{nullptr, {}});
}

NodeId
Network::add(std::unique_ptr<Layer> layer, std::vector<NodeId> inputs)
{
    panic_if(!layer, "Network::add requires a layer");
    panic_if(static_cast<int>(inputs.size()) != layer->numInputs(),
             "layer ", layer->name(), " expects ", layer->numInputs(),
             " inputs, got ", inputs.size());
    NodeId id = static_cast<NodeId>(nodes_.size());
    for (NodeId in : inputs)
        panic_if(in < 0 || in >= id,
                 "layer ", layer->name(), ": producer ", in,
                 " is not an earlier node");
    layer->setPrecision(precision_);
    nodes_.push_back(Node{std::move(layer), std::move(inputs)});
    return id;
}

NodeId
Network::add(std::unique_ptr<Layer> layer, NodeId input)
{
    return add(std::move(layer), std::vector<NodeId>{input});
}

Layer &
Network::layer(NodeId id)
{
    panic_if(id <= 0 || id >= numNodes(), "bad node id ", id);
    return *nodes_[id].layer;
}

const Layer &
Network::layer(NodeId id) const
{
    panic_if(id <= 0 || id >= numNodes(), "bad node id ", id);
    return *nodes_[id].layer;
}

const std::vector<NodeId> &
Network::producers(NodeId id) const
{
    panic_if(id <= 0 || id >= numNodes(), "bad node id ", id);
    return nodes_[id].inputs;
}

NodeId
Network::outputNode() const
{
    panic_if(numNodes() < 2, "network ", name_, " has no layers");
    return numNodes() - 1;
}

void
Network::setPrecision(Precision p)
{
    precision_ = p;
    for (auto &n : nodes_)
        if (n.layer)
            n.layer->setPrecision(p);
}

void
Network::calibrate(const Tensor &input)
{
    Precision saved = precision_;
    setPrecision(Precision::FP32);
    std::vector<Tensor> acts(nodes_.size());
    acts[0] = input;
    for (NodeId id = 1; id < numNodes(); ++id) {
        auto ins = gatherInputs(id, acts);
        acts[id] = nodes_[id].layer->forward(ins);
        nodes_[id].layer->calibrate(ins, acts[id]);
    }
    setPrecision(saved);
}

std::vector<const Tensor *>
Network::gatherInputs(NodeId id, const std::vector<Tensor> &acts) const
{
    std::vector<const Tensor *> ins;
    ins.reserve(nodes_[id].inputs.size());
    for (NodeId in : nodes_[id].inputs)
        ins.push_back(&acts[in]);
    return ins;
}

std::vector<Tensor>
Network::forwardAll(const Tensor &input) const
{
    std::vector<Tensor> acts(nodes_.size());
    acts[0] = input;
    for (NodeId id = 1; id < numNodes(); ++id)
        acts[id] = nodes_[id].layer->forward(gatherInputs(id, acts));
    return acts;
}

GoldenPreps
Network::prepareGolden(const std::vector<Tensor> &acts) const
{
    GoldenPreps preps(nodes_.size());
    for (NodeId id = 1; id < numNodes(); ++id)
        preps[id] = nodes_[id].layer->prepareGolden(gatherInputs(id, acts));
    return preps;
}

Tensor
Network::forward(const Tensor &input) const
{
    return forwardAll(input)[outputNode()];
}

Tensor
Network::forwardFrom(NodeId node, const Tensor &replacement,
                     const std::vector<Tensor> &cached) const
{
    panic_if(node <= 0 || node >= numNodes(), "bad node id ", node);
    panic_if(cached.size() != nodes_.size(),
             "cached activation count mismatch");
    if (node == outputNode())
        return replacement;

    // Nodes are topologically ordered, so recomputing every node after
    // `node` (reading cached values for nodes at or before it, with the
    // replacement standing in for `node`) is sufficient.  Mark which
    // nodes are actually downstream to skip independent branches.
    std::vector<bool> dirty(nodes_.size(), false);
    dirty[node] = true;
    std::vector<Tensor> recomputed(nodes_.size());
    for (NodeId id = node + 1; id < numNodes(); ++id) {
        bool needs = false;
        for (NodeId in : nodes_[id].inputs)
            needs = needs || dirty[in];
        if (!needs)
            continue;
        dirty[id] = true;
        std::vector<const Tensor *> ins;
        ins.reserve(nodes_[id].inputs.size());
        for (NodeId in : nodes_[id].inputs) {
            if (in == node)
                ins.push_back(&replacement);
            else if (dirty[in])
                ins.push_back(&recomputed[in]);
            else
                ins.push_back(&cached[in]);
        }
        recomputed[id] = nodes_[id].layer->forward(ins);
    }
    NodeId out = outputNode();
    return dirty[out] ? std::move(recomputed[out]) : cached[out];
}

std::vector<NodeId>
Network::macNodes() const
{
    std::vector<NodeId> out;
    for (NodeId id = 1; id < numNodes(); ++id) {
        LayerKind k = nodes_[id].layer->kind();
        if (k == LayerKind::Conv || k == LayerKind::FC ||
            k == LayerKind::MatMul)
            out.push_back(id);
    }
    return out;
}

} // namespace fidelity
