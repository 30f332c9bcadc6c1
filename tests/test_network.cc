/**
 * @file
 * Unit tests for the Network DAG: forward passes, partial
 * re-execution, calibration, and the LSTM/attention builders.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/activation.hh"
#include "nn/attention.hh"
#include "nn/elementwise.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/lstm.hh"
#include "nn/network.hh"
#include "sim/rng.hh"
#include "workloads/models.hh"

using namespace fidelity;

namespace
{

/** Input -> FC -> ReLU -> FC, with a residual add around the middle. */
Network
makeDiamond(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("diamond");
    NodeId fc1 = net.add(std::make_unique<FC>("fc1", 4, 4,
                                              heWeights(rng, 16, 4),
                                              smallBiases(rng, 4)),
                         0);
    NodeId act = net.add(std::make_unique<Activation>(
                             "relu", Activation::Func::ReLU),
                         fc1);
    NodeId add = net.add(std::make_unique<Elementwise>(
                             "add", Elementwise::Op::Add),
                         std::vector<NodeId>{act, fc1});
    net.add(std::make_unique<FC>("fc2", 4, 3, heWeights(rng, 12, 4),
                                 smallBiases(rng, 3)),
            add);
    return net;
}

Tensor
randomInput(std::uint64_t seed, int c)
{
    Rng rng(seed);
    Tensor t(1, 1, 1, c);
    for (auto &v : t.data())
        v = static_cast<float>(rng.normal(0, 1));
    return t;
}

} // namespace

TEST(Network, ForwardAllCoversEveryNode)
{
    Network net = makeDiamond(1);
    Tensor x = randomInput(2, 4);
    auto acts = net.forwardAll(x);
    EXPECT_EQ(static_cast<int>(acts.size()), net.numNodes());
    EXPECT_EQ(acts[0].size(), x.size());
    EXPECT_EQ(acts[net.outputNode()].c(), 3);
}

TEST(Network, ForwardIsDeterministic)
{
    Network net = makeDiamond(1);
    Tensor x = randomInput(2, 4);
    Tensor a = net.forward(x);
    Tensor b = net.forward(x);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TEST(Network, ForwardFromWithGoldenReplacementIsIdentity)
{
    Network net = makeDiamond(1);
    Tensor x = randomInput(2, 4);
    auto acts = net.forwardAll(x);
    Tensor out = acts[net.outputNode()];
    for (NodeId node = 1; node < net.numNodes(); ++node) {
        Tensor again = net.forwardFrom(node, acts[node], acts);
        ASSERT_EQ(again.size(), out.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(again[i], out[i]) << "node=" << node;
    }
}

TEST(Network, ForwardFromMatchesFullRecompute)
{
    Network net = makeDiamond(1);
    Tensor x = randomInput(2, 4);
    auto acts = net.forwardAll(x);

    // Corrupt node 1's output and compare against a full re-run with
    // the corruption spliced in by brute force.
    Tensor corrupted = acts[1];
    corrupted[2] += 5.0f;
    Tensor fast = net.forwardFrom(1, corrupted, acts);

    // Brute force: recompute nodes 2.. manually.
    std::vector<Tensor> slow(acts.size());
    slow[0] = acts[0];
    slow[1] = corrupted;
    for (NodeId id = 2; id < net.numNodes(); ++id) {
        std::vector<const Tensor *> ins;
        for (NodeId in : net.producers(id))
            ins.push_back(&slow[in]);
        slow[id] = net.layer(id).forward(ins);
    }
    const Tensor &want = slow[net.outputNode()];
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(fast[i], want[i]);
}

TEST(Network, ForwardFromSkipsIndependentBranches)
{
    // Corrupting the output node itself returns the replacement as-is.
    Network net = makeDiamond(1);
    Tensor x = randomInput(2, 4);
    auto acts = net.forwardAll(x);
    Tensor repl = acts[net.outputNode()];
    repl[0] = 42.0f;
    Tensor out = net.forwardFrom(net.outputNode(), repl, acts);
    EXPECT_EQ(out[0], 42.0f);
}

TEST(Network, MacNodesFindsMacLayers)
{
    Network net = makeDiamond(1);
    auto macs = net.macNodes();
    ASSERT_EQ(macs.size(), 2u);
    EXPECT_EQ(net.layer(macs[0]).name(), "fc1");
    EXPECT_EQ(net.layer(macs[1]).name(), "fc2");
}

TEST(Network, SetPrecisionPropagates)
{
    Network net = makeDiamond(1);
    net.setPrecision(Precision::FP16);
    for (NodeId id = 1; id < net.numNodes(); ++id)
        EXPECT_EQ(net.layer(id).precision(), Precision::FP16);
}

TEST(Network, CalibrationEnablesIntegerMode)
{
    Network net = makeDiamond(1);
    Tensor x = randomInput(2, 4);
    Tensor fp32 = net.forward(x);

    net.setPrecision(Precision::INT16);
    net.calibrate(x);
    Tensor int16 = net.forward(x);

    // INT16 tracks FP32 closely but not exactly.
    double err = 0.0;
    for (std::size_t i = 0; i < fp32.size(); ++i)
        err += std::fabs(int16[i] - fp32[i]);
    EXPECT_LT(err / fp32.size(), 0.05);
}

TEST(Network, Int8CoarserThanInt16)
{
    auto total_err = [&](Precision p) {
        Network ref = makeDiamond(1);
        Network quant = makeDiamond(1);
        quant.setPrecision(p);
        // Calibrate over the evaluation inputs so range clipping does
        // not drown out the quantisation-granularity difference.
        for (int s = 0; s < 20; ++s)
            quant.calibrate(randomInput(100 + s, 4));
        double err = 0.0;
        for (int s = 0; s < 20; ++s) {
            Tensor x = randomInput(100 + s, 4);
            Tensor want = ref.forward(x);
            Tensor got = quant.forward(x);
            for (std::size_t i = 0; i < want.size(); ++i)
                err += std::fabs(got[i] - want[i]);
        }
        return err;
    };
    double e16 = total_err(Precision::INT16);
    double e8 = total_err(Precision::INT8);
    EXPECT_GT(e16, 0.0);
    EXPECT_GT(e8, e16);
}

TEST(Network, ConcurrentFirstForwardAfterCalibrate)
{
    // Campaign workers share one configured Network read-only, so the
    // first forward after setPrecision/calibrate may run on several
    // threads at once: every weight pack must already be built, with
    // no lazy state left for the forward calls to write (TSan runs
    // this test).
    constexpr int kThreads = 4;
    auto configured = [](const std::string &name) {
        Network net = buildNetwork(name, 3);
        net.setPrecision(Precision::INT8);
        net.calibrate(defaultInputFor(name, 4));
        return net;
    };
    for (const char *name : {"resnet", "transformer"}) {
        SCOPED_TRACE(name);
        const Tensor x = defaultInputFor(name, 5);
        const Network net = configured(name);
        std::vector<Tensor> outs(kThreads);
        std::latch start(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                start.arrive_and_wait();
                outs[t] = net.forward(x);
            });
        for (std::thread &th : threads)
            th.join();

        const Tensor want = configured(name).forward(x);
        for (const Tensor &got : outs) {
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                  want.size() * sizeof(float)),
                      0);
        }
    }
}

TEST(NetworkDeath, ForwardRejectsBadProducers)
{
    Rng rng(1);
    Network net("bad");
    auto layer = std::make_unique<FC>("fc", 4, 4, heWeights(rng, 16, 4),
                                      std::vector<float>{});
    EXPECT_DEATH(net.add(std::move(layer), 5), "earlier node");
}

TEST(LstmBuilder, ProducesRunnableGraph)
{
    Rng rng(3);
    Network net("lstm");
    LstmSpec spec;
    spec.inputSize = 4;
    spec.hiddenSize = 8;
    spec.timeSteps = 3;
    NodeId h = addLstm(net, 0, spec, rng, "lstm");
    EXPECT_EQ(h, net.outputNode());

    Tensor x(1, 3, 1, 4);
    Rng data(4);
    for (auto &v : x.data())
        v = static_cast<float>(data.normal(0, 1));
    Tensor out = net.forward(x);
    EXPECT_EQ(out.c(), 8);
    EXPECT_EQ(out.h(), 1);
    // Hidden state is bounded by tanh * sigmoid.
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_GE(out[i], -1.0f);
        EXPECT_LE(out[i], 1.0f);
    }
}

TEST(LstmBuilder, LaterInputsMatter)
{
    Rng rng(5);
    Network net("lstm");
    LstmSpec spec;
    spec.inputSize = 4;
    spec.hiddenSize = 8;
    spec.timeSteps = 3;
    addLstm(net, 0, spec, rng, "lstm");

    Tensor x(1, 3, 1, 4);
    Rng data(6);
    for (auto &v : x.data())
        v = static_cast<float>(data.normal(0, 1));
    Tensor base = net.forward(x);
    x.at(0, 2, 0, 0) += 1.0f; // perturb the last timestep
    Tensor perturbed = net.forward(x);
    bool changed = false;
    for (std::size_t i = 0; i < base.size(); ++i)
        changed = changed || base[i] != perturbed[i];
    EXPECT_TRUE(changed);
}

TEST(AttentionBuilder, ProducesRunnableGraph)
{
    Rng rng(7);
    Network net("attn");
    AttentionSpec spec;
    spec.seqLen = 6;
    spec.dModel = 8;
    spec.dFF = 16;
    NodeId out_node = addAttentionBlock(net, 0, spec, rng, "enc");
    EXPECT_EQ(out_node, net.outputNode());

    Tensor x(1, 6, 1, 8);
    Rng data(8);
    for (auto &v : x.data())
        v = static_cast<float>(data.normal(0, 1));
    Tensor out = net.forward(x);
    EXPECT_EQ(out.h(), 6);
    EXPECT_EQ(out.c(), 8);
}

TEST(AttentionBuilder, MixesAcrossPositions)
{
    Rng rng(9);
    Network net("attn");
    AttentionSpec spec;
    spec.seqLen = 6;
    spec.dModel = 8;
    spec.dFF = 16;
    addAttentionBlock(net, 0, spec, rng, "enc");

    Tensor x(1, 6, 1, 8);
    Rng data(10);
    for (auto &v : x.data())
        v = static_cast<float>(data.normal(0, 1));
    Tensor base = net.forward(x);
    x.at(0, 0, 0, 0) += 2.0f; // perturb position 0
    Tensor perturbed = net.forward(x);
    // Attention propagates the change to other positions.
    bool other_changed = false;
    for (int c = 0; c < 8; ++c)
        other_changed = other_changed ||
                        base.at(0, 5, 0, c) != perturbed.at(0, 5, 0, c);
    EXPECT_TRUE(other_changed);
}
