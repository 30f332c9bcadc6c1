#include "core/injector.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace fidelity
{

namespace
{

// Floats are mixed by their exact 32-bit pattern (not via double) so
// NaN payloads and signed zeros stay distinguishable — the fingerprint
// must pin stored bits, not numeric values.
std::uint64_t floatBits(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

void mixTensor(HashMixer &m, const Tensor &t)
{
    m.mix(static_cast<std::uint64_t>(t.n()));
    m.mix(static_cast<std::uint64_t>(t.h()));
    m.mix(static_cast<std::uint64_t>(t.w()));
    m.mix(static_cast<std::uint64_t>(t.c()));
    for (std::size_t i = 0; i < t.size(); ++i)
        m.mix(floatBits(t[i]));
}

void mixQuant(HashMixer &m, const QuantParams &q)
{
    m.mix(q.scale);
    m.mix(static_cast<std::uint64_t>(q.bits));
}

} // namespace

Injector::Injector(const Network &net, Tensor input,
                   const NvdlaConfig &cfg)
    : net_(net), input_(std::move(input)), models_(cfg)
{
    acts_ = net_.forwardAll(input_);
    preps_ = net_.prepareGolden(acts_);
}

const Tensor &
Injector::goldenOutput() const
{
    return acts_[net_.outputNode()];
}

void
Injector::attachResultCache(ResultCache *cache, std::uint64_t salt)
{
    cache_ = cache;
    cacheContext_ = 0;
    if (!cache_)
        return;

    // Conservative context digest: everything a forward pass from any
    // injection site reads, by exact bit pattern.  The golden
    // activations transitively pin the biases (bias differences would
    // change some activation), and input + weights + quant params pin
    // the arithmetic itself, so two injectors with equal digests run
    // bit-identical propagation for equal corruptions.
    HashMixer m;
    m.mix(std::string("fidelity-result-cache-v1"));
    m.mix(salt);
    m.mix(net_.name());
    m.mix(std::string(precisionName(net_.precision())));
    mixTensor(m, input_);
    // Node 0 is the input placeholder (already mixed above); real
    // layers start at 1.
    for (NodeId id = 1; id < net_.numNodes(); ++id) {
        const Layer &layer = net_.layer(id);
        m.mix(layer.name());
        m.mix(std::string(layerKindName(layer.kind())));
        m.mix(std::string(precisionName(layer.precision())));
        mixTensor(m, acts_[id]);
        if (const auto *mac = dynamic_cast<const MacLayer *>(&layer)) {
            auto ins = net_.gatherInputs(id, acts_);
            const std::size_t wc = mac->weightCount(ins);
            m.mix(static_cast<std::uint64_t>(wc));
            for (std::size_t i = 0; i < wc; ++i)
                m.mix(floatBits(mac->weightAt(ins, i)));
            mixQuant(m, mac->inputQuant());
            mixQuant(m, mac->weightQuant());
            mixQuant(m, mac->outputQuant());
        }
    }
    cacheContext_ = m.value();
}

std::uint64_t
faultSiteFingerprint(std::uint64_t context, NodeId node, FFCategory cat,
                     double clamp_abs, const FaultApplication &app,
                     const Tensor &golden)
{
    HashMixer m;
    m.mix(context);
    m.mix(static_cast<std::uint64_t>(node));
    m.mix(static_cast<std::uint64_t>(cat));
    m.mix(clamp_abs);
    m.mix(static_cast<std::uint64_t>(app.neurons.size()));
    for (std::size_t i = 0; i < app.neurons.size(); ++i) {
        const NeuronIndex &nrn = app.neurons[i];
        m.mix(static_cast<std::uint64_t>(nrn.n));
        m.mix(static_cast<std::uint64_t>(nrn.h));
        m.mix(static_cast<std::uint64_t>(nrn.w));
        m.mix(static_cast<std::uint64_t>(nrn.c));
        // Hash the value the forward pass will actually see written
        // back, so raw values the range checker bounds to the same
        // write collapse into one site (more hits, same outcome).
        float v = app.values[i];
        if (clamp_abs > 0.0)
            v = boundValue(v, clamp_abs);
        m.mix(floatBits(v));
        m.mix(floatBits(golden.at(nrn)));
    }
    return m.value();
}

float
boundValue(float v, double clamp_abs)
{
    // NaN carries no sign information the checker could preserve; the
    // deliberate policy is to flush it to zero (the checker's neutral
    // value), never to either bound.
    if (std::isnan(v))
        return 0.0f;
    // Infinities saturate to the bound of their own sign: a negatively
    // overflowed value must stay negative or the range checker itself
    // would inject a sign flip.
    if (std::isinf(v)) {
        return static_cast<float>(std::signbit(v) ? -clamp_abs
                                                  : clamp_abs);
    }
    return std::clamp(v, static_cast<float>(-clamp_abs),
                      static_cast<float>(clamp_abs));
}

InjectionRecord
Injector::inject(NodeId node, FFCategory cat, const CorrectnessFn &correct,
                 Rng &rng, double clamp_abs) const
{
    InjectionRecord rec;
    rec.category = cat;
    rec.node = node;

    if (cat == FFCategory::GlobalControl) {
        // Modelled as guaranteed application error / system anomaly.
        rec.masked = false;
        rec.globalFailure = true;
        return rec;
    }

    const auto *mac = dynamic_cast<const MacLayer *>(&net_.layer(node));
    panic_if(!mac, "injection target ", node, " is not a MAC layer");
    auto ins = net_.gatherInputs(node, acts_);

    FaultApplication app = models_.apply(cat, *mac, ins, acts_[node], rng);
    rec.numFaultyNeurons = static_cast<int>(app.neurons.size());
    rec.maxAbsDelta = app.maxAbsDelta;
    if (app.masked()) {
        rec.masked = true;
        return rec;
    }

    // Probe the memo table only after the fault model ran: the rng
    // stream and the record's fault-shape fields are identical with
    // and without a cache — a hit skips only the propagation below.
    if (cache_) {
        rec.fingerprint = faultSiteFingerprint(cacheContext_, node, cat,
                                               clamp_abs, app, acts_[node]);
        rec.cacheEligible = true;
        CachedOutcome memo;
        if (cache_->probe(rec.fingerprint, memo)) {
            rec.masked = memo.masked;
            rec.earlyExit = memo.earlyExit;
            rec.cacheHit = true;
            return rec;
        }
    }

    Tensor corrupted = acts_[node];
    for (std::size_t i = 0; i < app.neurons.size(); ++i) {
        float v = app.values[i];
        if (clamp_abs > 0.0)
            v = boundValue(v, clamp_abs);
        corrupted.at(app.neurons[i]) = v;
    }

    Tensor final_out = net_.forwardFrom(node, corrupted, acts_);
    rec.masked = correct(goldenOutput(), final_out);
    if (cache_)
        cache_->store(rec.fingerprint,
                      CachedOutcome{rec.masked, rec.earlyExit});
    return rec;
}

std::size_t
Injector::injectBatch(NodeId node, FFCategory cat,
                      const CorrectnessFn &correct,
                      std::span<const ShardDraws> shards, double clamp_abs,
                      BatchedEngine &eng) const
{
    std::size_t draws = 0;
    for (const ShardDraws &sd : shards)
        draws += static_cast<std::size_t>(std::max(sd.count, 0));
    if (draws == 0)
        return 0;
    if (cat == FFCategory::GlobalControl) {
        // Nothing to propagate: GlobalControl is classified outright.
        for (const ShardDraws &sd : shards)
            for (int i = 0; i < sd.count; ++i)
                sd.recs[i] = inject(node, cat, correct, *sd.rng, clamp_abs);
        return draws;
    }
    const int width = eng.maxLanes();

    const auto *mac = dynamic_cast<const MacLayer *>(&net_.layer(node));
    panic_if(!mac, "injection target ", node, " is not a MAC layer");
    auto ins = net_.gatherInputs(node, acts_);
    const Tensor &golden = acts_[node];

    // Pending survivors of every shard (post-bounding, bit-changed
    // neurons only).  Survivors queue up here and are grouped into
    // batches *by seed-site proximity* after the sampling loop:
    // spatially adjacent faults have overlapping cones, so clustered
    // lanes keep every layer's union recompute box close to a single
    // injection's.  All RNG draws and cache probes happen inside the
    // sequential loop, so the grouping cannot perturb any rng stream,
    // the record fault fields, or any outcome.
    std::vector<NeuronIndex> qn; // flat neuron storage
    std::vector<float> qv;       // flat value storage
    struct Pending
    {
        std::size_t begin;    //!< first neuron in qn/qv
        std::size_t end;      //!< one past the last neuron
        InjectionRecord *rec; //!< the draw's record in its shard
        std::uint64_t key;    //!< batch n, then Z-order of the seed centre
    };
    std::vector<Pending> pend;

    // Z-order (Morton) interleave of the 2-D seed centre: sorting by
    // it groups survivors into compact spatial blocks, where a
    // lexicographic (h, w) sort would cluster rows but span the whole
    // width — and the batch union box is what every layer recomputes.
    auto morton = [](std::uint32_t h, std::uint32_t w) {
        std::uint64_t z = 0;
        for (int b = 0; b < 16; ++b) {
            z |= static_cast<std::uint64_t>((h >> b) & 1u) << (2 * b + 1);
            z |= static_cast<std::uint64_t>((w >> b) & 1u) << (2 * b);
        }
        return z;
    };

    // Carry pend[g0, g0 + q) through the network as one batch and
    // classify every lane.
    auto runBatch = [&](std::size_t g0, int q) {
        eng.begin(net_, node, acts_, &preps_);
        for (int l = 0; l < q; ++l) {
            const Pending &p = pend[g0 + l];
            eng.seedLane(l, qn.data() + p.begin, qv.data() + p.begin,
                         p.end - p.begin);
        }
        eng.execute();
        for (int l = 0; l < q; ++l) {
            InjectionRecord &r = *pend[g0 + l].rec;
            r.masked = correct(goldenOutput(), eng.laneOutput(l));
            r.earlyExit = eng.laneEarlyMasked(l);
            if (cache_)
                cache_->store(r.fingerprint,
                              CachedOutcome{r.masked, r.earlyExit});
        }
    };

    for (const ShardDraws &sd : shards) {
        for (int i = 0; i < sd.count; ++i) {
            InjectionRecord &rec = sd.recs[i];
            rec = InjectionRecord{};
            rec.category = cat;
            rec.node = node;

            FaultApplication app =
                models_.apply(cat, *mac, ins, golden, *sd.rng);
            rec.numFaultyNeurons = static_cast<int>(app.neurons.size());
            rec.maxAbsDelta = app.maxAbsDelta;
            if (app.masked()) {
                rec.masked = true;
                continue;
            }

            // Probe the memo table per injection, before batching, so
            // the rng stream and record fields match the sequential
            // path.
            if (cache_) {
                rec.fingerprint = faultSiteFingerprint(
                    cacheContext_, node, cat, clamp_abs, app, golden);
                rec.cacheEligible = true;
                CachedOutcome memo;
                if (cache_->probe(rec.fingerprint, memo)) {
                    rec.masked = memo.masked;
                    rec.earlyExit = memo.earlyExit;
                    rec.cacheHit = true;
                    continue;
                }
            }

            Pending p;
            p.begin = qn.size();
            Region seed;
            for (std::size_t j = 0; j < app.neurons.size(); ++j) {
                float v = app.values[j];
                if (clamp_abs > 0.0)
                    v = boundValue(v, clamp_abs);
                if (std::bit_cast<std::uint32_t>(v) !=
                    std::bit_cast<std::uint32_t>(golden.at(app.neurons[j])))
                {
                    qn.push_back(app.neurons[j]);
                    qv.push_back(v);
                    seed.include(app.neurons[j]);
                }
            }
            p.end = qn.size();
            p.rec = &rec;
            p.key = seed.empty()
                ? 0
                : (static_cast<std::uint64_t>(seed.n0 + seed.n1) << 33) |
                      morton(static_cast<std::uint32_t>(seed.h0 + seed.h1),
                             static_cast<std::uint32_t>(seed.w0 + seed.w1));
            pend.push_back(p);
            if (width == 1) {
                // Nothing to cluster: run each survivor before the next
                // draw, so a repeated site hits the cache as in
                // inject().
                runBatch(0, 1);
                pend.clear();
                qn.clear();
                qv.clear();
            }
        }
    }

    // Cluster: sort the pooled survivors by seed centre, stable so
    // equal sites keep draw order — the grouping is a function of the
    // draws alone and thus identical at every thread count.
    std::stable_sort(pend.begin(), pend.end(),
                     [](const Pending &a, const Pending &b) {
                         return a.key < b.key;
                     });
    for (std::size_t g0 = 0; g0 < pend.size(); g0 += width)
        runBatch(g0, static_cast<int>(std::min<std::size_t>(
                         width, pend.size() - g0)));
    return draws;
}

namespace
{

/**
 * Argmax treating NaN as "not a valid score": NaN elements can never
 * be the top-1 class.  Returns SIZE_MAX when every element is NaN
 * (the prediction is undefined).  Infinities order normally.
 */
std::size_t
argmaxIgnoringNan(const Tensor &t)
{
    std::size_t best = SIZE_MAX;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (std::isnan(t[i]))
            continue;
        if (best == SIZE_MAX || t[i] > t[best])
            best = i;
    }
    return best;
}

} // namespace

bool
top1Match(const Tensor &golden, const Tensor &faulty)
{
    panic_if(golden.size() != faulty.size(), "output size mismatch");
    // The criterion is purely "does the predicted class change": a NaN
    // only matters when it displaces the top-1 score (it can never win
    // itself), and a NaN the golden output already contains cannot make
    // the faulty run wrong on its own.  Two undefined predictions
    // (all-NaN on both sides) compare equal — the metric has no basis
    // to call the fault visible.
    return argmaxIgnoringNan(golden) == argmaxIgnoringNan(faulty);
}

} // namespace fidelity
