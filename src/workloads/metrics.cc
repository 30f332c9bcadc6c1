#include "workloads/metrics.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "sim/logging.hh"

namespace fidelity
{

bool
hasInvalidValues(const Tensor &t)
{
    for (std::size_t i = 0; i < t.size(); ++i)
        if (!std::isfinite(t[i]))
            return true;
    return false;
}

CorrectnessFn
top1Metric()
{
    return [](const Tensor &golden, const Tensor &faulty) {
        return top1Match(golden, faulty);
    };
}

std::vector<int>
decodeTokens(const Tensor &out)
{
    // One token per (n, h, w) position: the first argmax of its
    // channel row.
    std::vector<int> tokens;
    tokens.reserve(static_cast<std::size_t>(out.n()) * out.h() * out.w());
    const float *row = out.data().data();
    for (std::size_t f = 0; f < out.size(); f += out.c(), row += out.c()) {
        int best = 0;
        for (int c = 1; c < out.c(); ++c)
            if (row[c] > row[best])
                best = c;
        tokens.push_back(best);
    }
    return tokens;
}

double
bleuScore(const std::vector<int> &reference,
          const std::vector<int> &hypothesis)
{
    if (hypothesis.empty())
        return reference.empty() ? 1.0 : 0.0;

    const int max_n = 4;
    double log_sum = 0.0;
    int used_orders = 0;
    for (int n = 1; n <= max_n; ++n) {
        if (static_cast<int>(reference.size()) < n ||
            static_cast<int>(hypothesis.size()) < n)
            break;
        used_orders += 1;
        std::map<std::vector<int>, int> ref_counts;
        for (std::size_t i = 0; i + n <= reference.size(); ++i)
            ref_counts[{reference.begin() + i,
                        reference.begin() + i + n}] += 1;
        int matched = 0;
        int total = 0;
        std::map<std::vector<int>, int> used;
        for (std::size_t i = 0; i + n <= hypothesis.size(); ++i) {
            std::vector<int> gram(hypothesis.begin() + i,
                                  hypothesis.begin() + i + n);
            total += 1;
            auto it = ref_counts.find(gram);
            if (it != ref_counts.end() && used[gram] < it->second) {
                used[gram] += 1;
                matched += 1;
            }
        }
        if (matched == 0)
            return 0.0;
        log_sum += std::log(static_cast<double>(matched) / total);
    }
    if (used_orders == 0)
        return reference == hypothesis ? 1.0 : 0.0;
    double precision = std::exp(log_sum / used_orders);
    double bp = 1.0;
    if (hypothesis.size() < reference.size())
        bp = std::exp(1.0 - static_cast<double>(reference.size()) /
                                hypothesis.size());
    return bp * precision;
}

CorrectnessFn
bleuMetric(double tolerance)
{
    return [tolerance](const Tensor &golden, const Tensor &faulty) {
        if (hasInvalidValues(faulty))
            return false;
        std::vector<int> ref = decodeTokens(golden);
        std::vector<int> hyp = decodeTokens(faulty);
        // The fault-free score is 1; accept within the band.  Equal
        // token sequences score exactly 1 (every n-gram order matches
        // fully, exp(0) = 1, no brevity penalty), so they skip the
        // n-gram tables.
        if (hyp == ref)
            return 1.0 >= 1.0 - tolerance;
        return bleuScore(ref, hyp) >= 1.0 - tolerance;
    };
}

std::vector<Detection>
decodeDetections(const Tensor &out, float obj_threshold)
{
    panic_if(out.c() < 6, "detection head needs >= 6 channels");
    std::vector<Detection> dets;
    for (int h = 0; h < out.h(); ++h) {
        for (int w = 0; w < out.w(); ++w) {
            float obj = out.at(0, h, w, 0);
            float conf = 1.0f / (1.0f + std::exp(-obj));
            if (!(conf > obj_threshold))
                continue;
            Detection d;
            d.cellH = h;
            d.cellW = w;
            d.x = out.at(0, h, w, 1);
            d.y = out.at(0, h, w, 2);
            d.w = out.at(0, h, w, 3);
            d.h = out.at(0, h, w, 4);
            int best = 5;
            for (int c = 6; c < out.c(); ++c)
                if (out.at(0, h, w, c) > out.at(0, h, w, best))
                    best = c;
            d.cls = best - 5;
            dets.push_back(d);
        }
    }
    return dets;
}

double
detectionScore(const std::vector<Detection> &reference,
               const std::vector<Detection> &hypothesis, float box_tol)
{
    if (reference.empty() && hypothesis.empty())
        return 1.0;
    if (reference.empty() || hypothesis.empty())
        return 0.0;

    std::vector<bool> used(reference.size(), false);
    int matched = 0;
    for (const Detection &h : hypothesis) {
        for (std::size_t i = 0; i < reference.size(); ++i) {
            const Detection &r = reference[i];
            if (used[i] || r.cellH != h.cellH || r.cellW != h.cellW ||
                r.cls != h.cls)
                continue;
            if (std::fabs(r.x - h.x) <= box_tol &&
                std::fabs(r.y - h.y) <= box_tol &&
                std::fabs(r.w - h.w) <= box_tol &&
                std::fabs(r.h - h.h) <= box_tol) {
                used[i] = true;
                matched += 1;
                break;
            }
        }
    }
    double precision = static_cast<double>(matched) / hypothesis.size();
    double recall = static_cast<double>(matched) / reference.size();
    if (precision + recall == 0.0)
        return 0.0;
    return 2.0 * precision * recall / (precision + recall);
}

CorrectnessFn
detectionMetric(double tolerance)
{
    return [tolerance](const Tensor &golden, const Tensor &faulty) {
        if (hasInvalidValues(faulty))
            return false;
        auto ref = decodeDetections(golden);
        auto hyp = decodeDetections(faulty);
        return detectionScore(ref, hyp) >= 1.0 - tolerance;
    };
}

} // namespace fidelity
