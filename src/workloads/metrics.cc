#include "workloads/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

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

namespace
{

/**
 * Clipped n-gram matches of `hyp` against `ref`: the sum over distinct
 * n-grams of min(count in hyp, count in ref).  Both sides' n-gram start
 * indices are sorted by the n tokens they start, then walked together
 * run by run; grams are compared in place, and the index buffers are
 * the caller's, so a call allocates nothing once they have grown.
 */
int
clippedMatches(const std::vector<int> &ref, const std::vector<int> &hyp,
               std::size_t n, std::vector<std::uint32_t> &ref_idx,
               std::vector<std::uint32_t> &hyp_idx)
{
    auto sortStarts = [n](const std::vector<int> &seq,
                          std::vector<std::uint32_t> &idx) {
        idx.resize(seq.size() - n + 1);
        std::iota(idx.begin(), idx.end(), 0u);
        std::sort(idx.begin(), idx.end(),
                  [&seq, n](std::uint32_t a, std::uint32_t b) {
                      return std::lexicographical_compare(
                          seq.begin() + a, seq.begin() + a + n,
                          seq.begin() + b, seq.begin() + b + n);
                  });
    };
    sortStarts(ref, ref_idx);
    sortStarts(hyp, hyp_idx);

    // <0, 0, >0 as the n-gram starting at a[i] sorts before, equal to
    // or after the one starting at b[j].
    auto compare = [n](const std::vector<int> &a, std::uint32_t i,
                       const std::vector<int> &b, std::uint32_t j) {
        for (std::size_t k = 0; k < n; ++k)
            if (a[i + k] != b[j + k])
                return a[i + k] < b[j + k] ? -1 : 1;
        return 0;
    };
    int matched = 0;
    std::size_t r = 0, h = 0;
    while (r < ref_idx.size() && h < hyp_idx.size()) {
        const int c = compare(ref, ref_idx[r], hyp, hyp_idx[h]);
        if (c < 0) {
            ++r;
        } else if (c > 0) {
            ++h;
        } else {
            const std::uint32_t gr = ref_idx[r], gh = hyp_idx[h];
            int in_ref = 0, in_hyp = 0;
            for (; r < ref_idx.size() &&
                   compare(ref, ref_idx[r], ref, gr) == 0;
                 ++r)
                ++in_ref;
            for (; h < hyp_idx.size() &&
                   compare(hyp, hyp_idx[h], hyp, gh) == 0;
                 ++h)
                ++in_hyp;
            matched += std::min(in_ref, in_hyp);
        }
    }
    return matched;
}

} // namespace

double
bleuScore(const std::vector<int> &reference,
          const std::vector<int> &hypothesis)
{
    if (hypothesis.empty())
        return reference.empty() ? 1.0 : 0.0;

    thread_local std::vector<std::uint32_t> ref_idx, hyp_idx;
    const std::size_t max_n = 4;
    double log_sum = 0.0;
    int used_orders = 0;
    for (std::size_t n = 1; n <= max_n; ++n) {
        if (reference.size() < n || hypothesis.size() < n)
            break;
        used_orders += 1;
        const int matched =
            clippedMatches(reference, hypothesis, n, ref_idx, hyp_idx);
        const int total = static_cast<int>(hypothesis.size() - n + 1);
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
