/**
 * @file
 * Tests of the application correctness metrics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "workloads/metrics.hh"

using namespace fidelity;

TEST(Metrics, DecodeTokensPicksArgmaxPerPosition)
{
    Tensor out(1, 3, 1, 4);
    out.at(0, 0, 0, 2) = 1.0f;
    out.at(0, 1, 0, 0) = 1.0f;
    out.at(0, 2, 0, 3) = 1.0f;
    EXPECT_EQ(decodeTokens(out), (std::vector<int>{2, 0, 3}));
}

TEST(Metrics, BleuIdenticalIsOne)
{
    std::vector<int> s = {1, 2, 3, 4, 5, 6};
    EXPECT_DOUBLE_EQ(bleuScore(s, s), 1.0);
}

TEST(Metrics, BleuIdenticalIsExactlyOneAtEveryLength)
{
    // bleuMetric short-circuits equal token sequences to a score of
    // exactly 1; bleuScore must agree bit for bit at every length,
    // including the ones shorter than the 4-gram order.
    std::mt19937 rng(17);
    for (int len = 0; len <= 16; ++len) {
        for (int rep = 0; rep < 8; ++rep) {
            std::vector<int> r(len);
            for (int &t : r)
                t = static_cast<int>(rng() % 5);
            EXPECT_EQ(bleuScore(r, r), 1.0) << "length " << len;
        }
    }
}

TEST(Metrics, BleuMetricDecisionEqualsScoreOnRandomPairs)
{
    // The metric's verdict must be exactly "finite and
    // bleuScore >= 1 - tolerance", whether or not the decoded token
    // sequences are equal.
    std::mt19937 rng(23);
    std::uniform_real_distribution<float> val(-1.0f, 1.0f);
    const double tolerances[] = {0.0, 0.05, 0.10, 0.20, 0.50};
    int equal = 0, differ = 0, invalid = 0;
    for (int iter = 0; iter < 400; ++iter) {
        const int len = 1 + static_cast<int>(rng() % 16);
        const int vocab = 2 + static_cast<int>(rng() % 4);
        Tensor golden(1, len, 1, vocab);
        for (std::size_t i = 0; i < golden.size(); ++i)
            golden[i] = val(rng);
        Tensor faulty = golden;
        const int edits = static_cast<int>(rng() % 4);
        for (int e = 0; e < edits; ++e)
            faulty[rng() % faulty.size()] = val(rng);
        if (rng() % 5 == 0)
            faulty[rng() % faulty.size()] =
                std::numeric_limits<float>::quiet_NaN();
        const bool bad = hasInvalidValues(faulty);
        const double score =
            bleuScore(decodeTokens(golden), decodeTokens(faulty));
        invalid += bad;
        if (!bad)
            (decodeTokens(golden) == decodeTokens(faulty) ? equal
                                                          : differ) += 1;
        for (double tol : tolerances)
            EXPECT_EQ(bleuMetric(tol)(golden, faulty),
                      !bad && score >= 1.0 - tol)
                << "iter " << iter << " tolerance " << tol;
    }
    // The draw must exercise all three verdict paths.
    EXPECT_GT(equal, 0);
    EXPECT_GT(differ, 0);
    EXPECT_GT(invalid, 0);
}

TEST(Metrics, BleuDisjointIsZero)
{
    EXPECT_DOUBLE_EQ(bleuScore({1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}), 0.0);
}

TEST(Metrics, BleuSingleSubstitutionIsHighButBelowOne)
{
    std::vector<int> ref = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> hyp = ref;
    hyp[4] = 99;
    double b = bleuScore(ref, hyp);
    EXPECT_GT(b, 0.3);
    EXPECT_LT(b, 1.0);
}

TEST(Metrics, BleuMoreErrorsScoreLower)
{
    std::vector<int> ref = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<int> one = ref, three = ref;
    one[5] = 99;
    three[2] = 97;
    three[5] = 98;
    three[8] = 99;
    EXPECT_GT(bleuScore(ref, one), bleuScore(ref, three));
}

TEST(Metrics, BleuBrevityPenalty)
{
    std::vector<int> ref = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> prefix(ref.begin(), ref.begin() + 5);
    double b = bleuScore(ref, prefix);
    EXPECT_LT(b, 1.0);
    EXPECT_GT(b, 0.0);
}

TEST(Metrics, BleuEmptyHypothesis)
{
    EXPECT_DOUBLE_EQ(bleuScore({1, 2, 3}, {}), 0.0);
    EXPECT_DOUBLE_EQ(bleuScore({}, {}), 1.0);
}

TEST(Metrics, BleuShortSequencesFallBackGracefully)
{
    EXPECT_DOUBLE_EQ(bleuScore({5}, {5}), 1.0);
    EXPECT_DOUBLE_EQ(bleuScore({5}, {6}), 0.0);
}

TEST(Metrics, BleuMetricBandsDiffer)
{
    // Construct outputs whose BLEU sits between the 10% and 20% bands
    // (a single substituted token in a 20-token sequence scores about
    // 0.86).
    Tensor golden(1, 20, 1, 4);
    for (int h = 0; h < 20; ++h)
        golden.at(0, h, 0, h % 4) = 1.0f;
    Tensor faulty = golden;
    // Change one position's argmax.
    faulty.at(0, 10, 0, 10 % 4) = 0.0f;
    faulty.at(0, 10, 0, (10 + 1) % 4) = 1.0f;
    double b = bleuScore(decodeTokens(golden), decodeTokens(faulty));
    ASSERT_GT(b, 0.8);
    ASSERT_LT(b, 0.9);
    EXPECT_FALSE(bleuMetric(0.10)(golden, faulty));
    EXPECT_TRUE(bleuMetric(0.20)(golden, faulty));
}

TEST(Metrics, DetectionDecode)
{
    Tensor out(1, 2, 2, 8);
    // Cell (0, 1) detects class 2 with a box.
    out.at(0, 0, 1, 0) = 3.0f; // sigmoid(3) > 0.5
    out.at(0, 0, 1, 1) = 0.5f;
    out.at(0, 0, 1, 2) = 0.6f;
    out.at(0, 0, 1, 3) = 0.7f;
    out.at(0, 0, 1, 4) = 0.8f;
    out.at(0, 0, 1, 7) = 2.0f; // class 2 logit
    // Everything else stays below threshold (logit 0 -> 0.5).
    auto dets = decodeDetections(out);
    ASSERT_EQ(dets.size(), 1u);
    EXPECT_EQ(dets[0].cellH, 0);
    EXPECT_EQ(dets[0].cellW, 1);
    EXPECT_EQ(dets[0].cls, 2);
    EXPECT_EQ(dets[0].x, 0.5f);
}

TEST(Metrics, DetectionScorePerfect)
{
    std::vector<Detection> d = {{0, 0, 1, 0.1f, 0.2f, 0.3f, 0.4f}};
    EXPECT_DOUBLE_EQ(detectionScore(d, d), 1.0);
}

TEST(Metrics, DetectionScoreMissAndSpurious)
{
    std::vector<Detection> ref = {{0, 0, 1, 0, 0, 0, 0},
                                  {1, 1, 2, 0, 0, 0, 0}};
    std::vector<Detection> miss = {{0, 0, 1, 0, 0, 0, 0}};
    // One of two found: recall 0.5, precision 1 -> F = 2/3.
    EXPECT_NEAR(detectionScore(ref, miss), 2.0 / 3.0, 1e-9);

    std::vector<Detection> spurious = ref;
    spurious.push_back({2, 2, 0, 0, 0, 0, 0});
    // Precision 2/3, recall 1 -> F = 0.8.
    EXPECT_NEAR(detectionScore(ref, spurious), 0.8, 1e-9);
}

TEST(Metrics, DetectionBoxToleranceMatters)
{
    std::vector<Detection> ref = {{0, 0, 1, 0.0f, 0.0f, 0.0f, 0.0f}};
    std::vector<Detection> close = {{0, 0, 1, 0.05f, 0.0f, 0.0f, 0.0f}};
    std::vector<Detection> far = {{0, 0, 1, 0.5f, 0.0f, 0.0f, 0.0f}};
    EXPECT_DOUBLE_EQ(detectionScore(ref, close), 1.0);
    EXPECT_DOUBLE_EQ(detectionScore(ref, far), 0.0);
}

TEST(Metrics, DetectionEmptyCases)
{
    std::vector<Detection> none;
    std::vector<Detection> one = {{0, 0, 0, 0, 0, 0, 0}};
    EXPECT_DOUBLE_EQ(detectionScore(none, none), 1.0);
    EXPECT_DOUBLE_EQ(detectionScore(none, one), 0.0);
    EXPECT_DOUBLE_EQ(detectionScore(one, none), 0.0);
}

TEST(Metrics, DetectionMetricBands)
{
    // Golden: three detections; faulty run loses one.
    Tensor golden(1, 2, 2, 8);
    golden.at(0, 0, 0, 0) = 3.0f;
    golden.at(0, 0, 1, 0) = 3.0f;
    golden.at(0, 1, 0, 0) = 3.0f;
    Tensor faulty = golden;
    faulty.at(0, 1, 0, 0) = -3.0f;
    // Score = F1 of 2 of 3 = 0.8 -> fails 10%, passes 20%... 0.8 is
    // exactly the 20% bound.
    EXPECT_FALSE(detectionMetric(0.10)(golden, faulty));
    EXPECT_TRUE(detectionMetric(0.20)(golden, faulty));
}

TEST(Metrics, NanAlwaysFails)
{
    Tensor golden(1, 2, 2, 8);
    golden.at(0, 0, 0, 0) = 3.0f;
    Tensor faulty = golden;
    faulty.at(0, 1, 1, 3) = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(detectionMetric(0.20)(golden, faulty));
    EXPECT_FALSE(bleuMetric(0.20)(golden, faulty));
    EXPECT_TRUE(hasInvalidValues(faulty));
    EXPECT_FALSE(hasInvalidValues(golden));
}
