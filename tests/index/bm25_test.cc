#include "index/bm25.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

namespace hdk::index {
namespace {

TEST(Bm25Test, IdfMatchesPlusOneFormula) {
  Bm25Scorer scorer(1000, 100.0);
  const double expected = std::log((1000.0 - 10 + 0.5) / (10 + 0.5) + 1.0);
  EXPECT_NEAR(scorer.Idf(10), expected, 1e-12);
}

TEST(Bm25Test, IdfAlwaysPositive) {
  Bm25Scorer scorer(100, 50.0);
  for (Freq df : {1ULL, 10ULL, 50ULL, 99ULL, 100ULL}) {
    EXPECT_GT(scorer.Idf(df), 0.0) << df;
  }
}

TEST(Bm25Test, IdfDecreasesWithDf) {
  Bm25Scorer scorer(10000, 100.0);
  EXPECT_GT(scorer.Idf(1), scorer.Idf(10));
  EXPECT_GT(scorer.Idf(10), scorer.Idf(100));
  EXPECT_GT(scorer.Idf(100), scorer.Idf(5000));
}

TEST(Bm25Test, ScoreHandComputed) {
  Bm25Params params;  // k1 = 1.2, b = 0.75
  Bm25Scorer scorer(1000, 100.0, params);
  const uint32_t tf = 3, doc_len = 120;
  const Freq df = 25;
  const double idf = std::log((1000.0 - 25 + 0.5) / (25 + 0.5) + 1.0);
  const double norm = 1.2 * (1.0 - 0.75 + 0.75 * 120.0 / 100.0);
  const double expected = idf * (3.0 * 2.2) / (3.0 + norm);
  EXPECT_NEAR(scorer.Score(tf, df, doc_len), expected, 1e-12);
}

TEST(Bm25Test, ZeroTfOrDfScoresZero) {
  Bm25Scorer scorer(1000, 100.0);
  EXPECT_EQ(scorer.Score(0, 10, 100), 0.0);
  EXPECT_EQ(scorer.Score(5, 0, 100), 0.0);
}

TEST(Bm25Test, ScoreIncreasesWithTf) {
  Bm25Scorer scorer(1000, 100.0);
  double prev = 0.0;
  for (uint32_t tf = 1; tf <= 16; tf *= 2) {
    double s = scorer.Score(tf, 10, 100);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(Bm25Test, TfSaturates) {
  // BM25's tf component saturates: doubling a large tf adds little.
  Bm25Scorer scorer(1000, 100.0);
  double d_small = scorer.Score(2, 10, 100) - scorer.Score(1, 10, 100);
  double d_large = scorer.Score(64, 10, 100) - scorer.Score(32, 10, 100);
  EXPECT_GT(d_small, d_large * 5);
}

TEST(Bm25Test, LongerDocumentsPenalized) {
  Bm25Scorer scorer(1000, 100.0);
  EXPECT_GT(scorer.Score(3, 10, 50), scorer.Score(3, 10, 200));
}

TEST(Bm25Test, NoLengthNormalizationWhenBZero) {
  Bm25Params params;
  params.b = 0.0;
  Bm25Scorer scorer(1000, 100.0, params);
  EXPECT_EQ(scorer.Score(3, 10, 50), scorer.Score(3, 10, 500));
}

TEST(Bm25Test, GuardsDegenerateAvgDl) {
  Bm25Scorer scorer(10, 0.0);  // avgdl clamped to 1
  EXPECT_GT(scorer.Score(1, 1, 1), 0.0);
}

TEST(Bm25Test, ScoreWithIdfIsBitIdenticalToScore) {
  // The ranking loops hoist Idf(df) out of their per-posting work; the
  // hoisted form must not move a single score bit.
  for (double avgdl : {1.0, 37.5, 100.0}) {
    Bm25Scorer scorer(5000, avgdl);
    for (Freq df : {1ULL, 2ULL, 7ULL, 24ULL, 333ULL, 4999ULL, 5000ULL}) {
      const double idf = scorer.Idf(df);
      for (uint32_t tf : {0u, 1u, 2u, 3u, 9u, 64u, 1000u}) {
        for (uint32_t doc_length : {0u, 1u, 12u, 50u, 99u, 100u, 4096u}) {
          const double a = scorer.Score(tf, df, doc_length);
          const double b = scorer.ScoreWithIdf(idf, tf, doc_length);
          EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
              << "tf " << tf << " df " << df << " len " << doc_length;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hdk::index
