// Karlin-Altschul statistics (lambda root, bit scores, E-values).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>

#include "score/evalue.h"

using namespace aalign;

namespace {

TEST(Evalue, Blosum62LambdaMatchesPublishedValue) {
  // Karlin-Altschul ungapped lambda for BLOSUM62 with Robinson-Robinson
  // frequencies is ~0.318 nats (the canonical BLAST value is 0.3176).
  const auto bg = score::protein_background();
  const score::KarlinParams p =
      score::compute_ungapped_params(score::ScoreMatrix::blosum62(), bg);
  EXPECT_NEAR(p.lambda, 0.3176, 0.01);
  EXPECT_GT(p.H, 0.0);
}

TEST(Evalue, LambdaRootProperty) {
  // The defining identity: sum p_i p_j exp(lambda * s_ij) == 1.
  const auto bg = score::protein_background();
  for (const score::ScoreMatrix* m :
       {&score::ScoreMatrix::blosum62(), &score::ScoreMatrix::blosum45(),
        &score::ScoreMatrix::blosum80()}) {
    const score::KarlinParams p = score::compute_ungapped_params(*m, bg);
    double total = 0.0;
    for (int i = 0; i < 20; ++i) {
      for (int j = 0; j < 20; ++j) {
        total += bg[static_cast<std::size_t>(i)] *
                 bg[static_cast<std::size_t>(j)] *
                 std::exp(p.lambda * m->at(i, j));
      }
    }
    EXPECT_NEAR(total, 1.0, 1e-6) << m->name();
  }
}

TEST(Evalue, RejectsNonNegativeExpectation) {
  // A match-heavy matrix with positive expected score has no lambda.
  const score::ScoreMatrix m = score::ScoreMatrix::dna(5, 1);
  std::array<double, 32> bg{};
  for (int i = 0; i < 4; ++i) bg[static_cast<std::size_t>(i)] = 0.25;
  EXPECT_THROW(score::compute_ungapped_params(m, bg), std::invalid_argument);
}

TEST(Evalue, BitScoreAndEvalueBehaviour) {
  const score::KarlinParams p =
      score::default_protein_params(score::ScoreMatrix::blosum62());
  // Bit score grows linearly with raw score.
  EXPECT_GT(score::bit_score(p, 100), score::bit_score(p, 50));
  // E-value decays with score, grows with search space.
  EXPECT_LT(score::e_value(p, 100, 300, 1000000),
            score::e_value(p, 50, 300, 1000000));
  EXPECT_LT(score::e_value(p, 100, 300, 1000000),
            score::e_value(p, 100, 300, 100000000));
  // A strong hit in a small database is significant.
  EXPECT_LT(score::e_value(p, 300, 300, 1000000), 1e-6);
}

TEST(Evalue, DnaLambdaMatchesPublishedValue) {
  // Uniform DNA background, +1/-3: lambda solves
  // 0.25 e^lambda + 0.75 e^(-3 lambda) = 1; BLAST's ungapped value is 1.374.
  const score::ScoreMatrix m = score::ScoreMatrix::dna(1, 3);
  std::array<double, 32> bg{};
  for (int i = 0; i < 4; ++i) bg[static_cast<std::size_t>(i)] = 0.25;
  const score::KarlinParams p = score::compute_ungapped_params(m, bg);
  EXPECT_NEAR(p.lambda, 1.374, 0.001);
  EXPECT_NEAR(0.25 * std::exp(p.lambda) + 0.75 * std::exp(-3.0 * p.lambda),
              1.0, 1e-6);
  EXPECT_GT(p.H, 0.0);
}

TEST(Evalue, EvalueEqualsSearchSpaceTimesTwoToMinusBits) {
  // E = m * n * 2^-S' ties the two columns aalign_search prints together.
  const score::KarlinParams p =
      score::default_protein_params(score::ScoreMatrix::blosum62());
  for (long raw : {20L, 57L, 140L}) {
    const double bits = score::bit_score(p, raw);
    const double expect = 300.0 * 1e6 * std::pow(2.0, -bits);
    EXPECT_NEAR(score::e_value(p, raw, 300, 1000000) / expect, 1.0, 1e-9)
        << raw;
  }
}

TEST(Evalue, EvalueScalesWithSearchSpaceAndScore) {
  const score::KarlinParams p =
      score::default_protein_params(score::ScoreMatrix::blosum62());
  const double base = score::e_value(p, 60, 250, 1000000);
  // Linear in query length and in database residues.
  EXPECT_NEAR(score::e_value(p, 60, 500, 1000000) / base, 2.0, 1e-12);
  EXPECT_NEAR(score::e_value(p, 60, 250, 3000000) / base, 3.0, 1e-12);
  // One more raw score unit multiplies E by e^-lambda.
  EXPECT_NEAR(score::e_value(p, 61, 250, 1000000) / base,
              std::exp(-p.lambda), 1e-12);
}

}  // namespace
