// Traceback correctness: the reconstructed path must (a) score exactly
// what the score-only oracle reports, (b) re-score to its own claimed
// score when replayed step by step, and (c) produce consistent coordinate
// ranges and CIGAR accounting. Traceback is also the path source next to
// the SIMD engines (the examples print an engine score beside traceback
// spans), so every backend's score must equal the traceback path's score;
// and the QC/MI measurement of Fig. 10 (core/stats) is read off its paths.
#include <gtest/gtest.h>

#include <cctype>
#include <random>

#include "core/aligner.h"
#include "core/sequential.h"
#include "core/stats.h"
#include "core/traceback.h"
#include "score/matrices.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

// Replays a CIGAR and recomputes the path score independently.
long rescore(const score::ScoreMatrix& m, const Penalties& pen,
             std::span<const std::uint8_t> q, std::span<const std::uint8_t> s,
             const core::Alignment& aln) {
  long score = 0;
  std::size_t qi = aln.query_begin, si = aln.subject_begin;
  std::size_t p = 0;
  while (p < aln.cigar.size()) {
    std::size_t cnt = 0;
    while (p < aln.cigar.size() &&
           std::isdigit(static_cast<unsigned char>(aln.cigar[p]))) {
      cnt = cnt * 10 + static_cast<std::size_t>(aln.cigar[p] - '0');
      ++p;
    }
    const char op = aln.cigar[p++];
    if (op == 'M') {
      for (std::size_t t = 0; t < cnt; ++t) score += m.at(s[si++], q[qi++]);
    } else if (op == 'I') {
      score -= pen.query.open + static_cast<long>(cnt) * pen.query.extend;
      qi += cnt;
    } else if (op == 'D') {
      score -= pen.subject.open + static_cast<long>(cnt) * pen.subject.extend;
      si += cnt;
    } else {
      ADD_FAILURE() << "bad op " << op;
    }
  }
  EXPECT_EQ(qi, aln.query_end);
  EXPECT_EQ(si, aln.subject_end);
  return score;
}

// Run-length decoded CIGAR: (count, op) pairs.
std::vector<std::pair<std::size_t, char>> cigar_runs(const std::string& c) {
  std::vector<std::pair<std::size_t, char>> runs;
  std::size_t cnt = 0;
  for (char ch : c) {
    if (std::isdigit(static_cast<unsigned char>(ch))) {
      cnt = cnt * 10 + static_cast<std::size_t>(ch - '0');
    } else {
      runs.emplace_back(cnt, ch);
      cnt = 0;
    }
  }
  return runs;
}

class TracebackProperty
    : public testing::TestWithParam<std::tuple<AlignKind, int>> {};

TEST_P(TracebackProperty, PathScoreMatchesOracle) {
  const AlignKind kind = std::get<0>(GetParam());
  const Penalties pen =
      test::test_penalties()[static_cast<std::size_t>(std::get<1>(GetParam()))];
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = kind;
  cfg.pen = pen;

  std::mt19937_64 rng(123 + std::get<1>(GetParam()));
  for (int iter = 0; iter < 12; ++iter) {
    const std::size_t mlen = 5 + static_cast<std::size_t>(iter) * 23;
    const auto q = test::random_protein(rng, mlen);
    const auto s = test::mutate(rng, q, 0.15 + 0.07 * iter, 0.04);

    const long oracle = core::align_sequential(m, cfg, q, s);
    const core::Alignment aln = core::align_traceback(m, cfg, q, s);
    ASSERT_EQ(aln.score, oracle) << "iter " << iter;
    if (kind == AlignKind::Local && oracle == 0) continue;
    ASSERT_EQ(rescore(m, pen, q, s, aln), aln.score) << "iter " << iter;

    // Coordinate sanity.
    EXPECT_LE(aln.query_end, q.size());
    EXPECT_LE(aln.subject_end, s.size());
    EXPECT_LE(aln.query_begin, aln.query_end);
    EXPECT_LE(aln.subject_begin, aln.subject_end);
    if (kind != AlignKind::Local) {
      // Boundary coverage follows the kind's free-overhang flags.
      if (!kind_row_free(kind)) {
        EXPECT_EQ(aln.query_begin, 0u);
      }
      if (!kind_end_col_free(kind)) {
        EXPECT_EQ(aln.query_end, q.size());
      }
      if (!kind_col_free(kind)) {
        EXPECT_EQ(aln.subject_begin, 0u);
      }
      if (!kind_end_row_free(kind)) {
        EXPECT_EQ(aln.subject_end, s.size());
      }
    }
    EXPECT_LE(aln.matches, aln.columns);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TracebackProperty,
    testing::Combine(testing::Values(AlignKind::Local, AlignKind::Global,
                                     AlignKind::SemiGlobal,
                                     AlignKind::SemiGlobalQuery,
                                     AlignKind::Overlap),
                     testing::Values(0, 1, 2, 3, 4)),
    [](const testing::TestParamInfo<std::tuple<AlignKind, int>>& pinfo) {
      std::string name = std::string(to_string(std::get<0>(pinfo.param))) +
                         "_pen" + std::to_string(std::get<1>(pinfo.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Traceback, EmptyLocalAlignment) {
  // All-mismatch pair under a harsh matrix: best local score is 0 and the
  // alignment is empty.
  const auto& m = score::ScoreMatrix::blosum62();
  const auto q = score::Alphabet::protein().encode("WWWW");
  const auto s = score::Alphabet::protein().encode("GGGG");
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  const core::Alignment aln = core::align_traceback(m, cfg, q, s);
  EXPECT_EQ(aln.score, 0);
  EXPECT_TRUE(aln.cigar.empty());
  EXPECT_EQ(aln.columns, 0u);
}

TEST(Traceback, PerfectMatchCigar) {
  const auto& m = score::ScoreMatrix::blosum62();
  const auto q = score::Alphabet::protein().encode("HEAGAWGHEE");
  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = Penalties::symmetric(10, 2);
  const core::Alignment aln = core::align_traceback(m, cfg, q, q);
  EXPECT_EQ(aln.cigar, "10M");
  EXPECT_EQ(aln.matches, 10u);
  EXPECT_EQ(aln.columns, 10u);
}

TEST(Traceback, RenderRowsShapes) {
  const auto& alpha = score::Alphabet::protein();
  const auto& m = score::ScoreMatrix::blosum62();
  const auto q = alpha.encode("HEAGAWGHEE");
  const auto s = alpha.encode("HEAGWGHEE");  // one deletion
  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = Penalties::symmetric(10, 2);
  const core::Alignment aln = core::align_traceback(m, cfg, q, s);
  const core::AlignmentRows rows = core::render_alignment(alpha, q, s, aln);
  EXPECT_EQ(rows.query.size(), aln.columns);
  EXPECT_EQ(rows.subject.size(), aln.columns);
  EXPECT_EQ(rows.midline.size(), aln.columns);
  EXPECT_NE(rows.subject.find('-'), std::string::npos);
}

TEST(Traceback, MaxCellsGuard) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(1);
  const auto q = test::random_protein(rng, 100);
  AlignConfig cfg;
  core::TracebackOptions opt;
  opt.max_cells = 1000;
  EXPECT_THROW(core::align_traceback(m, cfg, q, q, opt),
               std::invalid_argument);
}

TEST(Traceback, SingleResidueEdges) {
  // One-residue query and/or subject: the boundary rows and columns are the
  // whole matrix, so every kind's free-overhang flags decide the path.
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(17);
  const auto one_q = test::random_protein(rng, 1);
  const auto one_s = test::random_protein(rng, 1);
  const auto longer = test::random_protein(rng, 30);
  const std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>
      pairs[] = {{one_q, one_s}, {one_q, one_q}, {one_q, longer},
                 {longer, one_s}};
  for (AlignKind kind : {AlignKind::Local, AlignKind::Global,
                         AlignKind::SemiGlobal, AlignKind::SemiGlobalQuery,
                         AlignKind::Overlap}) {
    for (const Penalties& pen : test::test_penalties()) {
      AlignConfig cfg;
      cfg.kind = kind;
      cfg.pen = pen;
      for (const auto& [q, s] : pairs) {
        const long oracle = core::align_sequential(m, cfg, q, s);
        const core::Alignment aln = core::align_traceback(m, cfg, q, s);
        ASSERT_EQ(aln.score, oracle)
            << to_string(kind) << " m=" << q.size() << " n=" << s.size();
        if (aln.cigar.empty()) continue;
        EXPECT_EQ(rescore(m, pen, q, s, aln), aln.score)
            << to_string(kind) << " m=" << q.size() << " n=" << s.size();
      }
    }
  }
}

TEST(Traceback, LongGapIsOneRun) {
  // Two identical flanks around a 40-residue insertion: the optimal global
  // path opens the gap once, so the CIGAR has exactly one 40-long gap run
  // (a D when the subject carries the insertion, an I when the query does).
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(29);
  const auto left = test::random_protein(rng, 60);
  const auto insert = test::random_protein(rng, 40);
  const auto right = test::random_protein(rng, 60);
  std::vector<std::uint8_t> shorter(left);
  shorter.insert(shorter.end(), right.begin(), right.end());
  std::vector<std::uint8_t> longer(left);
  longer.insert(longer.end(), insert.begin(), insert.end());
  longer.insert(longer.end(), right.begin(), right.end());

  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = Penalties::symmetric(10, 2);
  const struct {
    const std::vector<std::uint8_t>& q;
    const std::vector<std::uint8_t>& s;
    char gap_op;
  } cases[] = {{shorter, longer, 'D'}, {longer, shorter, 'I'}};
  for (const auto& c : cases) {
    const core::Alignment aln = core::align_traceback(m, cfg, c.q, c.s);
    ASSERT_EQ(aln.score, core::align_sequential(m, cfg, c.q, c.s));
    EXPECT_EQ(rescore(m, cfg.pen, c.q, c.s, aln), aln.score);
    std::size_t gap_runs = 0, gap_len = 0;
    for (const auto& [cnt, op] : cigar_runs(aln.cigar)) {
      if (op == 'M') continue;
      EXPECT_EQ(op, c.gap_op) << aln.cigar;
      ++gap_runs;
      gap_len += cnt;
    }
    EXPECT_EQ(gap_runs, 1u) << aln.cigar;
    EXPECT_EQ(gap_len, insert.size()) << aln.cigar;
    EXPECT_EQ(aln.matches, left.size() + right.size());
  }
}

// Every available backend x kind: the score a SIMD engine reports equals
// the score of the path traceback reconstructs for the same pair, and
// that path re-scores to it.
class EnginePath
    : public testing::TestWithParam<std::tuple<simd::IsaKind, AlignKind>> {};

TEST_P(EnginePath, EngineScoreIsPathScore) {
  const simd::IsaKind isa = std::get<0>(GetParam());
  const AlignKind kind = std::get<1>(GetParam());
  const auto& m = score::ScoreMatrix::blosum62();
  AlignOptions opt;
  opt.isa = isa;

  std::mt19937_64 rng(0x7ACE + static_cast<unsigned>(kind));
  std::vector<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>>
      pairs;
  for (std::size_t len : {7u, 64u, 131u}) {
    const auto q = test::random_protein(rng, len);
    pairs.emplace_back(q, test::mutate(rng, q, 0.2, 0.05));
    pairs.emplace_back(q, test::random_protein(rng, len + 17));
  }
  {
    // A homologous island deep inside a long random subject.
    const auto q = test::random_protein(rng, 120);
    auto s = test::random_protein(rng, 900);
    const auto island = test::mutate(rng, q, 0.1, 0.02);
    s.insert(s.begin() + 400, island.begin(), island.end());
    pairs.emplace_back(q, std::move(s));
  }
  // No residue pair scores positive: the local optimum is the empty path.
  pairs.emplace_back(score::Alphabet::protein().encode("WWWWWW"),
                     score::Alphabet::protein().encode("GGGGGGGG"));

  for (const Penalties& pen : test::test_penalties()) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = pen;
    for (const auto& [q, s] : pairs) {
      const AlignResult r = align_pair(m, cfg, q, s, opt);
      ASSERT_FALSE(r.saturated) << "m=" << q.size() << " n=" << s.size();
      const core::Alignment aln = core::align_traceback(m, cfg, q, s);
      ASSERT_EQ(r.score, aln.score) << "m=" << q.size() << " n=" << s.size();
      if (aln.cigar.empty()) {
        EXPECT_EQ(aln.score, 0);
        continue;
      }
      EXPECT_EQ(rescore(m, pen, q, s, aln), r.score)
          << "m=" << q.size() << " n=" << s.size();
    }
  }
}

std::vector<std::tuple<simd::IsaKind, AlignKind>> engine_path_cases() {
  std::vector<std::tuple<simd::IsaKind, AlignKind>> cases;
  for (simd::IsaKind isa : test::available_isas()) {
    for (AlignKind kind : {AlignKind::Local, AlignKind::Global,
                           AlignKind::SemiGlobal, AlignKind::SemiGlobalQuery,
                           AlignKind::Overlap}) {
      cases.emplace_back(isa, kind);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EnginePath, testing::ValuesIn(engine_path_cases()),
    [](const testing::TestParamInfo<std::tuple<simd::IsaKind, AlignKind>>&
           pinfo) {
      std::string name = std::string(simd::isa_name(std::get<0>(pinfo.param))) +
                         "_" + to_string(std::get<1>(pinfo.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SimilarityStats, IdenticalPairIsFullCoverageAndIdentity) {
  std::mt19937_64 rng(5);
  const auto q = test::random_protein(rng, 80);
  const core::SimilarityStats st =
      core::measure_similarity(score::ScoreMatrix::blosum62(), q, q);
  EXPECT_DOUBLE_EQ(st.query_coverage, 1.0);
  EXPECT_DOUBLE_EQ(st.max_identity, 1.0);
}

TEST(SimilarityStats, RatiosOfSpanAndColumns) {
  core::Alignment aln;
  aln.query_begin = 5;
  aln.query_end = 15;
  aln.matches = 6;
  aln.columns = 8;
  const core::SimilarityStats st = core::similarity_from_alignment(aln, 40);
  EXPECT_DOUBLE_EQ(st.query_coverage, 0.25);
  EXPECT_DOUBLE_EQ(st.max_identity, 0.75);
}

TEST(SimilarityStats, EmptyAlignmentAndEmptyQueryAreZero) {
  const core::Alignment empty;
  const core::SimilarityStats st = core::similarity_from_alignment(empty, 40);
  EXPECT_EQ(st.query_coverage, 0.0);
  EXPECT_EQ(st.max_identity, 0.0);
  const core::SimilarityStats none = core::similarity_from_alignment(empty, 0);
  EXPECT_EQ(none.query_coverage, 0.0);
  EXPECT_EQ(none.max_identity, 0.0);
}

}  // namespace
