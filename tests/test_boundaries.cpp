// Striping boundary conditions: query lengths straddling every lane/segment
// boundary (m = k*V +/- 1 and friends) are where striped kernels
// historically break (padding, rshift carry, lazy-F wrap). Sweep them all
// against the oracle on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/aligner.h"
#include "core/sequential.h"
#include "search/database_search.h"
#include "search/top_k.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

class Boundaries : public testing::TestWithParam<simd::IsaKind> {};

TEST_P(Boundaries, QueryLengthsAroundLaneMultiples) {
  const simd::IsaKind isa = GetParam();
  const auto* engine = core::get_engine<std::int32_t>(isa);
  ASSERT_NE(engine, nullptr);
  const int V = engine->lanes();

  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(2024);

  std::vector<std::size_t> lengths = {1, 2};
  for (int mult : {1, 2, 3, 7}) {
    const int base = mult * V;
    if (base > 1) lengths.push_back(static_cast<std::size_t>(base - 1));
    lengths.push_back(static_cast<std::size_t>(base));
    lengths.push_back(static_cast<std::size_t>(base + 1));
  }

  for (AlignKind kind :
       {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
          AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = Penalties::symmetric(10, 2);
    for (std::size_t mlen : lengths) {
      const auto q = test::random_protein(rng, mlen);
      const auto s = test::mutate(rng, q, 0.3, 0.05);
      const long expect = core::align_sequential(m, cfg, q, s);
      for (Strategy strat : {Strategy::StripedIterate, Strategy::StripedScan,
                             Strategy::Hybrid}) {
        AlignOptions opt;
        opt.isa = isa;
        opt.width = ScoreWidth::W32;
        opt.strategy = strat;
        ASSERT_EQ(align_pair(m, cfg, q, s, opt).score, expect)
            << simd::isa_name(isa) << " " << to_string(kind) << " "
            << to_string(strat) << " m=" << mlen;
      }
    }
  }
}

TEST_P(Boundaries, SubjectShorterThanOneColumnBlock) {
  // n in {1..4}: hybrid windows/strides exceed the subject entirely.
  const simd::IsaKind isa = GetParam();
  if (core::get_engine<std::int32_t>(isa) == nullptr) GTEST_SKIP();
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(2025);
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  for (std::size_t n = 1; n <= 4; ++n) {
    const auto q = test::random_protein(rng, 100);
    const auto s = test::random_protein(rng, n);
    AlignOptions opt;
    opt.isa = isa;
    opt.strategy = Strategy::Hybrid;
    opt.hybrid.window = 64;
    ASSERT_EQ(align_pair(m, cfg, q, s, opt).score,
              core::align_sequential(m, cfg, q, s))
        << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, Boundaries,
                         testing::ValuesIn(test::available_isas()),
                         [](const testing::TestParamInfo<simd::IsaKind>& i) {
                           return std::string(simd::isa_name(i.param));
                         });

// Degenerate subjects through the two-stage filter path: the guards must
// route empty, single-residue, and sub-k subjects into exact rescoring
// (their signatures carry no information), and the search must score them
// exactly as the exhaustive scan does.
TEST(FilterBoundaries, DegenerateSubjectsSurviveAndRescore) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(3030);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  const auto query = test::random_protein(rng, 150);
  seq::Database db;
  db.add(seq::EncodedSequence{"empty", {}});
  db.add(seq::EncodedSequence{"one", test::random_protein(rng, 1)});
  db.add(seq::EncodedSequence{"two", test::random_protein(rng, 2)});
  // All-identical subject (homopolymer): its signature is a single bit.
  db.add(seq::EncodedSequence{"homopoly",
                              std::vector<std::uint8_t>(120, 7)});
  db.add(seq::EncodedSequence{"self", query});
  for (int i = 0; i < 20; ++i) {
    db.add(seq::EncodedSequence{"bg" + std::to_string(i),
                                test::random_protein(rng, 200)});
  }

  search::SearchOptions exhaustive_opt;
  exhaustive_opt.threads = 1;
  search::SearchOptions filtered_opt = exhaustive_opt;
  filtered_opt.filter.mode = filter::FilterMode::On;

  seq::Database db_e = db, db_f = db;
  const auto base =
      search::DatabaseSearch(m, cfg, exhaustive_opt).search(query, db_e);
  const auto res =
      search::DatabaseSearch(m, cfg, filtered_opt).search(query, db_f);
  ASSERT_TRUE(res.filtered);
  // The degenerate subjects (original indices 0..3) and the identical
  // copy (4) all survive with exhaustive-identical scores.
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_NE(res.scores[i], filter::kDroppedScore) << "subject " << i;
    EXPECT_EQ(res.scores[i], base.scores[i]) << "subject " << i;
  }
  EXPECT_GE(res.filter_stats.auto_pass, 3u);  // empty/one/two at least
  ASSERT_FALSE(res.top.empty());
  EXPECT_EQ(res.top[0].index, 4u);  // the identical copy wins
}

// A database that is ALL guard cases: every subject auto-passes, the
// filter drops nothing, and the result is bit-identical to exhaustive.
TEST(FilterBoundaries, AllGuardDatabaseDropsNothing) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(3131);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  const auto query = test::random_protein(rng, 100);
  seq::Database db;
  for (int i = 0; i < 12; ++i) {
    // append(), not "s" + to_string(i): GCC 12 flags the inlined
    // operator+(const char*, string&&) with a bogus -Wrestrict (PR105651).
    db.add(seq::EncodedSequence{
        std::string("s").append(std::to_string(i)),
        test::random_protein(rng, static_cast<std::size_t>(i))});
  }
  search::SearchOptions opt;
  opt.threads = 1;
  opt.filter.mode = filter::FilterMode::On;
  const auto res = search::DatabaseSearch(m, cfg, opt).search(query, db);
  ASSERT_TRUE(res.filtered);
  EXPECT_EQ(res.filter_stats.survivors, res.filter_stats.candidates);
  for (long s : res.scores) EXPECT_NE(s, filter::kDroppedScore);
}

// select_top_k tie-breaking under filter drops: ties break by ORIGINAL
// index deterministically, and dropping tied candidates never re-orders
// the survivors. Sentinel scores must sort after every real score, so
// the trailing trim leaves exactly the surviving ranks.
TEST(FilterBoundaries, TopKTieBreakStableUnderDrops) {
  // Hand-built score vectors: indices 2, 5, 7 tie at 50.
  std::vector<long> scores = {10, 50, 50, 8, 40, 50, 0, 50, 30};
  const auto full = search::select_top_k(scores, 5);
  ASSERT_EQ(full.size(), 5u);
  EXPECT_EQ(full[0].index, 1u);  // ties at 50: original-index order
  EXPECT_EQ(full[1].index, 2u);
  EXPECT_EQ(full[2].index, 5u);
  EXPECT_EQ(full[3].index, 7u);
  EXPECT_EQ(full[4].index, 4u);

  // Drop two of the tied candidates (filter sentinel): the remaining
  // ties keep their relative order; sentinels sort last and trim away.
  scores[2] = filter::kDroppedScore;
  scores[5] = filter::kDroppedScore;
  auto dropped = search::select_top_k(scores, 5);
  while (!dropped.empty() && dropped.back().score == filter::kDroppedScore)
    dropped.pop_back();
  ASSERT_EQ(dropped.size(), 5u);
  EXPECT_EQ(dropped[0].index, 1u);
  EXPECT_EQ(dropped[1].index, 7u);  // the surviving tie, same position
  EXPECT_EQ(dropped[2].index, 4u);
  EXPECT_EQ(dropped[3].index, 8u);
  EXPECT_EQ(dropped[4].index, 0u);

  // k larger than the survivor count: every sentinel lands at the tail
  // and trims to exactly the real candidates.
  std::vector<long> sparse = {filter::kDroppedScore, 3,
                              filter::kDroppedScore, 1};
  auto trimmed = search::select_top_k(sparse, 4);
  while (!trimmed.empty() && trimmed.back().score == filter::kDroppedScore)
    trimmed.pop_back();
  ASSERT_EQ(trimmed.size(), 2u);
  EXPECT_EQ(trimmed[0].index, 1u);
  EXPECT_EQ(trimmed[1].index, 3u);
}

}  // namespace
