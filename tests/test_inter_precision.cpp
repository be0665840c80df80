// The adaptive-precision inter-sequence engine must be invisible in the
// results: tiered int8 -> int16 -> int32 execution returns scores exactly
// equal to the int32-only kernel (and the sequential oracle) on every
// database, with overflowed lanes transparently re-run at wider precision.
#include <gtest/gtest.h>

#include <random>

#include "core/inter_engine.h"
#include "core/sequential.h"
#include "search/inter_search.h"
#include "seq/generator.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

constexpr auto kI8 = core::InterPrecision::I8;
constexpr auto kI16 = core::InterPrecision::I16;
constexpr auto kI32 = core::InterPrecision::I32;

// Encoded residue with the largest BLOSUM62 self-score (tryptophan, +11):
// repeats of it give the fastest-growing alignment scores, the adversarial
// input for saturation.
std::uint8_t best_diagonal_residue(const score::ScoreMatrix& m) {
  int best = 0;
  for (int a = 1; a < 20; ++a) {
    if (m.at(a, a) > m.at(best, best)) best = a;
  }
  return static_cast<std::uint8_t>(best);
}

class InterPrecisionTest : public testing::TestWithParam<simd::IsaKind> {};

TEST_P(InterPrecisionTest, TieredMatchesInt32OnRandomBatches) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  seq::SequenceGenerator gen(71);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(90).residues);
  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(77, 60.0, 0.9, 4, 250));

  search::SearchOptions opt;
  opt.threads = 2;
  search::InterSequenceSearch tiered(m, pen, opt, isa, ScoreWidth::Auto);
  search::InterSequenceSearch exact(m, pen, opt, isa, ScoreWidth::W32);

  seq::Database db1 = db;
  const auto r_tiered = tiered.search(query, db1);
  seq::Database db2 = db;
  const auto r_exact = exact.search(query, db2);

  ASSERT_EQ(r_tiered.scores.size(), db.size());
  EXPECT_EQ(r_tiered.scores, r_exact.scores);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(r_tiered.scores[i],
              core::align_sequential(m, cfg, query, db1.by_original(i).view()))
        << "subject " << i;
  }
  // The exact-baseline run must never touch the narrow tiers.
  EXPECT_EQ(r_exact.tiers[static_cast<int>(kI8)].subjects, 0u);
  EXPECT_EQ(r_exact.tiers[static_cast<int>(kI16)].subjects, 0u);
  EXPECT_EQ(r_exact.tiers[static_cast<int>(kI32)].subjects, db.size());
}

TEST_P(InterPrecisionTest, Int8OverflowRequeuesToWiderTiers) {
  const simd::IsaKind isa = GetParam();
  const core::InterEngine* engine = core::get_inter_engine(isa);
  if (engine == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  // Query with a hot 60-residue core: the identical subject scores far
  // above the int8 ceiling (60 * 11 = 660), while the random subjects
  // stay below it - so one batch mixes clean and saturating lanes.
  seq::SequenceGenerator gen(72);
  std::mt19937_64 rng(73);
  auto query = test::random_protein(rng, 40);
  const std::uint8_t hot = best_diagonal_residue(m);
  query.insert(query.end(), 60, hot);

  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(30, 90.0, 0.7, 20, 160));
  db.add(seq::EncodedSequence{"homolog", query});
  db.add(seq::EncodedSequence{"half-homolog",
                              {query.begin() + 20, query.end()}});

  search::SearchOptions opt;
  opt.threads = 2;
  search::InterSequenceSearch tiered(m, pen, opt, isa, ScoreWidth::Auto);
  const auto res = tiered.search(query, db);

  ASSERT_EQ(res.scores.size(), db.size());
  long best = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const long oracle =
        core::align_sequential(m, cfg, query, db.by_original(i).view());
    EXPECT_EQ(res.scores[i], oracle) << "subject " << i;
    best = std::max(best, oracle);
  }
  ASSERT_GT(best, core::inter_score_ceiling(kI8));

  if (engine->lanes(kI8) > 0) {
    const auto& t8 = res.tiers[static_cast<int>(kI8)];
    EXPECT_EQ(t8.subjects, db.size());
    EXPECT_GE(t8.overflowed, 2u);  // both homologs saturate int8
    EXPECT_GE(res.promotions, t8.overflowed);
    // Re-queued lanes really ran at a wider precision.
    const auto& t16 = res.tiers[static_cast<int>(kI16)];
    const auto& t32 = res.tiers[static_cast<int>(kI32)];
    EXPECT_EQ(t16.subjects + (engine->lanes(kI16) > 0 ? 0 : t32.subjects),
              t8.overflowed);
  }
}

TEST_P(InterPrecisionTest, Int16OverflowFallsThroughToInt32) {
  const simd::IsaKind isa = GetParam();
  const core::InterEngine* engine = core::get_inter_engine(isa);
  if (engine == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  // Identical 3100-residue tryptophan runs: exact score 3100 * 11 =
  // 34100, above the int16 ceiling, so the subject must fall through both
  // narrow tiers and still come back exact.
  const std::uint8_t hot = best_diagonal_residue(m);
  ASSERT_GE(m.at(hot, hot) * 3100L, core::inter_score_ceiling(kI16) + 1);
  const std::vector<std::uint8_t> query(3100, hot);

  std::mt19937_64 rng(74);
  seq::Database db;
  db.add(seq::EncodedSequence{"giant", query});
  db.add(seq::EncodedSequence{"noise", test::random_protein(rng, 120)});

  search::SearchOptions opt;
  opt.threads = 1;
  search::InterSequenceSearch tiered(m, pen, opt, isa, ScoreWidth::Auto);
  const auto res = tiered.search(query, db);

  ASSERT_EQ(res.scores.size(), 2u);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(res.scores[i],
              core::align_sequential(m, cfg, query, db.by_original(i).view()))
        << "subject " << i;
  }
  EXPECT_GT(res.top[0].score, core::inter_score_ceiling(kI16));
  if (engine->lanes(kI16) > 0) {
    EXPECT_GE(res.tiers[static_cast<int>(kI16)].overflowed, 1u);
  }
  EXPECT_GE(res.tiers[static_cast<int>(kI32)].subjects, 1u);
}

TEST_P(InterPrecisionTest, RespectsSearchOptions) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  seq::SequenceGenerator gen(75);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(80).residues);
  seq::Database db(score::Alphabet::protein(), gen.protein_database(25, 90.0));

  search::SearchOptions full;
  full.threads = 1;
  search::InterSequenceSearch ref(m, pen, full, isa);
  seq::Database db1 = db;
  const auto r_full = ref.search(query, db1);

  search::SearchOptions trimmed;
  trimmed.threads = 1;
  trimmed.top_k = 3;
  trimmed.keep_all_scores = false;
  search::InterSequenceSearch cut(m, pen, trimmed, isa);
  seq::Database db2 = db;
  const auto r_cut = cut.search(query, db2);

  EXPECT_TRUE(r_cut.scores.empty());
  ASSERT_EQ(r_cut.top.size(), 3u);
  ASSERT_GE(r_full.top.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r_cut.top[i].index, r_full.top[i].index);
    EXPECT_EQ(r_cut.top[i].score, r_full.top[i].score);
  }
}

// Every subject's score against the sequential oracle. Each tier the
// backend has runs alone (a pinned width): below its ceiling a lane must
// carry the oracle's score, at or above it the lane must read the ceiling
// and be flagged for promotion. Then the ladder runs from every rung it
// can start on: Auto (the narrowest tier), W8, W16 and int32 alone.
void expect_oracle_scores(simd::IsaKind isa, const Penalties& pen,
                          const std::vector<std::uint8_t>& query,
                          const seq::Database& db) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;
  std::vector<long> oracle(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    oracle[i] = core::align_sequential(m, cfg, query, db.by_original(i).view());
  }

  const core::InterEngine* engine = core::get_inter_engine(isa);
  const auto flat = search::inter_flat_matrix(m);
  core::InterScratch ws;
  for (const core::InterPrecision p : core::kInterPrecisions) {
    const int W = engine->lanes(p);
    if (W == 0) continue;
    const long ceiling = core::inter_score_ceiling(p);
    for (std::size_t first = 0; first < db.size();
         first += static_cast<std::size_t>(W)) {
      std::vector<const std::uint8_t*> ptrs(static_cast<std::size_t>(W));
      std::vector<int> lens(static_cast<std::size_t>(W));
      int max_len = 0;
      for (int l = 0; l < W; ++l) {
        // Tail lanes repeat the batch's first subject, as the ladder does.
        const std::size_t i =
            first + l < db.size() ? first + static_cast<std::size_t>(l)
                                  : first;
        const auto v = db.by_original(i).view();
        ptrs[static_cast<std::size_t>(l)] = v.data();
        lens[static_cast<std::size_t>(l)] = static_cast<int>(v.size());
        max_len = std::max(max_len, static_cast<int>(v.size()));
      }
      const core::InterBatchInput batch{flat.data(), m.size(), query,
                                        ptrs.data(), lens.data(), max_len};
      std::vector<long> out(static_cast<std::size_t>(W));
      const std::uint64_t overflow = engine->run(p, batch, pen, ws, out.data());
      for (int l = 0; l < W && first + l < db.size(); ++l) {
        const std::size_t i = first + static_cast<std::size_t>(l);
        const bool saturated = oracle[i] >= ceiling;
        EXPECT_EQ(out[static_cast<std::size_t>(l)],
                  saturated ? ceiling : oracle[i])
            << core::to_string(p) << " pinned, subject " << i;
        EXPECT_EQ(((overflow >> l) & 1u) != 0, saturated)
            << core::to_string(p) << " pinned, subject " << i;
      }
    }
  }
  for (const ScoreWidth w : {ScoreWidth::Auto, ScoreWidth::W8,
                             ScoreWidth::W16, ScoreWidth::W32}) {
    search::SearchOptions opt;
    opt.threads = 1;
    search::InterSequenceSearch s(m, pen, opt, isa, w);
    seq::Database copy = db;
    const auto res = s.search(query, copy);
    ASSERT_EQ(res.scores.size(), db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(res.scores[i], oracle[i])
          << "start width " << static_cast<int>(w) << ", subject " << i
          << ", open/extend query " << pen.query.open << "/"
          << pen.query.extend << " subject " << pen.subject.open << "/"
          << pen.subject.extend;
    }
  }
}

// Random subjects with ragged lengths (so batches have padded lanes) plus
// mutated copies of the query, whose long gapped alignments exercise E and
// F far from zero.
seq::Database oracle_database(std::uint64_t seed,
                              const std::vector<std::uint8_t>& query) {
  seq::SequenceGenerator gen(seed);
  std::mt19937_64 rng(seed + 1);
  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(70, 70.0, 0.8, 1, 300));
  for (int k = 0; k < 6; ++k) {
    db.add(seq::EncodedSequence{"mut" + std::to_string(k),
                                test::mutate(rng, query, 0.15, 0.1)});
  }
  return db;
}

TEST_P(InterPrecisionTest, GapCostsAtTheInt8RailMatchOracle) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  // open + extend >= 128: the int8 open cost clamps to -128, the byte
  // 0x80, which must floor every H below the ceiling to 0. The last set
  // puts the extend cost itself at the rail.
  std::mt19937_64 rng(80);
  const auto query = test::random_protein(rng, 70);
  const seq::Database db = oracle_database(81, query);
  for (const Penalties& pen :
       {Penalties::symmetric(126, 2), Penalties::symmetric(200, 3),
        Penalties{{127, 1}, {3, 1}}, Penalties::symmetric(5, 130)}) {
    expect_oracle_scores(isa, pen, query, db);
  }
}

TEST_P(InterPrecisionTest, AsymmetricOpenCostsMatchOracle) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  // Opening costs differ, extend costs match: the kernel cannot share the
  // opened H between E and F.
  std::mt19937_64 rng(82);
  const auto query = test::random_protein(rng, 60);
  const seq::Database db = oracle_database(83, query);
  for (const Penalties& pen :
       {Penalties{{4, 2}, {14, 2}}, Penalties{{14, 2}, {4, 2}},
        Penalties{{1, 1}, {9, 1}}}) {
    expect_oracle_scores(isa, pen, query, db);
  }
}

TEST_P(InterPrecisionTest, AsymmetricExtendCostsMatchOracle) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  // Same opening cost (open + extend), different extend costs: the opened
  // H is shared, the extensions are not.
  std::mt19937_64 rng(84);
  const auto query = test::random_protein(rng, 60);
  const seq::Database db = oracle_database(85, query);
  for (const Penalties& pen :
       {Penalties{{10, 1}, {10, 3}}, Penalties{{6, 5}, {6, 1}}}) {
    expect_oracle_scores(isa, pen, query, db);
  }
}

TEST_P(InterPrecisionTest, LinearGapsMatchOracle) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  // open = 0: opening and extending cost the same.
  std::mt19937_64 rng(86);
  const auto query = test::random_protein(rng, 60);
  const seq::Database db = oracle_database(87, query);
  for (const Penalties& pen :
       {Penalties::symmetric(0, 4), Penalties::symmetric(0, 1),
        Penalties{{0, 2}, {0, 6}}}) {
    expect_oracle_scores(isa, pen, query, db);
  }
}

TEST_P(InterPrecisionTest, AdversarialLongIndelsMatchOracle) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  // High-identity subjects with 16..64-residue indels: H stays large
  // across long gap runs, so E and F carry far from zero. The scores
  // overflow int8 and run again at int16; a gappier low-identity spec
  // keeps some lanes inside int8.
  seq::SequenceGenerator gen(88);
  const seq::Sequence query = gen.protein(260, "q");
  seq::AdversarialSpec gappy;
  gappy.identity = 0.6;
  gappy.gap_rate = 0.05;
  gappy.min_gap = 3;
  gappy.max_gap = 12;
  std::vector<seq::Sequence> subjects;
  for (int k = 0; k < 12; ++k) {
    subjects.push_back(gen.adversarial_subject(query, {}, "adv"));
    subjects.push_back(gen.adversarial_subject(query, gappy, "gappy"));
  }
  const seq::Database db(score::Alphabet::protein(), subjects);
  const auto q = score::Alphabet::protein().encode(query.residues);
  for (const Penalties& pen :
       {Penalties::symmetric(10, 2), Penalties{{10, 1}, {10, 3}},
        Penalties{{5, 2}, {12, 2}}, Penalties::symmetric(0, 3)}) {
    expect_oracle_scores(isa, pen, q, db);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, InterPrecisionTest,
                         testing::ValuesIn(test::available_isas()),
                         [](const testing::TestParamInfo<simd::IsaKind>& i) {
                           return std::string(simd::isa_name(i.param));
                         });

}  // namespace
