// Striped profile layout, QueryContext behaviour, and PairAligner API
// edges (errors, ISA forcing, width listing, query reuse).
#include <gtest/gtest.h>

#include <random>

#include "core/aligner.h"
#include "core/sequential.h"
#include "score/profile.h"
#include "simd/modules.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

TEST(StripedProfile, LayoutMatchesDefinition) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(2);
  const auto q = test::random_protein(rng, 23);  // forces padding

  for (int width : {4, 8, 16}) {
    score::StripedProfile<std::int16_t> p;
    score::build_striped_profile<std::int16_t>(p, q, m, width, -999);
    EXPECT_EQ(p.width, width);
    EXPECT_EQ(p.segs, (23 + width - 1) / width);
    EXPECT_EQ(p.m, 23);

    for (int a = 0; a < m.size(); ++a) {
      const std::int16_t* row = p.row(a);
      for (int j = 0; j < p.segs; ++j) {
        for (int l = 0; l < width; ++l) {
          const int logical = l * p.segs + j;
          const std::int16_t expect =
              logical < p.m ? m.at(a, q[logical]) : -999;
          ASSERT_EQ(row[j * width + l], expect)
              << "a=" << a << " logical=" << logical << " width=" << width;
        }
      }
    }
  }
}

TEST(StripedProfile, StripedOffsetInverse) {
  // striped_offset must be a bijection [0, segs*W) -> buffer offsets.
  for (int segs : {1, 3, 7}) {
    for (int width : {4, 8, 16}) {
      std::vector<int> seen(segs * width, 0);
      for (int e = 0; e < segs * width; ++e) {
        const int off = simd::striped_offset(e, segs, width);
        ASSERT_GE(off, 0);
        ASSERT_LT(off, segs * width);
        seen[off]++;
      }
      for (int c : seen) EXPECT_EQ(c, 1);
    }
  }
}

TEST(StripedProfile, RejectsEmptyQuery) {
  score::StripedProfile<std::int32_t> p;
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(score::build_striped_profile<std::int32_t>(
                   p, empty, score::ScoreMatrix::blosum62(), 8, 0),
               std::invalid_argument);
}

TEST(PairAligner, RequiresQueryBeforeAlign) {
  PairAligner a(score::ScoreMatrix::blosum62(), {});
  std::mt19937_64 rng(1);
  const auto s = test::random_protein(rng, 10);
  EXPECT_THROW(a.align(s), std::logic_error);
}

TEST(PairAligner, RejectsEmptyQueryAcceptsEmptySubject) {
  // An empty query has no striped profile, so it is still rejected; an
  // empty subject is a legal degenerate alignment (score 0 for local).
  PairAligner a(score::ScoreMatrix::blosum62(), {});
  std::mt19937_64 rng(1);
  const auto q = test::random_protein(rng, 10);
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(a.set_query(empty), std::invalid_argument);
  a.set_query(q);
  EXPECT_EQ(a.align(empty).score, 0);
}

TEST(PairAligner, QueryReuseAcrossManySubjects) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  PairAligner a(m, cfg);
  std::mt19937_64 rng(3);
  const auto q = test::random_protein(rng, 120);
  a.set_query(q);
  for (int i = 0; i < 10; ++i) {
    const auto s = test::random_protein(rng, 40 + i * 53);
    EXPECT_EQ(a.align(s).score, core::align_sequential(m, cfg, q, s));
  }
  // Re-setting the query invalidates and rebuilds profiles.
  const auto q2 = test::random_protein(rng, 77);
  a.set_query(q2);
  const auto s = test::random_protein(rng, 90);
  EXPECT_EQ(a.align(s).score, core::align_sequential(m, cfg, q2, s));
}

TEST(PairAligner, ReportsRequestedIsaAndWidth) {
  std::mt19937_64 rng(4);
  const auto q = test::random_protein(rng, 50);
  const auto s = test::random_protein(rng, 50);
  for (simd::IsaKind isa : test::available_isas()) {
    if (core::get_engine<std::int16_t>(isa) == nullptr) continue;
    AlignOptions opt;
    opt.isa = isa;
    opt.width = ScoreWidth::W16;
    PairAligner a(score::ScoreMatrix::blosum62(), {}, opt);
    a.set_query(q);
    const AlignResult r = a.align(s);
    EXPECT_EQ(r.isa, isa);
    EXPECT_EQ(r.width, ScoreWidth::W16);
  }
}

TEST(QueryContext, WidthListRespectsIsaAndRequest) {
  std::mt19937_64 rng(5);
  const auto q = test::random_protein(rng, 30);
  const auto& m = score::ScoreMatrix::blosum62();

  core::QueryOptions opt;
  opt.isa = simd::IsaKind::Scalar;
  opt.width = ScoreWidth::Auto;
  core::QueryContext ctx(m, {}, opt, q);
  EXPECT_EQ(ctx.widths().size(), 3u);  // scalar provides all three

  opt.width = ScoreWidth::W32;
  core::QueryContext ctx32(m, {}, opt, q);
  ASSERT_EQ(ctx32.widths().size(), 1u);
  EXPECT_EQ(ctx32.widths()[0], ScoreWidth::W32);

  if (simd::isa_available(simd::IsaKind::Avx512)) {
    opt.isa = simd::IsaKind::Avx512;
    opt.width = ScoreWidth::Auto;
    core::QueryContext mic(m, {}, opt, q);
    ASSERT_EQ(mic.widths().size(), 1u);  // IMCI profile: int32 only
    EXPECT_EQ(mic.widths()[0], ScoreWidth::W32);

    opt.width = ScoreWidth::W8;
    EXPECT_THROW(core::QueryContext(m, {}, opt, q), std::invalid_argument);
  }
}

TEST(QueryContext, RejectsSequentialStrategy) {
  // Sequential has no striped kernel to dispatch; the scalar reference is
  // core::align_sequential, not an engine run.
  std::mt19937_64 rng(7);
  const auto q = test::random_protein(rng, 40);
  core::QueryOptions opt;
  opt.strategy = Strategy::Sequential;
  for (simd::IsaKind isa : test::available_isas()) {
    opt.isa = isa;
    EXPECT_THROW(
        core::QueryContext(score::ScoreMatrix::blosum62(), {}, opt, q),
        std::invalid_argument)
        << simd::isa_name(isa);
  }
}

TEST(QueryContext, SharedAcrossWorkspaces) {
  // One context, two workspaces used alternately: results must not depend
  // on which workspace ran which subject (the thread-sharing contract).
  std::mt19937_64 rng(6);
  const auto q = test::random_protein(rng, 200);
  const auto& m = score::ScoreMatrix::blosum62();
  core::QueryOptions opt;
  opt.isa = simd::best_available_isa();
  const core::QueryContext ctx(m, {}, opt, q);

  core::WorkspaceSet ws1, ws2;
  for (int i = 0; i < 6; ++i) {
    const auto s = test::mutate(rng, q, 0.4, 0.1);
    const long a = ctx.align(s, ws1).kernel.score;
    const long b = ctx.align(s, ws2).kernel.score;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, core::align_sequential(m, {}, q, s));
  }
}

}  // namespace
