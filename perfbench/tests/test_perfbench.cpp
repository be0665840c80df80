// Tests of the served-search benchmark itself: its statistics, its
// schedules, its exactness checker, and a tiny run of every workload.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "bench.h"
#include "checker.h"
#include "schedule.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace svc = aalign::service;

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 95), 4.8);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Stats, FailedRequestsCountAsInfinity) {
  std::vector<double> v(19, 1.0);
  v.push_back(kInf);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 1.0);
  EXPECT_TRUE(std::isinf(percentile(v, 99)));
  EXPECT_TRUE(std::isinf(percentile(std::vector<double>(3, kInf), 0)));
}

TEST(Stats, SegmentedPercentileIgnoresAMinorityOfSegments) {
  // Five segments; the fourth is slowed by a stall of the host.
  std::vector<double> v;
  for (int seg = 0; seg < 5; ++seg) {
    for (int i = 1; i <= 20; ++i) v.push_back(seg == 3 ? 100.0 * i : i);
  }
  EXPECT_DOUBLE_EQ(segmented_percentile(v, 50, 5, 50), 10.5);
  EXPECT_DOUBLE_EQ(segmented_percentile(v, 100, 5, 50), 20.0);
  EXPECT_DOUBLE_EQ(segmented_percentile({3, 1, 2}, 50, 1, 50), 2.0);
}

TEST(Stats, CalmQuartileSkipsInterferenceInMostOfARun) {
  // Eight segments; stalls triple the latency in all but three of them.
  std::vector<double> v;
  for (int seg = 0; seg < 8; ++seg) {
    const double slow = (seg == 1 || seg == 4 || seg == 6) ? 1.0 : 3.0;
    for (int i = 1; i <= 20; ++i) v.push_back(slow * i);
  }
  EXPECT_DOUBLE_EQ(segmented_percentile(v, 50, 8, 25.0), 10.5);
  EXPECT_DOUBLE_EQ(segmented_percentile(v, 50, 8, 50), 31.5);
  // Window rates: 10 units/s in three of eight windows, 5 in the rest.
  std::vector<Interval> work;
  for (int i = 0; i < 8; ++i) {
    const bool calm = i == 0 || i == 3 || i == 7;
    work.push_back({i * 1.0, i + 1.0, calm ? 10.0 : 5.0});
  }
  EXPECT_DOUBLE_EQ(windowed_rate(work, 0.0, 8.0, 8, 75.0), 10.0);
  EXPECT_DOUBLE_EQ(windowed_rate(work, 0.0, 8.0, 8, 50), 5.0);
}

TEST(Stats, WindowedRateSpreadsWorkOverItsInterval) {
  // 10 units/s steady, two requests overlapping each window boundary.
  std::vector<Interval> work;
  for (int i = 0; i < 10; ++i) work.push_back({i * 1.0, i + 1.0, 10.0});
  work.push_back({0.5, 1.5, 10.0});  // a concurrent request: +5 per window
  EXPECT_DOUBLE_EQ(windowed_rate(work, 0.0, 10.0, 10, 50), 10.0);
  EXPECT_DOUBLE_EQ(windowed_rate(work, 0.0, 10.0, 1, 50), 11.0);
  EXPECT_DOUBLE_EQ(windowed_rate({}, 0.0, 1.0, 4, 50), 0.0);
}

TEST(Schedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule(7, 20.0, 500, 96, 1.0);
  const auto b = poisson_schedule(7, 20.0, 500, 96, 1.0);
  const auto c = poisson_schedule(8, 20.0, 500, 96, 1.0);
  ASSERT_EQ(a.size(), 500u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].query, b[i].query);
    if (i > 0) {
      EXPECT_GT(a[i].due_s, a[i - 1].due_s);
    }
    differs = differs || a[i].due_s != c[i].due_s;
  }
  EXPECT_TRUE(differs);
  // Mean gap of a 20 req/s Poisson process is 50 ms.
  EXPECT_NEAR(a.back().due_s / 500.0, 0.05, 0.01);
}

TEST(Schedule, ZipfDeckHoldsExactSharesPerBlock) {
  ZipfDeck deck(96, 1.0, 1000, 3);
  ZipfDeck same(96, 1.0, 1000, 3);
  std::vector<std::vector<int>> counts(2, std::vector<int>(96, 0));
  std::vector<std::size_t> first;
  bool reordered = false;
  for (int blk = 0; blk < 2; ++blk) {
    for (std::size_t i = 0; i < 1000; ++i) {
      const std::size_t r = deck.next();
      EXPECT_EQ(r, same.next());
      ++counts[static_cast<std::size_t>(blk)][r];
      if (blk == 0) first.push_back(r);
      if (blk == 1) reordered = reordered || r != first[i];
    }
  }
  // Same shares in every block, in another order.
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_TRUE(reordered);
  // Rank 0's share of a Zipf(s = 1) over 96 ranks is 1 / H_96 = 0.1943.
  EXPECT_EQ(counts[0][0], 194);
  EXPECT_GT(counts[0][1], counts[0][10]);
  EXPECT_GT(counts[0][95], 0);
}

TEST(Workload, InputsFollowTheSeed) {
  const WorkloadSpec spec = workload_spec("fleet_short", 0.02);
  const Inputs a = generate(spec, 11);
  const Inputs b = generate(spec, 11);
  const Inputs c = generate(spec, 12);
  ASSERT_EQ(a.subjects.size(), spec.background + spec.pool * spec.planted);
  EXPECT_EQ(a.pool, b.pool);
  EXPECT_NE(a.pool, c.pool);
  // Lengths are shared by every seed; residues are not.
  for (std::size_t q = 0; q < a.pool.size(); ++q) {
    EXPECT_EQ(a.pool[q].size(), c.pool[q].size());
  }
  EXPECT_EQ(a.total_residues, b.total_residues);
  EXPECT_THROW(workload_spec("nope"), std::invalid_argument);
}

TEST(Workload, BatchRequestsCarryOneDuplicate) {
  const WorkloadSpec spec = workload_spec("batch_exhaustive");
  for (std::size_t r = 0; r < 8; ++r) {
    const auto qs = batch_request(spec, r);
    ASSERT_EQ(qs.size(), spec.queries_per_request);
    std::vector<std::size_t> sorted = qs;
    std::sort(sorted.begin(), sorted.end());
    const auto distinct = static_cast<std::size_t>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
    EXPECT_EQ(distinct, qs.size() - 1);
  }
}

// A three-subject reference: query 0 scores {50, 80, 50}, and the filter
// keeps subjects 0 and 1 only.
Reference tiny_reference() {
  return Reference({{50, 80, 50}}, {{1, 1, 0}}, {"a", "b", "c"}, 3);
}

svc::WireResponse answer(std::vector<svc::WireHit> hits) {
  svc::WireResponse r;
  r.ok = true;
  r.results.push_back({std::move(hits)});
  return r;
}

TEST(Checker, AcceptsTheExactAnswer) {
  const Reference ref = tiny_reference();
  EXPECT_EQ(check_response(ref, {0}, false,
                           answer({{1, "b", 80}, {0, "a", 50}, {2, "c", 50}}))
                .verdict,
            Verdict::Ok);
  EXPECT_EQ(
      check_response(ref, {0}, true, answer({{1, "b", 80}, {0, "a", 50}}))
          .verdict,
      Verdict::Ok);
}

TEST(Checker, RejectsAFlippedScore) {
  const Check c = check_response(
      tiny_reference(), {0}, false,
      answer({{1, "b", 81}, {0, "a", 50}, {2, "c", 50}}));
  EXPECT_EQ(c.verdict, Verdict::Wrong);
  EXPECT_NE(c.reason.find("score"), std::string::npos);
}

TEST(Checker, RejectsReorderedHits) {
  // Equal scores must tie-break on the lower index.
  const Check c = check_response(
      tiny_reference(), {0}, false,
      answer({{1, "b", 80}, {2, "c", 50}, {0, "a", 50}}));
  EXPECT_EQ(c.verdict, Verdict::Wrong);
  EXPECT_NE(c.reason.find("order"), std::string::npos);
}

TEST(Checker, RejectsAMissingHit) {
  const Check c = check_response(tiny_reference(), {0}, false,
                                 answer({{1, "b", 80}, {0, "a", 50}}));
  EXPECT_EQ(c.verdict, Verdict::Wrong);
  EXPECT_NE(c.reason.find("missing"), std::string::npos);
}

TEST(Checker, RejectsRepeatsAndFilterDroppedSubjects) {
  const Reference ref = tiny_reference();
  EXPECT_EQ(check_response(ref, {0}, false,
                           answer({{1, "b", 80}, {1, "b", 80}, {0, "a", 50}}))
                .verdict,
            Verdict::Wrong);
  const Check dropped = check_response(
      ref, {0}, true, answer({{1, "b", 80}, {0, "a", 50}, {2, "c", 50}}));
  EXPECT_EQ(dropped.verdict, Verdict::Wrong);
  EXPECT_NE(dropped.reason.find("dropped"), std::string::npos);
}

TEST(Checker, IncompleteOrDegradedAnswersFail) {
  const Reference ref = tiny_reference();
  svc::WireResponse r = answer({{1, "b", 80}, {0, "a", 50}, {2, "c", 50}});
  r.incomplete = true;
  EXPECT_EQ(check_response(ref, {0}, false, r).verdict, Verdict::Failed);
  r.incomplete = false;
  r.degraded = true;
  EXPECT_EQ(check_response(ref, {0}, false, r).verdict, Verdict::Failed);
  EXPECT_EQ(check_response(ref, {0}, false,
                           svc::error_response(1, svc::ErrorCode::Overloaded,
                                               "shed"))
                .verdict,
            Verdict::Failed);
}

TEST(Checker, RecallCountsExhaustiveHitsPresent) {
  const Reference ref = tiny_reference();
  EXPECT_DOUBLE_EQ(
      recall(ref, 0, answer({{1, "b", 80}, {0, "a", 50}}).results[0]),
      2.0 / 3.0);
}

// A tiny end-to-end run of every workload over loopback.
class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, RunsCorrectlyAndReportsEveryMetric) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("perfbench-smoke-" + GetParam());
  std::filesystem::create_directories(dir);
  for (const bool trace : {false, true}) {
    RunOptions opt;
    opt.workload = GetParam();
    opt.seed = 5;
    opt.seconds = 1.0;
    opt.trace = trace;
    opt.scale = 0.02;
    opt.tmpdir = dir.string();
    opt.min_open_samples = 10;
    const RunResult r = run_benchmark(opt);
    EXPECT_TRUE(r.correct) << r.first_wrong;
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.metrics.size(), trace ? 28u : 7u);
    for (const Metric& m : r.metrics) {
      EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    }
  }
  // The temporary FASTA / .aidx is gone.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(Run, AnInjectedWrongAnswerFailsTheRun) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "perfbench-inject";
  std::filesystem::create_directories(dir);
  RunOptions opt;
  opt.workload = "fleet_short";
  opt.seconds = 0.5;
  opt.scale = 0.02;
  opt.tmpdir = dir.string();
  opt.min_open_samples = 10;
  opt.inject_wrong_reference = true;
  const RunResult r = run_benchmark(opt);
  EXPECT_FALSE(r.correct);
  EXPECT_GT(r.wrong, 0u);
  EXPECT_NE(r.first_wrong.find("reference"), std::string::npos)
      << r.first_wrong;
  EXPECT_NE(result_json(r).find("\"correct\": false"), std::string::npos);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace perfbench
