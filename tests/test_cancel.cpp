// Cooperative cancellation (core/cancel.h) through the whole search
// stack: fired tokens and expired deadlines must stop kernels, pool
// workers, and schedulers within a bounded amount of work, must NEVER
// leak partial scores (the front-ends throw instead of returning), and
// must leave every component reusable for the next run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/cancel.h"
#include "core/query_context.h"
#include "search/batch_scheduler.h"
#include "search/database_search.h"
#include "search/inter_search.h"
#include "search/thread_pool.h"
#include "seq/generator.h"
#include "simd/isa.h"
#include "test_helpers.h"

using namespace aalign;
using namespace std::chrono_literals;

namespace {

seq::Database make_db(std::uint64_t seed, std::size_t count,
                      double median_len = 150.0) {
  seq::SequenceGenerator gen(seed);
  return seq::Database(score::Alphabet::protein(),
                       gen.protein_database(count, median_len, 0.5, 40, 500));
}

search::SearchOptions default_opt(int threads = 2) {
  search::SearchOptions opt;
  opt.threads = threads;
  opt.query.isa = simd::best_available_isa();
  return opt;
}

AlignConfig local_cfg() {
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  return cfg;
}

}  // namespace

TEST(CancelToken, FlagAndDeadlineSemantics) {
  core::CancelToken t;
  EXPECT_FALSE(t.stop_requested());
  EXPECT_EQ(t.stop_reason(), core::StopReason::None);
  EXPECT_FALSE(t.has_deadline());

  t.set_deadline_after(1h);
  EXPECT_TRUE(t.has_deadline());
  EXPECT_FALSE(t.stop_requested());

  t.set_deadline_after(-1ns);  // already past
  EXPECT_TRUE(t.stop_requested());
  EXPECT_EQ(t.stop_reason(), core::StopReason::DeadlineExceeded);

  t.cancel();  // explicit cancel wins over the deadline in the reason
  EXPECT_EQ(t.stop_reason(), core::StopReason::Cancelled);

  core::CancelToken u;
  u.cancel();
  EXPECT_TRUE(u.stop_requested());
  EXPECT_EQ(u.stop_reason(), core::StopReason::Cancelled);

  EXPECT_FALSE(core::stop_requested(nullptr));
  EXPECT_TRUE(core::stop_requested(&u));
}

// A pre-fired token stops QueryContext::align before any DP work: the
// result says cancelled and carries no score.
TEST(Cancel, QueryContextReturnsCancelledResult) {
  seq::SequenceGenerator gen(11);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(400).residues);
  const auto subject =
      score::Alphabet::protein().encode(gen.protein(5000).residues);

  core::QueryOptions qopt;
  qopt.isa = simd::best_available_isa();
  const core::QueryContext ctx(score::ScoreMatrix::blosum62(), local_cfg(),
                               qopt, query);
  core::WorkspaceSet ws;

  core::CancelToken t;
  t.cancel();
  const core::AdaptiveResult ar = ctx.align(subject, ws, &t);
  EXPECT_TRUE(ar.cancelled);

  // Without a token the same context still produces the normal result.
  const core::AdaptiveResult ok = ctx.align(subject, ws);
  EXPECT_FALSE(ok.cancelled);
  EXPECT_GT(ok.kernel.score, 0);
}

// The pool contract: a fired token stops workers from picking up new
// items, the pool joins fully, and CancelledError surfaces iff items were
// left unexecuted.
TEST(Cancel, ThreadPoolStopsAndThrows) {
  core::CancelToken t;
  std::atomic<std::size_t> executed{0};
  std::atomic<bool> fired{false};
  EXPECT_THROW(
      search::parallel_for_work_stealing(
          1000, 4,
          [&](int, std::size_t) {
            executed.fetch_add(1);
            if (executed.load() > 16 && !fired.exchange(true)) t.cancel();
            std::this_thread::sleep_for(100us);
          },
          nullptr, &t),
      core::CancelledError);
  // Bounded overrun: each of the 4 workers finishes at most the item it
  // was inside when the token fired.
  EXPECT_LT(executed.load(), std::size_t{1000});

  // A completed run with a late-fired token is NOT an error.
  core::CancelToken late;
  std::atomic<std::size_t> done{0};
  search::parallel_for_work_stealing(
      8, 2, [&](int, std::size_t) { done.fetch_add(1); }, nullptr, &late);
  EXPECT_EQ(done.load(), 8u);
}

// Pre-fired tokens and pre-expired deadlines abort DatabaseSearch before
// any subject is scored, with the matching StopReason.
TEST(Cancel, SearchThrowsWithReason) {
  seq::SequenceGenerator gen(21);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(120).residues);
  seq::Database db = make_db(22, 60);
  const search::DatabaseSearch searcher(score::ScoreMatrix::blosum62(),
                                        local_cfg(), default_opt());

  core::CancelToken cancelled;
  cancelled.cancel();
  try {
    searcher.search(query, db, &cancelled);
    FAIL() << "expected CancelledError";
  } catch (const core::CancelledError& e) {
    EXPECT_EQ(e.reason(), core::StopReason::Cancelled);
  }

  core::CancelToken expired;
  expired.set_deadline_after(0ns);
  try {
    searcher.search(query, db, &expired);
    FAIL() << "expected CancelledError";
  } catch (const core::CancelledError& e) {
    EXPECT_EQ(e.reason(), core::StopReason::DeadlineExceeded);
  }

  // The same database and searcher still complete an uncancelled run.
  const search::SearchResult res = searcher.search(query, db);
  EXPECT_EQ(res.scores.size(), db.size());
}

// Mid-batch cancellation: the scheduler throws, the pool joins, and the
// SAME scheduler instance then produces bit-identical results to an
// untouched one - completed tiles leak nothing into the next run.
TEST(Cancel, BatchSchedulerReusableAfterCancel) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  seq::SequenceGenerator gen(31);
  std::vector<std::vector<std::uint8_t>> queries;
  for (std::size_t len : {200, 350, 280}) {
    queries.push_back(
        score::Alphabet::protein().encode(gen.protein(len).residues));
  }
  seq::Database db = make_db(32, 300);
  const search::SearchOptions opt = default_opt(4);

  search::BatchScheduler reference(m, cfg, opt);
  const std::vector<search::SearchResult> want = reference.run(queries, db);

  search::BatchScheduler sched(m, cfg, opt);
  core::CancelToken t;
  std::thread firer([&] {
    std::this_thread::sleep_for(2ms);
    t.cancel();
  });
  try {
    sched.run(queries, db, &t);
    // Tiny workloads can legitimately finish before the token fires.
  } catch (const core::CancelledError&) {
  }
  firer.join();

  // Reuse after cancellation: identical scores, bit for bit.
  const std::vector<search::SearchResult> got = sched.run(queries, db);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    EXPECT_EQ(got[q].scores, want[q].scores) << "query " << q;
  }
}

// A cancelled run must stop in a small fraction of the full runtime: the
// poll points (per stride-chunk in kernels, per item in the pool) bound
// post-cancellation work to microseconds per worker.
TEST(Cancel, StopsWellBeforeFullRuntime) {
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg = local_cfg();
  seq::SequenceGenerator gen(41);
  const std::vector<std::vector<std::uint8_t>> queries{
      score::Alphabet::protein().encode(gen.protein(800).residues),
      score::Alphabet::protein().encode(gen.protein(600).residues)};
  seq::Database db = make_db(42, 600, 250.0);
  const search::SearchOptions opt = default_opt(2);
  const search::DatabaseSearch searcher(m, cfg, opt);

  // Reference wall time of the full (uncancelled) workload.
  const auto t0 = std::chrono::steady_clock::now();
  (void)searcher.search_many(queries, db);
  const auto full = std::chrono::steady_clock::now() - t0;

  // Cancel almost immediately; the abort must land long before a full
  // run's worth of work, whatever this machine's speed.
  core::CancelToken t;
  std::thread firer([&] {
    std::this_thread::sleep_for(1ms);
    t.cancel();
  });
  const auto c0 = std::chrono::steady_clock::now();
  bool threw = false;
  try {
    searcher.search_many(queries, db, &t);
  } catch (const core::CancelledError&) {
    threw = true;
  }
  const auto cancelled = std::chrono::steady_clock::now() - c0;
  firer.join();

  EXPECT_TRUE(threw);
  EXPECT_LT(cancelled, full / 2 + 20ms)
      << "cancelled run took " << cancelled.count() << "ns vs full "
      << full.count() << "ns";
}

// Inter-sequence engine: same contract (throw, no partial scores, search
// object reusable).
TEST(Cancel, InterSearchThrowsAndRecovers) {
  seq::SequenceGenerator gen(51);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(150).residues);
  seq::Database db = make_db(52, 80);
  const search::InterSequenceSearch inter(score::ScoreMatrix::blosum62(),
                                          Penalties::symmetric(10, 2),
                                          default_opt());

  core::CancelToken t;
  t.cancel();
  EXPECT_THROW(inter.search(query, db, &t), core::CancelledError);

  const search::InterSearchResult res = inter.search(query, db);
  EXPECT_EQ(res.scores.size(), db.size());

  core::CancelToken t2;
  t2.cancel();
  EXPECT_THROW(inter.search_many({query}, db, &t2), core::CancelledError);
  const auto many = inter.search_many({query}, db);
  ASSERT_EQ(many.size(), 1u);
  EXPECT_EQ(many[0].scores, res.scores);
}

// Kernel drivers under a token behave identically to the token-free path
// when the token never fires: chunked column processing is exact.
TEST(Cancel, UnfiredTokenPreservesScores) {
  seq::SequenceGenerator gen(61);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(300).residues);
  seq::Database db = make_db(62, 50);
  const search::DatabaseSearch searcher(score::ScoreMatrix::blosum62(),
                                        local_cfg(), default_opt());

  const search::SearchResult plain = searcher.search(query, db);
  core::CancelToken idle;  // never fired, no deadline
  const search::SearchResult tokened = searcher.search(query, db, &idle);
  EXPECT_EQ(plain.scores, tokened.scores);

  core::CancelToken far;  // armed but distant deadline
  far.set_deadline_after(1h);
  const search::SearchResult deadlined = searcher.search(query, db, &far);
  EXPECT_EQ(plain.scores, deadlined.scores);
}
