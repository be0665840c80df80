// Many-query batch scheduler benchmark: the serial per-query loop
// (one DatabaseSearch::search per query - per-query thread spawn/join,
// per-query profile builds) against the batched
// (query, subject-shard) tile scheduler on one work-stealing pool with
// the profile LRU, over a serving-style workload: 16 short queries (with
// repeats, as real query streams have) x a 2k-subject peptide database.
//
// Prints per-thread-count wall clocks, speedup, and worker occupancy;
// dumps a schema "aalign.run" v2 document to BENCH_many_query.json
// (override the path with AALIGN_BENCH_JSON).
// Headline: speedup_batched_vs_serial at the widest thread count. The
// workload is local alignment, so the batched leg runs the inter-sequence
// ladder and the serial leg the striped kernels: the ratio measures the
// scheduler and the kernel family together.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "search/batch_scheduler.h"
#include "search/database_search.h"
#include "simd/isa.h"

using namespace aalign;
using namespace aalign::bench;

namespace {

struct Run {
  int threads;
  double serial_s;
  double batched_s;
  double speedup;
  double occupancy;
  std::uint64_t steals;
  std::uint64_t cache_hits;
  std::uint64_t cache_misses;
  std::uint64_t dedup;
  double gcups;
};

}  // namespace

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  // Peptide-search regime: short subjects make the per-query fixed costs
  // (thread spawn/join barriers, context construction) a visible fraction
  // of the run, which is exactly what the batched scheduler eliminates.
  seq::SequenceGenerator gen(777);
  seq::Database base_db(score::Alphabet::protein(),
                        gen.protein_database(scaled(2000), 40.0, 0.4, 8, 120));

  // 16 queries, only 6 distinct (serving streams repeat): the profile LRU
  // turns the 10 repeats into cache hits, and the scheduler dedups them
  // into shared scans - the serial loop re-scans every occurrence.
  std::vector<std::vector<std::uint8_t>> queries;
  {
    std::vector<std::vector<std::uint8_t>> distinct;
    for (std::size_t len : {60, 80, 100, 120, 150, 90}) {
      distinct.push_back(
          score::Alphabet::protein().encode(gen.protein(len).residues));
    }
    for (int i = 0; i < 16; ++i) {
      queries.push_back(distinct[static_cast<std::size_t>(i) % distinct.size()]);
    }
  }

  std::size_t cells = 0;
  for (const auto& q : queries) cells += q.size() * base_db.total_residues();
  std::printf("many-query batch: %zu queries (6 distinct) x %zu subjects "
              "(%zu residues), %.1fM cells total\n\n",
              queries.size(), base_db.size(), base_db.total_residues(),
              static_cast<double>(cells) * 1e-6);
  std::printf("%-8s %10s %10s %8s %10s %7s %6s %6s %6s\n", "threads",
              "serial(s)", "batched(s)", "speedup", "occupancy", "steals",
              "hits", "miss", "dedup");

  std::vector<Run> runs;
  for (int threads : {1, 2, 4, 8}) {
    search::SearchOptions opt;
    opt.threads = threads;
    opt.keep_all_scores = false;
    opt.query.isa = simd::best_available_isa();

    // The serial leg sorts the database once, not once per query.
    seq::Database db_serial = base_db;
    db_serial.sort_by_length_desc();
    search::SearchOptions serial_opt = opt;
    serial_opt.sort_database = false;
    const search::DatabaseSearch serial_engine(matrix, cfg, serial_opt);
    const double serial_s = time_median(
        [&] {
          for (const auto& q : queries) serial_engine.search(q, db_serial);
        },
        5);

    // The batched leg drives BatchScheduler directly for its stats; a
    // fresh scheduler per timing run keeps the cache cold (the timed
    // path includes the misses, like the serial loop's profile builds).
    seq::Database db_batch = base_db;
    search::BatchStats stats;
    const double batched_s = time_median(
        [&] {
          search::BatchScheduler sched(matrix, cfg, opt);
          sched.run(queries, db_batch);
          stats = sched.last_stats();
        },
        5);

    Run r;
    r.threads = threads;
    r.serial_s = serial_s;
    r.batched_s = batched_s;
    r.speedup = batched_s > 0 ? serial_s / batched_s : 0.0;
    r.occupancy = stats.occupancy;
    r.steals = stats.pool.steals;
    r.cache_hits = stats.cache_hits;
    r.cache_misses = stats.cache_misses;
    r.dedup = stats.dedup_queries;
    r.gcups = util::gcups_cells(stats.cells, batched_s);
    runs.push_back(r);

    std::printf("%-8d %10.4f %10.4f %7.2fx %9.1f%% %7llu %6llu %6llu %6llu\n",
                threads, serial_s, batched_s, r.speedup, 100.0 * r.occupancy,
                static_cast<unsigned long long>(r.steals),
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses),
                static_cast<unsigned long long>(r.dedup));
  }

  const Run& widest = runs.back();
  std::printf("\nbatched vs serial at %d threads: %.2fx (%.2f GCUPS, "
              "%.0f%% worker occupancy)\n",
              widest.threads, widest.speedup, widest.gcups,
              100.0 * widest.occupancy);

  BenchReport report("bench_many_query");
  report.set_isa(simd::best_available_isa());
  report.set_workload("queries", queries.size());
  report.set_workload("distinct_queries", 6);
  report.set_workload("db_sequences", base_db.size());
  report.set_workload("db_residues", base_db.total_residues());
  report.set_workload("cells", cells);
  report.set_headline("speedup_batched_vs_serial", widest.speedup);
  for (const Run& r : runs) {
    obs::Json row = obs::Json::object();
    row.set("threads", r.threads);
    row.set("serial_seconds", r.serial_s);
    row.set("batched_seconds", r.batched_s);
    row.set("speedup", r.speedup);
    row.set("occupancy", r.occupancy);
    row.set("steals", r.steals);
    row.set("cache_hits", r.cache_hits);
    row.set("cache_misses", r.cache_misses);
    row.set("dedup_queries", r.dedup);
    row.set("gcups", r.gcups);
    report.add_row("runs", std::move(row));
  }
  return report.write("BENCH_many_query.json") ? 0 : 1;
}
