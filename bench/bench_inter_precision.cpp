// Inter-sequence precision-ladder benchmark: GCUPS per tier (int8 /
// int16 / int32 lanes) and overflow/re-queue rates on a Swiss-Prot-like
// database, for the best ISA this machine offers.
//
// Beyond the human-readable table, the run is dumped as a schema
// "aalign.run" v2 document to BENCH_inter_precision.json (override the
// path with AALIGN_BENCH_JSON) so the perf trajectory accumulates
// machine-readable points the CI gate can diff; the headline is
// speedup_int8_vs_int32, the int8 tier's throughput against the exact
// int32 kernel on the same workload. Both modes run on one thread, so the
// ratio compares per-core kernels: a small database fills one 64-lane
// int8 batch but several 16-lane int32 batches, which more threads would
// split unevenly between the two modes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/inter_engine.h"
#include "search/inter_search.h"

using namespace aalign;
using namespace aalign::bench;

namespace {

struct Run {
  std::size_t query_len;
  const char* mode;  // "tiered" | "int32"
  search::InterSearchResult res;
};

void print_run(const Run& r) {
  std::printf("Q%-5zu %-7s total %7.3fs %8.2f GCUPS\n", r.query_len, r.mode,
              r.res.seconds, r.res.gcups);
  for (int ti = 0; ti < core::kInterPrecisionCount; ++ti) {
    const search::InterTierStats& t = r.res.tiers[ti];
    if (t.subjects == 0) continue;
    const auto p = static_cast<core::InterPrecision>(ti);
    std::printf("             %-6s x%-3d %7zu subj %7zu requeued (%5.2f%%) "
                "%8.2f GCUPS\n",
                core::to_string(p), t.lanes, t.subjects, t.overflowed,
                100.0 * static_cast<double>(t.overflowed) /
                    static_cast<double>(t.subjects),
                t.gcups);
  }
}

obs::Json run_row(const Run& r) {
  obs::Json row = obs::Json::object();
  row.set("query_len", r.query_len);
  row.set("mode", r.mode);
  row.set("seconds", r.res.seconds);
  row.set("gcups", r.res.gcups);
  obs::Json tiers = obs::Json::array();
  for (int ti = 0; ti < core::kInterPrecisionCount; ++ti) {
    const search::InterTierStats& t = r.res.tiers[ti];
    if (t.subjects == 0) continue;
    const auto p = static_cast<core::InterPrecision>(ti);
    obs::Json tier = obs::Json::object();
    tier.set("precision", core::to_string(p));
    tier.set("lanes", t.lanes);
    tier.set("subjects", t.subjects);
    tier.set("overflowed", t.overflowed);
    tier.set("requeue_rate", static_cast<double>(t.overflowed) /
                                 static_cast<double>(t.subjects));
    tier.set("cells", t.cells);
    tier.set("seconds", t.seconds);
    tier.set("gcups", t.gcups);
    tiers.push_back(std::move(tier));
  }
  row.set("tiers", std::move(tiers));
  return row;
}

}  // namespace

int main() {
  const simd::IsaKind isa = simd::best_available_isa();
  const core::InterEngine* engine = core::get_inter_engine(isa);
  const auto& matrix = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(424242);
  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(scaled(1200), 250.0));

  search::SearchOptions opt;
  opt.keep_all_scores = false;
  opt.threads = 1;

  std::printf("Inter-sequence precision ladder on %s "
              "(int8 x%d / int16 x%d / int32 x%d lanes); "
              "db: %zu seqs / %zu residues\n\n",
              simd::isa_name(isa), engine->lanes(core::InterPrecision::I8),
              engine->lanes(core::InterPrecision::I16),
              engine->lanes(core::InterPrecision::I32), db.size(),
              db.total_residues());

  std::vector<Run> runs;
  for (std::size_t qlen : {128, 384}) {
    const auto q = matrix.alphabet().encode(gen.protein(qlen).residues);
    for (const char* mode : {"tiered", "int32"}) {
      const ScoreWidth start = std::string(mode) == "tiered"
                                   ? ScoreWidth::Auto
                                   : ScoreWidth::W32;
      search::InterSequenceSearch s(matrix, pen, opt, isa, start);
      s.search(q, db);  // warmup
      Run r{qlen, mode, s.search(q, db)};
      print_run(r);
      runs.push_back(std::move(r));
    }
    std::printf("\n");
  }

  // Headline: int8 tier throughput vs the exact int32 kernel, largest
  // query (the most amortized, steady-state configuration).
  double i8 = 0.0, i32 = 0.0;
  for (const Run& r : runs) {
    if (r.query_len != runs.back().query_len) continue;
    if (std::string(r.mode) == "tiered") {
      i8 = r.res.tiers[static_cast<int>(core::InterPrecision::I8)].gcups;
    } else {
      i32 = r.res.tiers[static_cast<int>(core::InterPrecision::I32)].gcups;
    }
  }
  const double speedup = i32 > 0 ? i8 / i32 : 0.0;
  std::printf("int8 tier vs int32 kernel: %.2fx GCUPS\n", speedup);

  BenchReport report("bench_inter_precision");
  report.set_isa(isa);
  report.set_threads(opt.threads);
  report.set_workload("db_sequences", db.size());
  report.set_workload("db_residues", db.total_residues());
  report.set_headline("speedup_int8_vs_int32", speedup);
  for (const Run& r : runs) report.add_row("runs", run_row(r));
  return report.write("BENCH_inter_precision.json") ? 0 : 1;
}
