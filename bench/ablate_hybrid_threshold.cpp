// Ablation of the hybrid method's knobs (Sec. V-B): switching threshold
// and probe stride, plus the re-computation-ratio crossover measurement
// the paper uses to calibrate the thresholds (~1.5 extra passes on MIC,
// ~2.5 on CPU; configured thresholds 2 and 3).
//
// Output 1: for similar / dissimilar inputs, the measured lazy-F passes
// per column in pure iterate mode vs. the iterate/scan crossover.
// Output 2: hybrid runtime across a threshold x stride grid.
#include <cstdio>

#include "bench_common.h"
#include "seq/pairgen.h"

using namespace aalign;
using namespace aalign::bench;

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(77);

  const std::size_t qlen = scaled(2000);
  const seq::Sequence qseq = gen.protein(qlen, "Q2000");
  const auto query = matrix.alphabet().encode(qseq.residues);

  AlignConfig cfg;  // SW-affine, as in the paper's calibration
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  struct InputCase {
    const char* label;
    std::vector<std::uint8_t> enc;
  };
  std::vector<InputCase> inputs;
  inputs.push_back({"dissimilar", matrix.alphabet().encode(
                                      gen.protein(qlen).residues)});
  inputs.push_back(
      {"similar(hi_hi)",
       matrix.alphabet().encode(
           seq::make_similar_subject(gen, qseq,
                                     {seq::Level::Hi, seq::Level::Hi})
               .residues)});
  inputs.push_back(
      {"similar(md_md)",
       matrix.alphabet().encode(
           seq::make_similar_subject(gen, qseq,
                                     {seq::Level::Md, seq::Level::Md})
               .residues)});

  BenchReport report("ablate_hybrid_threshold");
  report.set_workload("query_len", query.size());
  double best_grid_ratio = 0.0;  // best hybrid time / best pure strategy

  for (const Platform& plat : platforms()) {
    std::printf("=== %s, SW-affine, query Q%zu ===\n", plat.label,
                query.size());

    // Part 1: crossover measurement. The iterate column runs the default
    // scan-fixup lazy-F path; iter-legacy re-times it with the old
    // convergence loop (LazyF::Legacy) so the report shows how far the
    // fixup moved the iterate/scan crossover.
    double best_pure_similar = 0.0;
    std::printf("%-16s %12s %10s %14s %10s %14s\n", "input", "passes/col",
                "iter(ms)", "iter-legacy(ms)", "scan(ms)", "iterate-wins?");
    for (const InputCase& in : inputs) {
      AlignOptions opt;
      opt.isa = plat.isa;
      opt.width = ScoreWidth::W32;

      opt.strategy = Strategy::StripedIterate;
      PairAligner it(matrix, cfg, opt);
      it.set_query(query);
      AlignResult rit;
      const double t_it = time_median([&] { rit = it.align(in.enc); }, 3);

      AlignConfig cfg_legacy = cfg;
      cfg_legacy.lazyf = LazyF::Legacy;
      PairAligner it_legacy(matrix, cfg_legacy, opt);
      it_legacy.set_query(query);
      const double t_leg = time_median([&] { it_legacy.align(in.enc); }, 3);
      // lazy passes per column, normalized by segment count: this is the
      // counter the hybrid method thresholds.
      const core::QueryContext probe_ctx(
          matrix, cfg,
          core::QueryOptions{Strategy::StripedIterate, plat.isa,
                             ScoreWidth::W32, {}, {}},
          query);
      const int lanes =
          core::get_engine<std::int32_t>(plat.isa)->lanes();
      const double segs =
          static_cast<double>((query.size() + lanes - 1) / lanes);
      const double passes = static_cast<double>(rit.stats.lazy_steps) /
                            (segs * static_cast<double>(rit.stats.columns));

      opt.strategy = Strategy::StripedScan;
      PairAligner sc(matrix, cfg, opt);
      sc.set_query(query);
      const double t_sc = time_median([&] { sc.align(in.enc); }, 3);

      std::printf("%-16s %12.3f %10.3f %14.3f %10.3f %14s\n", in.label,
                  passes, t_it * 1e3, t_leg * 1e3, t_sc * 1e3,
                  t_it <= t_sc ? "yes" : "no");

      obs::Json row = obs::Json::object();
      row.set("platform", plat.label);
      row.set("input", in.label);
      row.set("passes_per_col", passes);
      row.set("iterate_seconds", t_it);
      row.set("iterate_legacy_seconds", t_leg);
      row.set("scan_seconds", t_sc);
      report.add_row("crossover", std::move(row));
      if (&in == &inputs[1]) best_pure_similar = std::min(t_it, t_sc);
    }

    // Part 2: hybrid knob grid on the similar input (where switching
    // matters).
    std::printf("\nhybrid grid on similar(hi_hi): time(ms) [switches]\n");
    std::printf("%-10s", "thresh\\str");
    for (int stride : {16, 64, 256}) std::printf(" %13d", stride);
    std::printf("\n");
    double best_grid = 0.0;
    // Under the fixup the passes/column counter is bounded by 1.0, so the
    // grid samples (0, 1] finely; anything >= 1.0 means "never switch".
    for (double threshold : {0.1, 0.25, 0.5, 0.75, 0.95, 1.0}) {
      std::printf("%-10.2f", threshold);
      for (int stride : {16, 64, 256}) {
        AlignOptions opt;
        opt.isa = plat.isa;
        opt.width = ScoreWidth::W32;
        opt.strategy = Strategy::Hybrid;
        opt.hybrid.threshold = threshold;
        opt.hybrid.stride = stride;
        PairAligner hy(matrix, cfg, opt);
        hy.set_query(query);
        AlignResult r;
        const double t = time_median([&] { r = hy.align(inputs[1].enc); }, 3);
        std::printf(" %8.3f[%2llu]", t * 1e3,
                    static_cast<unsigned long long>(r.stats.switches));
        if (best_grid == 0.0 || t < best_grid) best_grid = t;

        obs::Json row = obs::Json::object();
        row.set("platform", plat.label);
        row.set("threshold", threshold);
        row.set("stride", stride);
        row.set("seconds", t);
        row.set("switches", r.stats.switches);
        report.add_row("grid", std::move(row));
      }
      std::printf("\n");
    }
    if (best_grid > 0.0) best_grid_ratio = best_pure_similar / best_grid;
    std::printf("\n");
  }
  std::printf(
      "paper shape (legacy column): similar inputs push the convergence "
      "loop's passes/column up and scan wins there. With the scan-fixup "
      "path the counter is capped at one extra pass, iterate wins across "
      "the measured range, and the default threshold (0.95) switches only "
      "in the degenerate every-column-full-sweep regime; small thresholds "
      "over-switch.\n");
  // Headline: best-of-grid hybrid vs the better pure strategy on the
  // similar input (last platform) - >= ~1.0 means hybrid costs nothing.
  report.set_headline("hybrid_best_vs_pure", best_grid_ratio);
  return report.write("BENCH_ablate_hybrid_threshold.json") ? 0 : 1;
}
