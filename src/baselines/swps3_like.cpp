#include "baselines/swps3_like.h"

#include <algorithm>

#include "search/thread_pool.h"
#include "util/stopwatch.h"

namespace aalign::baselines {

namespace {

// SWPS3 is a CPU tool built on 8/16-bit lanes; default to the widest ISA
// that actually provides them (the AVX-512/IMCI profile is 32-bit only).
simd::IsaKind best_narrow_isa() {
  for (simd::IsaKind k : {simd::IsaKind::Avx512Bw, simd::IsaKind::Avx2,
                          simd::IsaKind::Sse41, simd::IsaKind::Scalar}) {
    if (simd::isa_available(k) &&
        core::get_engine<std::int8_t>(k) != nullptr) {
      return k;
    }
  }
  return simd::IsaKind::Scalar;
}

}  // namespace

Swps3Like::Swps3Like(const score::ScoreMatrix& matrix, Penalties pen,
                     std::optional<simd::IsaKind> isa, int threads)
    : matrix_(matrix),
      pen_(pen),
      isa_(isa.value_or(best_narrow_isa())),
      threads_(threads) {}

search::SearchResult Swps3Like::search(std::span<const std::uint8_t> query,
                                       seq::Database& db) const {
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen_;

  db.sort_by_length_desc();

  // Two contexts: the 8-bit fast path and the 16-bit overflow path. The
  // adaptive chain in QueryContext would add a 32-bit tier SWPS3 does not
  // have, so the promotion is done here explicitly.
  core::QueryOptions q8{Strategy::StripedIterate, isa_, ScoreWidth::W8, {},
                        {}};
  core::QueryOptions q16{Strategy::StripedIterate, isa_, ScoreWidth::W16, {},
                         {}};
  const core::QueryContext ctx8(matrix_, cfg, q8, query);
  const core::QueryContext ctx16(matrix_, cfg, q16, query);

  const int threads =
      threads_ > 0 ? threads_ : search::default_thread_count();
  struct WorkerState {
    core::WorkspaceSet ws;
    std::uint64_t promotions = 0;
  };
  std::vector<WorkerState> workers(static_cast<std::size_t>(threads));
  std::vector<long> scores(db.size());

  util::Stopwatch timer;
  search::parallel_for_work_stealing(
      db.size(), threads, [&](int id, std::size_t i) {
        WorkerState& w = workers[static_cast<std::size_t>(id)];
        core::AdaptiveResult r = ctx8.align(db[i].view(), w.ws);
        if (r.kernel.saturated) {
          r = ctx16.align(db[i].view(), w.ws);
          ++w.promotions;
        }
        scores[i] = r.kernel.score;
      });

  search::SearchResult res;
  res.seconds = timer.seconds();
  res.cells = query.size() * db.total_residues();
  res.gcups = util::gcups_cells(res.cells, res.seconds);
  for (const WorkerState& w : workers) res.promotions += w.promotions;

  std::vector<search::SearchHit> hits;
  hits.reserve(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    hits.push_back({i, scores[i]});
  }
  const std::size_t k = std::min<std::size_t>(10, hits.size());
  std::partial_sort(hits.begin(), hits.begin() + static_cast<long>(k),
                    hits.end(),
                    [](const search::SearchHit& a, const search::SearchHit& b) {
                      return a.score > b.score;
                    });
  hits.resize(k);
  res.top = std::move(hits);
  res.scores = std::move(scores);
  return res;
}

}  // namespace aalign::baselines
