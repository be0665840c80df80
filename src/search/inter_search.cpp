#include "search/inter_search.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/instrument.h"
#include "search/thread_pool.h"
#include "search/top_k.h"
#include "util/stopwatch.h"

namespace aalign::search {

namespace {
core::InterPrecision start_precision(ScoreWidth w) {
  switch (w) {
    case ScoreWidth::W16: return core::InterPrecision::I16;
    case ScoreWidth::W32: return core::InterPrecision::I32;
    case ScoreWidth::W8:
    case ScoreWidth::Auto: return core::InterPrecision::I8;
  }
  return core::InterPrecision::I8;
}
}  // namespace

InterSequenceSearch::InterSequenceSearch(const score::ScoreMatrix& matrix,
                                         Penalties pen, SearchOptions opt,
                                         std::optional<simd::IsaKind> isa,
                                         ScoreWidth start_width)
    : matrix_(matrix),
      pen_(pen),
      opt_(opt),
      isa_(isa.value_or(simd::best_available_isa())),
      start_(start_precision(start_width)) {
  if (core::get_inter_engine(isa_) == nullptr) {
    throw std::invalid_argument(
        "InterSequenceSearch: backend unavailable on this machine");
  }
  flat_matrix_ = inter_flat_matrix(matrix_);
}

InterSequenceSearch::InterSequenceSearch(const score::ScoreMatrix& matrix,
                                         Penalties pen,
                                         std::optional<simd::IsaKind> isa,
                                         int threads)
    : InterSequenceSearch(matrix, pen,
                          [&] {
                            SearchOptions o;
                            o.threads = threads;
                            return o;
                          }(),
                          isa) {}

int InterSequenceSearch::lanes() const {
  return core::get_inter_engine(isa_)->lanes();
}

int InterSequenceSearch::lanes(core::InterPrecision p) const {
  return core::get_inter_engine(isa_)->lanes(p);
}

InterSearchResult InterSequenceSearch::search(
    std::span<const std::uint8_t> query, seq::Database& db,
    const core::CancelToken* cancel) const {
  if (query.empty()) {
    throw std::invalid_argument("InterSequenceSearch: empty query");
  }
  const core::InterEngine* engine = core::get_inter_engine(isa_);

  if (opt_.sort_database) db.sort_by_length_desc();
  const LadderInput in{*engine, flat_matrix_, matrix_.size(), query, pen_, db};

  const int threads = opt_.threads > 0 ? opt_.threads : default_thread_count();
  std::vector<long> scores(db.size());

  std::vector<LadderScratch> workers(
      static_cast<std::size_t>(std::max(1, threads)));

  InterSearchResult res;

  // Indices (into the sorted database) still needing a score. The ladder
  // walks narrow -> wide; whatever saturates a tier is re-batched for the
  // next one. Ascending index order keeps re-queued batches as
  // length-homogeneous as the original sort made them.
  std::vector<std::size_t> pending(db.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  util::Stopwatch total;
  for (int ti = static_cast<int>(start_); ti < core::kInterPrecisionCount;
       ++ti) {
    const auto prec = static_cast<core::InterPrecision>(ti);
    const int W = engine->lanes(prec);
    if (W == 0 || pending.empty()) continue;  // tier absent on this backend

    for (auto& w : workers) {
      size_scratch_for(w, W);
      w.cells = 0;
    }

    const std::size_t batches =
        (pending.size() + static_cast<std::size_t>(W) - 1) /
        static_cast<std::size_t>(W);
    util::Stopwatch timer;
    parallel_for_work_stealing(batches, threads, [&](int id, std::size_t b) {
      LadderScratch& w = workers[static_cast<std::size_t>(id)];
      const std::size_t begin = b * static_cast<std::size_t>(W);
      const std::size_t count =
          std::min<std::size_t>(W, pending.size() - begin);
      run_one_batch(in, prec, W, pending, begin, count, w, scores.data());
    }, nullptr, cancel);

    InterTierStats& tier = res.tiers[static_cast<std::size_t>(ti)];
    tier.lanes = W;
    tier.subjects = pending.size();
    tier.batches = batches;
    tier.seconds = timer.seconds();

    std::vector<std::size_t> next;
    for (const auto& w : workers) {
      next.insert(next.end(), w.requeue.begin(), w.requeue.end());
      tier.cells += w.cells;
    }
    std::sort(next.begin(), next.end());
    tier.overflowed = next.size();
    tier.gcups = util::gcups_cells(tier.cells, tier.seconds);
    obs::record_inter_tier(ti, tier);
    res.promotions += next.size();
    pending = std::move(next);
  }

  res.seconds = total.seconds();
  // Logical problem size (comparable across precision policies); the
  // per-tier stats carry the cells actually computed, re-runs included.
  res.cells = query.size() * db.total_residues();
  res.gcups = util::gcups_cells(res.cells, res.seconds);

  remap_scores_to_original(db, scores);
  res.top = select_top_k(scores, opt_.top_k);
  if (opt_.keep_all_scores) res.scores = std::move(scores);
  return res;
}

std::vector<InterSearchResult> InterSequenceSearch::search_many(
    const std::vector<std::vector<std::uint8_t>>& queries,
    seq::Database& db, const core::CancelToken* cancel) const {
  for (const auto& q : queries) {
    if (q.empty()) {
      throw std::invalid_argument("InterSequenceSearch: empty query");
    }
  }
  if (core::stop_requested(cancel)) core::throw_cancelled(*cancel);
  const core::InterEngine* engine = core::get_inter_engine(isa_);
  if (opt_.sort_database) db.sort_by_length_desc();

  const int threads = opt_.threads > 0 ? opt_.threads : default_thread_count();
  const std::size_t nq = queries.size();
  const std::size_t ns = db.size();

  std::size_t shard = opt_.shard_size;
  if (shard == 0) shard = inter_auto_shard(ns, threads, *engine, start_);
  shard = std::max<std::size_t>(1, std::min(shard, std::max<std::size_t>(1, ns)));

  struct Tile {
    std::size_t query;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Tile> tiles;
  if (ns > 0) {
    tiles.reserve(nq * ((ns + shard - 1) / shard));
    for (std::size_t qi = 0; qi < nq; ++qi) {
      for (std::size_t b = 0; b < ns; b += shard) {
        tiles.push_back(Tile{qi, b, std::min(ns, b + shard)});
      }
    }
  }

  struct WorkerState {
    LadderScratch scratch;
    // Per (query, tier) accumulation, merged lock-free after the drain.
    std::vector<InterTiers> acc;
  };
  std::vector<WorkerState> workers(
      static_cast<std::size_t>(std::max(1, threads)));
  for (auto& w : workers) w.acc.resize(nq);

  std::vector<std::vector<long>> scores(nq);
  for (auto& s : scores) s.assign(ns, 0);

  util::Stopwatch wall;
  parallel_for_work_stealing(tiles.size(), threads, [&](int id,
                                                        std::size_t ti) {
    WorkerState& w = workers[static_cast<std::size_t>(id)];
    const Tile& tile = tiles[ti];
    w.scratch.pending.resize(tile.end - tile.begin);
    std::iota(w.scratch.pending.begin(), w.scratch.pending.end(),
              tile.begin);
    const LadderInput in{*engine, flat_matrix_, matrix_.size(),
                         queries[tile.query], pen_, db};
    run_ladder_local(in, start_, core::InterPrecision::I32, w.scratch,
                     scores[tile.query].data(), w.acc[tile.query], cancel);
  }, nullptr, cancel);
  const double wall_seconds = wall.seconds();

  std::vector<InterSearchResult> out(nq);
  for (std::size_t qi = 0; qi < nq; ++qi) {
    InterSearchResult& res = out[qi];
    for (const WorkerState& w : workers) add_tier_counts(res.tiers, w.acc[qi]);
    for (int ti = 0; ti < core::kInterPrecisionCount; ++ti) {
      res.promotions += res.tiers[static_cast<std::size_t>(ti)].overflowed;
      obs::record_inter_tier(ti, res.tiers[static_cast<std::size_t>(ti)]);
    }
    res.seconds = wall_seconds;  // shared batch wall clock (documented)
    res.cells = queries[qi].size() * db.total_residues();
    res.gcups = util::gcups_cells(res.cells, wall_seconds);
    remap_scores_to_original(db, scores[qi]);
    res.top = select_top_k(scores[qi], opt_.top_k);
    if (opt_.keep_all_scores) res.scores = std::move(scores[qi]);
  }
  return out;
}

}  // namespace aalign::search
