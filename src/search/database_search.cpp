#include "search/database_search.h"

#include <atomic>

#include "obs/instrument.h"
#include "search/batch_scheduler.h"
#include "search/thread_pool.h"
#include "search/top_k.h"
#include "util/stopwatch.h"

namespace aalign::search {

DatabaseSearch::DatabaseSearch(const score::ScoreMatrix& matrix,
                               AlignConfig cfg, SearchOptions opt)
    : matrix_(matrix), cfg_(cfg), opt_(opt) {
  cfg_.validate();
}

SearchResult DatabaseSearch::search(std::span<const std::uint8_t> query,
                                    seq::Database& db,
                                    const core::CancelToken* cancel) const {
  const int threads =
      opt_.threads > 0 ? opt_.threads : default_thread_count();

  if (opt_.sort_database) db.sort_by_length_desc();

  // Stage one: signature screening (docs/search.md). The survivor mask is
  // in CURRENT (sorted) database positions; dropped subjects never reach
  // a kernel and surface as filter::kDroppedScore sentinels, stripped
  // from the top-k below.
  std::vector<std::uint8_t> alive;
  filter::FilterStats fstats;
  bool filtered = false;
  std::shared_ptr<const filter::SignatureIndex> owned_index;
  if (filter::filter_active(opt_.filter.mode,
                            cfg_.kind == AlignKind::Local)) {
    const filter::SignatureIndex* idx = opt_.filter.index.get();
    if (idx == nullptr || !idx->matches(db)) {
      owned_index =
          std::make_shared<filter::SignatureIndex>(db, opt_.filter.params);
      idx = owned_index.get();
    } else {
      // Prebuilt (store-served or caller-cached) index: no k-mer rehash.
      obs::registry().counter("filter.index_reuses").add(1);
    }
    obs::ScopedTimer filter_timer(
        obs::registry().timer("phase.filter_scan"));
    fstats = idx->scan(query, opt_.query.isa, alive, opt_.filter.threshold);
    obs::record_filter_stats(fstats);
    filtered = true;
  }

  // Built once, shared read-only by every worker (Sec. V-E).
  const core::QueryContext ctx(matrix_, cfg_, opt_.query, query);

  struct WorkerState {
    core::WorkspaceSet ws;
    KernelStats stats;
    std::uint64_t promotions = 0;
  };
  std::vector<WorkerState> workers(static_cast<std::size_t>(threads));
  std::vector<long> scores(db.size());

  util::Stopwatch timer;
  {
    obs::ScopedTimer scan_timer(obs::registry().timer("phase.search_scan"));
    parallel_for_work_stealing(db.size(), threads, [&](int id, std::size_t i) {
      if (filtered && alive[i] == 0) {
        scores[i] = filter::kDroppedScore;
        return;
      }
      WorkerState& w = workers[static_cast<std::size_t>(id)];
      const core::AdaptiveResult ar = ctx.align(db[i].view(), w.ws, cancel);
      if (ar.cancelled) core::throw_cancelled(*cancel);
      scores[i] = ar.kernel.score;
      w.promotions += static_cast<std::uint64_t>(ar.promotions);
      w.stats += ar.kernel.stats;
    }, nullptr, cancel);
  }

  SearchResult res;
  res.seconds = timer.seconds();
  // `cells` reports DP work actually done: filtered-out subjects computed
  // nothing (effective-GCUPS-at-recall accounting is the bench's job).
  std::size_t scanned_residues = db.total_residues();
  if (filtered) {
    scanned_residues = 0;
    for (std::size_t i = 0; i < db.size(); ++i)
      if (alive[i] != 0) scanned_residues += db[i].size();
  }
  res.cells = query.size() * scanned_residues;
  res.gcups = util::gcups_cells(res.cells, res.seconds);
  res.filtered = filtered;
  res.filter_stats = fstats;
  for (const WorkerState& w : workers) {
    res.promotions += w.promotions;
    res.stats += w.stats;
  }
  obs::record_kernel_stats(res.stats);
  obs::registry()
      .counter("search.align_calls")
      .add(filtered ? fstats.survivors : db.size());
  obs::registry().counter("search.promotions").add(res.promotions);

  obs::ScopedTimer topk_timer(obs::registry().timer("phase.topk"));
  remap_scores_to_original(db, scores);
  res.top = select_top_k(scores, opt_.top_k);
  // Dropped subjects rank below every real survivor; trimming the
  // sentinels makes the filtered top-k a prefix-consistent subset of the
  // exhaustive ranking (the test layer's core invariant).
  while (!res.top.empty() && res.top.back().score == filter::kDroppedScore)
    res.top.pop_back();
  if (opt_.keep_all_scores) res.scores = std::move(scores);
  return res;
}

std::vector<SearchResult> DatabaseSearch::search_many(
    const std::vector<std::vector<std::uint8_t>>& queries,
    seq::Database& db, const core::CancelToken* cancel) const {
  BatchScheduler scheduler(matrix_, cfg_, opt_);
  return scheduler.run(queries, db, cancel);
}

}  // namespace aalign::search
