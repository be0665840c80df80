// Multi-threaded query-vs-database search (paper Sec. V-E): the query
// profile is built once (QueryContext), the database is sorted longest
// first, and worker threads pull subjects from a dynamic queue, each with
// its own kernel workspace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/query_context.h"
#include "filter/signature.h"
#include "seq/database.h"

namespace aalign::search {

struct SearchOptions {
  int threads = 0;  // 0 = hardware concurrency
  core::QueryOptions query;
  std::size_t top_k = 10;
  bool keep_all_scores = true;  // retain the per-subject score vector
  bool sort_database = true;    // length-sort for load balance

  // search_many scheduling (see search/batch_scheduler.h): the whole
  // workload is flattened into (query, subject-shard) tiles over one
  // work-stealing pool.
  std::size_t shard_size = 0;             // subjects per tile; 0 = auto
  std::size_t profile_cache_capacity = 64;  // distinct cached QueryContexts

  // Two-stage search (docs/search.md): signature pre-filter routing only
  // surviving subjects into the exact scan. Off by default - the library
  // stays bit-identical to the exhaustive era unless a caller opts in.
  // When filtering, dropped subjects carry filter::kDroppedScore in the
  // per-subject score vector and never appear in `top`.
  filter::FilterOptions filter;
};

struct SearchHit {
  // ORIGINAL database position (insertion order), even when
  // sort_database re-ordered the storage: resolve the record with
  // db.by_original(index). Scores vectors use the same original indexing.
  std::size_t index = 0;
  long score = 0;
};

struct SearchResult {
  // Per subject, indexed by ORIGINAL database position (empty if
  // !keep_all_scores); independent of sort_database re-ordering.
  std::vector<long> scores;
  std::vector<SearchHit> top;  // best top_k, descending score
  double seconds = 0.0;
  std::size_t cells = 0;  // total m*n DP cells computed
  double gcups = 0.0;
  std::uint64_t promotions = 0;  // adaptive width retries over all subjects
  KernelStats stats;             // aggregated kernel statistics
  bool filtered = false;         // the signature pre-filter stage ran
  filter::FilterStats filter_stats;  // meaningful only when `filtered`
};

class DatabaseSearch {
 public:
  DatabaseSearch(const score::ScoreMatrix& matrix, AlignConfig cfg,
                 SearchOptions opt = {});

  // db is length-sorted in place when opt.sort_database is set.
  // `cancel` (optional) is polled per subject in the pool loop and per
  // stride-chunk inside the kernels; a fired token aborts the scan within
  // one chunk per worker and throws core::CancelledError - a cancelled
  // search never returns partial scores.
  SearchResult search(std::span<const std::uint8_t> query, seq::Database& db,
                      const core::CancelToken* cancel = nullptr) const;

  // Many-vs-all: runs each query against the database as one
  // BatchScheduler batch of (query, subject-shard) tiles over one
  // work-stealing pool. Results are returned in query order, bit-identical
  // to calling search() once per query; the per-result `seconds` is the
  // whole batch's wall clock.
  std::vector<SearchResult> search_many(
      const std::vector<std::vector<std::uint8_t>>& queries,
      seq::Database& db, const core::CancelToken* cancel = nullptr) const;

 private:
  const score::ScoreMatrix& matrix_;
  AlignConfig cfg_;
  SearchOptions opt_;
};

}  // namespace aalign::search
