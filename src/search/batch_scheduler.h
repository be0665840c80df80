// BatchScheduler: many-query database search as one task grid.
//
// The serial per-query loop (historical DatabaseSearch::search_many) ran
// whole queries back to back: every query rebuilt its QueryContext, spawned
// and joined a fresh worker set, and idled the pool on its subject tail.
// The scheduler instead flattens the whole workload into (query,
// subject-shard) tiles dispatched over a single work-stealing deque pool
// (search/thread_pool.h), so no worker idles while ANY query still has
// subjects left, and per-query state is built once and shared:
//
//   * immutable per-query state (core::QueryContext: striped score
//     profiles for every width, engine pointers) lives in an LRU keyed by
//     (query bytes, config) - repeated queries in a batch skip profile
//     construction entirely;
//   * per-tile stats / promotion counters accumulate into per-worker
//     slots and are merged lock-free after the pool drains;
//   * every worker keeps one kernel scratch for the whole batch instead of
//     one per (query, worker).
//
// Kernel choice is a fixed rule, not an option: a LOCAL alignment whose
// ISA has an inter-sequence engine runs every tile on the inter-sequence
// precision ladder (search/inter_ladder.h: one subject per vector lane,
// int8 -> int16 -> int32 on saturation; a pinned query width runs that
// single tier). Global and semi-global alignments run the striped
// QueryContext::align loop. Both give the oracle's exact scores.
//
// Determinism: a subject's score depends only on (query, subject, config),
// never on tile shape, lane batch or scheduling, so batched results are
// bit-identical to the serial loop for every thread count and shard size
// (tested).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/inter_engine.h"
#include "core/query_context.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "search/database_search.h"
#include "search/inter_ladder.h"
#include "search/thread_pool.h"
#include "seq/database.h"

namespace aalign::search {

// Thread-safe LRU of built QueryContexts. The key is the exact byte string
// (encoded query + config/option fingerprint); each distinct key is built
// at most once across all threads (per-slot build lock), and hit/miss/
// eviction counters are exact.
class QueryProfileCache {
 public:
  explicit QueryProfileCache(std::size_t capacity);

  // Returns the context for (query, cfg, opt), building and inserting it
  // if absent. Throws what QueryContext's constructor throws (the failed
  // slot is removed, so a later retry re-builds).
  std::shared_ptr<const core::QueryContext> get_or_build(
      const score::ScoreMatrix& matrix, const AlignConfig& cfg,
      const core::QueryOptions& opt, std::span<const std::uint8_t> query);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::vector<std::uint8_t> key;   // immutable after insertion
    std::uint64_t hash = 0;          // immutable after insertion
    // Serializes the one-time context build; ordered *before* mu_ in the
    // lock hierarchy (the failed-build path takes mu_ under it).
    Mutex build_mu{"search.profile_cache.slot_build"};
    std::shared_ptr<const core::QueryContext> ctx
        AALIGN_GUARDED_BY(build_mu);
  };
  using SlotList = std::list<std::shared_ptr<Slot>>;

  void erase_slot_locked(const std::shared_ptr<Slot>& slot)
      AALIGN_REQUIRES(mu_);

  std::size_t capacity_;
  mutable Mutex mu_{"search.profile_cache"};
  SlotList lru_ AALIGN_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_multimap<std::uint64_t, SlotList::iterator> index_
      AALIGN_GUARDED_BY(mu_);
  std::uint64_t hits_ AALIGN_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ AALIGN_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ AALIGN_GUARDED_BY(mu_) = 0;
};

// Aggregate accounting of one BatchScheduler::run.
struct BatchStats {
  std::size_t queries = 0;
  std::size_t subjects = 0;
  std::size_t tiles = 0;
  std::size_t shard_size = 0;  // resolved value (after auto-sizing)
  int threads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t dedup_queries = 0;  // occurrences served by an identical
                                    // query's scan instead of their own
  PoolStats pool;            // steal counters of the tile run
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;  // summed per-worker in-tile time
  double occupancy = 0.0;     // busy / (threads * wall), 1.0 = no idling
  std::size_t cells = 0;      // query x scanned residues (after dedup
                              // and filter); re-runs are in tiers[]
  double gcups = 0.0;         // batch aggregate throughput
  // Ladder tiers of inter tiles, indexed by core::InterPrecision: subjects,
  // batches, overflowed lanes and DP cells actually computed (padding and
  // re-runs included). Tier seconds/gcups are not timed here. All zero
  // when the batch ran striped.
  InterTiers tiers{};
};

class BatchScheduler {
 public:
  // Of `opt`, the scheduling knobs (threads, shard_size,
  // profile_cache_capacity), the query kernel options, and the result
  // knobs (top_k, keep_all_scores, sort_database) all apply.
  BatchScheduler(const score::ScoreMatrix& matrix, AlignConfig cfg,
                 SearchOptions opt = {});

  // Runs every query against db (sorted in place once when
  // opt.sort_database). Results are in query order, scores/hits indexed by
  // ORIGINAL database position. Occurrences of byte-identical queries
  // (same cached context) are scanned once and share the result - still
  // bit-identical to scanning each occurrence, since the inputs are the
  // same. The profile cache persists across run() calls, so repeated
  // queries in later batches also hit.
  //
  // `cancel` (optional) is polled per tile/subject in the pool loop and
  // per stride-chunk inside the kernels. A fired token throws
  // core::CancelledError within one chunk per worker; completed tiles
  // keep nothing visible (no partial results escape), the pool joins
  // fully, and the scheduler (including its profile cache) stays usable
  // for the next run().
  //
  // Per-result accounting: `promotions` counts adaptive-width retries
  // (striped) or lanes re-queued to a wider ladder tier (inter). `stats`
  // (KernelStats: columns, lazy-F, hybrid strategy mix) describes the
  // striped kernels only and stays zero for a batch run on inter tiles.
  std::vector<SearchResult> run(
      const std::vector<std::vector<std::uint8_t>>& queries,
      seq::Database& db, const core::CancelToken* cancel = nullptr);

  const BatchStats& last_stats() const { return stats_; }
  const QueryProfileCache& cache() const { return cache_; }

  // Per-request filter routing (aalignd's `filter: on|off|auto`): applies
  // to the next run(). Not thread-safe against a concurrent run() - the
  // service's executors each own their scheduler, so the mutation is
  // always from the same thread that runs it.
  void set_filter(const filter::FilterOptions& filter) {
    opt_.filter = filter;
  }
  void set_filter_mode(filter::FilterMode mode) { opt_.filter.mode = mode; }
  const filter::FilterOptions& filter_options() const { return opt_.filter; }

 private:
  const score::ScoreMatrix& matrix_;
  AlignConfig cfg_;
  SearchOptions opt_;
  QueryProfileCache cache_;
  BatchStats stats_;
  // Inter-sequence engine the local tiles run on (nullptr = striped) and
  // the ladder tiers [first_, last_] they climb.
  const core::InterEngine* inter_ = nullptr;
  core::InterPrecision first_ = core::InterPrecision::I8;
  core::InterPrecision last_ = core::InterPrecision::I32;
  std::vector<std::int32_t> flat_matrix_;
  // Lazily built signature index for the last database run() saw; reused
  // across runs until the database fingerprint changes. A prebuilt
  // opt_.filter.index takes precedence.
  std::shared_ptr<const filter::SignatureIndex> index_;
};

}  // namespace aalign::search
