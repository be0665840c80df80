// The one reporting path from the library's accounting structs onto the
// metrics registry. The structs themselves (KernelStats, PoolStats,
// BatchStats, InterTierStats) stay as cheap per-run return values - the
// hot loops accumulate into per-worker instances as before - and the
// search layers publish merged totals here, so every consumer (the CLI's
// --metrics-json, the bench emitters, the CI gate) reads one namespace:
//
//   kernel.columns / kernel.lazy_steps          lazy-F corrective steps run
//   kernel.lazyf.fixup_cols                      columns corrected by the
//                                                deconstructed scan fixup
//   kernel.lazyf.saved_iters                     est. legacy retry steps the
//                                                fixup avoided
//   kernel.iterate_columns / kernel.scan_columns  strategy column mix
//   hybrid.switches                              mode changes (Sec. V-B)
//   search.align_calls / search.promotions       width retries / lane
//                                                re-queues to a wider tier
//   cache.profile.{hits,misses,evictions}        QueryProfileCache traffic
//   pool.{steals,stolen_items,steal_scans}       work-stealing traffic
//   batch.{runs,tiles,dedup_queries}             scheduler shape
//   inter.{i8,i16,i32}.{subjects,batches,overflowed,cells}  ladder tiers
//   filter.{candidates,survivors,auto_pass,near_miss_drops}  pre-filter
//                                                screening outcomes
//
// Histograms/timers (hybrid dwell, per-phase wall clocks) are recorded at
// their call sites; this header only centralizes the struct -> counter
// fan-out so the mapping cannot drift between layers.
#pragma once

#include "core/config.h"
#include "obs/metrics.h"

namespace aalign::obs {

// Merged per-run kernel totals (DatabaseSearch::search, BatchScheduler
// per-group accumulation, bench drivers).
inline void record_kernel_stats(const KernelStats& stats) {
  Registry& r = registry();
  r.counter("kernel.columns").add(stats.columns);
  r.counter("kernel.lazy_steps").add(stats.lazy_steps);
  r.counter("kernel.iterate_columns").add(stats.iterate_columns);
  r.counter("kernel.scan_columns").add(stats.scan_columns);
  r.counter("kernel.lazyf.fixup_cols").add(stats.lazyf_fixup_cols);
  r.counter("kernel.lazyf.saved_iters").add(stats.lazyf_saved_iters);
  r.counter("hybrid.switches").add(stats.switches);
}

}  // namespace aalign::obs

// PoolStats/BatchStats live in the search layer, which already depends on
// obs; their recorders are declared alongside to keep include cycles out
// of core. Definitions in the respective .cpp files call these names.
namespace aalign::search {
struct PoolStats;
struct BatchStats;
struct InterTierStats;
}  // namespace aalign::search

// FilterStats lives in the filter layer (two-stage search pre-filter);
// same declare-here/define-there pattern (filter/signature.cpp).
namespace aalign::filter {
struct FilterStats;
}  // namespace aalign::filter

namespace aalign::obs {

void record_pool_stats(const search::PoolStats& stats);
void record_batch_stats(const search::BatchStats& stats);

// One signature scan's screening outcome: filter.{candidates,survivors,
// auto_pass,near_miss_drops} counters + per-scan survivor-rate /
// false-drop-estimate histograms.
void record_filter_stats(const filter::FilterStats& stats);

// One rung of the precision ladder; `tier` indexes core::InterPrecision
// (0 = i8, 1 = i16, 2 = i32). Tiers that never ran (subjects == 0) are
// skipped so absent backends don't materialize zero counters.
void record_inter_tier(int tier, const search::InterTierStats& stats);

// Publishes the lock-order validator's cumulative counters (util/
// lock_order.h) as lock.{order_edges,contention_ns,contended_locks,
// violations} deltas into the global registry. Debug-only series: all
// zero when the validator is disabled or compiled out. obs/ owns this
// bridge because the layer DAG forbids util/ -> obs/; called from
// Registry::snapshot() so exports see current values.
void record_lock_stats();

}  // namespace aalign::obs
