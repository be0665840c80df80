// Strategy drivers over ColumnEngine: striped-iterate, striped-scan, and
// the hybrid method of Sec. V-B. All three run columns through the same
// block loops (ColumnEngine::run_*_block), so hybrid pays nothing per
// column beyond its window/stride decisions. Header is included only by
// backend TUs (each compiled with its ISA flags) via engine_impl.h.
//
// Cancellation: every driver takes an optional CancelToken and polls it
// once per stride-chunk of columns (kCancelStrideColumns; the hybrid polls
// at its own window/stride boundaries, which are finer). A fired token
// makes the driver return immediately with KernelResult::cancelled set and
// an invalid score - per-cell work never tests the token, so the hot path
// is unchanged, and a stopped request quits within one chunk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/cancel.h"
#include "core/column_engine.h"
#include "obs/metrics.h"

namespace aalign::core {

// Copies the engine's per-column lazy-F accounting into a result. One
// call site per driver, always after the last column ran, so the counters
// are engine totals - they cannot double-count across driver chunks.
template <class Eng>
void harvest_lazyf_stats(const Eng& eng, KernelResult& res) {
  res.stats.lazyf_fixup_cols = eng.fixup_cols();
  res.stats.lazyf_saved_iters = eng.saved_iters();
}

template <class Ops, AlignKind K, bool Affine>
KernelResult run_striped_iterate(
    const score::StripedProfile<typename Ops::value_type>& prof,
    std::span<const std::uint8_t> subject,
    Steps<typename Ops::value_type> st,
    Workspace<typename Ops::value_type>& ws, LazyF lazyf = LazyF::Fixup,
    const CancelToken* cancel = nullptr) {
  ColumnEngine<Ops, K, Affine> eng(prof, st, ws, lazyf);
  KernelResult res;
  const long n = static_cast<long>(subject.size());
  // One accumulation per block for both the polled and unpolled shapes:
  // lazy_steps is a plain sum over columns, never seeded separately by a
  // first-column warmup.
  for (long i = 1; i <= n; i += kCancelStrideColumns) {
    if (cancel != nullptr && cancel->stop_requested()) {
      res.cancelled = true;
      return res;
    }
    const long count = std::min(kCancelStrideColumns, n - i + 1);
    res.stats.lazy_steps += eng.run_iterate_block(i, subject.data(), count);
  }
  res.stats.columns = n;
  res.stats.iterate_columns = n;
  harvest_lazyf_stats(eng, res);
  res.score = eng.finalize();
  res.saturated = eng.saturated(res.score, n);
  return res;
}

template <class Ops, AlignKind K, bool Affine>
KernelResult run_striped_scan(
    const score::StripedProfile<typename Ops::value_type>& prof,
    std::span<const std::uint8_t> subject,
    Steps<typename Ops::value_type> st,
    Workspace<typename Ops::value_type>& ws,
    const CancelToken* cancel = nullptr) {
  ColumnEngine<Ops, K, Affine> eng(prof, st, ws);
  KernelResult res;
  const long n = static_cast<long>(subject.size());
  if (cancel == nullptr) {
    eng.run_scan_block(1, subject.data(), n);
  } else {
    for (long i = 1; i <= n; i += kCancelStrideColumns) {
      if (cancel->stop_requested()) {
        res.cancelled = true;
        return res;
      }
      eng.run_scan_block(i, subject.data(),
                         std::min(kCancelStrideColumns, n - i + 1));
    }
  }
  res.stats.columns = n;
  res.stats.scan_columns = n;
  res.score = eng.finalize();
  res.saturated = eng.saturated(res.score, n);
  return res;
}

// Hybrid (Sec. V-B): start in striped-iterate; after each `window`-column
// block, compare the lazy-F re-computation counter (normalized to full
// column passes) against the threshold. Above it, run striped-scan for
// `stride` columns whose cost is input-independent, then probe iterate
// again. Under LazyF::Fixup the counter is bounded by one extra pass per
// column (the fixup sweep), so thresholds live in (0, 1) - see the
// HybridParams re-derivation note and bench/ablate_hybrid_threshold.
template <class Ops, AlignKind K, bool Affine>
KernelResult run_hybrid(
    const score::StripedProfile<typename Ops::value_type>& prof,
    std::span<const std::uint8_t> subject,
    Steps<typename Ops::value_type> st,
    Workspace<typename Ops::value_type>& ws, const HybridParams& hp,
    LazyF lazyf = LazyF::Fixup, const CancelToken* cancel = nullptr) {
  ColumnEngine<Ops, K, Affine> eng(prof, st, ws, lazyf);
  KernelResult res;
  const long n = static_cast<long>(subject.size());
  const double segs = static_cast<double>(eng.segs());
  const long window = std::max(1, hp.window);
  const long stride = std::max(1, hp.stride);

  // Dwell tracing (obs): columns spent in each mode between switches, and
  // probe outcomes. References resolved once per instantiation; recording
  // is one relaxed shard-add per mode change - nothing per column.
  static obs::Histogram& dwell_iterate =
      obs::registry().histogram("hybrid.dwell_iterate_cols");
  static obs::Histogram& dwell_scan =
      obs::registry().histogram("hybrid.dwell_scan_cols");
  static obs::Counter& probes = obs::registry().counter("hybrid.probes");

  bool scan_mode = false;
  long i = 1;
  std::uint64_t iterate_dwell = 0;  // columns since the last iterate entry
  while (i <= n) {
    // The window/stride blocks already bound work between polls below
    // kCancelStrideColumns for default parameters; clamp covers oversized
    // user strides.
    if (cancel != nullptr && cancel->stop_requested()) {
      res.cancelled = true;
      return res;
    }
    if (scan_mode) {
      const long chunk =
          cancel != nullptr ? std::min(stride, kCancelStrideColumns) : stride;
      const long count = std::min(chunk, n - i + 1);
      eng.run_scan_block(i, subject.data(), count);
      res.stats.scan_columns += static_cast<std::uint64_t>(count);
      i += count;
      scan_mode = false;  // probe iterate next
      ++res.stats.switches;
      dwell_scan.record(static_cast<std::uint64_t>(count));
      probes.add();
    } else {
      const long chunk =
          cancel != nullptr ? std::min(window, kCancelStrideColumns) : window;
      const long count = std::min(chunk, n - i + 1);
      const std::uint64_t lazy =
          eng.run_iterate_block(i, subject.data(), count);
      res.stats.lazy_steps += lazy;
      res.stats.iterate_columns += static_cast<std::uint64_t>(count);
      iterate_dwell += static_cast<std::uint64_t>(count);
      i += count;
      const double passes_per_col =
          static_cast<double>(lazy) / (segs * static_cast<double>(count));
      if (passes_per_col > hp.threshold) {
        scan_mode = true;
        ++res.stats.switches;
        dwell_iterate.record(iterate_dwell);
        iterate_dwell = 0;
      }
    }
  }
  if (iterate_dwell > 0) dwell_iterate.record(iterate_dwell);
  res.stats.columns = n;
  harvest_lazyf_stats(eng, res);
  res.score = eng.finalize();
  res.saturated = eng.saturated(res.score, n);
  return res;
}

}  // namespace aalign::core
