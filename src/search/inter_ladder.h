// The inter-sequence precision ladder, shared by InterSequenceSearch and
// the BatchScheduler's local-alignment tiles (search-layer internal).
//
// A ladder run takes a work list of subject positions, aligns them in
// batches of lanes(p) subjects - one per vector lane - at the narrowest
// tier, and re-queues every lane whose saturating score hit the rail for
// the next wider tier, until the list is empty or the last tier has run.
// A lane that did not saturate carries the exact score (core/inter_engine.h),
// so a run ending at the exact int32 tier is bit-identical to int32-only.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/inter_engine.h"
#include "score/matrices.h"
#include "seq/database.h"

namespace aalign::search {

// Per-tier accounting of a ladder run.
struct InterTierStats {
  int lanes = 0;                // vector width of this tier (0 = not run)
  std::size_t subjects = 0;     // subjects attempted at this tier
  std::size_t batches = 0;      // batches dispatched
  std::size_t overflowed = 0;   // lanes that saturated at this tier
  std::size_t cells = 0;        // DP cells actually computed here
  double seconds = 0.0;         // timed by the tier-major search() only
  double gcups = 0.0;
};

using InterTiers = std::array<InterTierStats, core::kInterPrecisionCount>;

// Adds `from`'s counts (lanes, subjects, batches, overflowed, cells) into
// `into`; timing fields are left alone.
void add_tier_counts(InterTiers& into, const InterTiers& from);

// Auto shard size for ladder tiles over `work` subjects per query: a few
// ladder batches per tile (~8 tiles per worker), rounded down to the first
// tier's lane count, so tiles start with full batches and the padding
// waste stays at the tail.
std::size_t inter_auto_shard(std::size_t work, int threads,
                             const core::InterEngine& engine,
                             core::InterPrecision first);

// The substitution matrix flattened for the inter kernels: alpha x alpha
// row-major plus one padding row, strongly negative so finished lanes
// decay to zero, small enough to survive the int8 clamp untouched.
std::vector<std::int32_t> inter_flat_matrix(const score::ScoreMatrix& matrix);

// Per-worker reusable scratch: kernel working sets for every tier plus the
// batch marshalling arrays, allocated once and recycled across all batches
// of all tiers (no per-batch heap traffic in the hot loops).
struct LadderScratch {
  core::InterScratch ws;
  std::vector<const std::uint8_t*> ptrs;
  std::vector<int> lens;
  std::vector<long> lane_scores;
  std::vector<std::size_t> requeue;   // lanes that saturated this tier
  std::vector<std::size_t> pending;   // the ladder's work list
  std::size_t cells = 0;
};

// What every batch of one query's ladder reads and never writes.
struct LadderInput {
  const core::InterEngine& engine;
  std::span<const std::int32_t> flat_matrix;  // inter_flat_matrix()
  int alpha;
  std::span<const std::uint8_t> query;
  const Penalties& pen;
  const seq::Database& db;
};

// Sizes the marshalling arrays for W-lane batches and clears the re-queue.
void size_scratch_for(LadderScratch& w, int W);

// Marshals lanes [begin, begin+count) of `pending` into one batch at
// precision `prec` and runs it. Every lane's score lands in the
// (sorted-order) `scores` array, saturated ones at the rail value; the
// saturated lanes are also appended to w.requeue. The DP cells computed
// accumulate into w.cells.
void run_one_batch(const LadderInput& in, core::InterPrecision prec, int W,
                   const std::vector<std::size_t>& pending, std::size_t begin,
                   std::size_t count, LadderScratch& w, long* scores);

// Runs tiers [first, last] over w.pending within one worker: every tier
// consumes the previous tier's re-queue. Lanes still saturated after
// `last` keep the rail score. Polls `cancel` once per lane batch and
// throws core::CancelledError. Returns the lanes re-queued to a wider
// tier (the promotions).
std::uint64_t run_ladder_local(const LadderInput& in,
                               core::InterPrecision first,
                               core::InterPrecision last, LadderScratch& w,
                               long* scores, InterTiers& acc,
                               const core::CancelToken* cancel);

}  // namespace aalign::search
