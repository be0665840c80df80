// Inter-sequence database search: batches of `lanes` subjects aligned
// simultaneously, one per vector lane. Complements the intra-sequence
// (striped) DatabaseSearch - the two SWAPHI modes the paper contrasts in
// Sec. VI-C. Length-sorting the database makes batches length-homogeneous,
// minimizing padding waste.
//
// The engine is adaptive-precision (the SSW/SWAPHI precision ladder): the
// whole database first runs on the narrowest lanes the backend offers
// (int8: 32 lanes on AVX2, 64 on AVX-512BW), lanes whose saturating score
// hit the positive rail are collected into a re-queue and re-batched at
// int16, and whatever still overflows finishes on the exact int32 tier.
// Because a narrow lane that did NOT saturate carries the exact score,
// results are bit-identical to an int32-only run for every database.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/inter_engine.h"
#include "search/database_search.h"
#include "search/inter_ladder.h"

namespace aalign::search {

struct InterSearchResult : SearchResult {
  // Indexed by core::InterPrecision (I8, I16, I32).
  InterTiers tiers{};
};

class InterSequenceSearch {
 public:
  // Local (Smith-Waterman) alignment only. `start_width` selects the first
  // rung of the precision ladder: Auto starts at the narrowest tier the
  // backend offers; W32 reproduces the exact single-tier behaviour (useful
  // as a baseline). Of `opt`, the threads / top_k / keep_all_scores /
  // sort_database knobs apply; the striped-kernel QueryOptions are ignored.
  InterSequenceSearch(const score::ScoreMatrix& matrix, Penalties pen,
                      SearchOptions opt,
                      std::optional<simd::IsaKind> isa = {},
                      ScoreWidth start_width = ScoreWidth::Auto);

  // Convenience overload matching the historical signature.
  InterSequenceSearch(const score::ScoreMatrix& matrix, Penalties pen,
                      std::optional<simd::IsaKind> isa = {}, int threads = 0);

  // `cancel` (optional) is polled per lane batch in the pool loop; a fired
  // token aborts within one batch per worker and throws
  // core::CancelledError - a cancelled search never returns partial scores.
  InterSearchResult search(std::span<const std::uint8_t> query,
                           seq::Database& db,
                           const core::CancelToken* cancel = nullptr) const;

  // Many-vs-all on one task grid: every (query, subject-shard) tile goes
  // through the work-stealing pool, and each tile runs the precision
  // ladder locally (re-queueing saturated lanes within the shard). Lane
  // independence makes per-subject scores bit-identical to per-query
  // search() calls for every shard size and thread count; per-tier
  // *timing* is not collected in this mode (tier seconds/gcups stay 0),
  // and each result's `seconds` is the whole batch's wall clock. Results
  // are in query order, scores/hits indexed by ORIGINAL database position.
  // `cancel` follows the same contract as search().
  std::vector<InterSearchResult> search_many(
      const std::vector<std::vector<std::uint8_t>>& queries,
      seq::Database& db, const core::CancelToken* cancel = nullptr) const;

  // Lane count of the exact (int32) tier - the historical meaning.
  int lanes() const;
  // Lane count of a specific tier; 0 when the backend lacks it.
  int lanes(core::InterPrecision p) const;

 private:
  const score::ScoreMatrix& matrix_;
  Penalties pen_;
  SearchOptions opt_;
  simd::IsaKind isa_;
  core::InterPrecision start_;
  std::vector<std::int32_t> flat_matrix_;  // (alpha+1) x alpha with pad row
};

}  // namespace aalign::search
