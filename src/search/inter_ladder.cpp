#include "search/inter_ladder.h"

#include <algorithm>

namespace aalign::search {

namespace {
constexpr std::int32_t kPadScore = -64;
}  // namespace

std::vector<std::int32_t> inter_flat_matrix(const score::ScoreMatrix& matrix) {
  const int alpha = matrix.size();
  std::vector<std::int32_t> flat(static_cast<std::size_t>(alpha + 1) * alpha);
  for (int a = 0; a < alpha; ++a) {
    for (int b = 0; b < alpha; ++b) {
      flat[static_cast<std::size_t>(a) * alpha + b] = matrix.at(a, b);
    }
  }
  for (int b = 0; b < alpha; ++b) {
    flat[static_cast<std::size_t>(alpha) * alpha + b] = kPadScore;
  }
  return flat;
}

void add_tier_counts(InterTiers& into, const InterTiers& from) {
  for (std::size_t ti = 0; ti < into.size(); ++ti) {
    into[ti].lanes = std::max(into[ti].lanes, from[ti].lanes);
    into[ti].subjects += from[ti].subjects;
    into[ti].batches += from[ti].batches;
    into[ti].overflowed += from[ti].overflowed;
    into[ti].cells += from[ti].cells;
  }
}

std::size_t inter_auto_shard(std::size_t work, int threads,
                             const core::InterEngine& engine,
                             core::InterPrecision first) {
  int w0 = engine.lanes(first);
  if (w0 == 0) w0 = engine.lanes();  // backend without narrow lanes
  const auto lanes = static_cast<std::size_t>(w0);
  std::size_t shard = work / (static_cast<std::size_t>(threads) * 8);
  shard = std::clamp<std::size_t>(shard, lanes, lanes * 8);
  return shard - shard % lanes;
}

void size_scratch_for(LadderScratch& w, int W) {
  w.ptrs.assign(static_cast<std::size_t>(W), nullptr);
  w.lens.assign(static_cast<std::size_t>(W), 0);
  w.lane_scores.assign(static_cast<std::size_t>(W), 0);
  w.requeue.clear();
}

void run_one_batch(const LadderInput& in, core::InterPrecision prec, int W,
                   const std::vector<std::size_t>& pending, std::size_t begin,
                   std::size_t count, LadderScratch& w, long* scores) {
  int max_len = 0;
  std::size_t residues = 0;
  for (std::size_t l = 0; l < static_cast<std::size_t>(W); ++l) {
    // Tail batch: repeat the first subject in unused lanes (their scores
    // are simply discarded).
    const std::size_t idx = pending[begin + (l < count ? l : 0)];
    w.ptrs[l] = in.db[idx].view().data();
    w.lens[l] = static_cast<int>(in.db[idx].size());
    max_len = std::max(max_len, w.lens[l]);
    if (l < count) residues += in.db[idx].size();
  }

  const core::InterBatchInput batch{in.flat_matrix.data(), in.alpha, in.query,
                                    w.ptrs.data(), w.lens.data(), max_len};
  const std::uint64_t overflow =
      in.engine.run(prec, batch, in.pen, w.ws, w.lane_scores.data());
  for (std::size_t l = 0; l < count; ++l) {
    const std::size_t idx = pending[begin + l];
    scores[idx] = w.lane_scores[l];
    // Saturated: retry at wider precision, which overwrites the score.
    if ((overflow >> l) & 1u) w.requeue.push_back(idx);
  }
  w.cells += in.query.size() * residues;
}

std::uint64_t run_ladder_local(const LadderInput& in,
                               core::InterPrecision first,
                               core::InterPrecision last, LadderScratch& w,
                               long* scores, InterTiers& acc,
                               const core::CancelToken* cancel) {
  std::uint64_t promoted = 0;
  for (int ti = static_cast<int>(first);
       ti <= static_cast<int>(last) && !w.pending.empty(); ++ti) {
    const auto prec = static_cast<core::InterPrecision>(ti);
    const int W = in.engine.lanes(prec);
    if (W == 0) continue;  // tier absent on this backend
    size_scratch_for(w, W);
    w.cells = 0;
    const std::size_t batches =
        (w.pending.size() + static_cast<std::size_t>(W) - 1) /
        static_cast<std::size_t>(W);
    for (std::size_t b = 0; b < batches; ++b) {
      // Per-batch poll: a fired token stops the ladder within one lane
      // batch; partial scores never escape (the caller discards them).
      if (core::stop_requested(cancel)) core::throw_cancelled(*cancel);
      const std::size_t begin = b * static_cast<std::size_t>(W);
      const std::size_t count =
          std::min<std::size_t>(W, w.pending.size() - begin);
      run_one_batch(in, prec, W, w.pending, begin, count, w, scores);
    }
    InterTierStats& t = acc[static_cast<std::size_t>(ti)];
    t.lanes = W;
    t.subjects += w.pending.size();
    t.batches += batches;
    t.overflowed += w.requeue.size();
    t.cells += w.cells;
    if (ti < static_cast<int>(last)) promoted += w.requeue.size();
    w.pending.swap(w.requeue);
    w.requeue.clear();
  }
  w.pending.clear();
  return promoted;
}

}  // namespace aalign::search
