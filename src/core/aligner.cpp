#include "core/aligner.h"

#include <stdexcept>

namespace aalign {

PairAligner::PairAligner(const score::ScoreMatrix& matrix, AlignConfig cfg,
                         AlignOptions opt)
    : matrix_(matrix), cfg_(cfg), opt_(opt) {
  cfg_.validate();
  isa_ = opt_.isa.value_or(simd::best_available_isa());
  if (!simd::isa_available(isa_)) {
    throw std::invalid_argument(std::string("PairAligner: ISA '") +
                                simd::isa_name(isa_) +
                                "' is not available on this machine");
  }
}

std::size_t PairAligner::query_length() const {
  return ctx_ ? ctx_->query_length() : 0;
}

void PairAligner::set_query(std::span<const std::uint8_t> query) {
  const core::QueryOptions qopt{opt_.strategy, isa_, opt_.width, opt_.hybrid,
                                {}};
  ctx_.emplace(matrix_, cfg_, qopt, query);
}

AlignResult PairAligner::align(std::span<const std::uint8_t> subject) {
  if (!ctx_) {
    throw std::logic_error("PairAligner: set_query() before align()");
  }
  const core::AdaptiveResult ar = ctx_->align(subject, ws_);
  AlignResult r;
  r.score = ar.kernel.score;
  r.strategy = opt_.strategy;
  r.isa = isa_;
  r.width = ar.width;
  r.promotions = ar.promotions;
  r.saturated = ar.kernel.saturated;
  r.stats = ar.kernel.stats;
  return r;
}

AlignResult align_pair(const score::ScoreMatrix& matrix,
                       const AlignConfig& cfg,
                       std::span<const std::uint8_t> query,
                       std::span<const std::uint8_t> subject,
                       AlignOptions opt) {
  PairAligner a(matrix, cfg, opt);
  a.set_query(query);
  return a.align(subject);
}

}  // namespace aalign
