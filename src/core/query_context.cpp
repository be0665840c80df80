#include "core/query_context.h"

#include <stdexcept>
#include <string>

#include "core/adaptive.h"
#include "core/sequential.h"
#include "obs/metrics.h"
#include "simd/modules.h"

namespace aalign::core {

QueryContext::QueryContext(const score::ScoreMatrix& matrix,
                           const AlignConfig& cfg, const QueryOptions& opt,
                           std::span<const std::uint8_t> query)
    : matrix_(matrix),
      cfg_(cfg),
      opt_(opt),
      query_(query.begin(), query.end()),
      query_len_(query.size()) {
  obs::ScopedTimer build_timer(
      obs::registry().timer("phase.profile_build"));
  cfg_.validate();
  if (query.empty()) throw std::invalid_argument("QueryContext: empty query");
  if (opt_.strategy == Strategy::Sequential) {
    throw std::invalid_argument(
        "QueryContext: strategy 'sequential' has no striped kernel");
  }
  if (!simd::isa_available(opt_.isa)) {
    throw std::invalid_argument(std::string("QueryContext: ISA '") +
                                simd::isa_name(opt_.isa) +
                                "' is not available on this machine");
  }

  eng8_ = get_engine<std::int8_t>(opt_.isa);
  eng16_ = get_engine<std::int16_t>(opt_.isa);
  eng32_ = get_engine<std::int32_t>(opt_.isa);

  auto want = [&](ScoreWidth w) {
    return opt_.width == ScoreWidth::Auto || opt_.width == w;
  };
  const std::int8_t pad8 =
      cfg_.kind == AlignKind::Local ? simd::neg_inf<std::int8_t>() : 0;
  const std::int16_t pad16 =
      cfg_.kind == AlignKind::Local ? simd::neg_inf<std::int16_t>() : 0;
  const std::int32_t pad32 =
      cfg_.kind == AlignKind::Local ? simd::neg_inf<std::int32_t>() : 0;

  // A tier builds from the attached LUT rows when they cover the
  // alphabet, else from the matrix; the outputs are bit-identical
  // (tests/test_gateway.cpp pins this differentially).
  const int alpha = matrix_.size();
  const auto lut_usable = [&](std::size_t span_size) {
    return !opt_.lut.empty() &&
           opt_.lut.stride >= static_cast<std::size_t>(alpha) &&
           span_size >= static_cast<std::size_t>(alpha) * opt_.lut.stride;
  };
  bool attached = false;
  if (eng8_ != nullptr && want(ScoreWidth::W8)) {
    if (lut_usable(opt_.lut.i8.size())) {
      score::build_striped_profile_lut(prof8_, query, opt_.lut.i8,
                                       opt_.lut.stride, alpha, eng8_->lanes(),
                                       pad8);
      attached = true;
    } else {
      score::build_striped_profile(prof8_, query, matrix_, eng8_->lanes(),
                                   pad8);
    }
    widths_.push_back(ScoreWidth::W8);
  }
  if (eng16_ != nullptr && want(ScoreWidth::W16)) {
    if (lut_usable(opt_.lut.i16.size())) {
      score::build_striped_profile_lut(prof16_, query, opt_.lut.i16,
                                       opt_.lut.stride, alpha,
                                       eng16_->lanes(), pad16);
      attached = true;
    } else {
      score::build_striped_profile(prof16_, query, matrix_, eng16_->lanes(),
                                   pad16);
    }
    widths_.push_back(ScoreWidth::W16);
  }
  if (eng32_ != nullptr && want(ScoreWidth::W32)) {
    if (lut_usable(opt_.lut.i32.size())) {
      score::build_striped_profile_lut(prof32_, query, opt_.lut.i32,
                                       opt_.lut.stride, alpha,
                                       eng32_->lanes(), pad32);
      attached = true;
    } else {
      score::build_striped_profile(prof32_, query, matrix_, eng32_->lanes(),
                                   pad32);
    }
    widths_.push_back(ScoreWidth::W32);
  }
  if (attached) obs::registry().counter("cache.profile.lut_attach").add();
  if (widths_.empty()) {
    throw std::invalid_argument(
        "QueryContext: no supported score width for this ISA/width request");
  }
}

template <class T>
KernelResult QueryContext::run_width(std::span<const std::uint8_t> subject,
                                     WorkspaceSet& ws,
                                     const CancelToken* cancel) const {
  if constexpr (sizeof(T) == 1) {
    return eng8_->run(opt_.strategy, cfg_, prof8_, subject, ws.w8,
                      opt_.hybrid, cancel);
  } else if constexpr (sizeof(T) == 2) {
    return eng16_->run(opt_.strategy, cfg_, prof16_, subject, ws.w16,
                       opt_.hybrid, cancel);
  } else {
    return eng32_->run(opt_.strategy, cfg_, prof32_, subject, ws.w32,
                       opt_.hybrid, cancel);
  }
}

AdaptiveResult QueryContext::align(std::span<const std::uint8_t> subject,
                                   WorkspaceSet& ws,
                                   const CancelToken* cancel) const {
  if (subject.empty()) {
    // Boundary case the striped kernels never see: the exact score is the
    // oracle's degenerate boundary value (0 for local, full-length query
    // gap for global, ...). Deterministic and width-independent.
    AdaptiveResult out;
    out.kernel.score = align_sequential(matrix_, cfg_, query_, subject);
    out.width = widths_.back();
    return out;
  }
  const ScoreWidth start = choose_start_width(cfg_, matrix_, query_len_,
                                              subject.size(), widths_);
  AdaptiveResult out;
  for (std::size_t wi = 0; wi < widths_.size(); ++wi) {
    if (widths_[wi] < start && wi + 1 < widths_.size()) continue;
    KernelResult kr;
    switch (widths_[wi]) {
      case ScoreWidth::W8:
        kr = run_width<std::int8_t>(subject, ws, cancel);
        break;
      case ScoreWidth::W16:
        kr = run_width<std::int16_t>(subject, ws, cancel);
        break;
      default:
        kr = run_width<std::int32_t>(subject, ws, cancel);
        break;
    }
    out.kernel = kr;
    out.width = widths_[wi];
    if (kr.cancelled) {
      out.cancelled = true;
      return out;
    }
    if (!kr.saturated || wi + 1 == widths_.size()) return out;
    ++out.promotions;
  }
  return out;
}

template KernelResult QueryContext::run_width<std::int8_t>(
    std::span<const std::uint8_t>, WorkspaceSet&, const CancelToken*) const;
template KernelResult QueryContext::run_width<std::int16_t>(
    std::span<const std::uint8_t>, WorkspaceSet&, const CancelToken*) const;
template KernelResult QueryContext::run_width<std::int32_t>(
    std::span<const std::uint8_t>, WorkspaceSet&, const CancelToken*) const;

}  // namespace aalign::core
