// QueryContext: everything derivable from (matrix, config, options, query)
// alone - striped profiles per score width plus the engine pointers.
// Immutable after build and safely shared read-only by every search thread
// (the paper's Sec. V-E optimization: build the profile once, before
// launching threads). Mutable per-thread state lives in WorkspaceSet.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/workspace.h"
#include "score/profile.h"

namespace aalign::core {

struct QueryOptions {
  Strategy strategy = Strategy::Hybrid;
  simd::IsaKind isa = simd::IsaKind::Scalar;
  ScoreWidth width = ScoreWidth::Auto;  // Auto = adaptive 8->16->32
  HybridParams hybrid;
  // Optional prebuilt substitution rows (the ProfileLut sections of a
  // mapped .aidx): when attached, the striped profiles are filled from
  // these rows instead of per-cell matrix lookups - bit-identical output
  // (the profile cache therefore keys on neither), counted by
  // cache.profile.lut_attach. A tier whose span is absent or undersized
  // silently falls back to the matrix build.
  score::ProfileLutView lut;
};

struct WorkspaceSet {
  Workspace<std::int8_t> w8;
  Workspace<std::int16_t> w16;
  Workspace<std::int32_t> w32;
};

struct AdaptiveResult {
  KernelResult kernel;
  ScoreWidth width = ScoreWidth::W32;
  int promotions = 0;
  // Run stopped by the CancelToken; kernel.score is invalid and the
  // caller must not record it.
  bool cancelled = false;
};

class QueryContext {
 public:
  // Throws std::invalid_argument when the ISA is unavailable or provides
  // no usable width, or when opt.strategy is Sequential (no striped
  // kernel; core/sequential is the scalar path).
  QueryContext(const score::ScoreMatrix& matrix, const AlignConfig& cfg,
               const QueryOptions& opt,
               std::span<const std::uint8_t> query);

  // Runs the kernel at the narrowest viable width, promoting on
  // saturation. Thread-safe given a per-thread WorkspaceSet.
  // An empty subject is legal and scored exactly (boundary conditions).
  // A fired `cancel` token returns AdaptiveResult::cancelled within one
  // kernel stride-chunk; the result carries no valid score.
  AdaptiveResult align(std::span<const std::uint8_t> subject,
                       WorkspaceSet& ws,
                       const CancelToken* cancel = nullptr) const;

  const AlignConfig& config() const { return cfg_; }
  const QueryOptions& options() const { return opt_; }
  const std::vector<ScoreWidth>& widths() const { return widths_; }
  std::size_t query_length() const { return query_len_; }
  // The encoded query this context was built from (the batch layer keys
  // its profile cache on these bytes).
  std::span<const std::uint8_t> query() const { return query_; }

 private:
  template <class T>
  KernelResult run_width(std::span<const std::uint8_t> subject,
                         WorkspaceSet& ws, const CancelToken* cancel) const;

  const score::ScoreMatrix& matrix_;
  AlignConfig cfg_;
  QueryOptions opt_;
  std::vector<std::uint8_t> query_;
  std::size_t query_len_ = 0;
  std::vector<ScoreWidth> widths_;

  score::StripedProfile<std::int8_t> prof8_;
  score::StripedProfile<std::int16_t> prof16_;
  score::StripedProfile<std::int32_t> prof32_;
  const Engine<std::int8_t>* eng8_ = nullptr;
  const Engine<std::int16_t>* eng16_ = nullptr;
  const Engine<std::int32_t>* eng32_ = nullptr;
};

}  // namespace aalign::core
