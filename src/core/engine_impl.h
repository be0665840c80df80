// EngineImpl: maps the runtime (strategy, kind, gap model) onto the
// compile-time kernel template instantiations for one Ops backend.
// Include this header ONLY from a TU compiled with the backend's ISA flags.
#pragma once

#include "core/engine.h"
#include "core/kernels.h"

namespace aalign::core {

template <class Ops>
class EngineImpl final : public Engine<typename Ops::value_type> {
 public:
  using T = typename Ops::value_type;

  simd::IsaKind isa() const override { return isa_; }
  int lanes() const override { return Ops::kWidth; }

  KernelResult run(Strategy strategy, const AlignConfig& cfg,
                   const score::StripedProfile<T>& profile,
                   std::span<const std::uint8_t> subject, Workspace<T>& ws,
                   const HybridParams& hp,
                   const CancelToken* cancel) const override {
    const bool affine = cfg.gap_model() == GapModel::Affine;
    switch (cfg.kind) {
      case AlignKind::Local:
        return affine ? run_kind<AlignKind::Local, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::Local, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
      case AlignKind::Global:
        return affine ? run_kind<AlignKind::Global, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::Global, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
      case AlignKind::SemiGlobal:
        return affine ? run_kind<AlignKind::SemiGlobal, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::SemiGlobal, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
      case AlignKind::SemiGlobalQuery:
        return affine ? run_kind<AlignKind::SemiGlobalQuery, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::SemiGlobalQuery, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
      case AlignKind::Overlap:
        return affine ? run_kind<AlignKind::Overlap, true>(
                            strategy, cfg, profile, subject, ws, hp, cancel)
                      : run_kind<AlignKind::Overlap, false>(
                            strategy, cfg, profile, subject, ws, hp, cancel);
    }
    return {};
  }

  template <class IsaTag>
  static void set_isa(IsaTag) {}

  explicit EngineImpl(simd::IsaKind isa) : isa_(isa) {}

 private:
  template <AlignKind K, bool Affine>
  KernelResult run_kind(Strategy strategy, const AlignConfig& cfg,
                        const score::StripedProfile<T>& profile,
                        std::span<const std::uint8_t> subject,
                        Workspace<T>& ws, const HybridParams& hp,
                        const CancelToken* cancel) const {
    const Steps<T> st = make_steps<T>(cfg);
    switch (strategy) {
      case Strategy::StripedIterate:
        return run_striped_iterate<Ops, K, Affine>(profile, subject, st, ws,
                                                   cfg.lazyf, cancel);
      case Strategy::StripedScan:
        return run_striped_scan<Ops, K, Affine>(profile, subject, st, ws,
                                                cancel);
      case Strategy::Hybrid:
        return run_hybrid<Ops, K, Affine>(profile, subject, st, ws, hp,
                                          cfg.lazyf, cancel);
      case Strategy::Sequential:
        // No striped kernel: sequential alignment lives in
        // core/sequential, and QueryContext rejects this strategy.
        break;
    }
    return {};
  }

  simd::IsaKind isa_;
};

}  // namespace aalign::core
