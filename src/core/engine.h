// Type-erased kernel entry point: one Engine per (ISA, score width).
//
// Backend TUs (kernels_*.cpp, each compiled with its own ISA flags)
// implement Engine via EngineImpl<Ops> and register a singleton; the
// dispatcher (dispatch.cpp) hands out engines only when the backend is both
// compiled in and supported by the running CPU, so no illegal instruction
// can be reached. The virtual call costs one indirection per alignment.
#pragma once

#include <cstdint>
#include <span>

#include "core/cancel.h"
#include "core/config.h"
#include "core/workspace.h"
#include "score/profile.h"
#include "simd/isa.h"

namespace aalign::core {

template <class T>
class Engine {
 public:
  virtual ~Engine() = default;

  virtual simd::IsaKind isa() const = 0;
  virtual int lanes() const = 0;

  // strategy: a striped strategy (Sequential has no striped kernel).
  // cancel: optional cooperative stop, polled once per stride-chunk of
  // columns; a fired token returns KernelResult::cancelled (invalid score).
  virtual KernelResult run(Strategy strategy, const AlignConfig& cfg,
                           const score::StripedProfile<T>& profile,
                           std::span<const std::uint8_t> subject,
                           Workspace<T>& ws, const HybridParams& hp,
                           const CancelToken* cancel = nullptr) const = 0;
};

// Returns the engine for (isa, T), or nullptr when that backend is not
// compiled in, not supported by this CPU, or does not provide T lanes
// (e.g. the AVX-512/IMCI-profile backend is 32-bit only).
template <class T>
const Engine<T>* get_engine(simd::IsaKind isa);

template <>
const Engine<std::int8_t>* get_engine<std::int8_t>(simd::IsaKind);
template <>
const Engine<std::int16_t>* get_engine<std::int16_t>(simd::IsaKind);
template <>
const Engine<std::int32_t>* get_engine<std::int32_t>(simd::IsaKind);

}  // namespace aalign::core
