// Type-erased interface to the inter-sequence kernels (safe to include
// anywhere; the templated kernel itself lives in inter_kernel.h and is
// instantiated only inside backend TUs).
//
// Inter-sequence mode aligns W database subjects at once, one per vector
// lane - the "inter-sequence vectorization" the paper attributes to
// SWAPHI (Sec. VI-C). Local alignment only: the database-search use case.
//
// The engine is multi-precision: every backend exposes up to three lane
// widths (int8 / int16 / int32; the AVX-512 IMCI profile is int32-only).
// The narrow tiers use saturating arithmetic, so a lane whose running
// maximum ends pinned at the positive rail has overflowed - run() reports
// those lanes in a bitmask and the caller re-queues them at the next wider
// precision. A lane NOT pinned at the rail carries the exact score: for
// local alignment saturation is one-sided (H >= 0 always, and the narrow
// tiers floor E/F at 0, which cannot change a max that also takes 0 - see
// inter_kernel.h), so narrow results that stay inside the range are
// bit-identical to the int32 kernel's.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "core/config.h"
#include "core/workspace.h"
#include "simd/isa.h"

namespace aalign::core {

// The precision ladder, narrowest first. Values index tier arrays.
enum class InterPrecision : std::uint8_t { I8 = 0, I16 = 1, I32 = 2 };

inline constexpr int kInterPrecisionCount = 3;
inline constexpr InterPrecision kInterPrecisions[] = {
    InterPrecision::I8, InterPrecision::I16, InterPrecision::I32};

constexpr const char* to_string(InterPrecision p) {
  switch (p) {
    case InterPrecision::I8: return "int8";
    case InterPrecision::I16: return "int16";
    case InterPrecision::I32: return "int32";
  }
  return "?";
}

// Saturation ceiling of a tier: a lane score equal to this value may have
// overflowed and must be recomputed at the next precision. The int32 tier
// is exact (range-checked at configuration time) and never saturates.
constexpr long inter_score_ceiling(InterPrecision p) {
  switch (p) {
    case InterPrecision::I8: return std::numeric_limits<std::int8_t>::max();
    case InterPrecision::I16: return std::numeric_limits<std::int16_t>::max();
    case InterPrecision::I32: return std::numeric_limits<long>::max();
  }
  return std::numeric_limits<long>::max();
}

struct InterBatchInput {
  const std::int32_t* flat_matrix;  // (alpha+1) x alpha, row-major; the
                                    // extra row is the padding character
  int alpha;                        // real alphabet size
  std::span<const std::uint8_t> query;
  const std::uint8_t* const* subjects;  // lanes() pointers (may repeat)
  const int* lengths;                   // lanes() lengths
  int max_len;                          // max of lengths
};

// One per worker thread: the kernel working sets of all three tiers.
// Buffers grow lazily, so tiers that never run cost nothing.
struct InterScratch {
  Workspace<std::int8_t> w8;
  Workspace<std::int16_t> w16;
  Workspace<std::int32_t> w32;
};

class InterEngine {
 public:
  virtual ~InterEngine() = default;
  virtual simd::IsaKind isa() const = 0;

  // Lane count of a precision tier; 0 when this backend has no such lanes
  // (e.g. the IMCI-profile AVX-512 backend is int32-only).
  virtual int lanes(InterPrecision p) const = 0;

  // Exact-tier lane count (every backend has int32 lanes).
  int lanes() const { return lanes(InterPrecision::I32); }

  // Aligns one batch at precision p, writing lanes(p) scores. Returns the
  // overflow bitmask: bit l set means lane l's score hit the saturation
  // ceiling and must be re-run at wider precision (always 0 for I32).
  // Requesting a tier with lanes(p) == 0 throws.
  virtual std::uint64_t run(InterPrecision p, const InterBatchInput& in,
                            const Penalties& pen, InterScratch& ws,
                            long* out_scores) const = 0;
};

// nullptr when the backend is unavailable on this machine/build.
const InterEngine* get_inter_engine(simd::IsaKind isa);

}  // namespace aalign::core
