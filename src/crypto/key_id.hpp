#pragma once

// Internal: allocation-free cache identity for a curve point — the raw
// (x, y) limbs plus a mixing hash.  Shared by the key tier store
// (key_tier.*) and the verification memo (verifier.*) so both layers key
// on the same canonical form.

#include <array>
#include <cstdint>

#include "crypto/ec.hpp"

namespace identxx::crypto::detail {

using PointId = std::array<std::uint64_t, 8>;

struct PointIdHash {
  std::size_t operator()(const PointId& id) const noexcept {
    // EC coordinates are uniformly distributed; one limb from each half
    // is hash enough.
    return static_cast<std::size_t>(id[0] ^ (id[4] * 0x9e3779b97f4a7c15ULL));
  }
};

[[nodiscard]] inline PointId point_id(const AffinePoint& p) noexcept {
  PointId id;
  for (std::size_t i = 0; i < 4; ++i) {
    id[i] = p.x.w[i];
    id[i + 4] = p.y.w[i];
  }
  return id;
}

/// The inverse of point_id (never the identity: it has no PointId).
[[nodiscard]] inline AffinePoint point_of(const PointId& id) noexcept {
  AffinePoint p;
  for (std::size_t i = 0; i < 4; ++i) {
    p.x.w[i] = id[i];
    p.y.w[i] = id[i + 4];
  }
  return p;
}

}  // namespace identxx::crypto::detail
