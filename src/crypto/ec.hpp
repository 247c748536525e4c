#pragma once

// secp256k1 group arithmetic (from scratch, on top of U256).
//
// The ident++ design relies on signed delegation: users and third parties
// sign application `requirements` rules which the controller verifies with
// PF+=2's `verify` function.  That needs genuine public-key semantics —
// an offline signer, an online verifier — so we implement a real group:
// the short Weierstrass curve y^2 = x^3 + 7 over F_p,
//   p = 2^256 - 2^32 - 977,
// with the standard base point G of prime order n.
//
// Performance model (DESIGN.md §9): signature verification sits on the
// flow-setup hot path, so scalar multiplication is precomputation-heavy:
// both moduli reduce by folding against 2^256 - modulus (no division),
// variable-base multiplication splits the scalar by the GLV endomorphism
// into half-length width-5 wNAF streams, fixed bases (G, and any
// registered public key) use a 4-bit windowed comb table that eliminates
// the doubling chain entirely, and Schnorr's s*G - e*P is one fused
// double-scalar pass.  The textbook double-and-add survives as
// `ec_mul_naive`, the oracle the differential tests compare against.

#include <array>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/u256.hpp"

namespace identxx::crypto {

/// Curve constants.
struct Secp256k1 {
  static const U256& p() noexcept;   ///< field prime
  static const U256& n() noexcept;   ///< group order
  static const U256& gx() noexcept;  ///< base point x
  static const U256& gy() noexcept;  ///< base point y
};

// ---- Field arithmetic mod p (specialized reduction for p = 2^256 - c) ----

[[nodiscard]] U256 fp_add(const U256& a, const U256& b) noexcept;
[[nodiscard]] U256 fp_sub(const U256& a, const U256& b) noexcept;
[[nodiscard]] U256 fp_mul(const U256& a, const U256& b) noexcept;
[[nodiscard]] U256 fp_sqr(const U256& a) noexcept;
[[nodiscard]] U256 fp_inv(const U256& a) noexcept;  ///< a^(p-2); a must be nonzero

// ---- Scalar arithmetic mod n (specialized reduction for n = 2^256 - c) ----
//
// n's fold constant c = 2^256 - n is 129 bits, so a 512-bit product
// reduces in a handful of multiply-accumulate folds instead of the
// 512-iteration binary long division `mod(U512, n)` costs.  The generic
// path in u256.cpp remains for arbitrary moduli (and as the scalar
// differential-test oracle).

/// Reduce a full 512-bit value mod n.
[[nodiscard]] U256 sn_reduce(const U512& x) noexcept;
/// Reduce a 256-bit value mod n (a single conditional subtraction).
[[nodiscard]] U256 sn_reduce(const U256& x) noexcept;
[[nodiscard]] U256 sn_add(const U256& a, const U256& b) noexcept;  ///< a,b < n
[[nodiscard]] U256 sn_sub(const U256& a, const U256& b) noexcept;  ///< a,b < n
[[nodiscard]] U256 sn_mul(const U256& a, const U256& b) noexcept;

// ---- Points ----

/// Affine point; `infinity` encodes the group identity.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  [[nodiscard]] bool operator==(const AffinePoint&) const noexcept = default;

  /// Is (x, y) on y^2 = x^3 + 7?  The identity is on the curve by fiat.
  [[nodiscard]] bool on_curve() const noexcept;

  [[nodiscard]] static AffinePoint identity() noexcept {
    return AffinePoint{U256{}, U256{}, true};
  }

  [[nodiscard]] static AffinePoint generator() noexcept;
};

/// Jacobian projective point (X/Z^2, Y/Z^3); Z == 0 encodes identity.
struct JacobianPoint {
  U256 x;
  U256 y;
  U256 z;

  [[nodiscard]] static JacobianPoint identity() noexcept {
    return JacobianPoint{U256{1}, U256{1}, U256{}};
  }

  [[nodiscard]] bool is_identity() const noexcept { return z.is_zero(); }

  [[nodiscard]] static JacobianPoint from_affine(const AffinePoint& p) noexcept;
  [[nodiscard]] AffinePoint to_affine() const noexcept;
};

[[nodiscard]] JacobianPoint ec_double(const JacobianPoint& p) noexcept;
[[nodiscard]] JacobianPoint ec_add(const JacobianPoint& p,
                                   const JacobianPoint& q) noexcept;
/// Mixed addition p + q with q affine (madd-2007-bl): saves the four
/// field multiplications a full Jacobian add spends on q's Z.
[[nodiscard]] JacobianPoint ec_add_mixed(const JacobianPoint& p,
                                         const AffinePoint& q) noexcept;

/// Textbook MSB-first double-and-add.  Slow; retained as the oracle the
/// differential tests check the optimized paths against.
[[nodiscard]] JacobianPoint ec_mul_naive(const U256& k,
                                         const AffinePoint& p) noexcept;

/// k * G via the shared fixed-base generator table.
[[nodiscard]] JacobianPoint ec_mul_base(const U256& k) noexcept;

/// Windowed fixed-base table for one point: table[i][j-1] = j * 16^i * P
/// in affine coordinates (64 windows x 15 entries, ~69 KB).  Build cost is
/// ~1000 point operations plus ONE field inversion (Montgomery batch
/// normalization), amortized across every later multiplication: a mul is
/// then at most 64 mixed additions and zero doublings.  Intended for
/// long-lived bases — G itself (`generator()`, built once per process) and
/// registered daemon public keys (built at key registration).
class FixedBaseTable {
 public:
  static constexpr unsigned kWindowBits = 4;
  static constexpr unsigned kWindows = 256 / kWindowBits;
  static constexpr unsigned kEntries = (1u << kWindowBits) - 1;

  explicit FixedBaseTable(const AffinePoint& base);

  /// k * base (k reduced mod n: the group has prime order n, so
  /// k*P == (k mod n)*P for every on-curve P).
  [[nodiscard]] JacobianPoint mul(const U256& k) const noexcept;

  [[nodiscard]] const AffinePoint& base() const noexcept { return base_; }

  /// Raw table entry (j+1) * 16^window * base.  The constant-time comb
  /// (ct_sign.hpp) scans every entry of a window and mask-selects, so it
  /// needs direct affine access rather than mul()'s wNAF-style walk.
  [[nodiscard]] const AffinePoint& entry(unsigned window,
                                         unsigned idx) const noexcept {
    return table_[window][idx];
  }

  /// The process-wide table for G.
  [[nodiscard]] static const FixedBaseTable& generator();

 private:
  friend JacobianPoint ec_mul_add(const U256& a, const U256& b,
                                  const FixedBaseTable& p_table) noexcept;
  friend class EcMsm;

  AffinePoint base_;
  std::array<std::array<AffinePoint, kEntries>, kWindows> table_;
};

/// a*G + b*P with a precomputed table for P: two comb walks, no doubling
/// chain at all (at most 128 mixed additions total).
[[nodiscard]] JacobianPoint ec_mul_add(const U256& a, const U256& b,
                                       const FixedBaseTable& p_table) noexcept;

/// p == q without normalizing p (two field multiplications instead of the
/// field inversion `to_affine` costs).
[[nodiscard]] bool ec_equals_affine(const JacobianPoint& p,
                                    const AffinePoint& q) noexcept;

/// p == q with both sides projective (cross-multiplied, no inversion).
[[nodiscard]] bool ec_equals(const JacobianPoint& p,
                             const JacobianPoint& q) noexcept;

/// Point negation (x, -y).
[[nodiscard]] AffinePoint ec_negate(const AffinePoint& p) noexcept;
[[nodiscard]] JacobianPoint ec_negate(const JacobianPoint& p) noexcept;

// ---- GLV endomorphism (DESIGN.md §15) ----
//
// secp256k1 has j-invariant 0, so it carries the efficiently computable
// endomorphism psi(x, y) = (beta*x, y) = lambda*(x, y), where beta and
// lambda are cube roots of unity mod p and mod n.  Any scalar k splits as
// k = k1 + k2*lambda (mod n) with |k1|, |k2| ~ sqrt(n): a 256-bit
// multiplication becomes two ~129-bit streams over P and psi(P) sharing
// one half-length doubling chain.  The decomposition constants g1, g2 are
// derived from the published lattice basis at startup (div_round), not
// transcribed, and the whole path is differentially tested against
// ec_mul_naive.

struct Glv {
  static const U256& lambda() noexcept;  ///< cube root of 1 mod n
  static const U256& beta() noexcept;    ///< cube root of 1 mod p
};

/// Signed decomposition k == (neg1 ? -k1 : k1) + (neg2 ? -k2 : k2)*lambda
/// (mod n), with k1, k2 < ~2^130.  Requires k < n.
struct GlvSplit {
  U256 k1;
  U256 k2;
  bool neg1 = false;
  bool neg2 = false;
};
[[nodiscard]] GlvSplit glv_split(const U256& k) noexcept;

/// psi(p) = (beta * x, y) == lambda * p.
[[nodiscard]] AffinePoint ec_endomorphism(const AffinePoint& p) noexcept;

/// k * P via the GLV split: two half-width wNAF streams over per-call
/// Jacobian tables for P and psi(P), one ~130-double chain.
[[nodiscard]] JacobianPoint ec_mul_glv(const U256& k,
                                       const AffinePoint& p) noexcept;

/// a*G + b*P with all four half-scalars on one ~130-double chain: the G
/// and psi(G) halves walk static affine tables (width-8 wNAF), the P and
/// psi(P) halves per-call common-Z tables (width-5, every addition mixed).
/// This is the cold-key verification core — no precomputed state for P at
/// all, and no field inversion anywhere on the path.
[[nodiscard]] JacobianPoint ec_mul_add_glv(const U256& a, const U256& b,
                                           const AffinePoint& p) noexcept;

/// Multi-scalar multiplication accumulator for batch verification: stage
/// terms, then result() computes the sum with ONE doubling chain shared by
/// every wNAF stream (comb-table terms join chain-free at the end).
///
///   Sum = base*G + sum(comb terms) + sum(glv terms) + sum(naf terms)
class EcMsm {
 public:
  /// += k * G (aggregated; one generator comb walk at result()).
  void add_base(const U256& k);
  /// += k * table.base() via its comb — chain-free (hot-tier keys).
  void add_comb(const FixedBaseTable& table, const U256& k);
  /// += k * p via GLV over per-call Jacobian tables (cold keys).
  void add_glv(const AffinePoint& p, const U256& k);
  /// += k * p directly — no table build; the right call for short
  /// scalars (batch-verification R terms, |k| ~ 2^64).  Terms whose
  /// reduced scalar fits in 64 bits are held back and, once enough of
  /// them accumulate, summed by Bos–Coster reduction at result();
  /// smaller counts (and wider scalars) walk plain NAF streams.
  void add_naf(const AffinePoint& p, const U256& k);

  [[nodiscard]] JacobianPoint result() const;

 private:
  struct Stream {
    const AffinePoint* atab = nullptr;    ///< odd multiples (mixed adds)...
    const JacobianPoint* jtab = nullptr;  ///< ...or Jacobian (full adds)
    std::array<std::int8_t, 258> d{};
    unsigned len = 0;
  };

  void push_stream(const AffinePoint* atab, const JacobianPoint* jtab,
                   const U256& k, unsigned width, bool negate);

  U256 base_scalar_{};
  std::vector<Stream> streams_;
  std::vector<std::pair<const FixedBaseTable*, U256>> combs_;
  std::deque<AffinePoint> owned_affine_;                  ///< naf term points
  std::deque<std::array<JacobianPoint, 8>> owned_jac_;    ///< cold glv tables
  /// naf terms with scalars < 2^64 — Bos–Coster candidates.
  std::vector<std::pair<std::uint64_t, AffinePoint>> short_terms_;
};

}  // namespace identxx::crypto
