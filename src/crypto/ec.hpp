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
// registered public key) use a Lim–Lee comb table that cuts the doubling
// chain to 7 steps, and Schnorr's s*G - e*P is one fused double-scalar
// pass over both combs on that one chain.  The textbook double-and-add
// survives as `ec_mul_naive`, the oracle the differential tests compare
// against.

#include <array>
#include <cstddef>

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

/// Normalize `points` to affine with ONE field inversion (Montgomery's
/// trick); identities map to the affine identity.
void batch_normalize(const JacobianPoint* points, AffinePoint* out,
                     std::size_t count);

/// Lim–Lee comb table for one point (DESIGN.md §9).  A scalar's 256 bits
/// are read as 8 teeth x 4 blocks x 8 columns: bit 32r + 8s + j is tooth r
/// of block s in column j.  Block s holds every subset sum of its teeth,
///   table[s][m-1] = sum over set bits r of m of 2^(32r + 8s) * P,
/// for m = 1..255, in affine coordinates (4 x 255 entries, ~73 KB), so
///   k*P = sum_{j=7..0} 2^j * sum_s table[s][d(k, s, j) - 1]
/// where the digit d(k, s, j) gathers k's eight column-j bits of block s.
/// A mul is then 7 doublings and at most 32 mixed additions.  Build cost
/// is 248 doublings, 988 mixed additions and two field inversions (one
/// for the 32 teeth, one for the 1020 entries), amortized across every
/// later multiplication.  Intended for long-lived bases — G itself
/// (`generator()`, built once per process) and registered daemon public
/// keys (built at key registration).
class FixedBaseTable {
 public:
  static constexpr unsigned kTeeth = 8;
  static constexpr unsigned kBlocks = 4;
  static constexpr unsigned kColumns = 256 / (kTeeth * kBlocks);
  static constexpr unsigned kBlockEntries = (1u << kTeeth) - 1;

  explicit FixedBaseTable(const AffinePoint& base);

  /// k * base (k reduced mod n: the group has prime order n, so
  /// k*P == (k mod n)*P for every on-curve P).
  [[nodiscard]] JacobianPoint mul(const U256& k) const noexcept;

  /// acc + sum_s table[s][d(k, s, j) - 1]: column j of k's comb, the
  /// additions a shared doubling chain makes at step j (after which j
  /// doublings remain).  Any 256-bit k works; mul() and the walks built on
  /// this reduce k mod n first.
  [[nodiscard]] JacobianPoint add_column(JacobianPoint acc, const U256& k,
                                         unsigned j) const noexcept;

  [[nodiscard]] const AffinePoint& base() const noexcept { return base_; }

  /// The process-wide table for G.
  [[nodiscard]] static const FixedBaseTable& generator();

 private:
  AffinePoint base_;
  std::array<std::array<AffinePoint, kBlockEntries>, kBlocks> table_;
};

/// a*G + b*P with a precomputed table for P: both combs walk one shared
/// 7-doubling chain (at most 64 mixed additions total).
[[nodiscard]] JacobianPoint ec_mul_add(const U256& a, const U256& b,
                                       const FixedBaseTable& p_table) noexcept;

/// p == q without normalizing p (two field multiplications instead of the
/// field inversion `to_affine` costs).
[[nodiscard]] bool ec_equals_affine(const JacobianPoint& p,
                                    const AffinePoint& q) noexcept;

/// Point negation (x, -y).
[[nodiscard]] AffinePoint ec_negate(const AffinePoint& p) noexcept;

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
/// common-Z tables for P and psi(P), one ~130-double chain.
[[nodiscard]] JacobianPoint ec_mul_glv(const U256& k,
                                       const AffinePoint& p) noexcept;

/// a*G + b*P with all four half-scalars on one ~130-double chain: the G
/// and psi(G) halves walk static affine tables (width-8 wNAF), the P and
/// psi(P) halves per-call common-Z tables (width-5, every addition mixed).
/// This is the cold-key verification core — no precomputed state for P at
/// all, and no field inversion anywhere on the path.
[[nodiscard]] JacobianPoint ec_mul_add_glv(const U256& a, const U256& b,
                                           const AffinePoint& p) noexcept;

}  // namespace identxx::crypto
