#pragma once

// Constant-time Schnorr signing kernel (DESIGN.md §16).
//
// Everything here is templated on a limb type `L`: production instantiates
// `L = std::uint64_t`, the dynamic checker instantiates `L = ct::TracedLimb`
// (ct.hpp) and runs the *identical* code under taint tracking.  The kernel
// follows three rules, which tools/ct_lint statically enforces and the
// TracedLimb instantiation dynamically re-checks:
//
//   1. no branch or loop bound depends on secret data — all control flow
//      is over public constants (limb counts, window counts, the public
//      exponent p-2);
//   2. no memory access is indexed by secret data — table lookups scan
//      every entry and combine with masks (ct_select);
//   3. no variable-time operator touches secret data — reductions use
//      masked conditional subtraction, never `/` or `%`.
//
// The nonce chain deliberately avoids the wNAF machinery of ec.cpp (digit
// recoding branches on scalar bits) and runs a fixed-window comb over its
// own public 4-bit generator table with *complete* projective addition
// (Renes–Costello–Batina 2016, Algorithm 7 for a = 0): one formula for
// add, double and identity, so zero digits and coincidences need no
// branches at all.  Verification keeps every variable-time fast path —
// its inputs are public (DESIGN.md §16 explains why).
//
// Cost: 64 complete additions (~14 fp mul each) + one Fermat inversion
// (~334 fp mul) — bench_crypto's BM_SchnorrSignCt tracks the ratio to the
// variable-time reference (acceptance bar: <= 3x).

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/ct.hpp"
#include "crypto/ec.hpp"
#include "crypto/hmac.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"

namespace identxx::crypto::ct {

template <class L>
using u256t = std::array<L, 4>;

// ---- lifts ------------------------------------------------------------------

/// Lift one public 64-bit word into L (untainted).
// ct-lint: certified
template <class L>
[[nodiscard]] inline L lift_limb(std::uint64_t x) noexcept {
  return L(x);
}

/// Lift one secret 64-bit word into L (tainted under TracedLimb).
// ct-lint: certified
template <class L>
[[nodiscard]] inline L lift_limb_secret(std::uint64_t x) noexcept {
  if constexpr (std::is_same_v<L, TracedLimb>) {
    return TracedLimb::secret_value(x);
  } else {
    return L(x);
  }
}

// ct-lint: certified
template <class L>
[[nodiscard]] inline u256t<L> lift_public(const U256& x) noexcept {
  return {lift_limb<L>(x.w[0]), lift_limb<L>(x.w[1]), lift_limb<L>(x.w[2]),
          lift_limb<L>(x.w[3])};
}

// ct-lint: certified
template <class L>
[[nodiscard]] inline u256t<L> lift_secret(const U256& x) noexcept {
  return {lift_limb_secret<L>(x.w[0]), lift_limb_secret<L>(x.w[1]),
          lift_limb_secret<L>(x.w[2]), lift_limb_secret<L>(x.w[3])};
}

/// Secret -> public transition for a full word vector: the intentional
/// declassification point (signature components, published R).
// ct-lint: certified
template <class L>
[[nodiscard]] inline U256 declassify_u256(const u256t<L>& x) noexcept {
  return U256{ct_limb_value(x[0]), ct_limb_value(x[1]), ct_limb_value(x[2]),
              ct_limb_value(x[3])};
}

// ct-lint: certified
template <class L>
[[nodiscard]] inline u256t<L> zero4() noexcept {
  return {L(0), L(0), L(0), L(0)};
}

// ---- 256-bit vector primitives ---------------------------------------------

/// out = a + b; returns the carry limb (0/1).
// ct-lint: certified secret(a, b)
template <class L>
inline L ct_add4(const u256t<L>& a, const u256t<L>& b, u256t<L>& out) noexcept {
  L c(0);
  for (std::size_t i = 0; i < 4; ++i) out[i] = ct_adc(a[i], b[i], c);
  return c;
}

/// out = a - b; returns the borrow limb (0/1).
// ct-lint: certified secret(a, b)
template <class L>
inline L ct_sub4(const u256t<L>& a, const u256t<L>& b, u256t<L>& out) noexcept {
  L br(0);
  for (std::size_t i = 0; i < 4; ++i) out[i] = ct_sbb(a[i], b[i], br);
  return br;
}

/// mask ? a : b per limb.
// ct-lint: certified secret(mask, a, b)
template <class L>
[[nodiscard]] inline u256t<L> ct_select4(L mask, const u256t<L>& a,
                                         const u256t<L>& b) noexcept {
  u256t<L> out;
  for (std::size_t i = 0; i < 4; ++i) out[i] = ct_select(mask, a[i], b[i]);
  return out;
}

/// 1 when x != 0, else 0, as a limb.
// ct-lint: certified secret(x)
template <class L>
[[nodiscard]] inline L ct_nonzero4(const u256t<L>& x) noexcept {
  return ct_nonzero_bit(x[0] | x[1] | x[2] | x[3]);
}

/// Full 256x256 -> 512 product, operand-scanning schoolbook.
// ct-lint: certified secret(a, b)
template <class L>
[[nodiscard]] inline std::array<L, 8> ct_mul_wide4(const u256t<L>& a,
                                                   const u256t<L>& b) noexcept {
  std::array<L, 8> r{};
  for (std::size_t i = 0; i < 4; ++i) {
    L carry(0);
    for (std::size_t j = 0; j < 4; ++j) {
      L hi(0);
      const L lo = ct_mul64(a[i], b[j], hi);
      L c1(0);
      r[i + j] = ct_adc(r[i + j], lo, c1);
      L c2(0);
      r[i + j] = ct_adc(r[i + j], carry, c2);
      carry = hi + c1 + c2;  // never wraps: the true column sum fits 128 bits
    }
    r[i + 4] = carry;
  }
  return r;
}

// ---- field arithmetic mod p -------------------------------------------------
//
// Masked analogues of the ec.cpp fold reduction: same math, with every
// data-dependent `if` replaced by a computed mask and a select.

inline constexpr std::uint64_t kCtFoldP = 0x1000003d1ULL;  // 2^256 - p

// ct-lint: certified secret(a, b)
template <class L>
[[nodiscard]] inline u256t<L> fp_add_ct(const u256t<L>& a,
                                        const u256t<L>& b) noexcept {
  const u256t<L> p = lift_public<L>(Secp256k1::p());
  u256t<L> sum;
  const L c = ct_add4(a, b, sum);
  u256t<L> sub;
  const L br = ct_sub4(sum, p, sub);
  // a + b >= p  iff the add carried out or the trial subtraction did not
  // borrow; in both cases `sub` holds the correct reduced value.
  const L ge = ct_mask_from_bit(c | (br ^ L(1)));
  return ct_select4(ge, sub, sum);
}

// ct-lint: certified secret(a, b)
template <class L>
[[nodiscard]] inline u256t<L> fp_sub_ct(const u256t<L>& a,
                                        const u256t<L>& b) noexcept {
  const u256t<L> p = lift_public<L>(Secp256k1::p());
  u256t<L> diff;
  const L br = ct_sub4(a, b, diff);
  u256t<L> fixed;
  ct_add4(diff, p, fixed);
  return ct_select4(ct_mask_from_bit(br), fixed, diff);
}

/// Fold an 8-limb product into [0, p): the fp_from_wide of ec.cpp with the
/// wrap and the final subtraction both masked instead of branched.
// ct-lint: certified secret(r)
template <class L>
[[nodiscard]] inline u256t<L> fp_reduce_wide_ct(const std::array<L, 8>& r) noexcept {
  const L kc(kCtFoldP);
  // Pass 1: t = L + H*kC (five limbs; high words of the per-limb products
  // are < 2^34, so the running high-side accumulator cannot overflow).
  u256t<L> t;
  L t4(0);
  {
    L carry(0);
    L hiprev(0);
    for (std::size_t i = 0; i < 4; ++i) {
      L hi(0);
      const L lo = ct_mul64(r[4 + i], kc, hi);
      L s1(0);
      L u = ct_adc(r[i], lo, s1);
      L s2(0);
      u = ct_adc(u, hiprev + carry, s2);
      t[i] = u;
      carry = s1 + s2;
      hiprev = hi;
    }
    t4 = hiprev + carry;
  }
  // Pass 2: out = t[0..3] + t4*kC, carry out cfin.
  u256t<L> out;
  L cfin(0);
  {
    L hi(0);
    const L lo = ct_mul64(t4, kc, hi);
    L c(0);
    out[0] = ct_adc(t[0], lo, c);
    out[1] = ct_adc(t[1], hi, c);
    out[2] = ct_adc(t[2], L(0), c);
    out[3] = ct_adc(t[3], L(0), c);
    cfin = c;
  }
  // Wrapped past 2^256 (cfin): the wrapped value is tiny; adding kC once
  // finishes (same argument as ec.cpp).  Otherwise subtract p at most once.
  u256t<L> wrapped;
  {
    const u256t<L> kc4{kc, L(0), L(0), L(0)};
    ct_add4(out, kc4, wrapped);
  }
  const u256t<L> p = lift_public<L>(Secp256k1::p());
  u256t<L> sub;
  const L br = ct_sub4(out, p, sub);
  const u256t<L> reduced = ct_select4(ct_mask_from_bit(br ^ L(1)), sub, out);
  return ct_select4(ct_mask_from_bit(cfin), wrapped, reduced);
}

// Fused overloads for the production limb.  Same data flow as the
// generic templates above — straight-line multiplies and adds, carries
// chained through a 128-bit accumulator, masks for the conditional
// steps — but without the per-limb carry bookkeeping the tracer's
// TracedLimb instantiation executes.  Overload resolution prefers these
// exact matches when L = uint64_t, so production signing gets vartime
// fp_mul's instruction count while staying branch-free.
// ct-lint: certified secret(a, b)
[[nodiscard]] inline std::array<std::uint64_t, 8> ct_mul_wide4(
    const u256t<std::uint64_t>& a, const u256t<std::uint64_t>& b) noexcept {
  std::array<std::uint64_t, 8> r{};
  for (std::size_t i = 0; i < 4; ++i) {
    ct_u128 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      // product + limb + carry < 2^128: no overflow.
      const ct_u128 uv =
          static_cast<ct_u128>(a[i]) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<std::uint64_t>(uv);
      carry = uv >> 64;
    }
    r[i + 4] = static_cast<std::uint64_t>(carry);
  }
  return r;
}

// ct-lint: certified secret(r)
[[nodiscard]] inline u256t<std::uint64_t> fp_reduce_wide_ct(
    const std::array<std::uint64_t, 8>& r) noexcept {
  constexpr std::uint64_t kc = kCtFoldP;
  // Pass 1: t = L + H*kC (five limbs).
  ct_u128 c = static_cast<ct_u128>(r[4]) * kc + r[0];
  const std::uint64_t t0 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<ct_u128>(r[5]) * kc + r[1];
  const std::uint64_t t1 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<ct_u128>(r[6]) * kc + r[2];
  const std::uint64_t t2 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<ct_u128>(r[7]) * kc + r[3];
  const std::uint64_t t3 = static_cast<std::uint64_t>(c);
  const std::uint64_t t4 = static_cast<std::uint64_t>(c >> 64);
  // Pass 2: out = t[0..3] + t4*kC.
  u256t<std::uint64_t> out;
  c = static_cast<ct_u128>(t4) * kc + t0;
  out[0] = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += t1;
  out[1] = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += t2;
  out[2] = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += t3;
  out[3] = static_cast<std::uint64_t>(c);
  const std::uint64_t cfin = static_cast<std::uint64_t>(c >> 64);
  // Masked wrap and masked conditional subtraction (ec.cpp branches here).
  u256t<std::uint64_t> wrapped;
  {
    const u256t<std::uint64_t> kc4{kc, 0, 0, 0};
    ct_add4(out, kc4, wrapped);
  }
  const u256t<std::uint64_t> p = lift_public<std::uint64_t>(Secp256k1::p());
  u256t<std::uint64_t> sub;
  const std::uint64_t br = ct_sub4(out, p, sub);
  const u256t<std::uint64_t> reduced =
      ct_select4(ct_mask_from_bit(br ^ std::uint64_t{1}), sub, out);
  return ct_select4(ct_mask_from_bit(cfin), wrapped, reduced);
}

// ct-lint: certified secret(a, b)
template <class L>
[[nodiscard]] inline u256t<L> fp_mul_ct(const u256t<L>& a,
                                        const u256t<L>& b) noexcept {
  return fp_reduce_wide_ct(ct_mul_wide4(a, b));
}

/// a^(p-2) by 4-bit fixed windows.  The exponent is a public constant, so
/// indexing the small power table by its windows is public-data flow; the
/// *base* (secret) only ever feeds fp_mul_ct.
// ct-lint: certified secret(a)
template <class L>
[[nodiscard]] inline u256t<L> fp_inv_ct(const u256t<L>& a) noexcept {
  static const U256 kExp = U256::sub(Secp256k1::p(), U256{2}).first;
  std::array<u256t<L>, 16> tab;
  tab[0] = lift_public<L>(U256{1});
  tab[1] = a;
  for (std::size_t j = 2; j < 16; ++j) tab[j] = fp_mul_ct(tab[j - 1], a);
  u256t<L> r = tab[0];
  for (int i = 63; i >= 0; --i) {
    for (int s = 0; s < 4; ++s) r = fp_mul_ct(r, r);
    const unsigned w = static_cast<unsigned>(
                           kExp.w[static_cast<std::size_t>(i) / 16] >>
                           ((static_cast<std::size_t>(i) % 16) * 4)) &
                       0xfu;
    r = fp_mul_ct(r, tab[w]);  // w is public (exponent window)
  }
  return r;
}

// ---- scalar arithmetic mod n ------------------------------------------------

/// Reduce a value < 2^256 into [0, n): one masked conditional subtraction
/// (2^256 < 2n) — the constant-time analogue of sn_reduce(U256).
// ct-lint: certified secret(x)
template <class L>
[[nodiscard]] inline u256t<L> sn_reduce_ct(const u256t<L>& x) noexcept {
  const u256t<L> n = lift_public<L>(Secp256k1::n());
  u256t<L> sub;
  const L br = ct_sub4(x, n, sub);
  return ct_select4(ct_mask_from_bit(br ^ L(1)), sub, x);
}

// ct-lint: certified secret(a, b)
template <class L>
[[nodiscard]] inline u256t<L> sn_add_ct(const u256t<L>& a,
                                        const u256t<L>& b) noexcept {
  const u256t<L> n = lift_public<L>(Secp256k1::n());
  u256t<L> sum;
  const L c = ct_add4(a, b, sum);
  u256t<L> sub;
  const L br = ct_sub4(sum, n, sub);
  const L ge = ct_mask_from_bit(c | (br ^ L(1)));
  return ct_select4(ge, sub, sum);
}

/// One fold step L + H * (2^256 - n) over an 8-limb accumulator.  The fold
/// constant is 129 bits (three limbs); four fixed folds bring any 512-bit
/// value under 2^256 (the while-loop of ec.cpp's sn_reduce, unrolled to
/// its worst case so iteration count is data-independent).
// ct-lint: certified secret(x)
template <class L>
[[nodiscard]] inline std::array<L, 8> sn_fold_ct(const std::array<L, 8>& x) noexcept {
  // kNC = 2^256 - n, little-endian limbs.
  static const U256 kNc = U256::sub(U256{}, Secp256k1::n()).first;
  const std::array<L, 3> nc{L(kNc.w[0]), L(kNc.w[1]), L(kNc.w[2])};
  // prod = H * kNC (4x3 schoolbook, up to 7 limbs).
  std::array<L, 8> prod{};
  for (std::size_t i = 0; i < 4; ++i) {
    L carry(0);
    for (std::size_t j = 0; j < 3; ++j) {
      L hi(0);
      const L lo = ct_mul64(x[4 + i], nc[j], hi);
      L c1(0);
      prod[i + j] = ct_adc(prod[i + j], lo, c1);
      L c2(0);
      prod[i + j] = ct_adc(prod[i + j], carry, c2);
      carry = hi + c1 + c2;
    }
    prod[i + 3] = prod[i + 3] + carry;  // fresh slot: no carry out of it
  }
  // out = L + prod.
  std::array<L, 8> out{};
  L c(0);
  for (std::size_t i = 0; i < 4; ++i) out[i] = ct_adc(x[i], prod[i], c);
  for (std::size_t i = 4; i < 8; ++i) out[i] = ct_adc(L(0), prod[i], c);
  return out;
}

/// Reduce a full 512-bit value mod n with a fixed number of folds and
/// masked conditional subtractions.
// ct-lint: certified secret(x)
template <class L>
[[nodiscard]] inline u256t<L> sn_reduce_wide_ct(const std::array<L, 8>& x) noexcept {
  std::array<L, 8> t = x;
  for (int fold = 0; fold < 4; ++fold) t = sn_fold_ct(t);
  u256t<L> r{t[0], t[1], t[2], t[3]};
  r = sn_reduce_ct(r);
  return sn_reduce_ct(r);
}

// ct-lint: certified secret(a, b)
template <class L>
[[nodiscard]] inline u256t<L> sn_mul_ct(const u256t<L>& a,
                                        const u256t<L>& b) noexcept {
  return sn_reduce_wide_ct(ct_mul_wide4(a, b));
}

// ---- points -----------------------------------------------------------------

/// Homogeneous projective point (X/Z, Y/Z); (0 : 1 : 0) is the identity.
/// Chosen over Jacobian because complete addition formulas exist here.
template <class L>
struct CtPoint {
  u256t<L> x;
  u256t<L> y;
  u256t<L> z;

  // ct-lint: certified
  [[nodiscard]] static CtPoint identity() noexcept {
    return CtPoint{zero4<L>(), lift_public<L>(U256{1}), zero4<L>()};
  }
};

/// Complete projective addition for y^2 = x^3 + b with a = 0
/// (Renes–Costello–Batina 2016, Algorithm 7; b3 = 3b = 21).  One formula
/// covers P+Q, P+P, P+(-P), and identity operands — no exceptional-case
/// branches, which is what makes the secret-digit comb walk sound.
// ct-lint: certified secret(p, q)
template <class L>
[[nodiscard]] inline CtPoint<L> ct_add_complete(const CtPoint<L>& p,
                                                const CtPoint<L>& q) noexcept {
  const u256t<L> b3 = lift_public<L>(U256{21});
  u256t<L> t0 = fp_mul_ct(p.x, q.x);
  u256t<L> t1 = fp_mul_ct(p.y, q.y);
  u256t<L> t2 = fp_mul_ct(p.z, q.z);
  u256t<L> t3 = fp_add_ct(p.x, p.y);
  u256t<L> t4 = fp_add_ct(q.x, q.y);
  t3 = fp_mul_ct(t3, t4);
  t4 = fp_add_ct(t0, t1);
  t3 = fp_sub_ct(t3, t4);  // X1Y2 + X2Y1
  t4 = fp_add_ct(p.y, p.z);
  u256t<L> x3 = fp_add_ct(q.y, q.z);
  t4 = fp_mul_ct(t4, x3);
  x3 = fp_add_ct(t1, t2);
  t4 = fp_sub_ct(t4, x3);  // Y1Z2 + Y2Z1
  x3 = fp_add_ct(p.x, p.z);
  u256t<L> y3 = fp_add_ct(q.x, q.z);
  x3 = fp_mul_ct(x3, y3);
  y3 = fp_add_ct(t0, t2);
  y3 = fp_sub_ct(x3, y3);  // X1Z2 + X2Z1
  x3 = fp_add_ct(t0, t0);
  t0 = fp_add_ct(x3, t0);  // 3 X1X2
  t2 = fp_mul_ct(b3, t2);  // b3 Z1Z2
  u256t<L> z3 = fp_add_ct(t1, t2);
  t1 = fp_sub_ct(t1, t2);
  y3 = fp_mul_ct(b3, y3);
  x3 = fp_mul_ct(t4, y3);
  t2 = fp_mul_ct(t3, t1);
  x3 = fp_sub_ct(t2, x3);
  y3 = fp_mul_ct(y3, t0);
  t1 = fp_mul_ct(t1, z3);
  y3 = fp_add_ct(t1, y3);
  t0 = fp_mul_ct(t0, t3);
  z3 = fp_mul_ct(z3, t4);
  z3 = fp_add_ct(z3, t0);
  return CtPoint<L>{x3, y3, z3};
}

/// The constant-time comb's own public generator table: entry(i, j-1) =
/// j * 16^i * G in affine coordinates (64 windows x 15 entries, ~69 KB),
/// built once per process.  The comb scans every entry of a window, so it
/// keeps this narrow 4-bit layout: a scan over one 255-entry block of
/// verification's Lim–Lee FixedBaseTable (ec.hpp) would cost 17x more.
class GeneratorCombTable {
 public:
  static constexpr unsigned kWindowBits = 4;
  static constexpr unsigned kWindows = 256 / kWindowBits;
  static constexpr unsigned kEntries = (1u << kWindowBits) - 1;

  /// Raw table entry (idx+1) * 16^window * G.  The comb only ever asks
  /// with public loop indices and mask-selects among the results.
  [[nodiscard]] const AffinePoint& entry(unsigned window,
                                         unsigned idx) const noexcept {
    return table_[window][idx];
  }

  [[nodiscard]] static const GeneratorCombTable& instance() {
    static const GeneratorCombTable table;
    return table;
  }

 private:
  GeneratorCombTable() {
    // Row i holds {1, 2, ..., 15} * (16^i * G) in Jacobian form; one
    // batch normalization turns all 960 points affine with a single
    // inversion.
    std::vector<JacobianPoint> jac(kWindows * kEntries);
    JacobianPoint window_base =
        JacobianPoint::from_affine(AffinePoint::generator());
    for (unsigned i = 0; i < kWindows; ++i) {
      JacobianPoint cur = window_base;
      for (unsigned j = 0; j < kEntries; ++j) {
        jac[i * kEntries + j] = cur;
        cur = ec_add(cur, window_base);
      }
      window_base = cur;  // 16^(i+1) * G
    }
    std::vector<AffinePoint> affine(jac.size());
    batch_normalize(jac.data(), affine.data(), jac.size());
    for (unsigned i = 0; i < kWindows; ++i) {
      std::copy_n(&affine[i * kEntries], kEntries, table_[i].begin());
    }
  }

  std::array<std::array<AffinePoint, kEntries>, kWindows> table_;
};

/// k * G by a fixed-window comb over GeneratorCombTable: 64 windows of 4
/// bits, each selected by scanning ALL 15 entries with ct_eq_mask (no
/// secret-indexed load), a zero digit selecting the identity, every
/// window folded in with complete addition.  Exactly 64 point additions
/// and zero doublings for every scalar — the shape of the computation
/// carries no information about k.
// ct-lint: certified secret(k)
template <class L>
[[nodiscard]] inline CtPoint<L> ec_mul_base_comb_ct(const u256t<L>& k) noexcept {
  using Table = GeneratorCombTable;
  const Table& table = Table::instance();
  CtPoint<L> acc = CtPoint<L>::identity();
  for (unsigned i = 0; i < Table::kWindows; ++i) {
    const L digit = (k[i / 16] >> ((i % 16) * Table::kWindowBits)) & L(0xf);
    u256t<L> sx = zero4<L>();
    u256t<L> sy = zero4<L>();
    for (unsigned j = 1; j <= Table::kEntries; ++j) {
      const AffinePoint& e = table.entry(i, j - 1);
      const L m = ct_eq_mask(digit, L(static_cast<std::uint64_t>(j)));
      for (std::size_t w = 0; w < 4; ++w) {
        sx[w] = sx[w] | (m & L(e.x.w[w]));
        sy[w] = sy[w] | (m & L(e.y.w[w]));
      }
    }
    const L nz = ct_mask_from_bit(ct_nonzero_bit(digit));
    CtPoint<L> q;
    q.x = sx;  // already all-zero when the digit is 0
    q.y = sy;
    q.y[0] = q.y[0] | (~nz & L(1));  // identity is (0 : 1 : 0)
    q.z = zero4<L>();
    q.z[0] = nz & L(1);
    acc = ct_add_complete(acc, q);
  }
  return acc;
}

/// Projective -> affine with a constant-time Fermat inversion.  The caller
/// guarantees z != 0 (k in [1, n-1] implies k*G is not the identity).
// ct-lint: certified secret(p)
template <class L>
inline void ct_normalize(const CtPoint<L>& p, u256t<L>& ax, u256t<L>& ay) noexcept {
  const u256t<L> zi = fp_inv_ct(p.z);
  ax = fp_mul_ct(p.x, zi);
  ay = fp_mul_ct(p.y, zi);
}

/// Digest -> scalar mod n without the branchy conditional subtraction of
/// sn_reduce: used at keygen, where the digest IS the secret key
/// candidate.  The result stays secret — the caller moves it straight
/// into ct::secret storage.
// ct-lint: certified secret(digest)
[[nodiscard]] inline U256 digest_to_scalar_ct(const Digest& digest) noexcept {
  U256 x = U256::from_bytes(
      std::span<const std::uint8_t, 32>(digest.data(), digest.size()));
  u256t<std::uint64_t> xt = sn_reduce_ct(lift_secret<std::uint64_t>(x));
  const U256 out{xt[0], xt[1], xt[2], xt[3]};
  secure_wipe(xt);
  secure_wipe(x);
  return out;
}

// ---- the sign path ----------------------------------------------------------

/// k * G as a public affine point, via the constant-time comb.  Used for
/// public-key derivation at keygen, where k is the private scalar.
// ct-lint: certified secret(k) public-return
template <class L>
[[nodiscard]] inline AffinePoint ec_mul_base_ct(const U256& k) noexcept {
  u256t<L> kt = sn_reduce_ct(lift_secret<L>(k));
  CtPoint<L> p = ec_mul_base_comb_ct(kt);
  u256t<L> ax;
  u256t<L> ay;
  ct_normalize(p, ax, ay);
  // The result is the public key / nonce point — public by definition.
  const AffinePoint out{declassify_u256(ax), declassify_u256(ay), false};
  secure_wipe(kt);
  secure_wipe(p);
  secure_wipe(ax);
  secure_wipe(ay);
  return out;
}

/// Deterministic Schnorr signing on certified primitives only:
///   k = HMAC(d, H(m || ctr)) mod n   (retry on the ~2^-256 zero case),
///   R = k*G  (fixed-window comb, complete additions, ct inversion),
///   e = H(Rx || Ry || Px || Py || m) mod n   (public data),
///   s = k + e*d mod n                (masked reductions).
/// Bit-identical to the variable-time reference (sign_reference): every
/// step computes the same canonical values, only the *how* changes.
// ct-lint: certified secret(d) public-return
template <class L>
[[nodiscard]] inline Signature schnorr_sign_ct(
    const U256& d, const AffinePoint& pub,
    std::span<const std::uint8_t> message) {
  auto d_bytes = d.to_bytes();
  u256t<L> dt = lift_secret<L>(d);
  for (std::uint8_t counter = 0;; ++counter) {
    Sha256 msg_hash;
    msg_hash.update(message);
    msg_hash.update(std::span(&counter, 1));
    const Digest msg_digest = msg_hash.finish();
    Digest k_digest = hmac_sha256(
        std::span<const std::uint8_t>(d_bytes.data(), d_bytes.size()),
        std::span<const std::uint8_t>(msg_digest.data(), msg_digest.size()));
    U256 k_raw = U256::from_bytes(
        std::span<const std::uint8_t, 32>(k_digest.data(), k_digest.size()));
    secure_wipe(k_digest);
    u256t<L> kt = sn_reduce_ct(lift_secret<L>(k_raw));
    secure_wipe(k_raw);
    // Whether k == 0 is publicly observable (the retry changes the
    // counter) and happens with probability ~2^-256; declassifying the
    // single is-zero bit is the standard RFC 6979 shape.
    const std::uint64_t k_nonzero =
        declassify(ct_limb_value(ct_nonzero4(kt)));
    if (k_nonzero == 0) {
      secure_wipe(kt);
      continue;
    }
    CtPoint<L> rp = ec_mul_base_comb_ct(kt);
    u256t<L> rx;
    u256t<L> ry;
    ct_normalize(rp, rx, ry);
    // R is the published half of the signature: declassify it and hash
    // the public challenge with the plain (audited) SHA-256.
    const AffinePoint r{declassify_u256(rx), declassify_u256(ry), false};
    const U256 e = schnorr_challenge(r, pub, message);
    u256t<L> st = sn_add_ct(kt, sn_mul_ct(lift_public<L>(e), dt));
    const U256 s = declassify_u256(st);
    secure_wipe(kt);
    secure_wipe(st);
    secure_wipe(rp);
    secure_wipe(rx);
    secure_wipe(ry);
    secure_wipe(dt);
    secure_wipe(d_bytes);
    return Signature{r, s};
  }
}

}  // namespace identxx::crypto::ct
