#include "crypto/ec.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <utility>
#include <vector>

namespace identxx::crypto {

namespace {

__extension__ typedef unsigned __int128 u128;

// p = 2^256 - kC where kC = 2^32 + 977 = 0x1000003d1.
constexpr std::uint64_t kC = 0x1000003d1ULL;

const U256 kP{0xfffffffefffffc2fULL, 0xffffffffffffffffULL,
              0xffffffffffffffffULL, 0xffffffffffffffffULL};
const U256 kN{0xbfd25e8cd0364141ULL, 0xbaaedce6af48a03bULL,
              0xfffffffffffffffeULL, 0xffffffffffffffffULL};
const U256 kGx{0x59f2815b16f81798ULL, 0x029bfcdb2dce28d9ULL,
               0x55a06295ce870b07ULL, 0x79be667ef9dcbbacULL};
const U256 kGy{0x9c47d08ffb10d4b8ULL, 0xfd17b448a6855419ULL,
               0x5da4fbfc0e1108a8ULL, 0x483ada7726a3c465ULL};

// n = 2^256 - kNC where kNC = 0x14551231950b75fc4402da1732fc9bebf
// (129 bits, three limbs little-endian).
constexpr std::array<std::uint64_t, 3> kNC{0x402da1732fc9bebfULL,
                                           0x4551231950b75fc4ULL, 1ULL};

// The field layer below is fully unrolled: operand-scanning 4x4 products,
// two kC folds and one conditional subtraction, with no loops, arrays
// indexed by variables, or U512 round-trips.  The loop-and-carry generic
// path (U256::mul_wide + mod) survives in u256.cpp as the differential
// oracle; the tests sweep these against it.  The unroll roughly halves
// fp_mul latency, which multiplies through every point operation on the
// verification hot path.

/// Fold an 8-limb product into [0, p): lo + hi*kC, fold the spill limb,
/// and subtract p at most once.
U256 fp_from_wide(const std::uint64_t r0, const std::uint64_t r1,
                  const std::uint64_t r2, const std::uint64_t r3,
                  const std::uint64_t r4, const std::uint64_t r5,
                  const std::uint64_t r6, const std::uint64_t r7) noexcept {
  // Pass 1: t = L + H*kC (< 2^256 + 2^97, five limbs).
  std::uint64_t t0;
  std::uint64_t t1;
  std::uint64_t t2;
  std::uint64_t t3;
  std::uint64_t t4;
  {
    u128 c = static_cast<u128>(r4) * kC + r0;
    t0 = static_cast<std::uint64_t>(c);
    c >>= 64;
    c += static_cast<u128>(r5) * kC + r1;
    t1 = static_cast<std::uint64_t>(c);
    c >>= 64;
    c += static_cast<u128>(r6) * kC + r2;
    t2 = static_cast<std::uint64_t>(c);
    c >>= 64;
    c += static_cast<u128>(r7) * kC + r3;
    t3 = static_cast<std::uint64_t>(c);
    t4 = static_cast<std::uint64_t>(c >> 64);
  }
  // Pass 2: fold the spill limb (t4 <= kC): t4*kC is 66 bits.
  U256 out;
  u128 c = static_cast<u128>(t4) * kC + t0;
  out.w[0] = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += t1;
  out.w[1] = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += t2;
  out.w[2] = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += t3;
  out.w[3] = static_cast<std::uint64_t>(c);
  if (static_cast<std::uint64_t>(c >> 64) != 0) {
    // Wrapped past 2^256 (possible only for t within 2^66 of it): the
    // wrapped value is tiny, so adding kC once finishes the reduction.
    u128 c2 = static_cast<u128>(out.w[0]) + kC;
    out.w[0] = static_cast<std::uint64_t>(c2);
    c2 >>= 64;
    c2 += out.w[1];
    out.w[1] = static_cast<std::uint64_t>(c2);
    c2 >>= 64;
    c2 += out.w[2];
    out.w[2] = static_cast<std::uint64_t>(c2);
    c2 >>= 64;
    out.w[3] = static_cast<std::uint64_t>(c2 + out.w[3]);
    return out;
  }
  bool ge;
  if (out.w[3] != kP.w[3]) {
    ge = out.w[3] > kP.w[3];
  } else if (out.w[2] != kP.w[2]) {
    ge = out.w[2] > kP.w[2];
  } else if (out.w[1] != kP.w[1]) {
    ge = out.w[1] > kP.w[1];
  } else {
    ge = out.w[0] >= kP.w[0];
  }
  if (ge) {
    u128 br = static_cast<u128>(out.w[0]) - kP.w[0];
    out.w[0] = static_cast<std::uint64_t>(br);
    br = (br >> 64) & 1;
    br = static_cast<u128>(out.w[1]) - kP.w[1] - static_cast<std::uint64_t>(br);
    out.w[1] = static_cast<std::uint64_t>(br);
    br = (br >> 64) & 1;
    br = static_cast<u128>(out.w[2]) - kP.w[2] - static_cast<std::uint64_t>(br);
    out.w[2] = static_cast<std::uint64_t>(br);
    br = (br >> 64) & 1;
    out.w[3] = static_cast<std::uint64_t>(
        static_cast<u128>(out.w[3]) - kP.w[3] - static_cast<std::uint64_t>(br));
  }
  return out;
}

/// Width-w wNAF digit string, least-significant first: digits are zero or
/// odd in (-2^(w-1), 2^(w-1)), and any two nonzero digits are at least w
/// apart.  `k` must be < n (so the in-place adjustments cannot overflow
/// 256 bits).  Returns the digit count (<= 258).
unsigned wnaf(U256 k, unsigned width, std::array<std::int8_t, 258>& digits) noexcept {
  const std::uint64_t mask = (1ULL << width) - 1;
  const std::uint64_t half = 1ULL << (width - 1);
  unsigned len = 0;
  while (!k.is_zero()) {
    std::int8_t d = 0;
    if (k.bit(0)) {
      const std::uint64_t low = k.w[0] & mask;
      if (low >= half) {
        d = static_cast<std::int8_t>(static_cast<int>(low) -
                                     static_cast<int>(mask + 1));
        k = U256::add(k, U256{mask + 1 - low}).first;
      } else {
        d = static_cast<std::int8_t>(low);
        k = U256::sub(k, U256{low}).first;
      }
    }
    digits[len++] = d;
    k = k.shr1();
  }
  return len;
}

/// Flip the sign of every digit: turns the wNAF of |k| into that of -|k|.
void negate_digits(std::array<std::int8_t, 258>& digits, unsigned len) noexcept {
  for (unsigned i = 0; i < len; ++i) {
    digits[i] = static_cast<std::int8_t>(-digits[i]);
  }
}

/// add-2007-bl, additionally reporting the Z-ratio: Z3 == Z1 * zr.  Used
/// to build common-Z tables without inversions.  Preconditions: neither
/// operand is the identity and p != +-q (guaranteed when chaining odd
/// multiples of a point with prime order).
JacobianPoint ec_add_zr(const JacobianPoint& p, const JacobianPoint& q,
                        U256& zr) noexcept {
  const U256 z1z1 = fp_sqr(p.z);
  const U256 z2z2 = fp_sqr(q.z);
  const U256 u1 = fp_mul(p.x, z2z2);
  const U256 u2 = fp_mul(q.x, z1z1);
  const U256 s1 = fp_mul(fp_mul(p.y, q.z), z2z2);
  const U256 s2 = fp_mul(fp_mul(q.y, p.z), z1z1);
  const U256 h = fp_sub(u2, u1);
  U256 i = fp_add(h, h);
  i = fp_sqr(i);
  const U256 j = fp_mul(h, i);
  U256 r = fp_sub(s2, s1);
  r = fp_add(r, r);
  const U256 v = fp_mul(u1, i);
  const U256 x3 = fp_sub(fp_sub(fp_sqr(r), j), fp_add(v, v));
  U256 s1j = fp_mul(s1, j);
  s1j = fp_add(s1j, s1j);
  const U256 y3 = fp_sub(fp_mul(r, fp_sub(v, x3)), s1j);
  // Z3 = 2*Z1*Z2*H, so the ratio Z3/Z1 is 2*Z2*H.
  zr = fp_mul(fp_add(q.z, q.z), h);
  return JacobianPoint{x3, y3, fp_mul(p.z, zr)};
}

/// Odd multiples {1P, 3P, ..., 15P} expressed over ONE common denominator
/// `z_common`, with no field inversion: entry i holds (X_i, Y_i) such that
/// the true point is (X_i / z_common^2, Y_i / z_common^3).  The entries
/// behave exactly like affine points under the a = 0 group law (the
/// formulas never reference the curve constant b): the walk effectively
/// runs on the isomorphic curve where z_common is 1, and the caller maps
/// the result back by multiplying its Z by z_common.  This is what turns
/// every variable-base addition in the GLV walk into a *mixed* addition.
/// Precondition: p is on the curve and not the identity.
std::array<AffinePoint, 8> odd_multiples_common_z(const AffinePoint& p,
                                                  U256& z_common) noexcept {
  std::array<JacobianPoint, 8> jac;
  std::array<U256, 8> zr;  // jac[i].z == jac[i-1].z * zr[i]
  jac[0] = JacobianPoint::from_affine(p);
  const JacobianPoint p2 = ec_double(jac[0]);
  for (std::size_t i = 1; i < jac.size(); ++i) {
    jac[i] = ec_add_zr(jac[i - 1], p2, zr[i]);
  }
  z_common = jac[7].z;
  std::array<AffinePoint, 8> out;
  out[7] = AffinePoint{jac[7].x, jac[7].y, false};
  U256 s{1};  // z_common / jac[i].z, accumulated walking backwards
  for (int i = 6; i >= 0; --i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    s = fp_mul(s, zr[idx + 1]);
    const U256 s2 = fp_sqr(s);
    out[idx] = AffinePoint{fp_mul(jac[idx].x, s2),
                           fp_mul(jac[idx].y, fp_mul(s2, s)), false};
  }
  return out;
}

// ---- GLV internals ----

/// GLV constants: beta, lambda and the lattice basis (a1, b1), (a2, b2)
/// with b2 == a1 and a2 == a1 - b1 are the published secp256k1 values; the
/// rounding constants g1 = round(2^384*b2/n), g2 = round(2^384*(-b1)/n)
/// are DERIVED here by exact division, so a transcription error in them is
/// impossible (errors in the basis itself fail the differential sweeps).
struct GlvConsts {
  U256 lambda;    ///< cube root of 1 mod n
  U256 beta;      ///< cube root of 1 mod p
  U256 a1;        ///< == b2
  U256 minus_b1;  ///< -b1 (b1 is negative in the reduced basis)
  U256 a2;        ///< == a1 + (-b1)
  U256 g1;
  U256 g2;
  U256 half_n;
};

const GlvConsts& glv_consts() {
  static const GlvConsts consts = [] {
    GlvConsts c;
    c.lambda = U256{0xdf02967c1b23bd72ULL, 0x122e22ea20816678ULL,
                    0xa5261c028812645aULL, 0x5363ad4cc05c30e0ULL};
    c.beta = U256{0xc1396c28719501eeULL, 0x9cf0497512f58995ULL,
                  0x6e64479eac3434e9ULL, 0x7ae96a2b657c0710ULL};
    c.a1 = U256{0xe86c90e49284eb15ULL, 0x3086d221a7d46bcdULL, 0, 0};
    c.minus_b1 = U256{0x6f547fa90abfe4c3ULL, 0xe4437ed6010e8828ULL, 0, 0};
    c.a2 = U256::add(c.a1, c.minus_b1).first;
    U512 num{};  // b2 << 384
    num.w[6] = c.a1.w[0];
    num.w[7] = c.a1.w[1];
    c.g1 = div_round(num, kN);
    num = U512{};  // (-b1) << 384
    num.w[6] = c.minus_b1.w[0];
    num.w[7] = c.minus_b1.w[1];
    c.g2 = div_round(num, kN);
    c.half_n = kN.shr1();
    return c;
  }();
  return consts;
}

/// round(a * b / 2^384): the only multi-precision step of the split.
U256 mul_shift_384(const U256& a, const U256& b) noexcept {
  const U512 prod = U256::mul_wide(a, b);
  U256 q{prod.w[6], prod.w[7], 0, 0};
  if (prod.w[5] >> 63) q = U256::add(q, U256{1}).first;
  return q;
}

/// psi applied entry-wise to a (common-Z) affine table: x -> beta*x.
std::array<AffinePoint, 8> endo_table_affine(
    const std::array<AffinePoint, 8>& tab) noexcept {
  const U256& beta = glv_consts().beta;
  std::array<AffinePoint, 8> out;
  for (std::size_t i = 0; i < tab.size(); ++i) {
    out[i] = tab[i].infinity
                 ? tab[i]
                 : AffinePoint{fp_mul(tab[i].x, beta), tab[i].y, false};
  }
  return out;
}

/// Static width-8 tables {1, 3, ..., 127} * G and psi of each: the G-side
/// streams of every GLV verification walk these (64 + 64 affine points,
/// ~8 KB, built once per process).  Width 8 is the int8_t digit ceiling.
constexpr unsigned kGlvGenWidth = 8;
constexpr unsigned kGlvGenEntries = 1u << (kGlvGenWidth - 2);

struct GlvGenTables {
  std::array<AffinePoint, kGlvGenEntries> g;
  std::array<AffinePoint, kGlvGenEntries> psi;
};

const GlvGenTables& glv_generator_tables() {
  static const GlvGenTables tabs = [] {
    std::vector<JacobianPoint> jac(kGlvGenEntries);
    jac[0] = JacobianPoint::from_affine(AffinePoint::generator());
    const JacobianPoint g2 = ec_double(jac[0]);
    for (std::size_t i = 1; i < jac.size(); ++i) {
      jac[i] = ec_add(jac[i - 1], g2);
    }
    GlvGenTables t;
    batch_normalize(jac.data(), t.g.data(), jac.size());
    for (std::size_t i = 0; i < t.g.size(); ++i) {
      t.psi[i] = ec_endomorphism(t.g[i]);
    }
    return t;
  }();
  return tabs;
}

/// One signed-wNAF digit stream over a table of affine odd multiples
/// (every addition mixed).
struct DigitStream {
  const AffinePoint* tab;
  const std::array<std::int8_t, 258>* d;
  unsigned len;
  /// When set, entries are lifted onto the iso-curve of a common-Z table
  /// sharing the walk: (x, y) -> (x * lift_z2, y * lift_z3) where the
  /// lifts are z_common^2 and z_common^3.  Two extra multiplications per
  /// addition — far cheaper than full Jacobian adds for the other streams.
  const U256* lift_z2 = nullptr;
  const U256* lift_z3 = nullptr;
};

/// A comb-table term k * table.base(), k reduced mod n.
using CombTerm = std::pair<const FixedBaseTable*, U256>;

/// The shared Strauss walk: ONE doubling chain as long as the longest
/// stream, every stream contributing its digit additions along the way.
/// Comb terms add their column-j digits at step j, so any comb term
/// stretches the chain to at least kColumns steps.
JacobianPoint strauss_walk(const DigitStream* as, std::size_t na,
                           const CombTerm* cs = nullptr,
                           std::size_t nc = 0) noexcept {
  unsigned len = nc != 0 ? FixedBaseTable::kColumns : 0;
  for (std::size_t s = 0; s < na; ++s) len = std::max(len, as[s].len);
  JacobianPoint acc = JacobianPoint::identity();
  for (int i = static_cast<int>(len) - 1; i >= 0; --i) {
    acc = ec_double(acc);
    const std::size_t idx = static_cast<std::size_t>(i);
    for (std::size_t s = 0; s < na; ++s) {
      if (idx >= as[s].len) continue;
      const int d = (*as[s].d)[idx];
      if (d == 0) continue;
      AffinePoint e = as[s].tab[static_cast<std::size_t>((std::abs(d) - 1) / 2)];
      if (as[s].lift_z2 != nullptr) {
        e = AffinePoint{fp_mul(e.x, *as[s].lift_z2),
                        fp_mul(e.y, *as[s].lift_z3), false};
      }
      acc = ec_add_mixed(acc, d > 0 ? e : ec_negate(e));
    }
    if (idx < FixedBaseTable::kColumns) {
      for (std::size_t c = 0; c < nc; ++c) {
        acc = cs[c].first->add_column(acc, cs[c].second,
                                      static_cast<unsigned>(idx));
      }
    }
  }
  return acc;
}

}  // namespace

const U256& Secp256k1::p() noexcept { return kP; }
const U256& Secp256k1::n() noexcept { return kN; }
const U256& Secp256k1::gx() noexcept { return kGx; }
const U256& Secp256k1::gy() noexcept { return kGy; }

U256 fp_add(const U256& a, const U256& b) noexcept {
  U256 out;
  u128 c = static_cast<u128>(a.w[0]) + b.w[0];
  out.w[0] = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(a.w[1]) + b.w[1];
  out.w[1] = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(a.w[2]) + b.w[2];
  out.w[2] = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(a.w[3]) + b.w[3];
  out.w[3] = static_cast<std::uint64_t>(c);
  bool ge = static_cast<std::uint64_t>(c >> 64) != 0;
  if (!ge) {
    if (out.w[3] != kP.w[3]) {
      ge = out.w[3] > kP.w[3];
    } else if (out.w[2] != kP.w[2]) {
      ge = out.w[2] > kP.w[2];
    } else if (out.w[1] != kP.w[1]) {
      ge = out.w[1] > kP.w[1];
    } else {
      ge = out.w[0] >= kP.w[0];
    }
  }
  if (ge) {
    u128 br = static_cast<u128>(out.w[0]) - kP.w[0];
    out.w[0] = static_cast<std::uint64_t>(br);
    br = (br >> 64) & 1;
    br = static_cast<u128>(out.w[1]) - kP.w[1] - static_cast<std::uint64_t>(br);
    out.w[1] = static_cast<std::uint64_t>(br);
    br = (br >> 64) & 1;
    br = static_cast<u128>(out.w[2]) - kP.w[2] - static_cast<std::uint64_t>(br);
    out.w[2] = static_cast<std::uint64_t>(br);
    br = (br >> 64) & 1;
    out.w[3] = static_cast<std::uint64_t>(
        static_cast<u128>(out.w[3]) - kP.w[3] - static_cast<std::uint64_t>(br));
  }
  return out;
}

U256 fp_sub(const U256& a, const U256& b) noexcept {
  U256 out;
  u128 br = static_cast<u128>(a.w[0]) - b.w[0];
  out.w[0] = static_cast<std::uint64_t>(br);
  br = (br >> 64) & 1;
  br = static_cast<u128>(a.w[1]) - b.w[1] - static_cast<std::uint64_t>(br);
  out.w[1] = static_cast<std::uint64_t>(br);
  br = (br >> 64) & 1;
  br = static_cast<u128>(a.w[2]) - b.w[2] - static_cast<std::uint64_t>(br);
  out.w[2] = static_cast<std::uint64_t>(br);
  br = (br >> 64) & 1;
  br = static_cast<u128>(a.w[3]) - b.w[3] - static_cast<std::uint64_t>(br);
  out.w[3] = static_cast<std::uint64_t>(br);
  if (((br >> 64) & 1) != 0) {
    u128 c = static_cast<u128>(out.w[0]) + kP.w[0];
    out.w[0] = static_cast<std::uint64_t>(c);
    c >>= 64;
    c += static_cast<u128>(out.w[1]) + kP.w[1];
    out.w[1] = static_cast<std::uint64_t>(c);
    c >>= 64;
    c += static_cast<u128>(out.w[2]) + kP.w[2];
    out.w[2] = static_cast<std::uint64_t>(c);
    c >>= 64;
    out.w[3] = static_cast<std::uint64_t>(c + out.w[3] + kP.w[3]);
  }
  return out;
}

U256 fp_mul(const U256& a, const U256& b) noexcept {
  const std::uint64_t a0 = a.w[0], a1 = a.w[1], a2 = a.w[2], a3 = a.w[3];
  const std::uint64_t b0 = b.w[0], b1 = b.w[1], b2 = b.w[2], b3 = b.w[3];
  std::uint64_t r0, r1, r2, r3, r4, r5, r6, r7;
  u128 c = static_cast<u128>(a0) * b0;
  r0 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(a0) * b1;
  std::uint64_t t1 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(a0) * b2;
  std::uint64_t t2 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(a0) * b3;
  std::uint64_t t3 = static_cast<std::uint64_t>(c);
  std::uint64_t t4 = static_cast<std::uint64_t>(c >> 64);

  c = static_cast<u128>(t1) + static_cast<u128>(a1) * b0;
  r1 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(t2) + static_cast<u128>(a1) * b1;
  t2 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(t3) + static_cast<u128>(a1) * b2;
  t3 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(t4) + static_cast<u128>(a1) * b3;
  t4 = static_cast<std::uint64_t>(c);
  std::uint64_t t5 = static_cast<std::uint64_t>(c >> 64);

  c = static_cast<u128>(t2) + static_cast<u128>(a2) * b0;
  r2 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(t3) + static_cast<u128>(a2) * b1;
  t3 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(t4) + static_cast<u128>(a2) * b2;
  t4 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(t5) + static_cast<u128>(a2) * b3;
  t5 = static_cast<std::uint64_t>(c);
  std::uint64_t t6 = static_cast<std::uint64_t>(c >> 64);

  c = static_cast<u128>(t3) + static_cast<u128>(a3) * b0;
  r3 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(t4) + static_cast<u128>(a3) * b1;
  r4 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(t5) + static_cast<u128>(a3) * b2;
  r5 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(t6) + static_cast<u128>(a3) * b3;
  r6 = static_cast<std::uint64_t>(c);
  r7 = static_cast<std::uint64_t>(c >> 64);
  return fp_from_wide(r0, r1, r2, r3, r4, r5, r6, r7);
}

U256 fp_sqr(const U256& a) noexcept {
  const std::uint64_t a0 = a.w[0], a1 = a.w[1], a2 = a.w[2], a3 = a.w[3];
  // Off-diagonal columns (each product once): d1..d6 hold columns 1..6.
  u128 c = static_cast<u128>(a0) * a1;
  std::uint64_t d1 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(a0) * a2;
  std::uint64_t d2 = static_cast<std::uint64_t>(c);
  c >>= 64;
  // Column 3 has two products; accumulate them with separate carries so
  // the u128 cannot overflow.
  c += static_cast<u128>(a0) * a3;
  std::uint64_t d3 = static_cast<std::uint64_t>(c);
  c >>= 64;
  u128 c2 = static_cast<u128>(d3) + static_cast<u128>(a1) * a2;
  d3 = static_cast<std::uint64_t>(c2);
  c += c2 >> 64;
  c += static_cast<u128>(a1) * a3;
  std::uint64_t d4 = static_cast<std::uint64_t>(c);
  c >>= 64;
  c += static_cast<u128>(a2) * a3;
  std::uint64_t d5 = static_cast<std::uint64_t>(c);
  std::uint64_t d6 = static_cast<std::uint64_t>(c >> 64);

  // r = 2 * offdiag + diagonals.
  std::uint64_t r0, r1, r2, r3, r4, r5, r6, r7;
  const std::uint64_t e1 = d1 << 1;
  const std::uint64_t e2 = (d2 << 1) | (d1 >> 63);
  const std::uint64_t e3 = (d3 << 1) | (d2 >> 63);
  const std::uint64_t e4 = (d4 << 1) | (d3 >> 63);
  const std::uint64_t e5 = (d5 << 1) | (d4 >> 63);
  const std::uint64_t e6 = (d6 << 1) | (d5 >> 63);
  const std::uint64_t e7 = d6 >> 63;

  u128 s = static_cast<u128>(a0) * a0;
  r0 = static_cast<std::uint64_t>(s);
  s >>= 64;
  s += e1;
  r1 = static_cast<std::uint64_t>(s);
  s >>= 64;
  s += static_cast<u128>(a1) * a1 + e2;
  r2 = static_cast<std::uint64_t>(s);
  s >>= 64;
  s += e3;
  r3 = static_cast<std::uint64_t>(s);
  s >>= 64;
  s += static_cast<u128>(a2) * a2 + e4;
  r4 = static_cast<std::uint64_t>(s);
  s >>= 64;
  s += e5;
  r5 = static_cast<std::uint64_t>(s);
  s >>= 64;
  s += static_cast<u128>(a3) * a3 + e6;
  r6 = static_cast<std::uint64_t>(s);
  s >>= 64;
  r7 = static_cast<std::uint64_t>(s + e7);
  return fp_from_wide(r0, r1, r2, r3, r4, r5, r6, r7);
}

U256 fp_inv(const U256& a) noexcept {
  // Fermat: a^(p-2).  Square-and-multiply with the fast field multiply.
  const U256 e = U256::sub(kP, U256{2}).first;
  U256 result{1};
  const unsigned bits = e.bit_length();
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    result = fp_sqr(result);
    if (e.bit(static_cast<unsigned>(i))) result = fp_mul(result, a);
  }
  return result;
}

U256 sn_reduce(const U512& x) noexcept {
  // Fold x = H*2^256 + L ==> L + H*kNC until the high half vanishes.
  // kNC is 129 bits, so every fold shrinks the value by ~127 bits; the
  // loop runs at most five times for a full 512-bit input.
  std::array<std::uint64_t, 8> t = x.w;
  while (t[4] | t[5] | t[6] | t[7]) {
    const std::array<std::uint64_t, 4> hi{t[4], t[5], t[6], t[7]};
    std::array<std::uint64_t, 8> acc{t[0], t[1], t[2], t[3], 0, 0, 0, 0};
    for (std::size_t i = 0; i < 4; ++i) {
      if (hi[i] == 0) continue;  // 320-bit inputs skip 3 of 4 limb rows
      u128 carry = 0;
      for (std::size_t j = 0; j < 3; ++j) {
        const u128 cur =
            acc[i + j] + static_cast<u128>(hi[i]) * kNC[j] + carry;
        acc[i + j] = static_cast<std::uint64_t>(cur);
        carry = cur >> 64;
      }
      for (std::size_t k = i + 3; carry != 0 && k < 8; ++k) {
        const u128 cur = acc[k] + carry;
        acc[k] = static_cast<std::uint64_t>(cur);
        carry = cur >> 64;
      }
    }
    t = acc;
  }
  U256 r{t[0], t[1], t[2], t[3]};
  while (U256::cmp(r, kN) >= 0) r = U256::sub(r, kN).first;
  return r;
}

U256 sn_reduce(const U256& x) noexcept {
  // x < 2^256 < 2n, so one conditional subtraction suffices.
  return U256::cmp(x, kN) >= 0 ? U256::sub(x, kN).first : x;
}

U256 sn_add(const U256& a, const U256& b) noexcept {
  return add_mod(a, b, kN);
}

U256 sn_sub(const U256& a, const U256& b) noexcept {
  return sub_mod(a, b, kN);
}

U256 sn_mul(const U256& a, const U256& b) noexcept {
  return sn_reduce(U256::mul_wide(a, b));
}

bool AffinePoint::on_curve() const noexcept {
  if (infinity) return true;
  // y^2 == x^3 + 7.
  const U256 lhs = fp_sqr(y);
  const U256 rhs = fp_add(fp_mul(fp_sqr(x), x), U256{7});
  return lhs == rhs;
}

AffinePoint AffinePoint::generator() noexcept {
  return AffinePoint{kGx, kGy, false};
}

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) noexcept {
  if (p.infinity) return identity();
  return JacobianPoint{p.x, p.y, U256{1}};
}

AffinePoint JacobianPoint::to_affine() const noexcept {
  if (is_identity()) return AffinePoint::identity();
  const U256 z_inv = fp_inv(z);
  const U256 z_inv2 = fp_sqr(z_inv);
  const U256 z_inv3 = fp_mul(z_inv2, z_inv);
  return AffinePoint{fp_mul(x, z_inv2), fp_mul(y, z_inv3), false};
}

JacobianPoint ec_double(const JacobianPoint& p) noexcept {
  if (p.is_identity() || p.y.is_zero()) return JacobianPoint::identity();
  // dbl-2009-l formulas for a = 0.
  const U256 a = fp_sqr(p.x);                       // A = X^2
  const U256 b = fp_sqr(p.y);                       // B = Y^2
  const U256 c = fp_sqr(b);                         // C = B^2
  U256 d = fp_sub(fp_sqr(fp_add(p.x, b)), fp_add(a, c));
  d = fp_add(d, d);                                 // D = 2((X+B)^2 - A - C)
  const U256 e = fp_add(fp_add(a, a), a);           // E = 3A
  const U256 f = fp_sqr(e);                         // F = E^2
  const U256 x3 = fp_sub(f, fp_add(d, d));          // X3 = F - 2D
  U256 c8 = fp_add(c, c);
  c8 = fp_add(c8, c8);
  c8 = fp_add(c8, c8);                              // 8C
  const U256 y3 = fp_sub(fp_mul(e, fp_sub(d, x3)), c8);
  const U256 yz = fp_mul(p.y, p.z);
  const U256 z3 = fp_add(yz, yz);                   // Z3 = 2YZ
  return JacobianPoint{x3, y3, z3};
}

JacobianPoint ec_add(const JacobianPoint& p, const JacobianPoint& q) noexcept {
  if (p.is_identity()) return q;
  if (q.is_identity()) return p;
  // An affine operand (Z == 1) takes the cheaper mixed formulas — common
  // when freshly-lifted points feed a reduction (Bos–Coster sources).
  const U256 one{1};
  if (q.z == one) return ec_add_mixed(p, AffinePoint{q.x, q.y, false});
  if (p.z == one) return ec_add_mixed(q, AffinePoint{p.x, p.y, false});
  // add-2007-bl formulas.
  const U256 z1z1 = fp_sqr(p.z);
  const U256 z2z2 = fp_sqr(q.z);
  const U256 u1 = fp_mul(p.x, z2z2);
  const U256 u2 = fp_mul(q.x, z1z1);
  const U256 s1 = fp_mul(fp_mul(p.y, q.z), z2z2);
  const U256 s2 = fp_mul(fp_mul(q.y, p.z), z1z1);
  if (u1 == u2) {
    if (s1 == s2) return ec_double(p);
    return JacobianPoint::identity();  // P + (-P)
  }
  const U256 h = fp_sub(u2, u1);
  U256 i = fp_add(h, h);
  i = fp_sqr(i);                                    // I = (2H)^2
  const U256 j = fp_mul(h, i);
  U256 r = fp_sub(s2, s1);
  r = fp_add(r, r);                                 // r = 2(S2 - S1)
  const U256 v = fp_mul(u1, i);
  const U256 x3 = fp_sub(fp_sub(fp_sqr(r), j), fp_add(v, v));
  U256 s1j = fp_mul(s1, j);
  s1j = fp_add(s1j, s1j);
  const U256 y3 = fp_sub(fp_mul(r, fp_sub(v, x3)), s1j);
  // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H.
  const U256 z3 = fp_mul(
      fp_sub(fp_sqr(fp_add(p.z, q.z)), fp_add(z1z1, z2z2)), h);
  return JacobianPoint{x3, y3, z3};
}

JacobianPoint ec_add_mixed(const JacobianPoint& p, const AffinePoint& q) noexcept {
  if (q.infinity) return p;
  if (p.is_identity()) return JacobianPoint::from_affine(q);
  // madd-2007-bl formulas (Z2 = 1).
  const U256 z1z1 = fp_sqr(p.z);
  const U256 u2 = fp_mul(q.x, z1z1);
  const U256 s2 = fp_mul(fp_mul(q.y, p.z), z1z1);
  if (u2 == p.x) {
    if (s2 == p.y) return ec_double(p);
    return JacobianPoint::identity();  // P + (-P)
  }
  const U256 h = fp_sub(u2, p.x);
  const U256 hh = fp_sqr(h);
  U256 i = fp_add(hh, hh);
  i = fp_add(i, i);                                 // I = 4HH
  const U256 j = fp_mul(h, i);
  U256 r = fp_sub(s2, p.y);
  r = fp_add(r, r);                                 // r = 2(S2 - Y1)
  const U256 v = fp_mul(p.x, i);
  const U256 x3 = fp_sub(fp_sub(fp_sqr(r), j), fp_add(v, v));
  U256 yj = fp_mul(p.y, j);
  yj = fp_add(yj, yj);
  const U256 y3 = fp_sub(fp_mul(r, fp_sub(v, x3)), yj);
  // Z3 = (Z1 + H)^2 - Z1Z1 - HH.
  const U256 z3 = fp_sub(fp_sub(fp_sqr(fp_add(p.z, h)), z1z1), hh);
  return JacobianPoint{x3, y3, z3};
}

JacobianPoint ec_mul_naive(const U256& k, const AffinePoint& p) noexcept {
  JacobianPoint acc = JacobianPoint::identity();
  const JacobianPoint base = JacobianPoint::from_affine(p);
  const unsigned bits = k.bit_length();
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    acc = ec_double(acc);
    if (k.bit(static_cast<unsigned>(i))) acc = ec_add(acc, base);
  }
  return acc;
}

void batch_normalize(const JacobianPoint* points, AffinePoint* out,
                     std::size_t count) {
  std::vector<U256> prefix(count);
  U256 running{1};
  for (std::size_t i = 0; i < count; ++i) {
    prefix[i] = running;
    if (!points[i].is_identity()) running = fp_mul(running, points[i].z);
  }
  U256 inv = running.is_zero() ? U256{} : fp_inv(running);
  for (std::size_t i = count; i-- > 0;) {
    if (points[i].is_identity()) {
      out[i] = AffinePoint::identity();
      continue;
    }
    const U256 z_inv = fp_mul(inv, prefix[i]);
    inv = fp_mul(inv, points[i].z);
    const U256 z_inv2 = fp_sqr(z_inv);
    out[i] = AffinePoint{fp_mul(points[i].x, z_inv2),
                         fp_mul(points[i].y, fp_mul(z_inv2, z_inv)), false};
  }
}

FixedBaseTable::FixedBaseTable(const AffinePoint& base) : base_(base) {
  // The 32 teeth 2^(8t) * base, t = 4r + s for tooth r of block s: one
  // 248-doubling chain (consecutive teeth are kColumns bits apart),
  // normalized with one inversion so that every subset-sum addition below
  // is mixed.
  constexpr unsigned kTeethTotal = kTeeth * kBlocks;
  std::array<JacobianPoint, kTeethTotal> teeth_jac{};
  teeth_jac[0] = JacobianPoint::from_affine(base);
  for (unsigned t = 1; t < kTeethTotal; ++t) {
    teeth_jac[t] = teeth_jac[t - 1];
    for (unsigned c = 0; c < kColumns; ++c) {
      teeth_jac[t] = ec_double(teeth_jac[t]);
    }
  }
  std::array<AffinePoint, kTeethTotal> teeth{};
  batch_normalize(teeth_jac.data(), teeth.data(), kTeethTotal);
  // Entry m of block s extends entry (m minus its top bit) by that bit's
  // tooth; single-bit entries are the teeth themselves.  One batch
  // normalization turns all 1020 entries affine.
  std::vector<JacobianPoint> jac(kBlocks * kBlockEntries);
  for (unsigned s = 0; s < kBlocks; ++s) {
    JacobianPoint* block = &jac[s * kBlockEntries];
    for (unsigned m = 1; m <= kBlockEntries; ++m) {
      const unsigned top = static_cast<unsigned>(std::bit_width(m)) - 1;
      const unsigned rest = m ^ (1u << top);
      const AffinePoint& tooth = teeth[kBlocks * top + s];
      block[m - 1] = rest == 0 ? JacobianPoint::from_affine(tooth)
                               : ec_add_mixed(block[rest - 1], tooth);
    }
  }
  std::vector<AffinePoint> affine(jac.size());
  batch_normalize(jac.data(), affine.data(), jac.size());
  for (unsigned s = 0; s < kBlocks; ++s) {
    std::copy_n(&affine[s * kBlockEntries], kBlockEntries, table_[s].begin());
  }
}

JacobianPoint FixedBaseTable::add_column(JacobianPoint acc, const U256& k,
                                         unsigned j) const noexcept {
  for (unsigned s = 0; s < kBlocks; ++s) {
    // Tooth r of block s in column j is bit 32r + 8s + j: limb r / 2, at
    // offset 32 * (r % 2) + 8s + j.
    const unsigned shift = kColumns * s + j;
    unsigned d = 0;
    for (unsigned r = 0; r < kTeeth; ++r) {
      d |= static_cast<unsigned>((k.w[r / 2] >> (32 * (r % 2) + shift)) & 1u)
           << r;
    }
    if (d != 0) acc = ec_add_mixed(acc, table_[s][d - 1]);
  }
  return acc;
}

JacobianPoint FixedBaseTable::mul(const U256& k) const noexcept {
  const CombTerm term{this, sn_reduce(k)};
  return strauss_walk(nullptr, 0, &term, 1);
}

const FixedBaseTable& FixedBaseTable::generator() {
  static const FixedBaseTable table(AffinePoint::generator());
  return table;
}

JacobianPoint ec_mul_base(const U256& k) noexcept {
  return FixedBaseTable::generator().mul(k);
}

JacobianPoint ec_mul_add(const U256& a, const U256& b,
                         const FixedBaseTable& p_table) noexcept {
  // Both bases are comb tables: their columns share one 7-doubling chain.
  const CombTerm terms[2] = {{&FixedBaseTable::generator(), sn_reduce(a)},
                             {&p_table, sn_reduce(b)}};
  return strauss_walk(nullptr, 0, terms, 2);
}

bool ec_equals_affine(const JacobianPoint& p, const AffinePoint& q) noexcept {
  if (p.is_identity()) return q.infinity;
  if (q.infinity) return false;
  // X/Z^2 == qx  and  Y/Z^3 == qy, cross-multiplied.
  const U256 z2 = fp_sqr(p.z);
  if (p.x != fp_mul(q.x, z2)) return false;
  return p.y == fp_mul(q.y, fp_mul(z2, p.z));
}

AffinePoint ec_negate(const AffinePoint& p) noexcept {
  if (p.infinity) return p;
  return AffinePoint{p.x, fp_sub(U256{}, p.y), false};
}

// ---- GLV ----

const U256& Glv::lambda() noexcept { return glv_consts().lambda; }
const U256& Glv::beta() noexcept { return glv_consts().beta; }

GlvSplit glv_split(const U256& k) noexcept {
  const GlvConsts& c = glv_consts();
  // Babai rounding: c1 ~ b2*k/n, c2 ~ -b1*k/n, then
  //   k1 = k - c1*a1 - c2*a2,  k2 = -c1*b1 - c2*b2   (mod n),
  // both guaranteed ~sqrt(n) by the basis reduction (+-2 rounding slack).
  const U256 c1 = mul_shift_384(k, c.g1);
  const U256 c2 = mul_shift_384(k, c.g2);
  U256 k1 = sn_sub(k, sn_add(sn_mul(c1, c.a1), sn_mul(c2, c.a2)));
  U256 k2 = sn_sub(sn_mul(c1, c.minus_b1), sn_mul(c2, c.a1));
  GlvSplit out;
  out.neg1 = U256::cmp(k1, c.half_n) > 0;
  out.k1 = out.neg1 ? U256::sub(kN, k1).first : k1;
  out.neg2 = U256::cmp(k2, c.half_n) > 0;
  out.k2 = out.neg2 ? U256::sub(kN, k2).first : k2;
  return out;
}

AffinePoint ec_endomorphism(const AffinePoint& p) noexcept {
  if (p.infinity) return p;
  return AffinePoint{fp_mul(p.x, glv_consts().beta), p.y, false};
}

JacobianPoint ec_mul_glv(const U256& k, const AffinePoint& p) noexcept {
  if (p.infinity) return JacobianPoint::identity();
  const U256 kr = sn_reduce(k);
  if (kr.is_zero()) return JacobianPoint::identity();
  const GlvSplit s = glv_split(kr);
  U256 zc;
  const std::array<AffinePoint, 8> ptab = odd_multiples_common_z(p, zc);
  const std::array<AffinePoint, 8> psitab = endo_table_affine(ptab);
  std::array<std::int8_t, 258> d1;
  std::array<std::int8_t, 258> d2;
  const unsigned l1 = wnaf(s.k1, 5, d1);
  const unsigned l2 = wnaf(s.k2, 5, d2);
  if (s.neg1) negate_digits(d1, l1);
  if (s.neg2) negate_digits(d2, l2);
  const DigitStream as[2] = {{ptab.data(), &d1, l1},
                              {psitab.data(), &d2, l2}};
  JacobianPoint acc = strauss_walk(as, 2);
  acc.z = fp_mul(acc.z, zc);  // leave the iso-curve (identity: z stays 0)
  return acc;
}

JacobianPoint ec_mul_add_glv(const U256& a, const U256& b,
                             const AffinePoint& p) noexcept {
  if (p.infinity || sn_reduce(b).is_zero()) return ec_mul_base(a);
  const U256 ar = sn_reduce(a);
  const U256 br = sn_reduce(b);
  if (ar.is_zero()) return ec_mul_glv(br, p);

  const GlvGenTables& gt = glv_generator_tables();
  const GlvSplit sa = glv_split(ar);
  const GlvSplit sb = glv_split(br);
  U256 zc;
  const std::array<AffinePoint, 8> ptab = odd_multiples_common_z(p, zc);
  const std::array<AffinePoint, 8> psitab = endo_table_affine(ptab);
  const U256 zc2 = fp_sqr(zc);
  const U256 zc3 = fp_mul(zc2, zc);
  std::array<std::int8_t, 258> da1;
  std::array<std::int8_t, 258> da2;
  std::array<std::int8_t, 258> db1;
  std::array<std::int8_t, 258> db2;
  const unsigned la1 = wnaf(sa.k1, kGlvGenWidth, da1);
  const unsigned la2 = wnaf(sa.k2, kGlvGenWidth, da2);
  const unsigned lb1 = wnaf(sb.k1, 5, db1);
  const unsigned lb2 = wnaf(sb.k2, 5, db2);
  if (sa.neg1) negate_digits(da1, la1);
  if (sa.neg2) negate_digits(da2, la2);
  if (sb.neg1) negate_digits(db1, lb1);
  if (sb.neg2) negate_digits(db2, lb2);
  // The P table carries a common denominator; the static G tables are
  // lifted onto the same iso-curve digit-by-digit (+2 muls per addition),
  // so every addition on the chain is mixed.
  const DigitStream as[4] = {{gt.g.data(), &da1, la1, &zc2, &zc3},
                              {gt.psi.data(), &da2, la2, &zc2, &zc3},
                              {ptab.data(), &db1, lb1},
                              {psitab.data(), &db2, lb2}};
  JacobianPoint acc = strauss_walk(as, 4);
  acc.z = fp_mul(acc.z, zc);  // leave the iso-curve (identity: z stays 0)
  return acc;
}

}  // namespace identxx::crypto
