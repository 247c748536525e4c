// Unit and property tests for src/crypto: SHA-256 (FIPS vectors), HMAC,
// U256 arithmetic, secp256k1 group law, Schnorr signatures, and the fast
// paths (GLV / fixed-base / sn_reduce) differentially checked
// against the retained naive oracles.

#include <gtest/gtest.h>

#include "crypto/ec.hpp"
#include "crypto/hmac.hpp"
#include "crypto/key_tier.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"
#include "crypto/verifier.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace identxx::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    h.update(std::string_view(msg).substr(i, 7));
  }
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding at block boundaries: 55, 56, 63, 64, 65 bytes.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string msg(len, 'a');
    Sha256 h;
    h.update(msg);
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "len=" << len;
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash("a"), Sha256::hash("b"));
  EXPECT_NE(Sha256::hash("abc"), Sha256::hash("abd"));
}

// ---------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Case1) {
  // Key = 20 bytes of 0x0b, data = "Hi There".
  std::vector<std::uint8_t> key(20, 0x0b);
  const auto mac = hmac_sha256(
      std::span<const std::uint8_t>(key.data(), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>("Hi There"), 8));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac = hmac_sha256("Jefe", "what do ya want for nothing?");
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed) {
  // Keys longer than the block size must be hashed first; just check
  // determinism and sensitivity.
  const std::string long_key(200, 'k');
  const auto mac1 = hmac_sha256(long_key, "msg");
  const auto mac2 = hmac_sha256(long_key, "msg");
  const auto mac3 = hmac_sha256(long_key, "msh");
  EXPECT_EQ(mac1, mac2);
  EXPECT_NE(mac1, mac3);
}

// ---------------------------------------------------------------- U256

TEST(U256Arith, HexRoundTrip) {
  const auto v = U256::from_hex(
      "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->to_hex(),
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
}

TEST(U256Arith, FromHexShortInputIsPadded) {
  const auto v = U256::from_hex("ff");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, U256{0xff});
}

TEST(U256Arith, FromHexRejectsBadInput) {
  EXPECT_FALSE(U256::from_hex("").has_value());
  EXPECT_FALSE(U256::from_hex("xyz").has_value());
  EXPECT_FALSE(U256::from_hex(std::string(65, 'f')).has_value());
}

TEST(U256Arith, BytesRoundTrip) {
  const U256 v{0x0123456789abcdefULL, 0xfedcba9876543210ULL, 1, 2};
  const auto bytes = v.to_bytes();
  EXPECT_EQ(U256::from_bytes(std::span<const std::uint8_t, 32>(bytes)), v);
}

TEST(U256Arith, AddCarryPropagates) {
  const U256 max{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  const auto [sum, carry] = U256::add(max, U256{1});
  EXPECT_TRUE(carry);
  EXPECT_TRUE(sum.is_zero());
}

TEST(U256Arith, SubBorrow) {
  const auto [diff, borrow] = U256::sub(U256{0}, U256{1});
  EXPECT_TRUE(borrow);
  EXPECT_EQ(diff, (U256{~0ULL, ~0ULL, ~0ULL, ~0ULL}));
}

TEST(U256Arith, AddSubInverse) {
  util::SplitMix64 rng(11);
  for (int i = 0; i < 200; ++i) {
    const U256 a{rng.next(), rng.next(), rng.next(), rng.next()};
    const U256 b{rng.next(), rng.next(), rng.next(), rng.next()};
    const auto [sum, carry] = U256::add(a, b);
    const auto [back, borrow] = U256::sub(sum, b);
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);
  }
}

TEST(U256Arith, MulWideSmall) {
  const U512 prod = U256::mul_wide(U256{3}, U256{5});
  EXPECT_EQ(prod.low(), U256{15});
  EXPECT_TRUE(prod.high().is_zero());
}

TEST(U256Arith, MulWideCrossLimb) {
  // (2^64)(2^64) = 2^128.
  const U256 a{0, 1, 0, 0};
  const U512 prod = U256::mul_wide(a, a);
  EXPECT_EQ(prod.low(), (U256{0, 0, 1, 0}));
  EXPECT_TRUE(prod.high().is_zero());
}

TEST(U256Arith, ModSmallCases) {
  U512 x{};
  x.w[0] = 17;
  EXPECT_EQ(mod(x, U256{5}), U256{2});
  x.w[0] = 4;
  EXPECT_EQ(mod(x, U256{5}), U256{4});
}

TEST(U256Arith, ModMatchesMulIdentity) {
  // (a * m + r) mod m == r for random a, r < m.
  util::SplitMix64 rng(13);
  const U256 m = Secp256k1::n();
  for (int i = 0; i < 50; ++i) {
    const U256 a{rng.next(), rng.next(), 0, 0};
    const U256 r{rng.next() % 1000, 0, 0, 0};
    U512 prod = U256::mul_wide(a, m);
    // prod += r (no overflow: a < 2^128 so prod < 2^384).
    unsigned carry = 0;
    std::uint64_t add = r.w[0];
    for (std::size_t j = 0; j < 8; ++j) {
      const std::uint64_t before = prod.w[j];
      prod.w[j] += add + carry;
      carry = (prod.w[j] < before || (carry && prod.w[j] == before)) ? 1 : 0;
      add = 0;
    }
    EXPECT_EQ(mod(prod, m), r);
  }
}

TEST(U256Arith, ModularOpsStayBelowModulus) {
  util::SplitMix64 rng(17);
  const U256 m = Secp256k1::p();
  for (int i = 0; i < 100; ++i) {
    U512 wide{};
    for (auto& w : wide.w) w = rng.next();
    const U256 a = mod(wide, m);
    for (auto& w : wide.w) w = rng.next();
    const U256 b = mod(wide, m);
    EXPECT_LT(U256::cmp(add_mod(a, b, m), m), 0);
    EXPECT_LT(U256::cmp(sub_mod(a, b, m), m), 0);
    EXPECT_LT(U256::cmp(mul_mod(a, b, m), m), 0);
  }
}

TEST(U256Arith, InvModFermat) {
  const U256 m = Secp256k1::n();
  util::SplitMix64 rng(19);
  for (int i = 0; i < 10; ++i) {
    const U256 a{rng.next() | 1, rng.next(), rng.next(), 0};
    const U256 inv = inv_mod(a, m);
    EXPECT_EQ(mul_mod(a, inv, m), U256{1});
  }
}

TEST(U256Arith, PowModBasics) {
  const U256 m{1000003};
  EXPECT_EQ(pow_mod(U256{2}, U256{10}, m), U256{1024});
  EXPECT_EQ(pow_mod(U256{7}, U256{0}, m), U256{1});
}

TEST(U256Arith, ShiftInverses) {
  util::SplitMix64 rng(23);
  for (int i = 0; i < 100; ++i) {
    const U256 a{rng.next(), rng.next(), rng.next(), rng.next() >> 1};
    EXPECT_EQ(a.shl1().first.shr1(), a);
  }
}

TEST(U256Arith, BitLength) {
  EXPECT_EQ(U256{}.bit_length(), 0u);
  EXPECT_EQ(U256{1}.bit_length(), 1u);
  EXPECT_EQ(U256{0xff}.bit_length(), 8u);
  EXPECT_EQ((U256{0, 0, 0, 1ULL << 63}).bit_length(), 256u);
}

// ---------------------------------------------------------------- EC group

TEST(Ec, GeneratorIsOnCurve) {
  EXPECT_TRUE(AffinePoint::generator().on_curve());
}

TEST(Ec, CurveConstantsSane) {
  // p and n are odd 256-bit numbers with high bit set.
  EXPECT_TRUE(Secp256k1::p().bit(0));
  EXPECT_TRUE(Secp256k1::n().bit(0));
  EXPECT_EQ(Secp256k1::p().bit_length(), 256u);
  EXPECT_EQ(Secp256k1::n().bit_length(), 256u);
}

TEST(Ec, OneTimesGIsG) {
  const AffinePoint g = AffinePoint::generator();
  EXPECT_EQ(ec_mul_base(U256{1}).to_affine(), g);
}

TEST(Ec, OrderTimesGIsIdentity) {
  // n*G == O validates the full constant set and the group law together.
  const JacobianPoint ng = ec_mul_base(Secp256k1::n());
  EXPECT_TRUE(ng.is_identity());
}

TEST(Ec, OrderMinusOneTimesGIsNegG) {
  const U256 n_minus_1 = U256::sub(Secp256k1::n(), U256{1}).first;
  const AffinePoint p = ec_mul_base(n_minus_1).to_affine();
  EXPECT_EQ(p, ec_negate(AffinePoint::generator()));
}

TEST(Ec, TwoGKnownAnswer) {
  // 2*G for secp256k1, a published test vector.
  const AffinePoint two_g = ec_mul_base(U256{2}).to_affine();
  EXPECT_EQ(two_g.x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(two_g.y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Ec, DoubleMatchesAddSelf) {
  const JacobianPoint g = JacobianPoint::from_affine(AffinePoint::generator());
  const AffinePoint doubled = ec_double(g).to_affine();
  const AffinePoint two_g = ec_mul_base(U256{2}).to_affine();
  EXPECT_EQ(doubled, two_g);
  EXPECT_TRUE(doubled.on_curve());
}

TEST(Ec, ScalarDistributivity) {
  // (a + b)G == aG + bG for random a, b.
  util::SplitMix64 rng(31);
  for (int i = 0; i < 5; ++i) {
    const U256 a{rng.next(), rng.next(), 0, 0};
    const U256 b{rng.next(), rng.next(), 0, 0};
    const U256 a_plus_b = add_mod(a, b, Secp256k1::n());
    const AffinePoint lhs = ec_mul_base(a_plus_b).to_affine();
    const AffinePoint rhs =
        ec_add(ec_mul_base(a), ec_mul_base(b)).to_affine();
    EXPECT_EQ(lhs, rhs);
    EXPECT_TRUE(lhs.on_curve());
  }
}

TEST(Ec, AddIdentityIsNoop) {
  const JacobianPoint g = JacobianPoint::from_affine(AffinePoint::generator());
  EXPECT_EQ(ec_add(g, JacobianPoint::identity()).to_affine(),
            AffinePoint::generator());
  EXPECT_EQ(ec_add(JacobianPoint::identity(), g).to_affine(),
            AffinePoint::generator());
}

TEST(Ec, AddInverseGivesIdentity) {
  const AffinePoint g = AffinePoint::generator();
  const JacobianPoint sum =
      ec_add(JacobianPoint::from_affine(g),
             JacobianPoint::from_affine(ec_negate(g)));
  EXPECT_TRUE(sum.is_identity());
}

TEST(Ec, MulByZeroIsIdentity) {
  EXPECT_TRUE(ec_mul_base(U256{}).is_identity());
}

// ------------------------------------------------- known-answer vectors

/// Published secp256k1 k*G test vectors (and one large-scalar vector);
/// every multiplication flavour must reproduce them exactly.
struct MulBaseVector {
  const char* k;
  const char* x;
  const char* y;
};
constexpr MulBaseVector kMulBaseVectors[] = {
    {"3", "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
     "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672"},
    {"4", "e493dbf1c10d80f3581e4904930b1404cc6c13900ee0758474fa94abe8c4cd13",
     "51ed993ea0d455b75642e2098ea51448d967ae33bfbdfe40cfe97bdc47739922"},
    {"5", "2f8bde4d1a07209355b4a7250a5c5128e88b84bddc619ab7cba8d569b240efe4",
     "d8ac222636e5e3d6d4dba9dda6c9c426f788271bab0d6840dca87d3aa6ac62d6"},
    {"14", "4ce119c96e2fa357200b559b2f7dd5a5f02d5290aff74b03f3e471b273211c97",
     "12ba26dcb10ec1625da61fa10a844c676162948271d96967450288ee9233dc3a"},
    {"aa5e28d6a97a2479a65527f7290311a3624d4cc0fa1578598ee3c2613bf99522",
     "34f9460f0e4f08393d192b3c5133a6ba099aa0ad9fd54ebccfacdfa239ff49c6",
     "0b71ea9bd730fd8923f6d25a7a91e7dd7728a960686cb5a901bb419e0f2ca232"},
};

TEST(EcKat, MulBaseKnownAnswers) {
  for (const MulBaseVector& vec : kMulBaseVectors) {
    const U256 k = *U256::from_hex(vec.k);
    const AffinePoint expected{*U256::from_hex(vec.x), *U256::from_hex(vec.y),
                               false};
    EXPECT_EQ(ec_mul_base(k).to_affine(), expected) << "k=" << vec.k;
    EXPECT_EQ(ec_mul_glv(k, AffinePoint::generator()).to_affine(), expected);
    EXPECT_EQ(ec_mul_naive(k, AffinePoint::generator()).to_affine(), expected);
  }
}

TEST(EcKat, SchnorrDeterministicVectors) {
  // Locked outputs of the deterministic scheme (recorded from the seed
  // implementation): any change to hashing, nonce derivation or group
  // arithmetic shows up here.
  const PrivateKey alice = PrivateKey::from_seed("alice");
  EXPECT_EQ(alice.public_key().to_hex(),
            "29e8898c82e3e7166576b6e920c479093424ab38196d508f10fb0996ed28daca"
            "0751eeb4a59a192f37c13cf048059c5e9ae6f523635eb723f302cdf7b9a6c231");
  EXPECT_EQ(alice.sign("hello world").to_hex(),
            "7e7f12aa3df2542156a68156c1243750425c1f9292c3020ece697847a6f78d6d"
            "adbc82baf665beb5adac7bd09217f4ca205038e937dd38bc671c39b8fdb223e6"
            "84d4744e4d8031ad96c422f09e4475ca1c11a03d440cb04c36ccda4e4149e451");
  const PrivateKey research = PrivateKey::from_seed("research");
  EXPECT_EQ(research.sign("msg").to_hex(),
            "042ac894518d27ddc874ead1c12626da719f0bb4da56232ef379b3a8719a0c0c"
            "a197448569c3f4a104bef7b5e64e686c97f47139ebdaae144c7efe711e8d6ab4"
            "5156895f1b1d996947ad6faaf3913ac674e3f63838a9dc1362db80fb33c482d1");
}

// ------------------------------------------------- differential sweeps

/// A random point for differential tests: hash-derived scalar times G.
AffinePoint random_point(util::SplitMix64& rng) {
  const U256 k{rng.next() | 1, rng.next(), rng.next(), rng.next() >> 2};
  return ec_mul_naive(k, AffinePoint::generator()).to_affine();
}

TEST(EcDifferential, FixedBaseTableMatchesNaive) {
  util::SplitMix64 rng(103);
  const AffinePoint p = random_point(rng);
  const FixedBaseTable table(p);
  for (int i = 0; i < 200; ++i) {
    const U256 k{rng.next(), rng.next(), rng.next(), rng.next()};
    EXPECT_EQ(table.mul(k).to_affine(), ec_mul_naive(k, p).to_affine());
  }
  // The shared generator table too.
  for (int i = 0; i < 100; ++i) {
    const U256 k{rng.next(), rng.next(), rng.next(), rng.next()};
    EXPECT_EQ(ec_mul_base(k).to_affine(),
              ec_mul_naive(k, AffinePoint::generator()).to_affine());
  }
}

TEST(EcDifferential, MulAddMatchesNaiveComposition) {
  // a*G + b*P via the two comb walks of the hot-key path, against
  // naive(a)*G + naive(b)*P.
  util::SplitMix64 rng(107);
  const AffinePoint p = random_point(rng);
  const FixedBaseTable table(p);
  for (int i = 0; i < 1000; ++i) {
    const U256 a{rng.next(), rng.next(), rng.next(), rng.next()};
    const U256 b{rng.next(), rng.next(), rng.next(), rng.next()};
    const AffinePoint expected =
        ec_add(ec_mul_naive(a, AffinePoint::generator()), ec_mul_naive(b, p))
            .to_affine();
    EXPECT_EQ(ec_mul_add(a, b, table).to_affine(), expected);
  }
  // Degenerate operands.
  EXPECT_EQ(ec_mul_add(U256{}, U256{7}, table).to_affine(),
            ec_mul_naive(U256{7}, p).to_affine());
  EXPECT_EQ(ec_mul_add(U256{7}, U256{}, table).to_affine(),
            ec_mul_naive(U256{7}, AffinePoint::generator()).to_affine());
  EXPECT_TRUE(ec_mul_add(U256{}, U256{}, table).is_identity());
}

TEST(EcDifferential, CombEdgeScalarsMatchNaive) {
  // The Lim–Lee comb at the scalar-range edges, on a random key's table
  // and on G's: mul() reduces mod n first, so n and n+1 must land on the
  // identity and P, and 2^256 - 1 on its residue.
  util::SplitMix64 rng(113);
  const AffinePoint p = random_point(rng);
  const FixedBaseTable table(p);
  const U256& n = Secp256k1::n();
  const U256 all_ones{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  // Only the top tooth (bits 224..255) set: digit 0x80 in every column of
  // every block; and the single top bit.
  const U256 top_tooth{0, 0, 0, 0xffffffff00000000ULL};
  const U256 top_bit{0, 0, 0, 1ULL << 63};
  const std::vector<U256> scalars = {
      U256{},   U256{1}, U256::sub(n, U256{1}).first, n,
      U256::add(n, U256{1}).first, all_ones, top_tooth, top_bit};
  for (const U256& k : scalars) {
    EXPECT_EQ(table.mul(k).to_affine(), ec_mul_naive(k, p).to_affine())
        << "k=" << k.to_hex();
    EXPECT_EQ(ec_mul_base(k).to_affine(),
              ec_mul_naive(k, AffinePoint::generator()).to_affine())
        << "k=" << k.to_hex();
  }
  // Every (block, column) digit 255 can only come from 2^256 - 1 itself,
  // which mul() reduces away — so walk the columns directly.
  JacobianPoint acc = JacobianPoint::identity();
  for (unsigned j = FixedBaseTable::kColumns; j-- > 0;) {
    acc = table.add_column(ec_double(acc), all_ones, j);
  }
  EXPECT_EQ(acc.to_affine(), ec_mul_naive(all_ones, p).to_affine());
}

TEST(EcDifferential, MulAddOnGeneratorTableHitsDoublingAndCancellation) {
  // With G's own table as the key table, a == b adds each G-side entry
  // and then the same P-side entry.  Where a column's only nonzero digit
  // is the walk's first addition, the second one meets an equal point and
  // takes ec_add_mixed's doubling branch: bit 3 alone in column 3, random
  // bits in columns 0..2, forces that in the middle of the walk.  a == n-b
  // cancels to the identity on the walk's last addition (P + (-P)).
  util::SplitMix64 rng(127);
  const FixedBaseTable& g_table = FixedBaseTable::generator();
  const AffinePoint g = AffinePoint::generator();
  constexpr std::uint64_t kLowColumns = 0x0707070707070707ULL;
  for (int i = 0; i < 20; ++i) {
    const U256 mid{(rng.next() & kLowColumns) | 0x08, rng.next() & kLowColumns,
                   rng.next() & kLowColumns, rng.next() & kLowColumns};
    const U256 wide =
        sn_reduce(U256{rng.next(), rng.next(), rng.next(), rng.next()});
    for (const U256& a : {mid, wide}) {
      EXPECT_EQ(ec_mul_add(a, a, g_table).to_affine(),
                ec_mul_naive(sn_add(a, a), g).to_affine());
      const U256 b = U256::sub(Secp256k1::n(), a).first;
      EXPECT_TRUE(ec_mul_add(a, b, g_table).is_identity());
      // A forgery built on that cancellation: key G, s == e, so
      // s*G + (n-e)*G is the identity, which no well-formed R equals.
      const Signature forged{random_point(rng), a};
      EXPECT_FALSE(verify_tiered(PublicKey{g}, &g_table, a, forged));
    }
  }
}

TEST(EcDifferential, EqualsAffineAgreesWithNormalization) {
  util::SplitMix64 rng(109);
  const AffinePoint p = random_point(rng);
  for (int i = 0; i < 50; ++i) {
    const U256 k{rng.next() | 1, rng.next(), 0, 0};
    const JacobianPoint jac = ec_mul_glv(k, p);
    EXPECT_TRUE(ec_equals_affine(jac, jac.to_affine()));
    EXPECT_FALSE(ec_equals_affine(jac, ec_negate(jac.to_affine())));
    EXPECT_FALSE(ec_equals_affine(jac, AffinePoint::identity()));
  }
  EXPECT_TRUE(
      ec_equals_affine(JacobianPoint::identity(), AffinePoint::identity()));
  EXPECT_FALSE(ec_equals_affine(JacobianPoint::identity(), p));
}

TEST(ScalarDifferential, SnReduceMatchesGenericMod) {
  util::SplitMix64 rng(113);
  for (int i = 0; i < 1000; ++i) {
    U512 wide{};
    for (auto& w : wide.w) w = rng.next();
    EXPECT_EQ(sn_reduce(wide), mod(wide, Secp256k1::n()));
  }
  // Edges: zero, n, n-1, 2^512 - 1 and pure-high-half values.
  U512 edge{};
  EXPECT_TRUE(sn_reduce(edge).is_zero());
  for (std::size_t i = 0; i < 4; ++i) edge.w[i] = Secp256k1::n().w[i];
  EXPECT_TRUE(sn_reduce(edge).is_zero());
  for (auto& w : edge.w) w = ~0ULL;
  EXPECT_EQ(sn_reduce(edge), mod(edge, Secp256k1::n()));
  U512 high_only{};
  for (std::size_t i = 4; i < 8; ++i) high_only.w[i] = ~0ULL;
  EXPECT_EQ(sn_reduce(high_only), mod(high_only, Secp256k1::n()));
}

TEST(ScalarDifferential, SnMulAddSubMatchGeneric) {
  util::SplitMix64 rng(127);
  const U256 n = Secp256k1::n();
  for (int i = 0; i < 500; ++i) {
    U512 wide{};
    for (auto& w : wide.w) w = rng.next();
    const U256 a = mod(wide, n);
    for (auto& w : wide.w) w = rng.next();
    const U256 b = mod(wide, n);
    EXPECT_EQ(sn_mul(a, b), mul_mod(a, b, n));
    EXPECT_EQ(sn_add(a, b), add_mod(a, b, n));
    EXPECT_EQ(sn_sub(a, b), sub_mod(a, b, n));
  }
}

TEST(Ec, FieldInverse) {
  util::SplitMix64 rng(37);
  for (int i = 0; i < 10; ++i) {
    const U256 a{rng.next() | 1, rng.next(), rng.next(), 0};
    EXPECT_EQ(fp_mul(a, fp_inv(a)), U256{1});
  }
}

// ---------------------------------------------------------------- Schnorr

TEST(Schnorr, SignVerifyRoundTrip) {
  const PrivateKey key = PrivateKey::from_seed("alice");
  const Signature sig = key.sign("hello world");
  EXPECT_TRUE(verify(key.public_key(), "hello world", sig));
}

TEST(Schnorr, TamperedMessageRejected) {
  const PrivateKey key = PrivateKey::from_seed("alice");
  const Signature sig = key.sign("hello world");
  EXPECT_FALSE(verify(key.public_key(), "hello worle", sig));
  EXPECT_FALSE(verify(key.public_key(), "", sig));
}

TEST(Schnorr, WrongKeyRejected) {
  const PrivateKey alice = PrivateKey::from_seed("alice");
  const PrivateKey mallory = PrivateKey::from_seed("mallory");
  const Signature sig = alice.sign("msg");
  EXPECT_FALSE(verify(mallory.public_key(), "msg", sig));
}

TEST(Schnorr, TamperedSignatureRejected) {
  const PrivateKey key = PrivateKey::from_seed("alice");
  Signature sig = key.sign("msg");
  sig.s = add_mod(sig.s, U256{1}, Secp256k1::n());
  EXPECT_FALSE(verify(key.public_key(), "msg", sig));
}

TEST(Schnorr, DeterministicSignatures) {
  const PrivateKey key = PrivateKey::from_seed("bob");
  EXPECT_EQ(key.sign("m").to_hex(), key.sign("m").to_hex());
  EXPECT_NE(key.sign("m1").to_hex(), key.sign("m2").to_hex());
}

TEST(Schnorr, DistinctSeedsDistinctKeys) {
  EXPECT_NE(PrivateKey::from_seed("a").public_key().to_hex(),
            PrivateKey::from_seed("b").public_key().to_hex());
}

TEST(Schnorr, PublicKeyHexRoundTrip) {
  const PrivateKey key = PrivateKey::from_seed("carol");
  const std::string hex = key.public_key().to_hex();
  EXPECT_EQ(hex.size(), 128u);
  const auto parsed = PublicKey::from_hex(hex);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, key.public_key());
}

TEST(Schnorr, PublicKeyFromHexRejectsOffCurve) {
  // A syntactically valid but off-curve point must be rejected.
  std::string bogus(128, '1');
  EXPECT_FALSE(PublicKey::from_hex(bogus).has_value());
  EXPECT_FALSE(PublicKey::from_hex("abcd").has_value());
}

TEST(Schnorr, SignatureHexRoundTrip) {
  const PrivateKey key = PrivateKey::from_seed("dave");
  const Signature sig = key.sign("payload");
  const auto parsed = Signature::from_hex(sig.to_hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, sig);
  EXPECT_FALSE(Signature::from_hex("deadbeef").has_value());
}

TEST(Schnorr, RejectsOutOfRangeS) {
  const PrivateKey key = PrivateKey::from_seed("erin");
  Signature sig = key.sign("msg");
  sig.s = Secp256k1::n();  // s must be < n
  EXPECT_FALSE(verify(key.public_key(), "msg", sig));
  sig.s = U256{};  // s must be nonzero
  EXPECT_FALSE(verify(key.public_key(), "msg", sig));
}

TEST(Schnorr, FromScalarValidatesRange) {
  EXPECT_THROW((void)PrivateKey::from_scalar(U256{}), CryptoError);
  EXPECT_THROW((void)PrivateKey::from_scalar(Secp256k1::n()), CryptoError);
  EXPECT_NO_THROW((void)PrivateKey::from_scalar(U256{12345}));
}

TEST(Schnorr, HashToScalarBelowOrder) {
  for (const char* m : {"a", "b", "c", "longer message here"}) {
    const auto bytes = std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(m), strlen(m));
    EXPECT_LT(U256::cmp(hash_to_scalar(bytes), Secp256k1::n()), 0);
  }
}

// ------------------------------------------------- SchnorrVerifier

TEST(SchnorrVerifier, MemoizesRepeatVerifications) {
  SchnorrVerifier verifier;
  const PrivateKey key = PrivateKey::from_seed("daemon-1");
  verifier.register_key(key.public_key());
  EXPECT_EQ(verifier.registered_key_count(), 1u);

  const Signature sig = key.sign("attestation");
  EXPECT_TRUE(verifier.verify(key.public_key(), "attestation", sig));
  EXPECT_EQ(verifier.stats().memo_misses, 1u);
  EXPECT_EQ(verifier.stats().table_verifications, 1u);
  // Retransmitted / duplicated attestation: served from the memo.
  EXPECT_TRUE(verifier.verify(key.public_key(), "attestation", sig));
  EXPECT_TRUE(verifier.verify(key.public_key(), "attestation", sig));
  EXPECT_EQ(verifier.stats().memo_hits, 2u);
  EXPECT_EQ(verifier.stats().table_verifications, 1u);
  // Negative results memoize too.
  EXPECT_FALSE(verifier.verify(key.public_key(), "tampered", sig));
  EXPECT_FALSE(verifier.verify(key.public_key(), "tampered", sig));
  EXPECT_EQ(verifier.stats().memo_hits, 3u);
}

TEST(SchnorrVerifier, MemoIsBoundedLru) {
  SchnorrVerifier verifier(/*memo_capacity=*/2);
  const PrivateKey key = PrivateKey::from_seed("daemon-2");
  for (int i = 0; i < 5; ++i) {
    const std::string msg = "m" + std::to_string(i);
    EXPECT_TRUE(verifier.verify(key.public_key(), msg, key.sign(msg)));
    EXPECT_LE(verifier.memo_size(), 2u);
  }
  EXPECT_EQ(verifier.stats().memo_evictions, 3u);
  // The newest entry is still memoized...
  EXPECT_TRUE(verifier.verify(key.public_key(), "m4", key.sign("m4")));
  EXPECT_EQ(verifier.stats().memo_hits, 1u);
  // ...while the oldest was evicted and re-verifies.
  EXPECT_TRUE(verifier.verify(key.public_key(), "m0", key.sign("m0")));
  EXPECT_EQ(verifier.stats().memo_hits, 1u);
}

TEST(SchnorrVerifier, ZeroMemoCapacityKeepsOneEntry) {
  SchnorrVerifier verifier(/*memo_capacity=*/0);
  EXPECT_EQ(verifier.memo_capacity(), 1u);
  const PrivateKey key = PrivateKey::from_seed("daemon-zero");
  const Signature first = key.sign("first");
  EXPECT_TRUE(verifier.verify(key.public_key(), "first", first));
  EXPECT_TRUE(verifier.verify(key.public_key(), "first", first));
  EXPECT_EQ(verifier.stats().memo_hits, 1u);
  // A second distinct attestation evicts the first.
  EXPECT_TRUE(verifier.verify(key.public_key(), "second", key.sign("second")));
  EXPECT_EQ(verifier.memo_size(), 1u);
  EXPECT_EQ(verifier.stats().memo_evictions, 1u);
  EXPECT_TRUE(verifier.verify(key.public_key(), "first", first));
  EXPECT_EQ(verifier.stats().memo_hits, 1u);
  EXPECT_EQ(verifier.stats().memo_misses, 3u);
}

TEST(SchnorrVerifier, KeyChangeInvalidatesMemoizedVerdicts) {
  // The memo binds the key's value AND generation: rotating a daemon key
  // can never serve a verdict computed under the old key, and even
  // re-registering the same key value starts a fresh generation.
  SchnorrVerifier verifier;
  const PrivateKey old_key = PrivateKey::from_seed("rotate-old");
  const PrivateKey new_key = PrivateKey::from_seed("rotate-new");
  verifier.register_key(old_key.public_key());
  const Signature sig = old_key.sign("claim");
  EXPECT_TRUE(verifier.verify(old_key.public_key(), "claim", sig));

  // Same message+signature under the NEW key value: distinct memo entry,
  // correctly false.
  verifier.invalidate_key(old_key.public_key());
  verifier.register_key(new_key.public_key());
  EXPECT_FALSE(verifier.verify(new_key.public_key(), "claim", sig));

  // The old key's generation was bumped, so its memoized verdict is
  // unreachable: a fresh verification runs (and still succeeds, honestly).
  const std::uint64_t misses_before = verifier.stats().memo_misses;
  EXPECT_TRUE(verifier.verify(old_key.public_key(), "claim", sig));
  EXPECT_EQ(verifier.stats().memo_misses, misses_before + 1);
}

// ------------------------------------------------- key tier store

TEST(KeyTierStore, EagerHotOnlyWithinFreeBudget) {
  util::SplitMix64 rng(179);
  KeyTierConfig config;
  config.table_budget_bytes = 2 * KeyTierStore::hot_table_bytes();
  KeyTierStore store(config);
  const AffinePoint a = random_point(rng);
  const AffinePoint b = random_point(rng);
  const AffinePoint c = random_point(rng);
  store.add(a);
  store.add(b);
  store.add(c);  // no free budget left: starts cold, nothing is evicted
  EXPECT_EQ(store.key_count(), 3u);
  EXPECT_EQ(store.hot_count(), 2u);
  EXPECT_NE(store.peek(a), nullptr);
  EXPECT_NE(store.peek(b), nullptr);
  EXPECT_EQ(store.peek(c), nullptr);
  EXPECT_LE(store.table_bytes(), config.table_budget_bytes);
  EXPECT_EQ(store.stats().demotions, 0u);
  // add() is idempotent; remove() frees the table and forgets the key.
  store.add(a);
  EXPECT_EQ(store.key_count(), 3u);
  store.remove(a);
  EXPECT_EQ(store.key_count(), 2u);
  EXPECT_EQ(store.hot_count(), 1u);
  EXPECT_EQ(store.table_bytes(), KeyTierStore::hot_table_bytes());
  EXPECT_FALSE(store.contains(a));
}

TEST(KeyTierStore, UseDrivenPromotionEvictsLeastRecentlyUsed) {
  util::SplitMix64 rng(181);
  KeyTierConfig config;
  config.table_budget_bytes = KeyTierStore::hot_table_bytes();  // one hot slot
  config.hot_after = 2;
  KeyTierStore store(config);
  const AffinePoint a = random_point(rng);
  const AffinePoint b = random_point(rng);
  store.add(a);  // eager hot fills the budget
  store.add(b);  // cold
  EXPECT_NE(store.peek(a), nullptr);
  EXPECT_EQ(store.peek(b), nullptr);

  // First use leaves b cold (below hot_after); crossing the threshold
  // builds its comb table by evicting a's LRU table.
  EXPECT_EQ(store.use(b), nullptr);
  const std::shared_ptr<const FixedBaseTable> hot_b = store.use(b);
  EXPECT_NE(hot_b, nullptr);
  EXPECT_EQ(store.peek(a), nullptr);
  EXPECT_EQ(store.stats().demotions, 1u);
  EXPECT_EQ(store.hot_count(), 1u);
  EXPECT_EQ(store.table_bytes(), KeyTierStore::hot_table_bytes());

  // The demoted key restarts cold and must re-earn its table; when it
  // does, it evicts b in turn.  A use() snapshot taken before the eviction
  // keeps the evicted table alive (a verify in flight holds it that way).
  EXPECT_EQ(store.use(a), nullptr);
  EXPECT_NE(store.use(a), nullptr);
  EXPECT_EQ(store.peek(b), nullptr);
  EXPECT_EQ(store.stats().demotions, 2u);
  EXPECT_EQ(hot_b.use_count(), 1);  // snapshot still owns the dropped table
  EXPECT_LE(store.table_bytes(), config.table_budget_bytes);

  // Unknown points are cold and never tracked.
  EXPECT_EQ(store.use(random_point(rng)), nullptr);
  EXPECT_EQ(store.key_count(), 2u);
}

TEST(KeyTierStore, DeniedBuildsWhenBudgetBelowAnyTable) {
  util::SplitMix64 rng(191);
  KeyTierConfig config;
  config.table_budget_bytes = 16;  // smaller than any table
  KeyTierStore store(config);
  const AffinePoint a = random_point(rng);
  store.add(a);
  EXPECT_EQ(store.peek(a), nullptr);
  store.use(a, 100);
  EXPECT_EQ(store.peek(a), nullptr);
  EXPECT_GE(store.stats().denied_builds, 1u);
  EXPECT_EQ(store.table_bytes(), 0u);
}

TEST(KeyTierStore, MillionKeysStayWithinByteBudget) {
  // Fleet scale: 10^6 tracked principals under a two-hot-table budget.
  // Registration is metadata-only past the budget, so the byte accounting
  // must hold exactly while the key set grows unbounded.
  KeyTierConfig config;
  config.table_budget_bytes = 2 * KeyTierStore::hot_table_bytes();
  KeyTierStore store(config);
  constexpr std::size_t kKeys = 1'000'000;
  for (std::size_t i = 0; i < kKeys; ++i) {
    // Synthetic coordinates: the store never does curve arithmetic for
    // cold keys, so tracking needs no valid points.
    store.add(AffinePoint{U256{i + 1}, U256{1}, false});
  }
  EXPECT_EQ(store.key_count(), kKeys);
  EXPECT_EQ(store.hot_count(), 2u);
  EXPECT_LE(store.table_bytes(), config.table_budget_bytes);

  // A late key that starts signing every flow earns its table by evicting
  // an idle one — the budget never grows with the key count.
  const AffinePoint busy{U256{kKeys}, U256{1}, false};
  store.use(busy, config.hot_after);
  EXPECT_NE(store.peek(busy), nullptr);
  EXPECT_EQ(store.hot_count(), 2u);
  EXPECT_GE(store.stats().demotions, 1u);
  EXPECT_LE(store.table_bytes(), config.table_budget_bytes);
}

TEST(SchnorrVerifier, ColdAndHotTiersAgreeWithPlainVerify) {
  // Zero table budget: every registered key stays cold and verifies
  // through the per-call GLV path.  Default budget: the key is eager hot
  // and verifies through its comb table.  Both agree with the stateless
  // crypto::verify and with an unregistered key on valid and forged
  // signatures alike.
  KeyTierConfig cold_config;
  cold_config.table_budget_bytes = 0;
  SchnorrVerifier cold(SchnorrVerifier::kDefaultMemoCapacity, cold_config);
  SchnorrVerifier hot;
  SchnorrVerifier unregistered;
  const PrivateKey key = PrivateKey::from_seed("tier-cold-hot");
  cold.register_key(key.public_key());
  hot.register_key(key.public_key());
  EXPECT_EQ(cold.tiers().table_bytes(), 0u);
  EXPECT_EQ(hot.tiers().hot_count(), 1u);

  for (int i = 0; i < 8; ++i) {
    const std::string msg = "claim-" + std::to_string(i);
    const Signature sig = key.sign(msg);
    Signature forged = sig;
    forged.s = add_mod(forged.s, U256{1}, Secp256k1::n());
    for (const auto& [m, s, want] :
         {std::tuple{msg, sig, true}, std::tuple{msg + "x", sig, false},
          std::tuple{msg, forged, false}}) {
      EXPECT_EQ(verify(key.public_key(), m, s), want) << m;
      EXPECT_EQ(cold.verify(key.public_key(), m, s), want) << m;
      EXPECT_EQ(hot.verify(key.public_key(), m, s), want) << m;
      EXPECT_EQ(unregistered.verify(key.public_key(), m, s), want) << m;
    }
  }
  EXPECT_EQ(cold.stats().cold_verifications, 24u);
  EXPECT_EQ(cold.stats().table_verifications, 0u);
  EXPECT_EQ(hot.stats().table_verifications, 24u);
  EXPECT_EQ(hot.stats().cold_verifications, 0u);
  EXPECT_EQ(unregistered.stats().table_verifications +
                unregistered.stats().cold_verifications,
            0u);
}

TEST(SchnorrVerifier, MemoAndGenerationsSurviveTierChurn) {
  // Satellite regression: promotion/demotion churn in the tier store must
  // never disturb memo identity, and rotation must invalidate across it.
  KeyTierConfig config;
  config.table_budget_bytes = KeyTierStore::hot_table_bytes();
  config.hot_after = 4;
  SchnorrVerifier verifier(128, config);
  const PrivateKey a = PrivateKey::from_seed("churn-a");
  const PrivateKey b = PrivateKey::from_seed("churn-b");
  verifier.register_key(a.public_key());  // eager hot
  verifier.register_key(b.public_key());  // cold

  const Signature sig_a = a.sign("alpha");
  EXPECT_TRUE(verifier.verify(a.public_key(), "alpha", sig_a));
  EXPECT_EQ(verifier.stats().table_verifications, 1u);

  // b climbs cold -> hot, evicting a's table along the way.
  for (int i = 0; i < 6; ++i) {
    const std::string msg = "beta-" + std::to_string(i);
    EXPECT_TRUE(verifier.verify(b.public_key(), msg, b.sign(msg)));
  }
  EXPECT_NE(verifier.tiers().peek(b.public_key().point), nullptr);
  EXPECT_EQ(verifier.tiers().peek(a.public_key().point), nullptr);
  EXPECT_GE(verifier.tiers().stats().demotions, 1u);
  EXPECT_EQ(verifier.stats().cold_verifications, 3u);

  // a's demotion did not touch its memo entry...
  EXPECT_TRUE(verifier.verify(a.public_key(), "alpha", sig_a));
  EXPECT_EQ(verifier.stats().memo_hits, 1u);
  // ...and a fresh claim verifies correctly through the cold path.
  EXPECT_TRUE(verifier.verify(a.public_key(), "alpha-2", a.sign("alpha-2")));

  // Rotating b makes every verdict memoized under the old generation
  // unreachable, across the promotion churn above.
  verifier.invalidate_key(b.public_key());
  verifier.register_key(b.public_key());
  const std::uint64_t misses_before = verifier.stats().memo_misses;
  EXPECT_TRUE(verifier.verify(b.public_key(), "beta-0", b.sign("beta-0")));
  EXPECT_EQ(verifier.stats().memo_misses, misses_before + 1);
}

// ------------------------------------------------- GLV endomorphism

TEST(Glv, ConstantsAreNontrivialCubeRootsOfUnity) {
  EXPECT_EQ(pow_mod(Glv::beta(), U256{3}, Secp256k1::p()), U256{1});
  EXPECT_NE(Glv::beta(), U256{1});
  EXPECT_EQ(pow_mod(Glv::lambda(), U256{3}, Secp256k1::n()), U256{1});
  EXPECT_NE(Glv::lambda(), U256{1});
}

TEST(Glv, EndomorphismEqualsLambdaMultiplication) {
  util::SplitMix64 rng(131);
  EXPECT_EQ(ec_endomorphism(AffinePoint::generator()),
            ec_mul_naive(Glv::lambda(), AffinePoint::generator()).to_affine());
  for (int i = 0; i < 25; ++i) {
    const AffinePoint p = random_point(rng);
    EXPECT_EQ(ec_endomorphism(p), ec_mul_naive(Glv::lambda(), p).to_affine());
  }
}

TEST(Glv, SplitRecombinesWithShortHalves) {
  // k == (+-k1) + (+-k2)*lambda (mod n), both halves ~sqrt(n)-sized.
  util::SplitMix64 rng(137);
  const U256& n = Secp256k1::n();
  std::vector<U256> scalars = {U256{}, U256{1}, Glv::lambda(),
                               U256::sub(n, U256{1}).first};
  for (int i = 0; i < 1000; ++i) {
    scalars.push_back(
        sn_reduce(U256{rng.next(), rng.next(), rng.next(), rng.next()}));
  }
  for (const U256& k : scalars) {
    const GlvSplit split = glv_split(k);
    const U256 t1 = split.neg1 ? sub_mod(U256{}, split.k1, n) : split.k1;
    const U256 t2 = split.neg2 ? sub_mod(U256{}, split.k2, n) : split.k2;
    EXPECT_EQ(sn_add(t1, sn_mul(t2, Glv::lambda())), k) << "k=" << k.to_hex();
    EXPECT_LE(split.k1.bit_length(), 130u);
    EXPECT_LE(split.k2.bit_length(), 130u);
  }
}

TEST(EcDifferential, GlvMulMatchesNaive) {
  // The GLV split path agrees with the double-and-add oracle on >= 1000
  // random scalars plus edges (out-of-range scalars reduce internally).
  util::SplitMix64 rng(139);
  const AffinePoint p = random_point(rng);
  std::vector<U256> scalars = {
      U256{},
      U256{1},
      U256{2},
      Glv::lambda(),
      U256::sub(Secp256k1::n(), U256{1}).first,
      Secp256k1::n(),
      U256::add(Secp256k1::n(), U256{5}).first,
      U256{~0ULL, ~0ULL, ~0ULL, ~0ULL},
  };
  for (int i = 0; i < 1000; ++i) {
    scalars.push_back(U256{rng.next(), rng.next(), rng.next(), rng.next()});
  }
  for (const U256& k : scalars) {
    EXPECT_EQ(ec_mul_glv(k, p).to_affine(), ec_mul_naive(k, p).to_affine())
        << "k=" << k.to_hex();
  }
}

TEST(EcDifferential, GlvMulAddMatchesNaiveComposition) {
  // The cold-key verification core a*G + b*P against the naive sum.
  util::SplitMix64 rng(141);
  const AffinePoint p = random_point(rng);
  for (int i = 0; i < 1000; ++i) {
    const U256 a{rng.next(), rng.next(), rng.next(), rng.next()};
    const U256 b{rng.next(), rng.next(), rng.next(), rng.next()};
    const AffinePoint expected =
        ec_add(ec_mul_naive(a, AffinePoint::generator()), ec_mul_naive(b, p))
            .to_affine();
    EXPECT_EQ(ec_mul_add_glv(a, b, p).to_affine(), expected);
  }
  EXPECT_EQ(ec_mul_add_glv(U256{}, U256{7}, p).to_affine(),
            ec_mul_naive(U256{7}, p).to_affine());
  EXPECT_EQ(ec_mul_add_glv(U256{7}, U256{}, p).to_affine(),
            ec_mul_naive(U256{7}, AffinePoint::generator()).to_affine());
  EXPECT_TRUE(ec_mul_add_glv(U256{}, U256{}, p).is_identity());
}

// ------------------------------------------------- unrolled field layer

TEST(FpDifferential, UnrolledOpsMatchGenericModOracles) {
  // The fixed-prime field layer against the generic U256/U512 modular
  // routines it replaced, on >= 1000 random residues plus boundary values.
  util::SplitMix64 rng(157);
  const U256& p = Secp256k1::p();
  const auto residue = [&rng, &p]() {
    U512 x{};
    for (std::size_t i = 0; i < 4; ++i) x.w[i] = rng.next();
    return mod(x, p);
  };
  std::vector<std::pair<U256, U256>> cases = {
      {U256{}, U256{}},
      {U256{}, U256{1}},
      {U256::sub(p, U256{1}).first, U256::sub(p, U256{1}).first},
      {U256::sub(p, U256{1}).first, U256{1}},
      {U256::sub(p, U256{2}).first, U256{2}},
  };
  for (int i = 0; i < 1000; ++i) cases.emplace_back(residue(), residue());
  for (const auto& [a, b] : cases) {
    EXPECT_EQ(fp_add(a, b), add_mod(a, b, p));
    EXPECT_EQ(fp_sub(a, b), sub_mod(a, b, p));
    EXPECT_EQ(fp_mul(a, b), mul_mod(a, b, p));
    EXPECT_EQ(fp_sqr(a), mul_mod(a, a, p));
    if (!a.is_zero()) {
      EXPECT_EQ(fp_inv(a), inv_mod(a, p));
      EXPECT_EQ(fp_mul(a, fp_inv(a)), U256{1});
    }
  }
}

TEST(U256Arith, SqrWideMatchesMulWide) {
  util::SplitMix64 rng(163);
  const auto check = [](const U256& a) {
    const U512 expected = U256::mul_wide(a, a);
    const U512 got = U256::sqr_wide(a);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(got.w[i], expected.w[i]);
    }
  };
  check(U256{});
  check(U256{1});
  check(U256{~0ULL, ~0ULL, ~0ULL, ~0ULL});
  for (int i = 0; i < 1000; ++i) {
    check(U256{rng.next(), rng.next(), rng.next(), rng.next()});
  }
}

TEST(U256Arith, DivRoundRoundsToNearestMultiple) {
  // div_round feeds the GLV decomposition constants: exact multiples must
  // return the exact quotient, one below rounds up, one above rounds down.
  util::SplitMix64 rng(167);
  const U256& m = Secp256k1::n();
  for (int i = 0; i < 200; ++i) {
    const U256 q =
        sn_reduce(U256{rng.next(), rng.next(), rng.next(), rng.next()});
    if (q.is_zero()) continue;
    const U512 exact = U256::mul_wide(q, m);
    EXPECT_EQ(div_round(exact, m), q);
    U512 above = exact;  // q*m + 1: remainder 1 < m/2, still q
    for (auto& w : above.w) {
      if (++w != 0) break;
    }
    EXPECT_EQ(div_round(above, m), q);
    U512 below = exact;  // q*m - 1: remainder m-1 > m/2, rounds back up to q
    for (auto& w : below.w) {
      if (w-- != 0) break;
    }
    EXPECT_EQ(div_round(below, m), q);
  }
}

// Property sweep: sign/verify holds across many seeds and messages.
class SchnorrPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SchnorrPropertyTest, RoundTripAndCrossRejection) {
  const int i = GetParam();
  const PrivateKey key =
      PrivateKey::from_seed("seed-" + std::to_string(i));
  const std::string msg = "message-" + std::to_string(i * 7);
  const Signature sig = key.sign(msg);
  EXPECT_TRUE(verify(key.public_key(), msg, sig));
  // A signature never verifies under a different message.
  EXPECT_FALSE(verify(key.public_key(), msg + "!", sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace identxx::crypto
