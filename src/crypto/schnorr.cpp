#include "crypto/schnorr.hpp"

#include <cstring>
#include <string>

#include "crypto/ct.hpp"
#include "crypto/ct_sign.hpp"
#include "crypto/hmac.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

#ifdef IDENTXX_CT_TRACE
#include <cstdlib>
#endif

namespace identxx::crypto {

namespace {

/// Reduce a 32-byte digest modulo the group order (one conditional
/// subtraction — the digest is < 2^256 < 2n).
U256 digest_to_scalar(const Digest& digest) noexcept {
  return sn_reduce(U256::from_bytes(std::span<const std::uint8_t, 32>(digest)));
}

/// Challenge e = H(Rx || Ry || Px || Py || m) mod n.
U256 challenge(const AffinePoint& r, const AffinePoint& p,
               std::span<const std::uint8_t> message) noexcept {
  Sha256 h;
  const auto rx = r.x.to_bytes();
  const auto ry = r.y.to_bytes();
  const auto px = p.x.to_bytes();
  const auto py = p.y.to_bytes();
  h.update(std::span(rx.data(), rx.size()));
  h.update(std::span(ry.data(), ry.size()));
  h.update(std::span(px.data(), px.size()));
  h.update(std::span(py.data(), py.size()));
  h.update(message);
  return digest_to_scalar(h.finish());
}

std::span<const std::uint8_t> as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

std::string PublicKey::to_hex() const {
  return point.x.to_hex() + point.y.to_hex();
}

std::optional<PublicKey> PublicKey::from_hex(std::string_view hex) {
  if (hex.size() != 128) return std::nullopt;
  const auto x = U256::from_hex(hex.substr(0, 64));
  const auto y = U256::from_hex(hex.substr(64, 64));
  if (!x || !y) return std::nullopt;
  PublicKey key{AffinePoint{*x, *y, false}};
  if (!key.point.on_curve()) return std::nullopt;
  return key;
}

std::string Signature::to_hex() const {
  return r.x.to_hex() + r.y.to_hex() + s.to_hex();
}

std::optional<Signature> Signature::from_hex(std::string_view hex) {
  if (hex.size() != 192) return std::nullopt;
  const auto rx = U256::from_hex(hex.substr(0, 64));
  const auto ry = U256::from_hex(hex.substr(64, 64));
  const auto s = U256::from_hex(hex.substr(128, 64));
  if (!rx || !ry || !s) return std::nullopt;
  return Signature{AffinePoint{*rx, *ry, false}, *s};
}

// ct-lint: secret(seed)
PrivateKey PrivateKey::from_seed(std::string_view seed) {
  // Hash the seed with a counter until we land in [1, n-1]; the first
  // iteration succeeds with probability ~1 - 2^-128.  The digest is the
  // key candidate, so the reduction runs masked (digest_to_scalar_ct).
  for (std::uint32_t counter = 0;; ++counter) {
    Sha256 h;
    h.update("identxx-keygen-v1:");
    h.update(seed);
    const std::array<std::uint8_t, 4> ctr{
        static_cast<std::uint8_t>(counter >> 24),
        static_cast<std::uint8_t>(counter >> 16),
        static_cast<std::uint8_t>(counter >> 8),
        static_cast<std::uint8_t>(counter)};
    h.update(std::span(ctr.data(), ctr.size()));
    Digest digest = h.finish();
    U256 candidate = ct::digest_to_scalar_ct(digest);
    ct::secure_wipe(digest);
    // Retrying on zero is publicly observable by construction (the
    // counter is part of the derivation) and happens with probability
    // ~2^-256.
    if (!ct::declassify(candidate.is_zero())) {  // ct-lint: allow(branch)
      PrivateKey key = from_scalar(candidate);
      ct::secure_wipe(candidate);
      return key;
    }
  }
}

// ct-lint: secret(d) public-return
PrivateKey PrivateKey::from_scalar(const U256& d) {
  // Whether d is a valid key is public: every key this library mints is,
  // and a caller feeding an out-of-range scalar learns only what it
  // already knew.
  if (ct::declassify(d.is_zero() ||
                     U256::cmp(d, Secp256k1::n()) >= 0)) {  // ct-lint: allow(branch, call)
    throw CryptoError("private scalar out of range [1, n-1]");
  }
  // Public-key derivation multiplies G by the private scalar — use the
  // constant-time comb, not the wNAF path.
  const AffinePoint pub = ct::ec_mul_base_ct<std::uint64_t>(d);
  return PrivateKey(d, PublicKey{pub});
}

Signature PrivateKey::sign(std::string_view message) const {
  return sign(as_bytes(message));
}

Signature PrivateKey::sign(std::span<const std::uint8_t> message) const {
  const U256& d = d_.expose_secret();
  const Signature sig =
      ct::schnorr_sign_ct<std::uint64_t>(d, public_.point, message);
#ifdef IDENTXX_CT_TRACE
  // Shadow run in the ctgrind style: the identical kernel instantiated
  // with the taint-tracking limb.  Any secret-dependent branch, shift
  // count, or variable-time operator throws TraceViolation; the result
  // must agree bit-for-bit with production.
  const Signature traced =
      ct::schnorr_sign_ct<ct::TracedLimb>(d, public_.point, message);
  if (!(traced == sig)) std::abort();
#endif
  return sig;
}

bool verify(const PublicKey& key, std::string_view message,
            const Signature& sig) noexcept {
  return verify(key, as_bytes(message), sig);
}

bool verify(const PublicKey& key, std::span<const std::uint8_t> message,
            const Signature& sig) noexcept {
  return verify_tiered(key, nullptr, challenge(sig.r, key.point, message), sig);
}

bool verify_tiered(const PublicKey& key, const FixedBaseTable* hot,
                   const U256& e, const Signature& sig) noexcept {
  if (key.point.infinity || !key.point.on_curve()) return false;
  if (!signature_well_formed(sig)) return false;
  // s*G == R + e*P rewritten as s*G + (n-e)*P == R: one pass, compared
  // projectively.  The comb table makes the pass chain-free; without it
  // the per-call GLV path runs.
  const U256 e_neg =
      e.is_zero() ? U256{} : U256::sub(Secp256k1::n(), e).first;
  const JacobianPoint lhs =
      hot != nullptr ? ec_mul_add(sig.s, e_neg, *hot)
                     : ec_mul_add_glv(sig.s, e_neg, key.point);
  return ec_equals_affine(lhs, sig.r);
}

U256 schnorr_challenge(const AffinePoint& r, const AffinePoint& p,
                       std::span<const std::uint8_t> message) noexcept {
  return challenge(r, p, message);
}

bool signature_well_formed(const Signature& sig) noexcept {
  if (sig.r.infinity || !sig.r.on_curve()) return false;
  if (sig.s.is_zero() || U256::cmp(sig.s, Secp256k1::n()) >= 0) return false;
  return true;
}

U256 hash_to_scalar(std::span<const std::uint8_t> data) noexcept {
  return digest_to_scalar(Sha256::hash(data));
}

}  // namespace identxx::crypto
