#pragma once

// Schnorr signatures over secp256k1.
//
// This is the signing machinery behind the paper's authenticated delegation:
// a user or third-party security company ("Secur" in Fig. 6/7) signs an
// application's name, executable hash and `requirements` rules; the ident++
// controller verifies the signature with the `verify` PF+=2 function before
// honoring the delegated rules.
//
// Scheme (classic Schnorr, deterministic nonce):
//   keygen:  d <- H(seed) mod n (nonzero), P = d*G
//   sign:    k = H(d || m) mod n, R = k*G,
//            e = H(Rx || Ry || Px || Py || m) mod n,
//            s = k + e*d mod n.          Signature = (Rx, Ry, s).
//   verify:  s*G == R + e*P.
//
// Signatures serialize to 96 bytes (192 hex chars); public keys to 64 bytes.

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "crypto/ct.hpp"
#include "crypto/ec.hpp"
#include "crypto/sha256.hpp"

namespace identxx::crypto {

struct PublicKey {
  AffinePoint point;

  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] static std::optional<PublicKey> from_hex(std::string_view hex);
  [[nodiscard]] bool operator==(const PublicKey&) const noexcept = default;
};

struct Signature {
  AffinePoint r;
  U256 s;

  [[nodiscard]] std::string to_hex() const;
  [[nodiscard]] static std::optional<Signature> from_hex(std::string_view hex);
  [[nodiscard]] bool operator==(const Signature&) const noexcept = default;
};

class PrivateKey {
 public:
  /// Derive a key pair deterministically from an arbitrary seed string.
  /// Distinct seeds give distinct keys with overwhelming probability.
  [[nodiscard]] static PrivateKey from_seed(std::string_view seed);

  /// Construct from a raw scalar; throws CryptoError when out of [1, n-1].
  [[nodiscard]] static PrivateKey from_scalar(const U256& d);

  [[nodiscard]] const PublicKey& public_key() const noexcept { return public_; }

  /// Sign an arbitrary message (deterministic: same key+message => same
  /// sig).  Runs the certified constant-time kernel (ct_sign.hpp): the
  /// nonce chain is a fixed-window comb with complete additions and masked
  /// reductions — no branch, memory index, or variable-time operator
  /// depends on d or k (DESIGN.md §16).
  [[nodiscard]] Signature sign(std::string_view message) const;
  [[nodiscard]] Signature sign(std::span<const std::uint8_t> message) const;

  [[nodiscard]] const U256& scalar() const noexcept {
    return d_.expose_secret();
  }

 private:
  PrivateKey(const U256& d, PublicKey pub) : d_(d), public_(pub) {}
  ct::secret<U256> d_;  ///< wiped on destruction (ct.hpp)
  PublicKey public_;
};

/// Verify `sig` over `message` with `key`.  Returns false (never throws) on
/// any mismatch, off-curve point or out-of-range scalar.
///
/// The check s*G == R + e*P runs as one fused GLV pass computing
/// s*G + (n-e)*P and comparing against R projectively (no field
/// inversion).  Stateless: no table is built, cached or shared, so the
/// call takes no lock and allocates nothing.  Long-lived keys get their
/// comb tables from SchnorrVerifier::register_key (DESIGN.md §9).
[[nodiscard]] bool verify(const PublicKey& key, std::string_view message,
                          const Signature& sig) noexcept;
[[nodiscard]] bool verify(const PublicKey& key,
                          std::span<const std::uint8_t> message,
                          const Signature& sig) noexcept;

/// The same check with the challenge e already computed and, optionally,
/// the key's comb table: with `hot` the multiplication is two chain-free
/// comb walks, without it the per-call GLV pass.  SchnorrVerifier calls
/// this — the memo keys on e and batch verification folds z_i * e_i, so
/// the message is hashed exactly once per verification.
[[nodiscard]] bool verify_tiered(const PublicKey& key,
                                 const FixedBaseTable* hot, const U256& e,
                                 const Signature& sig) noexcept;

/// The Schnorr challenge e = H(Rx || Ry || Px || Py || m) mod n.  Exposed
/// for batch verification, which folds z_i * e_i into one multi-scalar
/// multiplication instead of calling verify() per signature.
[[nodiscard]] U256 schnorr_challenge(const AffinePoint& r,
                                     const AffinePoint& p,
                                     std::span<const std::uint8_t> message) noexcept;

/// Structural signature checks shared by single and batch verification:
/// R on curve and not the identity, s in [1, n-1].
[[nodiscard]] bool signature_well_formed(const Signature& sig) noexcept;

/// Hash-to-scalar helper: SHA-256(data) reduced mod n.
[[nodiscard]] U256 hash_to_scalar(std::span<const std::uint8_t> data) noexcept;

}  // namespace identxx::crypto
