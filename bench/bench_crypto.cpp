// B5: crypto substrate costs — SHA-256 over message sizes, Schnorr keygen/
// sign/verify, and the full PF+=2 `verify()` predicate as used by the
// delegation rules (Figs 5/7).  These bound how expensive authenticated
// delegation is per flow-setup.
//
// The verification paths (DESIGN.md §9, §15): BM_SchnorrVerify (stateless
// per-call GLV — the cold-key floor), BM_SchnorrVerifyTierSweep (registered
// keys cold vs hot, i.e. per-call GLV vs per-key comb table),
// BM_SchnorrBatchVerify (one multi-scalar pass per batch),
// BM_SchnorrVerifierMemoHit (the controller-layer verification memo), and
// BM_ScalarReduce* (folding reduction mod n vs binary long division).

#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/ct_sign.hpp"
#include "crypto/hmac.hpp"
#include "crypto/key_tier.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verifier.hpp"
#include "identxx/daemon_config.hpp"
#include "pf/eval.hpp"
#include "pf/parser.hpp"

namespace {

using namespace identxx;

void BM_Sha256(benchmark::State& state) {
  const std::string message(static_cast<std::size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_SchnorrKeygen(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::PrivateKey::from_seed("seed-" + std::to_string(i++)));
  }
}
BENCHMARK(BM_SchnorrKeygen);

void BM_SchnorrSign(benchmark::State& state) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("bench");
  const std::string message(256, 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(message));
  }
}
BENCHMARK(BM_SchnorrSign);

/// The constant-time kernel called directly (what sign() runs since the
/// timing-leak hardening, DESIGN.md §16): fixed-window comb over complete
/// additions, masked reductions, one ct field inversion.
void BM_SchnorrSignCt(benchmark::State& state) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("bench");
  const std::string message(256, 'm');
  const auto msg = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(message.data()), message.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ct::schnorr_sign_ct<std::uint64_t>(
        key.scalar(), key.public_key().point, msg));
  }
}
BENCHMARK(BM_SchnorrSignCt);

/// The pre-hardening variable-time signing shape (wNAF nonce multiply,
/// branchy reductions), reassembled from the public primitives.  The
/// constant-time budget is BM_SchnorrSignCt <= 3x this baseline.
void BM_SchnorrSignVartime(benchmark::State& state) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("bench");
  const crypto::U256 d = key.scalar();
  const crypto::PublicKey pub = key.public_key();
  const std::string message(256, 'm');
  const auto msg = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(message.data()), message.size());
  const auto d_bytes = d.to_bytes();
  for (auto _ : state) {
    crypto::Signature sig{};
    for (std::uint8_t counter = 0;; ++counter) {
      crypto::Sha256 h;
      h.update(msg);
      h.update(std::span(&counter, 1));
      const crypto::Digest msg_digest = h.finish();
      const crypto::Digest k_digest = crypto::hmac_sha256(
          std::span<const std::uint8_t>(d_bytes.data(), d_bytes.size()),
          std::span<const std::uint8_t>(msg_digest.data(), msg_digest.size()));
      const crypto::U256 k = crypto::sn_reduce(crypto::U256::from_bytes(
          std::span<const std::uint8_t, 32>(k_digest)));
      if (k.is_zero()) continue;
      const crypto::AffinePoint r = crypto::ec_mul_base(k).to_affine();
      const crypto::U256 e = crypto::schnorr_challenge(r, pub.point, msg);
      sig = crypto::Signature{r, crypto::sn_add(k, crypto::sn_mul(e, d))};
      break;
    }
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_SchnorrSignVartime);

/// Plain crypto::verify: stateless, so every call runs the per-call GLV
/// pass — the same cost a cold (tableless) registered key pays.
void BM_SchnorrVerify(benchmark::State& state) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("bench");
  const std::string message(256, 'm');
  const crypto::Signature sig = key.sign(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(key.public_key(), message, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

/// Batch verification of N distinct attestations from a small principal
/// pool (a decide_many burst: a handful of daemons attest many flows).
/// One random-linear-combination MSM settles the whole batch; compare
/// time/N against BM_SchnorrVerifyTierSweep/1 (hot) for the per-item
/// speedup.
/// The pool keys register eager-hot (default tier budget) — a decide_many
/// burst comes from registered daemons, so their key terms ride the
/// chain-free comb walk and only the 64-bit R-term streams set the shared
/// doubling-chain length.  A memo of capacity 1 keeps every iteration's
/// lookups missing.
void BM_SchnorrBatchVerify(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPrincipals = 4;
  constexpr std::size_t kBatchPool = 8;

  std::vector<crypto::PrivateKey> keys;
  for (std::size_t i = 0; i < kPrincipals; ++i) {
    keys.push_back(crypto::PrivateKey::from_seed("batch-" + std::to_string(i)));
  }
  std::vector<std::string> messages;
  std::vector<std::vector<crypto::SchnorrVerifier::BatchItem>> batches(
      kBatchPool);
  messages.reserve(kBatchPool * n);
  for (std::size_t b = 0; b < kBatchPool; ++b) {
    for (std::size_t i = 0; i < n; ++i) {
      const crypto::PrivateKey& key = keys[i % keys.size()];
      messages.push_back("attestation-" + std::to_string(b) + "-" +
                         std::to_string(i));
      batches[b].push_back(crypto::SchnorrVerifier::BatchItem{
          key.public_key(), messages.back(), key.sign(messages.back())});
    }
  }

  crypto::SchnorrVerifier verifier(/*memo_capacity=*/1);
  for (const auto& key : keys) verifier.register_key(key.public_key());

  std::size_t b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify_batch(batches[b++ % kBatchPool]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchnorrBatchVerify)->Arg(2)->Arg(8)->Arg(64);

/// The key-tier budget sweep: 256 registered principals verified
/// round-robin under a budget that holds (0) no tables — per-call GLV,
/// (1) a hot comb table per key, built eagerly at registration.  The memo
/// is capacity 1 so every verification runs the group arithmetic.
void BM_SchnorrVerifyTierSweep(benchmark::State& state) {
  constexpr std::size_t kKeys = 256;
  struct Case {
    crypto::PublicKey key;
    crypto::Signature sig;
  };
  const bool hot = state.range(0) != 0;
  crypto::KeyTierConfig tier_config;
  tier_config.table_budget_bytes =
      hot ? kKeys * crypto::KeyTierStore::hot_table_bytes() : 0;
  state.SetLabel(hot ? "hot" : "cold");
  crypto::SchnorrVerifier verifier(/*memo_capacity=*/1, tier_config);
  std::vector<Case> cases;
  const std::string message(256, 'm');
  for (std::size_t i = 0; i < kKeys; ++i) {
    const crypto::PrivateKey key =
        crypto::PrivateKey::from_seed("tier-" + std::to_string(i));
    verifier.register_key(key.public_key());
    cases.push_back(Case{key.public_key(), key.sign(message)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Case& c = cases[i++ % cases.size()];
    benchmark::DoNotOptimize(verifier.verify(c.key, message, c.sig));
  }
  state.counters["table_mb"] =
      static_cast<double>(verifier.tiers().table_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_SchnorrVerifyTierSweep)->Arg(0)->Arg(1);

/// The controller-layer verification memo: byte-identical attestations
/// (retransmissions, one app's flows in a batch) cost a hash + LRU probe.
void BM_SchnorrVerifierMemoHit(benchmark::State& state) {
  crypto::SchnorrVerifier verifier;
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("bench");
  verifier.register_key(key.public_key());
  const std::string message(256, 'm');
  const crypto::Signature sig = key.sign(message);
  benchmark::DoNotOptimize(verifier.verify(key.public_key(), message, sig));
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify(key.public_key(), message, sig));
  }
}
BENCHMARK(BM_SchnorrVerifierMemoHit);

/// Scalar reduction mod n: specialized folding vs generic long division.
void BM_ScalarReduceFast(benchmark::State& state) {
  crypto::U512 wide;
  for (std::size_t i = 0; i < 8; ++i) wide.w[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sn_reduce(wide));
  }
}
BENCHMARK(BM_ScalarReduceFast);

void BM_ScalarReduceGeneric(benchmark::State& state) {
  crypto::U512 wide;
  for (std::size_t i = 0; i < 8; ++i) wide.w[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::mod(wide, crypto::Secp256k1::n()));
  }
}
BENCHMARK(BM_ScalarReduceGeneric);

/// The whole Fig 5-style predicate: verify(@dst[req-sig], @pubkeys[k], ...)
/// evaluated through the policy engine.
void BM_PolicyVerifyPredicate(benchmark::State& state) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("research");
  const std::string requirements = "block all pass all";
  const std::string exe_hash(64, 'a');
  const crypto::Signature sig =
      key.sign(proto::signed_message({exe_hash, "app", requirements}));

  proto::Response response;
  proto::Section section;
  section.add("exe-hash", exe_hash);
  section.add("app-name", "app");
  section.add("requirements", requirements);
  section.add("req-sig", sig.to_hex());
  response.append_section(section);

  pf::FlowContext ctx;
  ctx.flow.src_ip = *net::Ipv4Address::parse("10.0.0.1");
  ctx.flow.dst_ip = *net::Ipv4Address::parse("10.0.0.2");
  ctx.dst = proto::ResponseDict(response);

  const pf::PolicyEngine engine(pf::parse(
      "dict <pubkeys> { research : " + key.public_key().to_hex() + " }\n"
      "block all\n"
      "pass all with verify(@dst[req-sig], @pubkeys[research], "
      "@dst[exe-hash], @dst[app-name], @dst[requirements])\n"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(ctx).allowed());
  }
}
BENCHMARK(BM_PolicyVerifyPredicate);

}  // namespace

BENCHMARK_MAIN();
