#pragma once

// SchnorrVerifier: tiered registered-key tables + memoized verification +
// batch verification.
//
// The flow-setup hot path verifies one signature per daemon attestation,
// and the same attestation recurs constantly: retransmitted responses,
// several flows from one application inside a decide_many batch, repeat
// packet-ins for an undecided flow.  This wrapper adds three layers on top
// of crypto::verify (DESIGN.md §9, §15):
//
//   * a tiered key registry — register_key() tracks a long-lived public key
//     in a memory-budgeted KeyTierStore, the only owner of per-key
//     verification state.  Hot keys hold a full comb table, cold keys
//     verify through the per-call GLV path; promotion follows verify
//     frequency, so a shard can track 10^6+ principals while spending
//     table memory only on the keys that sign every flow;
//   * a bounded LRU memo of (key, challenge, signature) -> bool, so a
//     byte-identical attestation verifies exactly once per retention
//     window;
//   * verify_batch() — random-linear-combination batch verification: N
//     distinct attestations are checked with one multi-scalar
//     multiplication instead of N full verifies.  A rejected batch is
//     bisected (with the same coefficients) down to ground-truth single
//     verifies, so per-item verdicts are always exact and a forged
//     signature can never hide behind the aggregate.
//
// Soundness of the memo: the key is part of the memo identity (the entry
// binds the *value* of the key, not a name), so a daemon rotating its key
// can never be served a verdict computed under the old key.  Re-registering
// or invalidating a key additionally bumps its generation, which makes
// every memo entry recorded under the old generation unreachable — they
// age out of the LRU like any cold entry.  Batch verification feeds the
// same memo with the same identity format.

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crypto/key_id.hpp"
#include "crypto/key_tier.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"

namespace identxx::crypto {

class SchnorrVerifier {
 public:
  static constexpr std::size_t kDefaultMemoCapacity = 4096;

  struct Stats {
    std::uint64_t verifications = 0;  ///< verify() calls + batch items
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t memo_evictions = 0;
    std::uint64_t table_verifications = 0;  ///< served via a hot comb table
    std::uint64_t cold_verifications = 0;   ///< registered but tableless
    std::uint64_t batch_calls = 0;          ///< verify_batch() invocations
    std::uint64_t batch_items = 0;          ///< items settled by an RLC check
    std::uint64_t batch_msms = 0;           ///< multi-scalar passes (incl. bisection)
    std::uint64_t batch_rejects = 0;        ///< batches that fell back to bisection
  };

  /// One attestation inside a verify_batch() call.  `message` must stay
  /// alive for the duration of the call.
  struct BatchItem {
    PublicKey key;
    std::string_view message;
    Signature sig;
  };

  explicit SchnorrVerifier(std::size_t memo_capacity = kDefaultMemoCapacity,
                           const KeyTierConfig& tier_config = {})
      : memo_capacity_(memo_capacity == 0 ? 1 : memo_capacity),
        tiers_(tier_config) {}

  /// Track a long-lived key in the tier store (eagerly hot when the table
  /// budget has room).  Idempotent.
  void register_key(const PublicKey& key);

  /// Drop `key`'s tables and make its memoized verdicts unreachable (key
  /// change / revocation).  A later register_key starts a new generation.
  void invalidate_key(const PublicKey& key);

  [[nodiscard]] bool verify(const PublicKey& key, std::string_view message,
                            const Signature& sig);
  [[nodiscard]] bool verify(const PublicKey& key,
                            std::span<const std::uint8_t> message,
                            const Signature& sig);

  /// Verify every item, spending ~one multi-scalar multiplication for the
  /// whole batch when all signatures are valid.  Returns one verdict per
  /// item, in order; verdicts are exact (a rejected aggregate is bisected
  /// to ground truth, so invalid items are false and valid ones true).
  /// Memo hits are honored and all computed verdicts are memoized.
  [[nodiscard]] std::vector<bool> verify_batch(
      std::span<const BatchItem> items);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t registered_key_count() const noexcept {
    return registered_.size();
  }
  [[nodiscard]] std::size_t memo_size() const noexcept { return memo_.size(); }
  [[nodiscard]] std::size_t memo_capacity() const noexcept {
    return memo_capacity_;
  }
  [[nodiscard]] const KeyTierStore& tiers() const noexcept { return tiers_; }

 private:
  /// Memo identity: the literal (key value, key generation, signature,
  /// challenge) tuple.  The Schnorr challenge e = H(R || P || m) mod n
  /// binds the message (and is needed by every verification anyway, so
  /// the memo costs no extra hashing); the key value, generation and
  /// signature are bound exactly, word for word.
  struct MemoKey {
    detail::PointId id{};  ///< key.x, key.y raw words
    std::uint64_t generation = 0;
    U256 rx, ry, s;
    U256 e;  ///< schnorr_challenge(R, P, message)
    bool operator==(const MemoKey&) const = default;
  };

  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& k) const noexcept {
      // e is a reduced SHA-256 output, already uniform; fold in signature
      // and key words so same-message entries still spread.
      std::uint64_t h = k.e.w[0];
      h ^= k.s.w[0] * 0x9e3779b97f4a7c15ULL;
      h ^= k.rx.w[0] + k.id[0] + k.generation;
      return static_cast<std::size_t>(h);
    }
  };

  struct MemoEntry {
    MemoKey id{};
    bool ok = false;
  };
  using Order = std::list<MemoEntry>;

  /// A batch item that survived memo lookup and structural checks.
  struct PendingItem;
  /// Comb tables of the registered keys in one batch (snapshot; null =
  /// cold).  Keys absent from the map are unregistered.
  using BatchTables =
      std::unordered_map<detail::PointId,
                         std::shared_ptr<const FixedBaseTable>,
                         detail::PointIdHash>;

  [[nodiscard]] MemoKey memo_key_for(const detail::PointId& id,
                                     const Signature& sig,
                                     const U256& e) const;
  void memo_store(const MemoKey& memo_key, bool ok);
  /// Memoize `ok` for pending[a, b) in order.  Skips the prefix whose
  /// entries this loop's own LRU evictions would erase before returning.
  void memo_store_range(const std::vector<PendingItem>& pending,
                        std::size_t a, std::size_t b, bool ok);
  /// RLC check over pending[lo, hi): one MSM, true iff the aggregate holds.
  [[nodiscard]] bool batch_check(const std::vector<PendingItem>& pending,
                                 std::size_t lo, std::size_t hi,
                                 const BatchTables& tables);
  void batch_resolve(std::vector<bool>& results,
                     const std::vector<PendingItem>& pending, std::size_t lo,
                     std::size_t hi, const BatchTables& tables);
  void count_registered(bool hot) noexcept {
    ++(hot ? stats_.table_verifications : stats_.cold_verifications);
  }
  /// Ground-truth single verification of a pending item.
  [[nodiscard]] bool verify_pending(const PendingItem& p,
                                    const BatchTables& tables) const;

  std::size_t memo_capacity_;
  Order order_;  ///< front = most recently used
  std::unordered_map<MemoKey, Order::iterator, MemoKeyHash> memo_;
  /// Registered keys -> the generation they were registered under.  Tables
  /// live in the tier store.
  std::unordered_map<detail::PointId, std::uint64_t, detail::PointIdHash>
      registered_;
  /// Per-key memo generation; bumped by invalidate_key/re-register so old
  /// entries can never match again.
  std::unordered_map<detail::PointId, std::uint64_t, detail::PointIdHash>
      generations_;
  KeyTierStore tiers_;
  Stats stats_;
};

}  // namespace identxx::crypto
