#include "crypto/verifier.hpp"

#include <cstddef>
#include <unordered_set>

namespace identxx::crypto {

namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

void hash_u256(Sha256& h, const U256& v) {
  const auto bytes = v.to_bytes();
  h.update(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

void hash_u64(Sha256& h, std::uint64_t v) {
  std::array<std::uint8_t, 8> bytes;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
  h.update(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

}  // namespace

/// A batch item that survived memo lookup and structural validation, with
/// its Fiat–Shamir challenge and random-linear-combination coefficient.
struct SchnorrVerifier::PendingItem {
  std::size_t index = 0;  ///< position in the caller's span / results
  const BatchItem* item = nullptr;
  detail::PointId id{};  ///< key identity, computed once per item
  MemoKey memo_key{};
  U256 e;  ///< Schnorr challenge for (R, P, m)
  U256 z;  ///< 64-bit RLC coefficient (nonzero)
};

void SchnorrVerifier::register_key(const PublicKey& key) {
  // A registered key is guaranteed on-curve: the batch intake relies on
  // this to skip the per-item curve check for registered principals.
  if (key.point.infinity || !key.point.on_curve()) return;
  const detail::PointId id = detail::point_id(key.point);
  if (registered_.contains(id)) return;
  const std::uint64_t generation = ++generations_[id];
  registered_.emplace(id, generation);
  tiers_.add(key.point);
}

void SchnorrVerifier::invalidate_key(const PublicKey& key) {
  const detail::PointId id = detail::point_id(key.point);
  registered_.erase(id);
  ++generations_[id];  // old memo entries become unreachable
  tiers_.remove(key.point);
}

SchnorrVerifier::MemoKey SchnorrVerifier::memo_key_for(
    const detail::PointId& id, const Signature& sig, const U256& e) const {
  const auto gen_it = generations_.find(id);
  MemoKey k;
  k.id = id;
  k.generation = gen_it == generations_.end() ? 0 : gen_it->second;
  k.rx = sig.r.x;
  k.ry = sig.r.y;
  k.s = sig.s;
  k.e = e;
  return k;
}

void SchnorrVerifier::memo_store(const MemoKey& memo_key, bool ok) {
  if (const auto it = memo_.find(memo_key); it != memo_.end()) {
    // Duplicate items inside one batch settle to the same verdict; just
    // refresh recency.
    it->second->ok = ok;
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  if (memo_.size() >= memo_capacity_ && !order_.empty()) {
    // Recycle the LRU node in place: no free/alloc pair per eviction.
    const auto last = std::prev(order_.end());
    memo_.erase(last->id);
    last->id = memo_key;
    last->ok = ok;
    order_.splice(order_.begin(), order_, last);
    ++stats_.memo_evictions;
  } else {
    order_.push_front(MemoEntry{memo_key, ok});
  }
  memo_[memo_key] = order_.begin();
}

void SchnorrVerifier::memo_store_range(
    const std::vector<PendingItem>& pending, std::size_t a, std::size_t b,
    bool ok) {
  std::size_t start = a;
  if (b - a > memo_capacity_) {
    // Only the last `memo_capacity_` distinct keys of the range can
    // survive the loop's own evictions; anything stored before that
    // suffix is erased again before this call returns.  Walking the
    // suffix forward then reproduces the exact LRU end state (refreshes
    // included), just without the throwaway stores.
    std::unordered_set<MemoKey, MemoKeyHash> distinct;
    distinct.reserve(memo_capacity_ + 1);
    start = b;
    while (start > a && distinct.size() < memo_capacity_) {
      distinct.insert(pending[start - 1].memo_key);
      --start;
    }
  }
  for (std::size_t j = start; j < b; ++j) {
    memo_store(pending[j].memo_key, ok);
  }
}

bool SchnorrVerifier::verify(const PublicKey& key, std::string_view message,
                             const Signature& sig) {
  return verify(key, as_bytes(message), sig);
}

bool SchnorrVerifier::verify(const PublicKey& key,
                             std::span<const std::uint8_t> message,
                             const Signature& sig) {
  ++stats_.verifications;

  const U256 e = schnorr_challenge(sig.r, key.point, message);
  const detail::PointId id = detail::point_id(key.point);
  const MemoKey memo_key = memo_key_for(id, sig, e);

  if (const auto it = memo_.find(memo_key); it != memo_.end()) {
    ++stats_.memo_hits;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->ok;
  }
  ++stats_.memo_misses;

  // Unregistered keys verify cold, like registered keys without a table.
  std::shared_ptr<const FixedBaseTable> hot;
  if (registered_.contains(id)) {
    hot = tiers_.use(key.point);
    count_registered(hot != nullptr);
  }
  const bool ok = verify_tiered(key, hot.get(), e, sig);

  memo_store(memo_key, ok);
  return ok;
}

bool SchnorrVerifier::verify_pending(const PendingItem& p,
                                     const BatchTables& tables) const {
  const auto t = tables.find(p.id);
  const FixedBaseTable* hot = t != tables.end() ? t->second.get() : nullptr;
  return verify_tiered(p.item->key, hot, p.e, p.item->sig);
}

bool SchnorrVerifier::batch_check(const std::vector<PendingItem>& pending,
                                  std::size_t lo, std::size_t hi,
                                  const BatchTables& tables) {
  ++stats_.batch_msms;

  // Accept iff (sum z_i s_i) * G == sum z_i R_i + sum (z_i e_i) P_i,
  // folded into one MSM checked against the identity:
  //   (n - sum z_i s_i) G + sum z_i R_i + sum (z_i e_i) P_i == O.
  EcMsm msm;
  U256 s_sum{};
  std::unordered_map<detail::PointId, U256, detail::PointIdHash> key_scalars;
  key_scalars.reserve(tables.size() + 1);
  for (std::size_t j = lo; j < hi; ++j) {
    const PendingItem& p = pending[j];
    s_sum = sn_add(s_sum, sn_mul(p.z, p.item->sig.s));
    msm.add_naf(p.item->sig.r, p.z);
    // Merge scalars per distinct key: a burst of attestations from one
    // daemon costs one table walk, not one per signature.
    auto [it, inserted] = key_scalars.try_emplace(p.id, U256{});
    it->second = sn_add(it->second, sn_mul(p.z, p.e));
  }
  if (!s_sum.is_zero()) {
    msm.add_base(U256::sub(Secp256k1::n(), s_sum).first);
  }
  for (const auto& [id, scalar] : key_scalars) {
    if (scalar.is_zero()) continue;
    const auto t = tables.find(id);
    if (t != tables.end() && t->second) {
      msm.add_comb(*t->second, scalar);
    } else {
      msm.add_glv(detail::point_of(id), scalar);
    }
  }
  return msm.result().is_identity();
}

void SchnorrVerifier::batch_resolve(std::vector<bool>& results,
                                    const std::vector<PendingItem>& pending,
                                    std::size_t lo, std::size_t hi,
                                    const BatchTables& tables) {
  // Precondition: the RLC check over [lo, hi) failed.
  if (hi - lo == 1) {
    // Ground truth for the culprit candidate: a real single verification,
    // not a z-weighted one.
    const PendingItem& p = pending[lo];
    const bool ok = verify_pending(p, tables);
    results[p.index] = ok;
    memo_store(p.memo_key, ok);
    return;
  }

  const std::size_t mid = lo + (hi - lo) / 2;
  const auto settle = [&](std::size_t a, std::size_t b) {
    for (std::size_t j = a; j < b; ++j) {
      results[pending[j].index] = true;
    }
    memo_store_range(pending, a, b, true);
    stats_.batch_items += b - a;
  };

  if (batch_check(pending, lo, mid, tables)) {
    settle(lo, mid);
    // The halves sum to the whole: if the whole failed and the left half
    // passes, the right half must fail — skip its check.
    batch_resolve(results, pending, mid, hi, tables);
    return;
  }
  batch_resolve(results, pending, lo, mid, tables);
  if (batch_check(pending, mid, hi, tables)) {
    settle(mid, hi);
  } else {
    batch_resolve(results, pending, mid, hi, tables);
  }
}

std::vector<bool> SchnorrVerifier::verify_batch(
    std::span<const BatchItem> items) {
  std::vector<bool> results(items.size(), false);
  if (items.empty()) return results;
  ++stats_.batch_calls;

  std::vector<PendingItem> pending;
  pending.reserve(items.size());
  // Per-key batch multiplicity, collected during intake so the tier
  // snapshot below advances each registered key's use count correctly.
  std::unordered_map<detail::PointId, std::uint64_t, detail::PointIdHash>
      multiplicity;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    ++stats_.verifications;
    const U256 e =
        schnorr_challenge(item.sig.r, item.key.point, as_bytes(item.message));
    const detail::PointId id = detail::point_id(item.key.point);
    const MemoKey memo_key = memo_key_for(id, item.sig, e);
    if (const auto it = memo_.find(memo_key); it != memo_.end()) {
      ++stats_.memo_hits;
      order_.splice(order_.begin(), order_, it->second);
      results[i] = it->second->ok;
      continue;
    }
    ++stats_.memo_misses;
    // Fail closed on structural defects without spending MSM terms on
    // them; the verdict is memoized like any other.  register_key
    // guarantees registered keys are on-curve, so only unregistered keys
    // pay the curve check here.
    const bool registered = registered_.contains(id);
    if ((!registered &&
         (item.key.point.infinity || !item.key.point.on_curve())) ||
        !signature_well_formed(item.sig)) {
      memo_store(memo_key, false);
      continue;
    }
    if (registered) ++multiplicity[id];
    PendingItem p;
    p.index = i;
    p.item = &item;
    p.id = id;
    p.memo_key = memo_key;
    p.e = e;
    pending.push_back(p);
  }
  if (pending.empty()) return results;

  // Deterministic Fiat–Shamir coefficients: z_j is drawn from a digest
  // binding the *entire* batch plus the item position, so no signer can
  // choose signatures whose errors cancel — any change to any item
  // reshuffles every coefficient.  Per item, (s, e) is a complete
  // commitment: e = H(R || P || m) already binds the nonce point, the key
  // and the message, and s is the rest of the verification equation —
  // 64 transcript bytes per item instead of the full tuple.  64-bit
  // coefficients bound the extra scalar work while keeping the forgery
  // survival probability at 2^-64 per batch (DESIGN.md §15).
  Sha256 bd;
  bd.update("identxx-batch-v2");
  for (const PendingItem& p : pending) {
    hash_u256(bd, p.item->sig.s);
    hash_u256(bd, p.e);
  }
  const Digest batch_digest = bd.finish();
  // Counter-mode expansion: each digest of (batch_digest, counter) yields
  // four 64-bit coefficients (bytes [8j, 8j+8)) — same 2^-64 survival
  // bound per item, a quarter of the hashing.
  Digest block{};
  for (std::size_t j = 0; j < pending.size(); ++j) {
    if (j % 4 == 0) {
      Sha256 h;
      h.update(std::span<const std::uint8_t>(batch_digest.data(),
                                             batch_digest.size()));
      hash_u64(h, j / 4);
      block = h.finish();
    }
    std::uint64_t z = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      z = (z << 8) | block[(j % 4) * 8 + b];
    }
    if (z == 0) z = 1;
    pending[j].z = U256{z};
  }

  // Snapshot tier tables once for the whole batch (shared_ptrs keep them
  // alive even if touching a later key evicts an earlier one).  Each
  // registered key's use count advances by its batch multiplicity.
  BatchTables tables;
  tables.reserve(multiplicity.size());
  for (const auto& [id, uses] : multiplicity) {
    tables.emplace(id, tiers_.use(detail::point_of(id), uses));
  }

  if (pending.size() == 1) {
    // No aggregation to be had; take the plain tiered path.
    const PendingItem& p = pending[0];
    if (const auto t = tables.find(p.id); t != tables.end()) {
      count_registered(t->second != nullptr);
    }
    const bool ok = verify_pending(p, tables);
    results[p.index] = ok;
    memo_store(p.memo_key, ok);
    return results;
  }

  if (batch_check(pending, 0, pending.size(), tables)) {
    for (const PendingItem& p : pending) {
      results[p.index] = true;
    }
    memo_store_range(pending, 0, pending.size(), true);
    stats_.batch_items += pending.size();
    return results;
  }

  ++stats_.batch_rejects;
  batch_resolve(results, pending, 0, pending.size(), tables);
  return results;
}

}  // namespace identxx::crypto
