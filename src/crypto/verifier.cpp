#include "crypto/verifier.hpp"

namespace identxx::crypto {

namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

void SchnorrVerifier::register_key(const PublicKey& key) {
  // Only on-curve keys are tracked: an invalid key never earns a table.
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
  // Only called on a miss: memo_key is absent.
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
    ++(hot ? stats_.table_verifications : stats_.cold_verifications);
  }
  const bool ok = verify_tiered(key, hot.get(), e, sig);

  memo_store(memo_key, ok);
  return ok;
}

}  // namespace identxx::crypto
