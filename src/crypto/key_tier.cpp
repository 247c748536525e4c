#include "crypto/key_tier.hpp"

namespace identxx::crypto {

void KeyTierStore::touch_lru(Map::iterator it) {
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
}

void KeyTierStore::build_hot(Map::iterator it) {
  Entry& e = it->second;
  e.hot = std::make_shared<const FixedBaseTable>(detail::point_of(it->first));
  bytes_ += hot_table_bytes();
  ++stats_.promotions;
  lru_.push_front(it->first);
  e.lru_pos = lru_.begin();
}

void KeyTierStore::drop_table(Map::iterator it) {
  Entry& e = it->second;
  if (!e.hot) return;
  bytes_ -= hot_table_bytes();
  e.hot.reset();
  lru_.erase(e.lru_pos);
  e.lru_pos = lru_.end();
}

bool KeyTierStore::reclaim() {
  if (hot_table_bytes() > config_.table_budget_bytes) return false;
  while (bytes_ + hot_table_bytes() > config_.table_budget_bytes) {
    // The key being promoted is cold, so every LRU entry is a victim.
    const auto vit = keys_.find(lru_.back());
    drop_table(vit);
    // Demoted keys re-earn their table from scratch; otherwise a pair of
    // keys contending for the last slot would rebuild on every use.
    vit->second.count = 0;
    ++stats_.demotions;
  }
  return true;
}

void KeyTierStore::add(const AffinePoint& point) {
  if (point.infinity) return;
  const auto [it, inserted] = keys_.try_emplace(detail::point_id(point));
  if (!inserted) return;
  it->second.lru_pos = lru_.end();
  // Eager hot build strictly into free budget: small deployments keep the
  // register-then-verify fast path, fleet-scale ones start cold.
  if (bytes_ + hot_table_bytes() <= config_.table_budget_bytes) build_hot(it);
}

void KeyTierStore::remove(const AffinePoint& point) {
  const auto it = keys_.find(detail::point_id(point));
  if (it == keys_.end()) return;
  drop_table(it);
  keys_.erase(it);
}

bool KeyTierStore::contains(const AffinePoint& point) const {
  return keys_.find(detail::point_id(point)) != keys_.end();
}

std::shared_ptr<const FixedBaseTable> KeyTierStore::use(
    const AffinePoint& point, std::uint64_t uses) {
  const auto it = keys_.find(detail::point_id(point));
  if (it == keys_.end()) return nullptr;
  Entry& e = it->second;
  e.count += uses;
  if (e.hot) {
    touch_lru(it);
  } else if (e.count >= config_.hot_after) {
    if (reclaim()) {
      build_hot(it);
    } else {
      ++stats_.denied_builds;
    }
  }
  return e.hot;
}

std::shared_ptr<const FixedBaseTable> KeyTierStore::peek(
    const AffinePoint& point) const {
  const auto it = keys_.find(detail::point_id(point));
  return it == keys_.end() ? nullptr : it->second.hot;
}

}  // namespace identxx::crypto
