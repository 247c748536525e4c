#pragma once

// KeyTierStore: memory-budgeted comb tables for registered keys.
//
// A fleet-scale shard tracks 10^6+ principals, but per-key comb tables are
// ~73 KB each — a full-table policy would need tens of gigabytes.  This
// store keeps the *key set* unbounded (a few dozen bytes per key) and
// spends a fixed byte budget on comb tables only, chosen by verify
// frequency (DESIGN.md §15).  A key is in one of two states:
//
//   hot   — full Lim–Lee comb table (~73 KB): a 7-doubling verification.
//   cold  — no table: per-call GLV (the ec_mul_add_glv floor).
//
// It is the only owner of per-key verification state: crypto::verify
// itself is stateless.
//
// Registration never evicts: a new key gets an eager hot table only if it
// fits in *free* budget (preserving the register-then-verify fast path of
// small deployments), otherwise it starts cold.  Promotion is driven by
// use(): a key crossing `hot_after` verifications earns a table, evicting
// the least-recently-used tables of other keys if the budget requires it
// — so a revocation storm of one-shot principals cannot strip the daemons
// that sign every flow.  Demoted keys restart cold (count reset): they
// must re-earn their table, which keeps a ping-ponging pair from
// thrashing builds.
//
// Byte accounting is explicit: table_bytes() is the exact sum of
// sizeof(FixedBaseTable) held, and never exceeds
// config.table_budget_bytes.

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "crypto/ec.hpp"
#include "crypto/key_id.hpp"

namespace identxx::crypto {

struct KeyTierConfig {
  /// Byte ceiling for acceleration tables (keys themselves are unbounded).
  std::size_t table_budget_bytes = 64u << 20;
  /// Verifications before a cold key earns a hot comb table.
  std::uint64_t hot_after = 8;
};

class KeyTierStore {
 public:
  struct Stats {
    std::uint64_t promotions = 0;     ///< tables built
    std::uint64_t demotions = 0;      ///< tables evicted to reclaim budget
    std::uint64_t denied_builds = 0;  ///< promotions skipped: cannot fit
  };

  explicit KeyTierStore(const KeyTierConfig& config = {}) : config_(config) {}

  [[nodiscard]] static constexpr std::size_t hot_table_bytes() noexcept {
    return sizeof(FixedBaseTable);
  }

  /// Track `point`.  Idempotent.  Builds an eager hot table only when it
  /// fits in free budget — never evicts on behalf of a registration.
  void add(const AffinePoint& point);

  /// Forget `point` and free its table.
  void remove(const AffinePoint& point);

  [[nodiscard]] bool contains(const AffinePoint& point) const;

  /// Record `uses` verifications against `point` and return its (possibly
  /// just-promoted) comb table, or null while the key is cold.  Unknown
  /// points are cold and stay untracked.  The shared_ptr keeps the table
  /// alive even if a later use() on another key evicts it.
  std::shared_ptr<const FixedBaseTable> use(const AffinePoint& point,
                                            std::uint64_t uses = 1);

  /// Current table (null while cold) without touching counts or recency.
  [[nodiscard]] std::shared_ptr<const FixedBaseTable> peek(
      const AffinePoint& point) const;

  [[nodiscard]] std::size_t table_bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t key_count() const noexcept { return keys_.size(); }
  [[nodiscard]] std::size_t hot_count() const noexcept {
    return bytes_ / hot_table_bytes();
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const KeyTierConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    std::uint64_t count = 0;
    std::shared_ptr<const FixedBaseTable> hot;  ///< null while cold
    /// Position in lru_ when this entry holds a table.
    std::list<detail::PointId>::iterator lru_pos;
  };
  using Map = std::unordered_map<detail::PointId, Entry, detail::PointIdHash>;

  void touch_lru(Map::iterator it);
  /// Give `it` a hot table, at the front of the LRU.
  void build_hot(Map::iterator it);
  void drop_table(Map::iterator it);
  /// Evict least-recently-used tables until one more hot table fits.
  /// Returns false (evicting nothing) if it can never fit.
  bool reclaim();

  KeyTierConfig config_;
  Map keys_;
  std::list<detail::PointId> lru_;  ///< front = most recently used
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace identxx::crypto
