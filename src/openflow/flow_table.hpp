#pragma once

// The switch flow table (§3.1): maps 10-tuple matches to actions, with
// priorities, idle/hard timeouts and per-entry statistics.  This is the
// "rule cache" the paper refers to in §2 — the controller installs an
// entry to cache its allow/drop decision so later packets of the flow
// never reach the controller.
//
// Lookup strategy (DESIGN.md §8): entries whose match is fully exact are
// indexed by their 10-tuple in one open-addressed table (O(1) hit path —
// the dominant case under ident++, which installs exact entries).
// Wildcard entries live in per-priority buckets, each bucket partitioned
// into tuple-space "shapes" (one per distinct wildcard mask + prefix
// lengths); within a shape a lookup is a single hash probe on the tuple
// projected onto the shape's constrained fields.  Aggregated tables
// therefore cost O(buckets × shapes-per-bucket), not O(entries).
//
// Priority semantics: an exact hit wins over wildcard entries of equal or
// lower priority, but a wildcard entry of *strictly higher* priority that
// matches the packet beats it (OpenFlow tie-break: exact before wildcard
// at the same priority).  The seed's fast path returned the exact hit
// unconditionally, which silently shadowed high-priority wildcard
// quarantine/drop rules.
//
// Storage (DESIGN.md §8.1): entries sit in a slab (one vector plus a free
// list) and every index maps a key to a slab slot.  Recency is a doubly
// linked list through slot numbers, so a use moves an entry to the front
// and capacity eviction takes the back, both O(1).  Nothing is allocated
// per entry: once the slab and indices have grown to the table's working
// size, an insert that evicts allocates nothing.

#include <cstdint>
#include <functional>
#include <vector>

#include "openflow/actions.hpp"
#include "openflow/match.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"

namespace identxx::openflow {

struct FlowEntry {
  FlowMatch match;
  std::uint16_t priority = 0;
  Action action = DropAction{};
  /// 0 disables the respective timeout.
  sim::SimTime idle_timeout = 0;
  sim::SimTime hard_timeout = 0;

  // Statistics.
  sim::SimTime created_at = 0;
  sim::SimTime last_used_at = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  std::uint64_t cookie = 0;  ///< controller-chosen opaque id
};

enum class RemovalReason { kIdleTimeout, kHardTimeout, kEvicted, kDeleted };

struct TableStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t removals = 0;
  [[nodiscard]] double hit_rate() const noexcept {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
  }
};

class FlowTable {
 public:
  /// `capacity` caps the number of entries (hardware TCAM analogue);
  /// inserts beyond it evict the least-recently-used entry.  Clamped to
  /// ≥ 1 — a zero capacity would let inserts grow the table unbounded
  /// (eviction of an empty table is a no-op).  Storage grows with use,
  /// never to `capacity` up front.
  explicit FlowTable(std::size_t capacity = 65536)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  using RemovalListener =
      std::function<void(const FlowEntry&, RemovalReason)>;

  /// Called for every entry that leaves the table.
  void set_removal_listener(RemovalListener listener) {
    removal_listener_ = std::move(listener);
  }

  /// Insert or overwrite.  An entry whose match covers the same packets
  /// at the same priority overwrites the old one, *preserving* its
  /// packet/byte counters and creation time (OpenFlow overwrite
  /// semantics — controllers refresh rules and read the counters for
  /// accounting).
  void insert(FlowEntry entry, sim::SimTime now);

  /// Highest-priority matching entry, updating stats; nullptr on miss.
  /// Expired entries encountered along the way are removed first.  The
  /// pointer is valid until the table is next modified.
  [[nodiscard]] const FlowEntry* lookup(const net::TenTuple& tuple,
                                        sim::SimTime now,
                                        std::size_t packet_bytes);

  /// Structural lookup: the live (non-expired as of `now`) entry with
  /// exactly this match (same covered packets) and priority, if any.
  /// Does not update stats or recency.
  [[nodiscard]] const FlowEntry* find(const FlowMatch& match,
                                      std::uint16_t priority,
                                      sim::SimTime now) const;

  /// Remove entries matching predicate; returns count.
  std::size_t remove_if(const std::function<bool(const FlowEntry&)>& pred);

  /// Remove every expired entry as of `now`; returns count.
  std::size_t expire(sim::SimTime now);

  /// Remove all entries.
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const TableStats& stats() const noexcept { return stats_; }

  /// Any live-or-unswept entry carrying `cookie`?  O(1) via a refcounted
  /// cookie index — controllers use it to retire per-cookie bookkeeping
  /// the moment a cookie's last entry leaves the table.
  [[nodiscard]] bool has_cookie(std::uint64_t cookie) const noexcept {
    return cookie_counts_.find(cookie, CookieCounts::hash(cookie)) !=
           CookieCounts::npos;
  }

  /// Snapshot of all entries (for tests and debugging), most recently
  /// used first.
  [[nodiscard]] std::vector<FlowEntry> entries() const;

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNil = static_cast<Slot>(-1);
  struct TupleHash {
    std::uint64_t operator()(const net::TenTuple& t) const noexcept;
  };
  struct CookieHash {
    std::uint64_t operator()(std::uint64_t cookie) const noexcept {
      return util::hash_words(cookie, 0);
    }
  };
  /// 10-tuple key (an entry's match.key()) -> slab slot.
  using SlotIndex = util::FlatMap<net::TenTuple, Slot, TupleHash>;
  using CookieCounts = util::FlatMap<std::uint64_t, std::uint32_t, CookieHash>;

  /// One slab slot: a stored entry with its index key and recency links,
  /// or (off the recency list) a free slot chained through `next`.
  struct Node {
    FlowEntry entry;
    net::TenTuple key;       ///< entry.match.key()
    std::uint32_t hash = 0;  ///< SlotIndex::hash(key)
    Slot prev = kNil;        ///< toward the most recently used
    Slot next = kNil;        ///< toward the least recently used
  };

  /// One tuple-space shape within a priority bucket: the entries sharing
  /// a wildcard mask, prefix lengths and port masks, indexed by projected
  /// key so a lookup is one hash probe instead of a scan.
  struct Shape {
    Wildcard wildcards = Wildcard::kAll;
    unsigned src_prefix = 0;  ///< 0 when kSrcIp is wildcarded
    unsigned dst_prefix = 0;
    std::uint16_t src_port_mask = 0xffff;  ///< 0xffff when wildcarded
    std::uint16_t dst_port_mask = 0xffff;
    SlotIndex by_key;
  };

  /// All wildcard entries of one priority, shapes in creation order.
  struct Bucket {
    std::uint16_t priority = 0;
    std::vector<Shape> shapes;
  };

  [[nodiscard]] static bool shape_fits(const Shape& shape,
                                       const FlowMatch& match) noexcept;
  [[nodiscard]] bool expired(const FlowEntry& entry, sim::SimTime now) const noexcept;
  [[nodiscard]] RemovalReason expiry_reason(const FlowEntry& entry,
                                            sim::SimTime now) const noexcept;
  /// Position of the bucket for `priority` in wild_, or wild_.size().
  [[nodiscard]] std::size_t find_bucket(std::uint16_t priority) const noexcept;
  void notify_removal(const FlowEntry& entry, RemovalReason reason);
  /// Replace a live entry in place (OpenFlow overwrite), notifying a
  /// cookie change as a deletion, and make it the most recently used.
  void overwrite_stored(Slot slot, FlowEntry fresh);
  /// Unlink `slot` from its index (exact or bucket/shape) and the recency
  /// list, free it, then notify.  Empty shapes and buckets are pruned.
  void erase_stored(Slot slot, RemovalReason reason);
  void evict_lru();
  const FlowEntry* touch(Slot slot, sim::SimTime now, std::size_t packet_bytes);
  /// Store `entry` in a free (or new) slot at the front of the recency list.
  Slot emplace_front(FlowEntry entry, const net::TenTuple& key, std::uint32_t hash);
  void link_front(Slot slot) noexcept;
  void unlink(Slot slot) noexcept;
  void move_to_front(Slot slot) noexcept;

  void cookie_added(std::uint64_t cookie);
  void cookie_removed(std::uint64_t cookie) noexcept;

  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::size_t size_ = 0;
  Slot head_ = kNil;  ///< most recently used
  Slot tail_ = kNil;  ///< least recently used: the eviction victim
  Slot free_ = kNil;  ///< free-slot chain through Node::next
  SlotIndex exact_;
  /// Wildcard buckets, highest priority first.
  std::vector<Bucket> wild_;
  /// Live entries per nonzero cookie (an entry may sit on several
  /// switches, but within one table a cookie can also cover several
  /// aggregate entries).
  CookieCounts cookie_counts_;
  TableStats stats_;
  RemovalListener removal_listener_;
};

}  // namespace identxx::openflow
