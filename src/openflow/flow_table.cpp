#include "openflow/flow_table.hpp"

#include <algorithm>

namespace identxx::openflow {

namespace {

/// Effective prefix length for shape identity: irrelevant (0) when the
/// field is fully wildcarded, clamped to [0,32] otherwise.
[[nodiscard]] unsigned norm_prefix(Wildcard set, Wildcard bit,
                                   unsigned prefix) noexcept {
  if (has_wildcard(set, bit)) return 0;
  return prefix > 32 ? 32 : prefix;
}

/// Effective port mask for shape identity: irrelevant (full) when the
/// field is fully wildcarded.
[[nodiscard]] std::uint16_t norm_port_mask(Wildcard set, Wildcard bit,
                                           std::uint16_t mask) noexcept {
  return has_wildcard(set, bit) ? 0xffff : mask;
}

/// OpenFlow overwrite semantics: replacing an entry with an equivalent
/// match at the same priority keeps its counters and creation time.
void overwrite(FlowEntry& slot, FlowEntry fresh) noexcept {
  fresh.packet_count = slot.packet_count;
  fresh.byte_count = slot.byte_count;
  fresh.created_at = slot.created_at;
  slot = std::move(fresh);
}

}  // namespace

std::string to_string(const Action& action) {
  struct Visitor {
    std::string operator()(const OutputAction& a) const {
      std::string out = "output(";
      for (std::size_t i = 0; i < a.ports.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(a.ports[i]);
      }
      return out + ")";
    }
    std::string operator()(const FloodAction&) const { return "flood"; }
    std::string operator()(const DropAction&) const { return "drop"; }
    std::string operator()(const ToControllerAction&) const {
      return "to-controller";
    }
  };
  return std::visit(Visitor{}, action);
}

std::uint64_t FlowTable::TupleHash::operator()(
    const net::TenTuple& t) const noexcept {
  const std::uint64_t ips =
      (std::uint64_t{t.src_ip.value()} << 32) | t.dst_ip.value();
  const std::uint64_t ports = (std::uint64_t{t.src_port} << 48) |
                              (std::uint64_t{t.dst_port} << 32) |
                              (std::uint64_t{static_cast<std::uint8_t>(t.proto)} << 16) |
                              t.in_port;
  const std::uint64_t src_l2 = t.src_mac.value() | (std::uint64_t{t.ether_type} << 48);
  const std::uint64_t dst_l2 = t.dst_mac.value() | (std::uint64_t{t.vlan_id} << 48);
  return util::hash_words(util::hash_words(ips, ports) ^ src_l2, dst_l2);
}

bool FlowTable::shape_fits(const Shape& shape, const FlowMatch& match) noexcept {
  return shape.wildcards == match.wildcards &&
         shape.src_prefix ==
             norm_prefix(match.wildcards, Wildcard::kSrcIp, match.src_ip_prefix) &&
         shape.dst_prefix ==
             norm_prefix(match.wildcards, Wildcard::kDstIp, match.dst_ip_prefix) &&
         shape.src_port_mask == norm_port_mask(match.wildcards,
                                               Wildcard::kSrcPort,
                                               match.src_port_mask) &&
         shape.dst_port_mask == norm_port_mask(match.wildcards,
                                               Wildcard::kDstPort,
                                               match.dst_port_mask);
}

bool FlowTable::expired(const FlowEntry& e, sim::SimTime now) const noexcept {
  if (e.hard_timeout > 0 && now >= e.created_at + e.hard_timeout) return true;
  if (e.idle_timeout > 0 && now >= e.last_used_at + e.idle_timeout) return true;
  return false;
}

RemovalReason FlowTable::expiry_reason(const FlowEntry& e,
                                       sim::SimTime now) const noexcept {
  return e.hard_timeout > 0 && now >= e.created_at + e.hard_timeout
             ? RemovalReason::kHardTimeout
             : RemovalReason::kIdleTimeout;
}

std::size_t FlowTable::find_bucket(std::uint16_t priority) const noexcept {
  const auto it = std::partition_point(
      wild_.begin(), wild_.end(),
      [priority](const Bucket& b) { return b.priority > priority; });
  return it != wild_.end() && it->priority == priority
             ? static_cast<std::size_t>(it - wild_.begin())
             : wild_.size();
}

void FlowTable::cookie_added(std::uint64_t cookie) {
  if (cookie == 0) return;
  const std::uint32_t h = CookieCounts::hash(cookie);
  if (const auto i = cookie_counts_.find(cookie, h); i != CookieCounts::npos) {
    ++cookie_counts_.value_at(i);
  } else {
    cookie_counts_.insert(cookie, h, 1);
  }
}

void FlowTable::cookie_removed(std::uint64_t cookie) noexcept {
  if (cookie == 0) return;
  const auto i = cookie_counts_.find(cookie, CookieCounts::hash(cookie));
  if (i == CookieCounts::npos) return;
  if (--cookie_counts_.value_at(i) == 0) cookie_counts_.erase_at(i);
}

void FlowTable::notify_removal(const FlowEntry& entry, RemovalReason reason) {
  ++stats_.removals;
  if (removal_listener_) removal_listener_(entry, reason);
}

void FlowTable::link_front(Slot slot) noexcept {
  Node& node = nodes_[slot];
  node.prev = kNil;
  node.next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = slot;
  } else {
    tail_ = slot;
  }
  head_ = slot;
}

void FlowTable::unlink(Slot slot) noexcept {
  const Node& node = nodes_[slot];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

void FlowTable::move_to_front(Slot slot) noexcept {
  if (head_ == slot) return;
  unlink(slot);
  link_front(slot);
}

FlowTable::Slot FlowTable::emplace_front(FlowEntry entry,
                                         const net::TenTuple& key,
                                         std::uint32_t hash) {
  Slot slot = free_;
  if (slot != kNil) {
    free_ = nodes_[slot].next;
    nodes_[slot].entry = std::move(entry);
  } else {
    slot = static_cast<Slot>(nodes_.size());
    nodes_.push_back(Node{std::move(entry), {}, 0, kNil, kNil});
  }
  nodes_[slot].key = key;
  nodes_[slot].hash = hash;
  link_front(slot);
  ++size_;
  return slot;
}

void FlowTable::overwrite_stored(Slot slot, FlowEntry fresh) {
  FlowEntry& stored = nodes_[slot].entry;
  if (stored.cookie != fresh.cookie) {
    // A cookie-changing overwrite deletes the old rule as far as its
    // owner can tell — notify, or the controller's cookie map never
    // learns the old cookie left this table.
    cookie_removed(stored.cookie);
    cookie_added(fresh.cookie);
    notify_removal(stored, RemovalReason::kDeleted);
  }
  overwrite(nodes_[slot].entry, std::move(fresh));
  move_to_front(slot);  // refresh recency
}

void FlowTable::erase_stored(Slot slot, RemovalReason reason) {
  Node& node = nodes_[slot];
  const FlowEntry entry = std::move(node.entry);
  cookie_removed(entry.cookie);
  if (entry.match.is_exact()) {
    if (const auto i = exact_.find(node.key, node.hash); i != SlotIndex::npos) {
      exact_.erase_at(i);
    }
  } else if (const std::size_t b = find_bucket(entry.priority); b < wild_.size()) {
    Bucket& bucket = wild_[b];
    for (std::size_t i = 0; i < bucket.shapes.size(); ++i) {
      if (!shape_fits(bucket.shapes[i], entry.match)) continue;
      SlotIndex& by_key = bucket.shapes[i].by_key;
      if (const auto k = by_key.find(node.key, node.hash); k != SlotIndex::npos) {
        by_key.erase_at(k);
      }
      if (by_key.empty()) {
        bucket.shapes.erase(bucket.shapes.begin() +
                            static_cast<std::ptrdiff_t>(i));
      }
      break;
    }
    if (bucket.shapes.empty()) {
      wild_.erase(wild_.begin() + static_cast<std::ptrdiff_t>(b));
    }
  }
  unlink(slot);
  node.next = free_;
  free_ = slot;
  --size_;
  notify_removal(entry, reason);
}

void FlowTable::evict_lru() {
  if (tail_ == kNil) return;
  erase_stored(tail_, RemovalReason::kEvicted);
}

const FlowEntry* FlowTable::touch(Slot slot, sim::SimTime now,
                                  std::size_t packet_bytes) {
  FlowEntry& entry = nodes_[slot].entry;
  entry.last_used_at = now;
  ++entry.packet_count;
  entry.byte_count += packet_bytes;
  move_to_front(slot);
  ++stats_.hits;
  return &entry;
}

void FlowTable::insert(FlowEntry entry, sim::SimTime now) {
  entry.created_at = now;
  entry.last_used_at = now;
  ++stats_.inserts;
  const net::TenTuple key = entry.match.key();
  const std::uint32_t hash = SlotIndex::hash(key);

  if (entry.match.is_exact()) {
    if (const auto i = exact_.find(key, hash); i != SlotIndex::npos) {
      const Slot slot = exact_.value_at(i);
      const FlowEntry& stored = nodes_[slot].entry;
      // An expired-but-unswept entry is replaced, not refreshed: its
      // counters belong to a rule that already ended.
      if (!expired(stored, now)) {
        overwrite_stored(slot, std::move(entry));
        return;
      }
      erase_stored(slot, expiry_reason(stored, now));
    }
    if (size() >= capacity_) evict_lru();
    cookie_added(entry.cookie);
    exact_.insert(key, hash, emplace_front(std::move(entry), key, hash));
    return;
  }

  // Overwrite an existing wildcard entry covering the same packets at the
  // same priority.
  if (const std::size_t b = find_bucket(entry.priority); b < wild_.size()) {
    for (Shape& shape : wild_[b].shapes) {
      if (!shape_fits(shape, entry.match)) continue;
      if (const auto i = shape.by_key.find(key, hash); i != SlotIndex::npos) {
        const Slot slot = shape.by_key.value_at(i);
        const FlowEntry& stored = nodes_[slot].entry;
        if (!expired(stored, now)) {
          overwrite_stored(slot, std::move(entry));
          return;
        }
        erase_stored(slot, expiry_reason(stored, now));  // insert fresh below
      }
      break;  // at most one shape fits
    }
  }

  if (size() >= capacity_) evict_lru();  // may prune shapes/buckets
  cookie_added(entry.cookie);
  const Slot slot = emplace_front(std::move(entry), key, hash);
  const FlowMatch& match = nodes_[slot].entry.match;
  const std::uint16_t priority = nodes_[slot].entry.priority;
  std::size_t b = find_bucket(priority);
  if (b == wild_.size()) {
    const auto at = std::partition_point(
        wild_.begin(), wild_.end(),
        [priority](const Bucket& x) { return x.priority > priority; });
    b = static_cast<std::size_t>(at - wild_.begin());
    wild_.insert(at, Bucket{priority, {}});
  }
  Bucket& bucket = wild_[b];
  Shape* shape = nullptr;
  for (Shape& candidate : bucket.shapes) {
    if (shape_fits(candidate, match)) {
      shape = &candidate;
      break;
    }
  }
  if (shape == nullptr) {
    bucket.shapes.push_back(Shape{
        match.wildcards,
        norm_prefix(match.wildcards, Wildcard::kSrcIp, match.src_ip_prefix),
        norm_prefix(match.wildcards, Wildcard::kDstIp, match.dst_ip_prefix),
        norm_port_mask(match.wildcards, Wildcard::kSrcPort, match.src_port_mask),
        norm_port_mask(match.wildcards, Wildcard::kDstPort, match.dst_port_mask),
        {}});
    shape = &bucket.shapes.back();
  }
  shape->by_key.insert(key, hash, slot);
}

const FlowEntry* FlowTable::lookup(const net::TenTuple& tuple, sim::SimTime now,
                                   std::size_t packet_bytes) {
  ++stats_.lookups;

  // Exact candidate first; it wins unless a wildcard entry of *strictly*
  // higher priority also matches.  (The seed returned the exact hit
  // unconditionally, shadowing high-priority wildcard drop/quarantine
  // rules — the wildcard-shadowing regression in tests/openflow_test.cpp.)
  Slot exact_hit = kNil;
  if (const auto i = exact_.empty() ? SlotIndex::npos
                                    : exact_.find(tuple, SlotIndex::hash(tuple));
      i != SlotIndex::npos) {
    const Slot slot = exact_.value_at(i);
    const FlowEntry& stored = nodes_[slot].entry;
    if (expired(stored, now)) {
      erase_stored(slot, expiry_reason(stored, now));
    } else {
      exact_hit = slot;
    }
  }

  std::size_t b = 0;
  while (b < wild_.size()) {
    const std::uint16_t bucket_priority = wild_[b].priority;
    if (exact_hit != kNil && bucket_priority <= nodes_[exact_hit].entry.priority) {
      break;
    }
    Slot matched = kNil;
    Slot dead[2];
    std::size_t dead_count = 0;
    std::vector<Slot> dead_overflow;
    for (const Shape& shape : wild_[b].shapes) {
      const net::TenTuple key =
          project_tuple(tuple, shape.wildcards, shape.src_prefix,
                        shape.dst_prefix, shape.src_port_mask,
                        shape.dst_port_mask);
      const auto i = shape.by_key.find(key, SlotIndex::hash(key));
      if (i == SlotIndex::npos) continue;
      const Slot slot = shape.by_key.value_at(i);
      if (expired(nodes_[slot].entry, now)) {
        if (dead_count < 2) {
          dead[dead_count++] = slot;
        } else {
          dead_overflow.push_back(slot);
        }
        continue;
      }
      matched = slot;
      break;
    }
    // Remove expired entries only after the shape scan: erase_stored may
    // prune shapes (and this bucket, shifting wild_), which would
    // invalidate the references the scan holds.
    for (std::size_t i = 0; i < dead_count; ++i) {
      erase_stored(dead[i], expiry_reason(nodes_[dead[i]].entry, now));
    }
    for (const Slot slot : dead_overflow) {
      erase_stored(slot, expiry_reason(nodes_[slot].entry, now));
    }
    if (matched != kNil) return touch(matched, now, packet_bytes);
    // Re-seek: the bucket (or others) may have been erased above.
    b = static_cast<std::size_t>(
        std::partition_point(wild_.begin(), wild_.end(),
                             [bucket_priority](const Bucket& x) {
                               return x.priority >= bucket_priority;
                             }) -
        wild_.begin());
  }

  if (exact_hit != kNil) return touch(exact_hit, now, packet_bytes);
  ++stats_.misses;
  return nullptr;
}

const FlowEntry* FlowTable::find(const FlowMatch& match, std::uint16_t priority,
                                 sim::SimTime now) const {
  const net::TenTuple key = match.key();
  const std::uint32_t hash = SlotIndex::hash(key);
  const FlowEntry* entry = nullptr;
  if (match.is_exact()) {
    if (const auto i = exact_.find(key, hash); i != SlotIndex::npos) {
      const FlowEntry& stored = nodes_[exact_.value_at(i)].entry;
      if (stored.priority == priority) entry = &stored;
    }
  } else if (const std::size_t b = find_bucket(priority); b < wild_.size()) {
    for (const Shape& shape : wild_[b].shapes) {
      if (!shape_fits(shape, match)) continue;
      if (const auto i = shape.by_key.find(key, hash); i != SlotIndex::npos) {
        entry = &nodes_[shape.by_key.value_at(i)].entry;
      }
      break;
    }
  }
  // An expired-but-unswept entry is dead state, not a live rule.
  return entry != nullptr && !expired(*entry, now) ? entry : nullptr;
}

std::size_t FlowTable::remove_if(
    const std::function<bool(const FlowEntry&)>& pred) {
  std::size_t removed = 0;
  for (Slot slot = head_; slot != kNil;) {
    const Slot next = nodes_[slot].next;
    if (pred(nodes_[slot].entry)) {
      erase_stored(slot, RemovalReason::kDeleted);
      ++removed;
    }
    slot = next;
  }
  return removed;
}

std::size_t FlowTable::expire(sim::SimTime now) {
  std::size_t removed = 0;
  for (Slot slot = head_; slot != kNil;) {
    const Slot next = nodes_[slot].next;
    const FlowEntry& entry = nodes_[slot].entry;
    if (expired(entry, now)) {
      erase_stored(slot, expiry_reason(entry, now));
      ++removed;
    }
    slot = next;
  }
  return removed;
}

void FlowTable::clear() {
  for (Slot slot = head_; slot != kNil; slot = nodes_[slot].next) {
    notify_removal(nodes_[slot].entry, RemovalReason::kDeleted);
  }
  nodes_.clear();
  size_ = 0;
  head_ = tail_ = free_ = kNil;
  exact_.clear();
  wild_.clear();
  cookie_counts_.clear();
}

std::vector<FlowEntry> FlowTable::entries() const {
  std::vector<FlowEntry> out;
  out.reserve(size_);
  for (Slot slot = head_; slot != kNil; slot = nodes_[slot].next) {
    out.push_back(nodes_[slot].entry);
  }
  return out;
}

}  // namespace identxx::openflow
