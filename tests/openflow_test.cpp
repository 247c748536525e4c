// Unit tests for src/openflow: match semantics, flow table (priority,
// timeouts, eviction, stats), switch datapath, topology paths, ECMP path
// sets and the bounded output-queue model.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <list>
#include <map>
#include <unordered_map>

#include "openflow/flow_table.hpp"
#include "openflow/match.hpp"
#include "openflow/switch.hpp"
#include "openflow/topology.hpp"
#include "util/rng.hpp"

namespace identxx::openflow {
namespace {

net::TenTuple tuple(const char* src = "10.0.0.1", const char* dst = "10.0.0.2",
                    std::uint16_t sport = 1000, std::uint16_t dport = 80,
                    std::uint16_t in_port = 1) {
  net::TenTuple t;
  t.in_port = in_port;
  t.src_mac = net::MacAddress::for_node(1);
  t.dst_mac = net::MacAddress::for_node(2);
  t.src_ip = *net::Ipv4Address::parse(src);
  t.dst_ip = *net::Ipv4Address::parse(dst);
  t.proto = net::IpProto::kTcp;
  t.src_port = sport;
  t.dst_port = dport;
  return t;
}

// ---------------------------------------------------------------- match

TEST(FlowMatch, AnyMatchesEverything) {
  EXPECT_TRUE(FlowMatch::any().matches(tuple()));
  EXPECT_TRUE(FlowMatch::any().matches(tuple("1.2.3.4", "5.6.7.8", 9, 10, 11)));
}

TEST(FlowMatch, ExactMatchesOnlyIdentical) {
  const FlowMatch m = FlowMatch::exact(tuple());
  EXPECT_TRUE(m.matches(tuple()));
  EXPECT_FALSE(m.matches(tuple("10.0.0.1", "10.0.0.2", 1000, 81)));
  EXPECT_FALSE(m.matches(tuple("10.0.0.1", "10.0.0.3")));
  EXPECT_FALSE(m.matches(tuple("10.0.0.1", "10.0.0.2", 1000, 80, 2)));
  EXPECT_TRUE(m.is_exact());
}

TEST(FlowMatch, SingleFieldMatch) {
  FlowMatch m;
  m.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
  m.dst_port = 783;
  EXPECT_TRUE(m.matches(tuple("1.1.1.1", "2.2.2.2", 5, 783)));
  EXPECT_FALSE(m.matches(tuple("1.1.1.1", "2.2.2.2", 5, 80)));
  EXPECT_FALSE(m.is_exact());
}

TEST(FlowMatch, IpPrefixMatch) {
  FlowMatch m;
  m.wildcards = without(Wildcard::kAll, Wildcard::kDstIp);
  m.dst_ip = *net::Ipv4Address::parse("192.168.0.0");
  m.dst_ip_prefix = 24;
  EXPECT_TRUE(m.matches(tuple("1.1.1.1", "192.168.0.42")));
  EXPECT_FALSE(m.matches(tuple("1.1.1.1", "192.168.1.42")));
}

TEST(FlowMatch, PortMaskMatchesAlignedBlock) {
  // dport block 8000-8007 as one masked entry (8000 & 0xfff8 == 8000).
  FlowMatch m;
  m.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
  m.dst_port = 8000;
  m.dst_port_mask = 0xfff8;
  EXPECT_TRUE(m.matches(tuple("1.1.1.1", "2.2.2.2", 5, 8000)));
  EXPECT_TRUE(m.matches(tuple("1.1.1.1", "2.2.2.2", 5, 8007)));
  EXPECT_FALSE(m.matches(tuple("1.1.1.1", "2.2.2.2", 5, 7999)));
  EXPECT_FALSE(m.matches(tuple("1.1.1.1", "2.2.2.2", 5, 8008)));
  EXPECT_FALSE(m.is_exact());
  // Projection folds every in-block port onto the same key.
  EXPECT_EQ(m.project(tuple("1.1.1.1", "2.2.2.2", 5, 8003)),
            m.project(tuple("3.3.3.3", "4.4.4.4", 7, 8005)));
  EXPECT_EQ(m.project(tuple("1.1.1.1", "2.2.2.2", 5, 8003)), m.key());
}

TEST(FlowMatch, FullPortMaskStaysExact) {
  const FlowMatch m = FlowMatch::exact(tuple());
  EXPECT_TRUE(m.is_exact());
  FlowMatch masked = m;
  masked.dst_port_mask = 0xfff0;
  EXPECT_FALSE(masked.is_exact());
}

TEST(FlowTable, PortMaskedEntriesLookupByBlock) {
  FlowTable table;
  // Two masked drop blocks at one priority: 8000-8003 and 8004-8005.
  for (const auto& [port, mask] :
       {std::pair<std::uint16_t, std::uint16_t>{8000, 0xfffc},
        std::pair<std::uint16_t, std::uint16_t>{8004, 0xfffe}}) {
    FlowEntry entry;
    entry.match.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
    entry.match.dst_port = port;
    entry.match.dst_port_mask = mask;
    entry.priority = 10;
    entry.action = DropAction{};
    entry.cookie = port;
    table.insert(entry, 0);
  }
  for (std::uint16_t port = 8000; port <= 8005; ++port) {
    const FlowEntry* found =
        table.lookup(tuple("1.1.1.1", "2.2.2.2", 5, port), 1, 10);
    ASSERT_NE(found, nullptr) << "port " << port;
    EXPECT_EQ(found->cookie, port <= 8003 ? 8000u : 8004u);
  }
  EXPECT_EQ(table.lookup(tuple("1.1.1.1", "2.2.2.2", 5, 8006), 1, 10), nullptr);
  // find() locates a masked entry structurally (cover dedupe path).
  FlowMatch probe;
  probe.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
  probe.dst_port = 8000;
  probe.dst_port_mask = 0xfffc;
  EXPECT_NE(table.find(probe, 10, 1), nullptr);
  probe.dst_port_mask = 0xfffe;
  EXPECT_EQ(table.find(probe, 10, 1), nullptr);
}

TEST(FlowTable, CookieIndexTracksLiveEntries) {
  FlowTable table;
  FlowEntry entry;
  entry.match = FlowMatch::exact(tuple());
  entry.cookie = 42;
  table.insert(entry, 0);
  FlowEntry second;
  second.match = FlowMatch::exact(tuple("10.0.0.1", "10.0.0.9"));
  second.cookie = 42;
  table.insert(second, 0);
  EXPECT_TRUE(table.has_cookie(42));

  EXPECT_EQ(table.remove_if([](const FlowEntry& e) {
    return e.match.key().dst_ip == *net::Ipv4Address::parse("10.0.0.9");
  }), 1u);
  EXPECT_TRUE(table.has_cookie(42));  // one entry left
  table.clear();
  EXPECT_FALSE(table.has_cookie(42));

  // Overwrite with a different cookie retires the old one AND notifies —
  // without the notification the controller's cookie map would never
  // learn the old cookie left this table.
  std::vector<std::pair<std::uint64_t, RemovalReason>> removed;
  table.set_removal_listener([&](const FlowEntry& e, RemovalReason reason) {
    removed.emplace_back(e.cookie, reason);
  });
  entry.cookie = 7;
  table.insert(entry, 0);
  FlowEntry replacement = entry;
  replacement.cookie = 8;
  table.insert(replacement, 0);
  EXPECT_FALSE(table.has_cookie(7));
  EXPECT_TRUE(table.has_cookie(8));
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], (std::pair<std::uint64_t, RemovalReason>{
                            7, RemovalReason::kDeleted}));
  // A same-cookie refresh is not a removal.
  removed.clear();
  table.insert(replacement, 0);
  EXPECT_TRUE(removed.empty());
}

TEST(FlowMatch, WildcardHelpers) {
  const Wildcard w = without(Wildcard::kAll, Wildcard::kProto | Wildcard::kDstPort);
  EXPECT_FALSE(has_wildcard(w, Wildcard::kProto));
  EXPECT_FALSE(has_wildcard(w, Wildcard::kDstPort));
  EXPECT_TRUE(has_wildcard(w, Wildcard::kSrcIp));
}

// ---------------------------------------------------------------- table

TEST(FlowTable, ExactLookupHit) {
  FlowTable table;
  FlowEntry entry;
  entry.match = FlowMatch::exact(tuple());
  entry.action = OutputAction{{2}};
  table.insert(entry, 0);
  const FlowEntry* found = table.lookup(tuple(), 10, 100);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->packet_count, 1u);
  EXPECT_EQ(found->byte_count, 100u);
  EXPECT_EQ(table.stats().hits, 1u);
}

TEST(FlowTable, MissIsCounted) {
  FlowTable table;
  EXPECT_EQ(table.lookup(tuple(), 0, 0), nullptr);
  EXPECT_EQ(table.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(table.stats().hit_rate(), 0.0);
}

TEST(FlowTable, PriorityOrderAmongWildcards) {
  FlowTable table;
  FlowEntry low;
  low.match.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
  low.match.dst_port = 80;
  low.priority = 10;
  low.action = DropAction{};
  FlowEntry high = low;
  high.priority = 20;
  high.action = OutputAction{{7}};
  table.insert(low, 0);
  table.insert(high, 0);
  const FlowEntry* found = table.lookup(tuple(), 1, 0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->priority, 20);
  EXPECT_TRUE(std::holds_alternative<OutputAction>(found->action));
}

TEST(FlowTable, SameMatchSamePriorityOverwrites) {
  FlowTable table;
  FlowEntry entry;
  entry.match.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
  entry.match.dst_port = 80;
  entry.priority = 5;
  entry.action = DropAction{};
  table.insert(entry, 0);
  entry.action = FloodAction{};
  table.insert(entry, 0);
  EXPECT_EQ(table.size(), 1u);
  const FlowEntry* found = table.lookup(tuple(), 1, 0);
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(std::holds_alternative<FloodAction>(found->action));
}

TEST(FlowTable, IdleTimeoutExpires) {
  FlowTable table;
  FlowEntry entry;
  entry.match = FlowMatch::exact(tuple());
  entry.idle_timeout = 100;
  table.insert(entry, 0);
  EXPECT_NE(table.lookup(tuple(), 50, 0), nullptr);   // refreshes last_used
  EXPECT_NE(table.lookup(tuple(), 149, 0), nullptr);  // 99 since last use
  EXPECT_EQ(table.lookup(tuple(), 249, 0), nullptr);  // 100 past
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, HardTimeoutExpiresRegardlessOfUse) {
  FlowTable table;
  FlowEntry entry;
  entry.match = FlowMatch::exact(tuple());
  entry.hard_timeout = 100;
  table.insert(entry, 0);
  EXPECT_NE(table.lookup(tuple(), 99, 0), nullptr);
  EXPECT_EQ(table.lookup(tuple(), 100, 0), nullptr);
}

TEST(FlowTable, ExpireSweepsAndNotifies) {
  FlowTable table;
  std::vector<RemovalReason> reasons;
  table.set_removal_listener([&](const FlowEntry&, RemovalReason reason) {
    reasons.push_back(reason);
  });
  FlowEntry idle;
  idle.match = FlowMatch::exact(tuple());
  idle.idle_timeout = 10;
  table.insert(idle, 0);
  FlowEntry hard;
  hard.match = FlowMatch::exact(tuple("9.9.9.9", "8.8.8.8"));
  hard.hard_timeout = 20;
  table.insert(hard, 0);
  EXPECT_EQ(table.expire(5), 0u);
  EXPECT_EQ(table.expire(50), 2u);
  EXPECT_EQ(reasons.size(), 2u);
}

TEST(FlowTable, CapacityEvictsLru) {
  FlowTable table(2);
  std::vector<RemovalReason> reasons;
  table.set_removal_listener([&](const FlowEntry&, RemovalReason reason) {
    reasons.push_back(reason);
  });
  FlowEntry a;
  a.match = FlowMatch::exact(tuple("1.1.1.1", "2.2.2.2"));
  table.insert(a, 0);
  FlowEntry b;
  b.match = FlowMatch::exact(tuple("3.3.3.3", "4.4.4.4"));
  table.insert(b, 1);
  // Touch `a` so `b` becomes LRU.
  (void)table.lookup(tuple("1.1.1.1", "2.2.2.2"), 5, 0);
  FlowEntry c;
  c.match = FlowMatch::exact(tuple("5.5.5.5", "6.6.6.6"));
  table.insert(c, 6);
  EXPECT_EQ(table.size(), 2u);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], RemovalReason::kEvicted);
  EXPECT_EQ(table.lookup(tuple("3.3.3.3", "4.4.4.4"), 7, 0), nullptr);
  EXPECT_NE(table.lookup(tuple("1.1.1.1", "2.2.2.2"), 7, 0), nullptr);
}

TEST(FlowTable, HighPriorityWildcardDropBeatsExactAllow) {
  // Wildcard-shadowing regression: the seed's exact-match fast path
  // returned without consulting wildcard entries of strictly higher
  // priority, so a quarantine drop covering the flow's source never
  // fired once a per-flow allow entry existed.
  FlowTable table;
  FlowEntry allow;
  allow.match = FlowMatch::exact(tuple());
  allow.priority = 100;
  allow.action = OutputAction{{2}};
  table.insert(allow, 0);

  FlowEntry quarantine;
  quarantine.match.wildcards = without(Wildcard::kAll, Wildcard::kSrcIp);
  quarantine.match.src_ip = *net::Ipv4Address::parse("10.0.0.1");
  quarantine.priority = 900;  // strictly above the allow entry
  quarantine.action = DropAction{};
  table.insert(quarantine, 0);

  const FlowEntry* found = table.lookup(tuple(), 1, 64);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->priority, 900);
  EXPECT_TRUE(std::holds_alternative<DropAction>(found->action));
}

TEST(FlowTable, ExactBeatsEqualAndLowerPriorityWildcards) {
  // OpenFlow tie-break: the exact entry wins at equal (and lower)
  // wildcard priority.
  FlowTable table;
  FlowEntry allow;
  allow.match = FlowMatch::exact(tuple());
  allow.priority = 100;
  allow.action = OutputAction{{2}};
  table.insert(allow, 0);

  FlowEntry same_priority;
  same_priority.match.wildcards = without(Wildcard::kAll, Wildcard::kSrcIp);
  same_priority.match.src_ip = *net::Ipv4Address::parse("10.0.0.1");
  same_priority.priority = 100;
  same_priority.action = DropAction{};
  table.insert(same_priority, 0);

  FlowEntry lower;
  lower.match.wildcards = Wildcard::kAll;
  lower.priority = 10;
  lower.action = DropAction{};
  table.insert(lower, 0);

  const FlowEntry* found = table.lookup(tuple(), 1, 0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->priority, 100);
  EXPECT_TRUE(std::holds_alternative<OutputAction>(found->action));
  EXPECT_TRUE(found->match.is_exact());
}

TEST(FlowTable, OverwritePreservesCountersAndCreation) {
  // A controller refreshing a rule (same match + priority) must not wipe
  // the counters AdmissionController::flow_usage reads for accounting.
  FlowTable table;
  FlowEntry entry;
  entry.match = FlowMatch::exact(tuple());
  entry.action = OutputAction{{2}};
  table.insert(entry, 0);
  (void)table.lookup(tuple(), 5, 100);
  (void)table.lookup(tuple(), 6, 100);

  entry.action = OutputAction{{3}};  // refreshed rule, new action
  table.insert(entry, 50);
  const FlowEntry* found = table.lookup(tuple(), 51, 100);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->packet_count, 3u);  // 2 before the refresh + this one
  EXPECT_EQ(found->byte_count, 300u);
  EXPECT_EQ(found->created_at, 0);
  EXPECT_TRUE(std::holds_alternative<OutputAction>(found->action));
  EXPECT_EQ(std::get<OutputAction>(found->action).ports[0], 3);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, WildcardOverwritePreservesCounters) {
  FlowTable table;
  FlowEntry entry;
  entry.match.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
  entry.match.dst_port = 80;
  entry.priority = 7;
  entry.action = DropAction{};
  table.insert(entry, 0);
  (void)table.lookup(tuple(), 1, 40);

  table.insert(entry, 10);  // refresh
  const FlowEntry* found = table.lookup(tuple(), 11, 40);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->packet_count, 2u);
  EXPECT_EQ(found->byte_count, 80u);
  EXPECT_EQ(found->created_at, 0);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, ZeroCapacityClampsToOne) {
  // capacity == 0 used to disable eviction entirely (evict_lru no-oped on
  // the empty stores) and let the table grow past its cap.
  FlowTable table(0);
  EXPECT_EQ(table.capacity(), 1u);
  FlowEntry a;
  a.match = FlowMatch::exact(tuple("1.1.1.1", "2.2.2.2"));
  table.insert(a, 0);
  FlowEntry b;
  b.match = FlowMatch::exact(tuple("3.3.3.3", "4.4.4.4"));
  table.insert(b, 1);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(tuple("1.1.1.1", "2.2.2.2"), 2, 0), nullptr);
  EXPECT_NE(table.lookup(tuple("3.3.3.3", "4.4.4.4"), 2, 0), nullptr);
}

TEST(FlowTable, BucketedLookupFindsLowerPriorityMatch) {
  // Many disjoint wildcard entries across several priorities: the bucketed
  // tuple-space index must still fall through to the only matching entry.
  FlowTable table;
  for (std::uint16_t p = 1; p <= 50; ++p) {
    FlowEntry entry;
    entry.match.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
    entry.match.dst_port = static_cast<std::uint16_t>(5000 + p);
    entry.priority = p;
    entry.action = DropAction{};
    table.insert(entry, 0);
  }
  FlowEntry target;
  target.match.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
  target.match.dst_port = 80;
  target.priority = 3;
  target.action = OutputAction{{9}};
  table.insert(target, 0);

  const FlowEntry* found = table.lookup(tuple(), 1, 0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->priority, 3);
  EXPECT_TRUE(std::holds_alternative<OutputAction>(found->action));
}

TEST(FlowTable, FindByMatchAndPriority) {
  FlowTable table;
  FlowEntry wild;
  wild.match.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
  wild.match.dst_port = 80;
  wild.priority = 42;
  wild.idle_timeout = 100;
  table.insert(wild, 0);
  EXPECT_NE(table.find(wild.match, 42, 1), nullptr);
  EXPECT_EQ(table.find(wild.match, 43, 1), nullptr);
  FlowMatch other = wild.match;
  other.dst_port = 81;
  EXPECT_EQ(table.find(other, 42, 1), nullptr);
  // An expired-but-unswept entry is not a live rule.
  EXPECT_EQ(table.find(wild.match, 42, 500), nullptr);
}

TEST(FlowTable, RemoveIfByCookie) {
  FlowTable table;
  for (std::uint64_t cookie = 1; cookie <= 3; ++cookie) {
    FlowEntry entry;
    entry.match = FlowMatch::exact(
        tuple("1.1.1.1", "2.2.2.2", static_cast<std::uint16_t>(cookie), 80));
    entry.cookie = cookie;
    table.insert(entry, 0);
  }
  EXPECT_EQ(table.remove_if([](const FlowEntry& e) { return e.cookie == 2; }),
            1u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlowTable, ClearEmptiesEverything) {
  FlowTable table;
  FlowEntry exact;
  exact.match = FlowMatch::exact(tuple());
  table.insert(exact, 0);
  FlowEntry wild;
  wild.match.wildcards = Wildcard::kAll;
  table.insert(wild, 0);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.entries().empty());
}

// ------------------------------------------------- differential reference

/// The flow table's semantics (DESIGN.md §8.1) on plain node-based
/// containers — std::list recency, std::unordered_map indices, std::map
/// priority buckets — as the oracle for FlowTable's observable behaviour:
/// lookup results, the order of removal notifications, stats, the cookie
/// index and entries() order.
class ReferenceFlowTable {
 public:
  explicit ReferenceFlowTable(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  std::vector<std::pair<std::uint64_t, RemovalReason>> removals;
  TableStats stats;

  void insert(FlowEntry entry, sim::SimTime now) {
    entry.created_at = now;
    entry.last_used_at = now;
    ++stats.inserts;
    const net::TenTuple key = entry.match.key();
    if (entry.match.is_exact()) {
      if (const auto it = exact_.find(key); it != exact_.end()) {
        if (expired(*it->second, now)) {
          erase(it->second, reason(*it->second, now));
        } else {
          overwrite(it->second, std::move(entry));
          return;
        }
      }
      if (order_.size() >= capacity_) erase(std::prev(order_.end()), RemovalReason::kEvicted);
      cookie_added(entry.cookie);
      order_.push_front(std::move(entry));
      exact_.emplace(key, order_.begin());
      return;
    }
    if (const auto bit = wild_.find(entry.priority); bit != wild_.end()) {
      for (Shape& shape : bit->second) {
        if (!fits(shape, entry.match)) continue;
        if (const auto it = shape.by_key.find(key); it != shape.by_key.end()) {
          if (expired(*it->second, now)) {
            erase(it->second, reason(*it->second, now));
            break;
          }
          overwrite(it->second, std::move(entry));
          return;
        }
        break;
      }
    }
    if (order_.size() >= capacity_) erase(std::prev(order_.end()), RemovalReason::kEvicted);
    cookie_added(entry.cookie);
    order_.push_front(std::move(entry));
    const FlowMatch& match = order_.front().match;
    std::vector<Shape>& shapes = wild_[order_.front().priority];
    Shape* shape = nullptr;
    for (Shape& candidate : shapes) {
      if (fits(candidate, match)) {
        shape = &candidate;
        break;
      }
    }
    if (shape == nullptr) {
      shapes.push_back(Shape{shape_of(match), {}});
      shape = &shapes.back();
    }
    shape->by_key.emplace(key, order_.begin());
  }

  const FlowEntry* lookup(const net::TenTuple& tuple, sim::SimTime now,
                          std::size_t bytes) {
    ++stats.lookups;
    Iter exact_hit = order_.end();
    if (const auto it = exact_.find(tuple); it != exact_.end()) {
      if (expired(*it->second, now)) {
        erase(it->second, reason(*it->second, now));
      } else {
        exact_hit = it->second;
      }
    }
    const bool have_exact = exact_hit != order_.end();
    auto bit = wild_.begin();
    while (bit != wild_.end()) {
      const std::uint16_t priority = bit->first;
      if (have_exact && priority <= exact_hit->priority) break;
      Iter matched = order_.end();
      std::vector<Iter> dead;
      for (Shape& shape : bit->second) {
        const auto& s = shape.shape;
        const auto kit = shape.by_key.find(project_tuple(
            tuple, s.wildcards, s.src_ip_prefix, s.dst_ip_prefix,
            s.src_port_mask, s.dst_port_mask));
        if (kit == shape.by_key.end()) continue;
        if (expired(*kit->second, now)) {
          dead.push_back(kit->second);
          continue;
        }
        matched = kit->second;
        break;
      }
      for (const Iter it : dead) erase(it, reason(*it, now));
      if (matched != order_.end()) return touch(matched, now, bytes);
      bit = wild_.upper_bound(priority);
    }
    if (have_exact) return touch(exact_hit, now, bytes);
    ++stats.misses;
    return nullptr;
  }

  const FlowEntry* find(const FlowMatch& match, std::uint16_t priority,
                        sim::SimTime now) const {
    const net::TenTuple key = match.key();
    const FlowEntry* entry = nullptr;
    if (match.is_exact()) {
      if (const auto it = exact_.find(key);
          it != exact_.end() && it->second->priority == priority) {
        entry = &*it->second;
      }
    } else if (const auto bit = wild_.find(priority); bit != wild_.end()) {
      for (const Shape& shape : bit->second) {
        if (!fits(shape, match)) continue;
        if (const auto kit = shape.by_key.find(key); kit != shape.by_key.end()) {
          entry = &*kit->second;
        }
        break;
      }
    }
    return entry != nullptr && !expired(*entry, now) ? entry : nullptr;
  }

  std::size_t remove_if(const std::function<bool(const FlowEntry&)>& pred) {
    std::size_t removed = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      const auto next = std::next(it);
      if (pred(*it)) {
        erase(it, RemovalReason::kDeleted);
        ++removed;
      }
      it = next;
    }
    return removed;
  }

  std::size_t expire(sim::SimTime now) {
    std::size_t removed = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      const auto next = std::next(it);
      if (expired(*it, now)) {
        erase(it, reason(*it, now));
        ++removed;
      }
      it = next;
    }
    return removed;
  }

  void clear() {
    for (const FlowEntry& entry : order_) notify(entry, RemovalReason::kDeleted);
    order_.clear();
    exact_.clear();
    wild_.clear();
    cookies_.clear();
  }

  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] bool has_cookie(std::uint64_t cookie) const {
    return cookies_.contains(cookie);
  }
  [[nodiscard]] std::vector<FlowEntry> entries() const {
    return {order_.begin(), order_.end()};
  }

 private:
  using Iter = std::list<FlowEntry>::iterator;
  struct Shape {
    FlowMatch shape;  ///< only the shape fields are meaningful
    std::unordered_map<net::TenTuple, Iter> by_key;
  };

  static FlowMatch shape_of(const FlowMatch& m) {
    FlowMatch s;
    s.wildcards = m.wildcards;
    s.src_ip_prefix = has_wildcard(m.wildcards, Wildcard::kSrcIp)
                          ? 0
                          : std::min(m.src_ip_prefix, 32u);
    s.dst_ip_prefix = has_wildcard(m.wildcards, Wildcard::kDstIp)
                          ? 0
                          : std::min(m.dst_ip_prefix, 32u);
    s.src_port_mask =
        has_wildcard(m.wildcards, Wildcard::kSrcPort) ? 0xffff : m.src_port_mask;
    s.dst_port_mask =
        has_wildcard(m.wildcards, Wildcard::kDstPort) ? 0xffff : m.dst_port_mask;
    return s;
  }
  static bool fits(const Shape& shape, const FlowMatch& match) {
    return shape.shape == shape_of(match);
  }
  static bool expired(const FlowEntry& e, sim::SimTime now) {
    return (e.hard_timeout > 0 && now >= e.created_at + e.hard_timeout) ||
           (e.idle_timeout > 0 && now >= e.last_used_at + e.idle_timeout);
  }
  static RemovalReason reason(const FlowEntry& e, sim::SimTime now) {
    return e.hard_timeout > 0 && now >= e.created_at + e.hard_timeout
               ? RemovalReason::kHardTimeout
               : RemovalReason::kIdleTimeout;
  }
  void notify(const FlowEntry& entry, RemovalReason why) {
    ++stats.removals;
    removals.emplace_back(entry.cookie, why);
  }
  void cookie_added(std::uint64_t cookie) {
    if (cookie != 0) ++cookies_[cookie];
  }
  void cookie_removed(std::uint64_t cookie) {
    if (cookie == 0) return;
    if (const auto it = cookies_.find(cookie); it != cookies_.end() && --it->second == 0) {
      cookies_.erase(it);
    }
  }
  void overwrite(Iter it, FlowEntry fresh) {
    if (it->cookie != fresh.cookie) {
      cookie_removed(it->cookie);
      cookie_added(fresh.cookie);
      notify(*it, RemovalReason::kDeleted);
    }
    fresh.packet_count = it->packet_count;
    fresh.byte_count = it->byte_count;
    fresh.created_at = it->created_at;
    *it = std::move(fresh);
    order_.splice(order_.begin(), order_, it);
  }
  void erase(Iter it, RemovalReason why) {
    const FlowEntry entry = *it;
    cookie_removed(entry.cookie);
    if (entry.match.is_exact()) {
      exact_.erase(entry.match.key());
    } else if (const auto bit = wild_.find(entry.priority); bit != wild_.end()) {
      std::vector<Shape>& shapes = bit->second;
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        if (!fits(shapes[i], entry.match)) continue;
        shapes[i].by_key.erase(entry.match.key());
        if (shapes[i].by_key.empty()) {
          shapes.erase(shapes.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      }
      if (shapes.empty()) wild_.erase(bit);
    }
    order_.erase(it);
    notify(entry, why);
  }
  const FlowEntry* touch(Iter it, sim::SimTime now, std::size_t bytes) {
    it->last_used_at = now;
    ++it->packet_count;
    it->byte_count += bytes;
    order_.splice(order_.begin(), order_, it);
    ++stats.hits;
    return &*it;
  }

  std::size_t capacity_;
  std::list<FlowEntry> order_;
  std::unordered_map<net::TenTuple, Iter> exact_;
  std::map<std::uint16_t, std::vector<Shape>, std::greater<>> wild_;
  std::unordered_map<std::uint64_t, std::size_t> cookies_;
};

void expect_same_entry(const FlowEntry& a, const FlowEntry& b) {
  EXPECT_EQ(a.match, b.match);
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.idle_timeout, b.idle_timeout);
  EXPECT_EQ(a.hard_timeout, b.hard_timeout);
  EXPECT_EQ(a.created_at, b.created_at);
  EXPECT_EQ(a.last_used_at, b.last_used_at);
  EXPECT_EQ(a.packet_count, b.packet_count);
  EXPECT_EQ(a.byte_count, b.byte_count);
  EXPECT_EQ(a.cookie, b.cookie);
}

TEST(FlowTable, DifferentialAgainstReferenceModel) {
  // Seeded random operation sequences over a small key space, so
  // overwrites, cookie changes, shadowing across priorities, lazy expiry
  // and capacity eviction all happen often.  After every operation the
  // slab table must agree with the reference on the result, every removal
  // notification (cookie + reason, in order), stats, the cookie index and
  // the recency order of entries().
  constexpr std::uint64_t kCookies = 6;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::SplitMix64 rng(seed);
    const std::size_t capacity = 1 + rng.next_below(12);
    FlowTable table(capacity);
    ReferenceFlowTable reference(capacity);
    std::vector<std::pair<std::uint64_t, RemovalReason>> removals;
    table.set_removal_listener([&removals](const FlowEntry& e, RemovalReason why) {
      removals.emplace_back(e.cookie, why);
    });

    const auto random_tuple = [&] {
      static constexpr const char* kSrc[] = {"10.0.0.1", "10.0.0.2", "10.0.1.9"};
      static constexpr const char* kDst[] = {"10.0.0.2", "192.168.1.1"};
      static constexpr std::uint16_t kPorts[] = {80, 81, 443, 8000, 8003};
      return tuple(kSrc[rng.next_below(3)], kDst[rng.next_below(2)],
                   static_cast<std::uint16_t>(1000 + rng.next_below(2)),
                   kPorts[rng.next_below(5)],
                   static_cast<std::uint16_t>(1 + rng.next_below(2)));
    };
    const auto random_match = [&] {
      FlowMatch match = FlowMatch::exact(random_tuple());
      switch (rng.next_below(6)) {
        case 0:
        case 1:
          break;  // exact
        case 2:
          match.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
          break;
        case 3:
          match.wildcards = without(Wildcard::kAll,
                                    Wildcard::kSrcIp | Wildcard::kDstPort);
          match.src_ip_prefix = 24;
          break;
        case 4:
          match.wildcards = without(Wildcard::kAll, Wildcard::kDstPort);
          match.dst_port_mask = 0xfffc;
          break;
        default:
          match.wildcards = Wildcard::kAll;
          break;
      }
      return match;
    };
    const auto random_entry = [&] {
      FlowEntry entry;
      entry.match = random_match();
      entry.priority = static_cast<std::uint16_t>(10 * (1 + rng.next_below(3)));
      entry.cookie = rng.next_below(kCookies);
      if (rng.next_bool(0.5)) {
        entry.action = DropAction{};
      } else {
        entry.action = OutputAction{{static_cast<sim::PortId>(1 + rng.next_below(3))}};
      }
      entry.idle_timeout = static_cast<sim::SimTime>(rng.next_below(3) * 10);
      entry.hard_timeout = rng.next_bool(0.3) ? 25 : 0;
      return entry;
    };

    sim::SimTime now = 0;
    for (int op = 0; op < 1500; ++op) {
      now += static_cast<sim::SimTime>(rng.next_below(4));
      const std::uint64_t kind = rng.next_below(100);
      if (kind < 40) {
        const FlowEntry entry = random_entry();
        table.insert(entry, now);
        reference.insert(entry, now);
      } else if (kind < 80) {
        const net::TenTuple t = random_tuple();
        const std::size_t bytes = 1 + rng.next_below(1500);
        const FlowEntry* got = table.lookup(t, now, bytes);
        const FlowEntry* want = reference.lookup(t, now, bytes);
        ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
        if (got != nullptr) expect_same_entry(*got, *want);
      } else if (kind < 88) {
        const FlowMatch match = random_match();
        const auto priority = static_cast<std::uint16_t>(10 * (1 + rng.next_below(3)));
        const FlowEntry* got = table.find(match, priority, now);
        const FlowEntry* want = reference.find(match, priority, now);
        ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
        if (got != nullptr) expect_same_entry(*got, *want);
      } else if (kind < 93) {
        EXPECT_EQ(table.expire(now), reference.expire(now));
      } else if (kind < 99) {
        const std::uint64_t cookie = rng.next_below(kCookies);
        const auto pred = [cookie](const FlowEntry& e) { return e.cookie == cookie; };
        EXPECT_EQ(table.remove_if(pred), reference.remove_if(pred));
      } else {
        table.clear();
        reference.clear();
      }

      ASSERT_EQ(removals, reference.removals) << "op " << op;
      EXPECT_EQ(table.stats().lookups, reference.stats.lookups);
      EXPECT_EQ(table.stats().hits, reference.stats.hits);
      EXPECT_EQ(table.stats().misses, reference.stats.misses);
      EXPECT_EQ(table.stats().inserts, reference.stats.inserts);
      EXPECT_EQ(table.stats().removals, reference.stats.removals);
      for (std::uint64_t cookie = 0; cookie < kCookies; ++cookie) {
        EXPECT_EQ(table.has_cookie(cookie), reference.has_cookie(cookie));
      }
      ASSERT_EQ(table.size(), reference.size()) << "op " << op;
      const std::vector<FlowEntry> got = table.entries();
      const std::vector<FlowEntry> want = reference.entries();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) expect_same_entry(got[i], want[i]);
      if (::testing::Test::HasFailure()) FAIL() << "diverged at op " << op;
    }
  }
}

// ---------------------------------------------------------------- switch

class CapturingControlPlane : public ControlPlane {
 public:
  void on_packet_in(const PacketIn& msg) override { packet_ins.push_back(msg); }
  void on_flow_removed(const FlowRemovedMsg& msg) override {
    removed.push_back(msg);
  }
  std::vector<PacketIn> packet_ins;
  std::vector<FlowRemovedMsg> removed;
};

struct SwitchFixture : ::testing::Test {
  SwitchFixture() {
    s1 = topo.add_switch(std::make_unique<Switch>("s1"));
    // Two recorder hosts on ports 1 and 2 of s1.
    h1 = topo.add_host(std::make_unique<HostStub>("h1"));
    h2 = topo.add_host(std::make_unique<HostStub>("h2"));
    topo.link(s1, h1);
    topo.link(s1, h2);
    topo.switch_at(s1).set_controller(&controller, 10);
  }

  class HostStub : public sim::Node {
   public:
    explicit HostStub(std::string name) : name_(std::move(name)) {}
    void on_packet(const net::Packet& packet, sim::PortId) override {
      received.push_back(packet);
    }
    [[nodiscard]] std::string name() const override { return name_; }
    std::vector<net::Packet> received;

   private:
    std::string name_;
  };

  net::Packet packet() {
    return net::make_tcp_packet(
        net::MacAddress::for_node(1), net::MacAddress::for_node(2),
        *net::Ipv4Address::parse("10.0.0.1"), *net::Ipv4Address::parse("10.0.0.2"),
        1000, 80, "x");
  }

  Topology topo;
  CapturingControlPlane controller;
  sim::NodeId s1{}, h1{}, h2{};
};

TEST_F(SwitchFixture, TableMissGoesToController) {
  topo.simulator().send(h1, 1, packet());
  topo.simulator().run();
  ASSERT_EQ(controller.packet_ins.size(), 1u);
  EXPECT_EQ(controller.packet_ins[0].switch_id, s1);
  EXPECT_EQ(controller.packet_ins[0].in_port, 1);
  EXPECT_EQ(topo.switch_at(s1).stats().packets_to_controller, 1u);
}

TEST_F(SwitchFixture, InstalledOutputForwards) {
  FlowEntry entry;
  entry.match = FlowMatch::any();
  entry.action = OutputAction{{2}};
  topo.switch_at(s1).install_flow(entry);
  topo.simulator().send(h1, 1, packet());
  topo.simulator().run();
  auto& host2 = dynamic_cast<HostStub&>(topo.simulator().node(h2));
  EXPECT_EQ(host2.received.size(), 1u);
  EXPECT_TRUE(controller.packet_ins.empty());
}

TEST_F(SwitchFixture, DropActionDrops) {
  FlowEntry entry;
  entry.match = FlowMatch::any();
  entry.action = DropAction{};
  topo.switch_at(s1).install_flow(entry);
  topo.simulator().send(h1, 1, packet());
  topo.simulator().run();
  auto& host2 = dynamic_cast<HostStub&>(topo.simulator().node(h2));
  EXPECT_TRUE(host2.received.empty());
  EXPECT_EQ(topo.switch_at(s1).stats().packets_dropped, 1u);
}

TEST_F(SwitchFixture, FloodSkipsIngressPort) {
  FlowEntry entry;
  entry.match = FlowMatch::any();
  entry.action = FloodAction{};
  topo.switch_at(s1).install_flow(entry);
  topo.simulator().send(h1, 1, packet());
  topo.simulator().run();
  auto& host1 = dynamic_cast<HostStub&>(topo.simulator().node(h1));
  auto& host2 = dynamic_cast<HostStub&>(topo.simulator().node(h2));
  EXPECT_TRUE(host1.received.empty());
  EXPECT_EQ(host2.received.size(), 1u);
}

TEST_F(SwitchFixture, MissDropBehaviour) {
  topo.switch_at(s1).set_miss_behaviour(MissBehaviour::kDrop);
  topo.simulator().send(h1, 1, packet());
  topo.simulator().run();
  EXPECT_TRUE(controller.packet_ins.empty());
  EXPECT_EQ(topo.switch_at(s1).stats().packets_dropped, 1u);
}

TEST_F(SwitchFixture, CompromisedSwitchFloodsEverything) {
  topo.switch_at(s1).set_compromised(true);
  // Even with a drop-all entry installed, traffic passes (§5.2).
  FlowEntry entry;
  entry.match = FlowMatch::any();
  entry.action = DropAction{};
  topo.switch_at(s1).install_flow(entry);
  topo.simulator().send(h1, 1, packet());
  topo.simulator().run();
  auto& host2 = dynamic_cast<HostStub&>(topo.simulator().node(h2));
  EXPECT_EQ(host2.received.size(), 1u);
}

TEST_F(SwitchFixture, PacketOutAppliesAction) {
  topo.switch_at(s1).packet_out(packet(), OutputAction{{2}}, 0);
  topo.simulator().run();
  auto& host2 = dynamic_cast<HostStub&>(topo.simulator().node(h2));
  EXPECT_EQ(host2.received.size(), 1u);
}

TEST_F(SwitchFixture, FlowRemovedNotifiesController) {
  FlowEntry entry;
  entry.match = FlowMatch::exact(tuple());
  entry.idle_timeout = 5;
  entry.cookie = 42;
  topo.switch_at(s1).install_flow(entry);
  topo.simulator().schedule_at(100, [this] {
    topo.switch_at(s1).table().expire(topo.simulator().now());
  });
  topo.simulator().run();
  ASSERT_EQ(controller.removed.size(), 1u);
  EXPECT_EQ(controller.removed[0].entry.cookie, 42u);
}

// ---------------------------------------------------------------- topology

TEST(TopologyTest, AttachmentFindsSwitchPort) {
  Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<Switch>("s1"));
  const auto h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
  const auto [host_port, switch_port] = topo.link(h1, s1);
  (void)host_port;
  const auto attachment = topo.attachment(h1);
  ASSERT_TRUE(attachment.has_value());
  EXPECT_EQ(attachment->switch_id, s1);
  EXPECT_EQ(attachment->out_port, switch_port);
}

TEST(TopologyTest, PathAcrossLinearFabric) {
  // h1 - s1 - s2 - s3 - h2
  Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<Switch>("s1"));
  const auto s2 = topo.add_switch(std::make_unique<Switch>("s2"));
  const auto s3 = topo.add_switch(std::make_unique<Switch>("s3"));
  const auto h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
  const auto h2 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h2"));
  topo.link(h1, s1);
  topo.link(s1, s2);
  topo.link(s2, s3);
  topo.link(h2, s3);
  const auto path = topo.path(h1, h2);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 3u);
  EXPECT_EQ((*path)[0].switch_id, s1);
  EXPECT_EQ((*path)[1].switch_id, s2);
  EXPECT_EQ((*path)[2].switch_id, s3);
  // in_port of each hop faces the previous node.
  EXPECT_NE((*path)[1].in_port, 0);
  EXPECT_NE((*path)[2].in_port, 0);
}

TEST(TopologyTest, PathPrefersShortestRoute) {
  // Diamond: h1 - s1 - {s2 - s3} and s1 - s4 - h2 shortcut.
  Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<Switch>("s1"));
  const auto s2 = topo.add_switch(std::make_unique<Switch>("s2"));
  const auto s3 = topo.add_switch(std::make_unique<Switch>("s3"));
  const auto s4 = topo.add_switch(std::make_unique<Switch>("s4"));
  const auto h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
  const auto h2 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h2"));
  topo.link(h1, s1);
  topo.link(s1, s2);
  topo.link(s2, s3);
  topo.link(s3, s4);
  topo.link(s1, s4);
  topo.link(h2, s4);
  const auto path = topo.path(h1, h2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);  // s1 -> s4
}

TEST(TopologyTest, NoPathThroughHosts) {
  // h1 - hmid - h2: hosts do not forward.
  Topology topo;
  const auto h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
  const auto hmid = topo.add_host(std::make_unique<SwitchFixture::HostStub>("hm"));
  const auto h2 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h2"));
  topo.link(h1, hmid);
  topo.link(hmid, h2);
  EXPECT_FALSE(topo.path(h1, h2).has_value());
}

TEST(TopologyTest, PathFromSwitchStart) {
  Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<Switch>("s1"));
  const auto s2 = topo.add_switch(std::make_unique<Switch>("s2"));
  const auto h2 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h2"));
  topo.link(s1, s2);
  topo.link(h2, s2);
  const auto path = topo.path(s1, h2);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 2u);
  EXPECT_EQ(path->front().switch_id, s1);
}

TEST(TopologyTest, PathCacheHitsAndInvalidatesOnLink) {
  Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<Switch>("s1"));
  const auto s2 = topo.add_switch(std::make_unique<Switch>("s2"));
  const auto h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
  const auto h2 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h2"));
  topo.link(h1, s1);
  topo.link(s1, s2);
  topo.link(h2, s2);

  const auto first = topo.path(h1, h2);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), 2u);
  EXPECT_EQ(topo.path_cache_stats().misses, 1u);
  const auto second = topo.path(h1, h2);
  EXPECT_EQ(second, first);  // served from cache, identical hops
  EXPECT_EQ(topo.path_cache_stats().hits, 1u);

  // Topology change: a direct s1—h2 shortcut.  The cache must not keep
  // handing out the stale two-hop path.
  topo.link(s1, h2);
  EXPECT_GE(topo.path_cache_stats().invalidations, 1u);
  const auto after = topo.path(h1, h2);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->size(), 1u);  // now one hop: s1 straight to h2
  EXPECT_EQ(after->front().switch_id, s1);
}

TEST(TopologyTest, PathCacheDisableFallsBackToBfs) {
  Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<Switch>("s1"));
  const auto h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
  const auto h2 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h2"));
  topo.link(h1, s1);
  topo.link(h2, s1);
  topo.set_path_cache_enabled(false);
  ASSERT_TRUE(topo.path(h1, h2).has_value());
  ASSERT_TRUE(topo.path(h1, h2).has_value());
  EXPECT_EQ(topo.path_cache_stats().hits, 0u);
  EXPECT_EQ(topo.path_cache_size(), 0u);
}

TEST(TopologyTest, SwitchAtRejectsHosts) {
  Topology topo;
  const auto h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
  EXPECT_THROW((void)topo.switch_at(h1), SimError);
}

// ------------------------------------------------------------ multipath

// Diamond fabric with two equal-cost routes h1 -> h2:
//     h1 - s1 - s2 - s4 - h2
//              \ s3 /
struct DiamondFixture : ::testing::Test {
  DiamondFixture() {
    s1 = topo.add_switch(std::make_unique<Switch>("s1"));
    s2 = topo.add_switch(std::make_unique<Switch>("s2"));
    s3 = topo.add_switch(std::make_unique<Switch>("s3"));
    s4 = topo.add_switch(std::make_unique<Switch>("s4"));
    h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
    h2 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h2"));
    topo.link(h1, s1);
    topo.link(s1, s2);
    topo.link(s1, s3);
    topo.link(s2, s4);
    topo.link(s3, s4);
    topo.link(h2, s4);
  }

  static net::FiveTuple flow_with_port(std::uint16_t src_port) {
    net::FiveTuple f;
    f.src_ip = *net::Ipv4Address::parse("10.0.0.1");
    f.dst_ip = *net::Ipv4Address::parse("10.0.0.2");
    f.proto = net::IpProto::kTcp;
    f.src_port = src_port;
    f.dst_port = 80;
    return f;
  }

  Topology topo;
  sim::NodeId s1{}, s2{}, s3{}, s4{}, h1{}, h2{};
};

TEST_F(DiamondFixture, PathSetEnumeratesEqualCostPaths) {
  const auto single = topo.path(h1, h2);
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->size(), 3u);

  topo.set_multipath(2, 42);
  const PathSet set = topo.path_set(h1, h2);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.paths[0].size(), 3u);
  EXPECT_EQ(set.paths[1].size(), 3u);
  // The two routes diverge in the middle hop only.
  EXPECT_EQ(set.paths[0].front().switch_id, s1);
  EXPECT_EQ(set.paths[1].front().switch_id, s1);
  EXPECT_EQ(set.paths[0].back().switch_id, s4);
  EXPECT_EQ(set.paths[1].back().switch_id, s4);
  EXPECT_NE(set.paths[0][1].switch_id, set.paths[1][1].switch_id);
  // path() under multipath = the set's first path, and the set is capped
  // at k even when more equal-cost routes exist.
  EXPECT_EQ(topo.path(h1, h2), set.paths[0]);
}

TEST_F(DiamondFixture, SingleKPathReproducesLegacyBfs) {
  const auto legacy = topo.path(h1, h2);
  topo.set_multipath(1, 777);  // nonzero seed must not perturb k == 1
  EXPECT_EQ(topo.path(h1, h2), legacy);
  const net::FiveTuple f = flow_with_port(1234);
  EXPECT_EQ(topo.path_for_flow(h1, h2, f), legacy);
}

TEST_F(DiamondFixture, EcmpSelectionIsDeterministicAndCounted) {
  topo.set_multipath(2, 42);
  const PathSet set = topo.path_set(h1, h2);
  ASSERT_EQ(set.size(), 2u);

  // Same flow, same path — every time.
  const net::FiveTuple f = flow_with_port(5555);
  const auto chosen = topo.path_for_flow(h1, h2, f);
  ASSERT_TRUE(chosen.has_value());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(topo.path_for_flow(h1, h2, f), chosen);
  }

  // Across many flows both routes get used, and the histogram accounts
  // for every main-thread selection.
  std::uint64_t queries = 8;  // the loop above
  for (std::uint16_t port = 1000; port < 1064; ++port) {
    ASSERT_TRUE(topo.path_for_flow(h1, h2, flow_with_port(port)).has_value());
    ++queries;
  }
  const auto& hist = topo.path_cache_stats().ecmp_selections;
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_GT(hist[0], 0u);
  EXPECT_GT(hist[1], 0u);
  EXPECT_EQ(hist[0] + hist[1], queries + 1);  // +1: `chosen` itself
}

TEST_F(DiamondFixture, EcmpSeedChangesSelectionPattern) {
  topo.set_multipath(2, 1);
  std::vector<std::size_t> first;
  for (std::uint16_t port = 1000; port < 1032; ++port) {
    const auto p = topo.path_for_flow(h1, h2, flow_with_port(port));
    ASSERT_TRUE(p.has_value());
    first.push_back((*p)[1].switch_id == s2 ? 0 : 1);
  }
  topo.set_multipath(2, 2);
  std::vector<std::size_t> second;
  for (std::uint16_t port = 1000; port < 1032; ++port) {
    const auto p = topo.path_for_flow(h1, h2, flow_with_port(port));
    ASSERT_TRUE(p.has_value());
    second.push_back((*p)[1].switch_id == s2 ? 0 : 1);
  }
  EXPECT_NE(first, second);  // 2^-32 chance of colliding per seed pair
}

// ---------------------------------------------------------- output queues

TEST(SwitchQueueTest, BoundedQueueTailDropsAndCounts) {
  Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<Switch>("s1"));
  const auto h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
  const auto h2 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h2"));
  topo.link(h1, s1);  // default 10G: ingress is effectively instant
  // 1 Mbps egress: each small packet takes ~hundreds of µs on the wire.
  const auto [egress, unused] =
      topo.link(s1, h2, 10 * sim::kMicrosecond, 1'000'000);
  (void)unused;
  topo.switch_at(s1).set_queue_depth(2);

  FlowEntry entry;
  entry.match = FlowMatch::any();
  entry.action = OutputAction{{egress}};
  topo.switch_at(s1).install_flow(entry);

  const auto packet = net::make_tcp_packet(
      net::MacAddress::for_node(1), net::MacAddress::for_node(2),
      *net::Ipv4Address::parse("10.0.0.1"), *net::Ipv4Address::parse("10.0.0.2"),
      1000, 80, "x");
  // Five packets arrive back-to-back: one goes straight on the wire, two
  // queue, two overflow the depth-2 queue.
  for (int i = 0; i < 5; ++i) topo.simulator().send(h1, 1, packet);
  topo.simulator().run();

  auto& dst = dynamic_cast<SwitchFixture::HostStub&>(topo.simulator().node(h2));
  EXPECT_EQ(dst.received.size(), 3u);
  const auto& stats = topo.switch_at(s1).stats();
  EXPECT_EQ(stats.packets_forwarded, 5u);  // forwarding verdicts, pre-queue
  EXPECT_EQ(stats.queue_tail_drops, 2u);
  const PortQueueStats* q = topo.switch_at(s1).port_queue(egress);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->tail_drops, 2u);
  EXPECT_EQ(q->enqueued, 2u);
  EXPECT_EQ(q->peak_occupancy, 2u);
  EXPECT_EQ(q->occupancy, 0u);  // drained by the end of the run
}

TEST(SwitchQueueTest, UnboundedByDefaultAndZeroRestores) {
  Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<Switch>("s1"));
  const auto h1 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h1"));
  const auto h2 = topo.add_host(std::make_unique<SwitchFixture::HostStub>("h2"));
  topo.link(h1, s1);
  const auto [egress, unused] =
      topo.link(s1, h2, 10 * sim::kMicrosecond, 1'000'000);
  (void)unused;

  FlowEntry entry;
  entry.match = FlowMatch::any();
  entry.action = OutputAction{{egress}};
  topo.switch_at(s1).install_flow(entry);

  const auto packet = net::make_tcp_packet(
      net::MacAddress::for_node(1), net::MacAddress::for_node(2),
      *net::Ipv4Address::parse("10.0.0.1"), *net::Ipv4Address::parse("10.0.0.2"),
      1000, 80, "x");
  for (int i = 0; i < 8; ++i) topo.simulator().send(h1, 1, packet);
  topo.simulator().run();

  auto& dst = dynamic_cast<SwitchFixture::HostStub&>(topo.simulator().node(h2));
  EXPECT_EQ(dst.received.size(), 8u);  // queue model off: nothing dropped
  EXPECT_EQ(topo.switch_at(s1).stats().queue_tail_drops, 0u);
}

}  // namespace
}  // namespace identxx::openflow
