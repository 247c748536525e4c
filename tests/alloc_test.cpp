// Allocation lock-in for the flat per-flow tables (DESIGN.md §8.1, §14)
// and the ident++ wire path (DESIGN.md §2.1).  Once warmed up to its
// working size, the switch flow table's evicting exact insert and lookup,
// and the controller's response memo insert and contains, allocate
// nothing.  Each ident++ message costs at most one allocation to
// serialize, one to parse as a query, and for a response one for its
// section list, one per section and one per string too long for the
// small-string buffer; a ResponseDict over it costs none.  This binary
// replaces the global operator new with a counting one.  Sanitizer builds,
// whose runtime owns operator new, keep the default: there every count
// reads 0, so only the functional checks bite.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "controller/recent_keys.hpp"
#include "identxx/dict.hpp"
#include "identxx/keys.hpp"
#include "identxx/wire.hpp"
#include "openflow/flow_table.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IDENTXX_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define IDENTXX_SANITIZED 1
#endif
#endif

#ifndef IDENTXX_SANITIZED
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace identxx {
namespace {

/// Heap allocations made by `fn` (0 under sanitizers).
template <class Fn>
std::size_t allocations_in(Fn&& fn) {
#ifdef IDENTXX_SANITIZED
  fn();
  return 0;
#else
  const std::size_t before = g_allocations;
  fn();
  return g_allocations - before;
#endif
}

net::TenTuple tuple_for(std::uint32_t i) {
  net::TenTuple t;
  t.in_port = static_cast<std::uint16_t>(1 + i % 4);
  t.src_mac = net::MacAddress::for_node(i % 1000);
  t.dst_mac = net::MacAddress::for_node(i % 997);
  t.src_ip = net::Ipv4Address(0x0a000000u + i);
  t.dst_ip = net::Ipv4Address(0xc0a80000u + i * 7);
  t.src_port = static_cast<std::uint16_t>(1024 + i % 50000);
  t.dst_port = 80;
  return t;
}

openflow::FlowEntry exact_entry(std::uint32_t i) {
  openflow::FlowEntry entry;
  entry.match = openflow::FlowMatch::exact(tuple_for(i));
  entry.action = openflow::OutputAction{{2}};
  entry.idle_timeout = 10 * sim::kSecond;
  entry.cookie = 1000 + i;
  return entry;
}

TEST(Allocations, EvictingExactInsertAndLookupAllocateNothing) {
  constexpr std::uint32_t kCapacity = 1024;  // perfbench's table size
  openflow::FlowTable table(kCapacity);
  std::size_t removals = 0;
  table.set_removal_listener(
      [&removals](const openflow::FlowEntry&, openflow::RemovalReason) {
        ++removals;
      });
  std::uint32_t next = 0;
  // Warm-up: fill to capacity, then churn through it twice.
  for (; next < 3 * kCapacity; ++next) table.insert(exact_entry(next), next);
  ASSERT_EQ(table.size(), kCapacity);

  // Two more passes: a slab or index that kept growing would cross a
  // doubling inside them.
  for (std::uint32_t round = 0; round < 2 * kCapacity; ++round, ++next) {
    // The entry's own action vector is the caller's allocation.
    openflow::FlowEntry entry = exact_entry(next);
    const std::size_t before = removals;
    EXPECT_EQ(allocations_in([&] { table.insert(std::move(entry), next); }), 0u);
    EXPECT_EQ(removals, before + 1);  // it evicted
    const net::TenTuple hit = tuple_for(next - kCapacity / 4);  // still live
    const openflow::FlowEntry* found = nullptr;
    EXPECT_EQ(allocations_in([&] { found = table.lookup(hit, next, 100); }), 0u);
    EXPECT_NE(found, nullptr);
  }
  EXPECT_EQ(table.size(), kCapacity);
}

TEST(Allocations, RecentKeysInsertAndContainsAllocateNothingInsideTheWindow) {
  constexpr sim::SimTime kWindow = 1 * sim::kSecond;
  constexpr sim::SimTime kStep = sim::kMillisecond;  // ~1000 keys live
  ctrl::RecentKeys memo(kWindow);
  const auto key = [](std::uint32_t i) {
    const net::FiveTuple flow{net::Ipv4Address(0x0a000000u + i),
                              net::Ipv4Address(0x0a800000u + i),
                              net::IpProto::kTcp,
                              static_cast<std::uint16_t>(i), 80};
    return ctrl::RecentKeys::Key::of(flow, i * 31u);
  };
  std::uint32_t i = 0;
  // Warm-up: three windows of steady arrivals.
  for (; i < 3000; ++i) {
    memo.insert(key(i), static_cast<sim::SimTime>(i) * kStep);
  }
  for (int round = 0; round < 2000; ++round, ++i) {
    const sim::SimTime now = static_cast<sim::SimTime>(i) * kStep;
    bool retired_early = true;
    EXPECT_EQ(allocations_in([&] { retired_early = memo.insert(key(i), now); }),
              0u);
    EXPECT_FALSE(retired_early);
    bool recent = false;
    bool stale = true;
    EXPECT_EQ(allocations_in([&] {
                recent = memo.contains(key(i - 500), now);
                stale = memo.contains(key(i - 1500), now);
              }),
              0u);
    EXPECT_TRUE(recent);
    EXPECT_FALSE(stale);
    EXPECT_LE(memo.size(), 1001u);  // one window's keys, no more
  }
}

TEST(Allocations, FullRecentKeysRetiresOldestWithoutAllocating) {
  constexpr std::size_t kCap = ctrl::RecentKeys::kMaxSightings;
  ctrl::RecentKeys memo(1 * sim::kSecond);
  const auto key = [](std::uint32_t i) {
    const net::FiveTuple flow{net::Ipv4Address(i), net::Ipv4Address(~i),
                              net::IpProto::kUdp, 53, 53};
    return ctrl::RecentKeys::Key::of(flow, 0);
  };
  std::uint32_t i = 0;
  for (; i < kCap; ++i) EXPECT_FALSE(memo.insert(key(i), 0));
  ASSERT_EQ(memo.size(), kCap);
  for (int round = 0; round < 100; ++round, ++i) {
    bool retired_early = false;
    EXPECT_EQ(allocations_in([&] { retired_early = memo.insert(key(i), 0); }),
              0u);
    EXPECT_TRUE(retired_early);
    EXPECT_EQ(memo.size(), kCap);
    EXPECT_FALSE(memo.contains(key(i - static_cast<std::uint32_t>(kCap)), 0));
    EXPECT_TRUE(memo.contains(key(i - static_cast<std::uint32_t>(kCap) + 1), 0));
  }
}

// ---------------------------------------------------------------- ident++

/// The controller's query: nine key hints, all within the small-string
/// buffer.
proto::Query controller_query() {
  proto::Query q;
  q.src_port = 40000;
  q.dst_port = 80;
  q.keys = {proto::keys::kUserId,  proto::keys::kGroupId,
            proto::keys::kName,    proto::keys::kVersion,
            proto::keys::kExeHash, proto::keys::kRequirements,
            proto::keys::kReqSig,  proto::keys::kRuleMaker,
            proto::keys::kOsPatch};
  return q;
}

/// A daemon's answer on an identity deployment: one section, one long
/// value (the executable hash).
proto::Response identity_response() {
  proto::Response r;
  r.src_port = 40000;
  r.dst_port = 80;
  proto::Section system;
  system.add(proto::keys::kUserId, "u1");
  system.add(proto::keys::kGroupId, "staff");
  system.add(proto::keys::kPid, "104");
  system.add(proto::keys::kExeHash, std::string(64, 'c'));
  r.append_section(std::move(system));
  return r;
}

/// A daemon's answer for a signed application: the system section, then
/// the user-configured pairs with a long requirements value and signature.
proto::Response attest_response() {
  proto::Response r = identity_response();
  proto::Section user;
  user.add(proto::keys::kName, "app3-17");
  user.add(proto::keys::kAppName, "app3-17");
  user.add(proto::keys::kRequirements, "pass from any to any port 80");
  user.add(proto::keys::kReqSig, std::string(128, 'e'));
  r.append_section(std::move(user));
  return r;
}

/// Keys and values that do not fit the small-string buffer.
std::size_t long_strings(const proto::Response& r) {
  const std::size_t small = std::string().capacity();
  std::size_t n = 0;
  for (const auto& section : r.sections) {
    for (const auto& [key, value] : section.pairs) {
      n += (key.size() > small ? 1 : 0) + (value.size() > small ? 1 : 0);
    }
  }
  return n;
}

TEST(Allocations, QueryParsesWithOneAllocationAndSerializesWithOne) {
  const proto::Query query = controller_query();
  std::string wire;
  EXPECT_LE(allocations_in([&] { wire = query.serialize(); }), 1u);
  proto::Query parsed;
  EXPECT_LE(allocations_in([&] { parsed = proto::Query::parse(wire); }), 1u);
  EXPECT_EQ(parsed, query);
}

TEST(Allocations, ResponsesParseWithOneAllocationPerSectionAndLongString) {
  for (const proto::Response& response :
       {identity_response(), attest_response()}) {
    std::string wire;
    EXPECT_LE(allocations_in([&] { wire = response.serialize(); }), 1u);
    proto::Response parsed;
    // The section list, each section's pairs, and each long string.
    const std::size_t budget =
        1 + response.sections.size() + long_strings(response);
    EXPECT_LE(allocations_in([&] { parsed = proto::Response::parse(wire); }),
              budget)
        << response.sections.size() << " section(s)";
    EXPECT_EQ(parsed, response);
  }
  // The identity answer: 2 plus its one long value.
  EXPECT_EQ(1 + identity_response().sections.size() +
                long_strings(identity_response()),
            3u);
}

TEST(Allocations, ResponseDictBorrowsItsResponse) {
  const proto::Response response = attest_response();
  std::optional<std::string_view> user;
  std::size_t sections = 0;
  EXPECT_EQ(allocations_in([&] {
              const proto::ResponseDict dict(response);
              user = dict.latest(proto::keys::kUserId);
              sections = dict.section_count();
            }),
            0u);
  EXPECT_EQ(user, "u1");
  EXPECT_EQ(sections, 2u);
}

}  // namespace
}  // namespace identxx
