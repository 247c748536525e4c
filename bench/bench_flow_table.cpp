// B3: switch flow-table performance — the datapath cost that caching
// controller decisions (Figure 1 step 4) relies on.  Sweeps table
// occupancy for the exact-match hit path, miss path, and the wildcard
// scan, plus insert/evict throughput at capacity.

#include <benchmark/benchmark.h>

#include "openflow/flow_table.hpp"
#include "openflow/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace identxx;
using openflow::FlowEntry;
using openflow::FlowMatch;
using openflow::FlowTable;

net::TenTuple tuple_for(std::uint64_t i) {
  net::TenTuple t;
  t.in_port = static_cast<std::uint16_t>(1 + (i % 4));
  t.src_mac = net::MacAddress::for_node(static_cast<std::uint32_t>(i % 1000));
  t.dst_mac = net::MacAddress::for_node(static_cast<std::uint32_t>(i % 997));
  t.src_ip = net::Ipv4Address(static_cast<std::uint32_t>(0x0a000000 + i));
  t.dst_ip = net::Ipv4Address(static_cast<std::uint32_t>(0xc0a80000 + i * 7));
  t.proto = net::IpProto::kTcp;
  t.src_port = static_cast<std::uint16_t>(1024 + (i % 50000));
  t.dst_port = 80;
  return t;
}

void fill_exact(FlowTable& table, std::int64_t entries) {
  for (std::int64_t i = 0; i < entries; ++i) {
    FlowEntry entry;
    entry.match = FlowMatch::exact(tuple_for(static_cast<std::uint64_t>(i)));
    entry.action = openflow::OutputAction{{2}};
    table.insert(entry, 0);
  }
}

void BM_ExactLookupHit(benchmark::State& state) {
  FlowTable table(1 << 20);
  fill_exact(table, state.range(0));
  util::SplitMix64 rng(1);
  for (auto _ : state) {
    const auto i = rng.next_below(static_cast<std::uint64_t>(state.range(0)));
    benchmark::DoNotOptimize(table.lookup(tuple_for(i), 1, 100));
  }
  state.counters["entries"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ExactLookupHit)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_LookupMiss(benchmark::State& state) {
  FlowTable table(1 << 20);
  fill_exact(table, state.range(0));
  util::SplitMix64 rng(2);
  for (auto _ : state) {
    // Tuples outside the inserted range: guaranteed miss.
    const auto i = static_cast<std::uint64_t>(state.range(0)) + 1 +
                   rng.next_below(1000);
    benchmark::DoNotOptimize(table.lookup(tuple_for(i), 1, 100));
  }
}
BENCHMARK(BM_LookupMiss)->Arg(1024)->Arg(65536);

void BM_WildcardScan(benchmark::State& state) {
  // Wildcard entries spread over 100 priorities.  Pre-bucketing this was a
  // linear scan over every entry; now it costs one hash probe per
  // (priority bucket × shape), independent of entries per bucket.
  FlowTable table(1 << 20);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    FlowEntry entry;
    entry.match.wildcards = openflow::without(openflow::Wildcard::kAll,
                                              openflow::Wildcard::kDstPort);
    entry.match.dst_port = static_cast<std::uint16_t>(i + 1000);
    entry.priority = static_cast<std::uint16_t>(i % 100);
    entry.action = openflow::DropAction{};
    table.insert(entry, 0);
  }
  // Target matches the last-inserted port (worst case for a scan: under
  // the bucketed layout only the match's own bucket probe can hit).
  net::TenTuple target = tuple_for(0);
  target.dst_port = static_cast<std::uint16_t>(1000 + state.range(0) - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(target, 1, 100));
  }
}
BENCHMARK(BM_WildcardScan)->Arg(16)->Arg(128)->Arg(1024);

void BM_WildcardAggregatedTable(benchmark::State& state) {
  // The aggregated rule-cache shape: many covering entries at ONE
  // priority and one shape (e.g. thousands of (dst_ip, dst_port) covers
  // installed by AggregatingInstallStrategy).  Lookup is a single hash
  // probe regardless of occupancy — O(buckets), not O(entries).
  FlowTable table(1 << 20);
  const auto entries = state.range(0);
  for (std::int64_t i = 0; i < entries; ++i) {
    FlowEntry entry;
    entry.match.wildcards = openflow::without(
        openflow::Wildcard::kAll,
        openflow::Wildcard::kDstIp | openflow::Wildcard::kDstPort);
    entry.match.dst_ip =
        net::Ipv4Address(static_cast<std::uint32_t>(0xc0a80000 + i));
    entry.match.dst_port = 80;
    entry.priority = 100;
    entry.action = openflow::OutputAction{{2}};
    table.insert(entry, 0);
  }
  util::SplitMix64 rng(3);
  for (auto _ : state) {
    const auto i = rng.next_below(static_cast<std::uint64_t>(entries));
    net::TenTuple target = tuple_for(i);
    target.dst_ip = net::Ipv4Address(static_cast<std::uint32_t>(0xc0a80000 + i));
    target.dst_port = 80;
    benchmark::DoNotOptimize(table.lookup(target, 1, 100));
  }
  state.counters["entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_WildcardAggregatedTable)->Arg(64)->Arg(1024)->Arg(16384);

void BM_InsertWithEviction(benchmark::State& state) {
  FlowTable table(static_cast<std::size_t>(state.range(0)));
  fill_exact(table, state.range(0));  // at capacity: every insert evicts
  std::uint64_t i = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    FlowEntry entry;
    entry.match = FlowMatch::exact(tuple_for(i++));
    entry.action = openflow::DropAction{};
    table.insert(entry, static_cast<sim::SimTime>(i));
  }
}
BENCHMARK(BM_InsertWithEviction)->Arg(1024)->Arg(8192);

void BM_FlowTableChurn(benchmark::State& state) {
  // The admission steady state at perfbench's table size: every new flow
  // installs an exact entry into a full table (evicting the LRU one) and
  // its later packets hit it, while older flows' packets still arrive.
  const auto capacity = state.range(0);
  FlowTable table(static_cast<std::size_t>(capacity));
  fill_exact(table, capacity);
  std::uint64_t i = static_cast<std::uint64_t>(capacity);
  util::SplitMix64 rng(4);
  for (auto _ : state) {
    FlowEntry entry;
    entry.match = FlowMatch::exact(tuple_for(i));
    entry.action = openflow::DropAction{};
    table.insert(std::move(entry), static_cast<sim::SimTime>(i));
    benchmark::DoNotOptimize(
        table.lookup(tuple_for(i), static_cast<sim::SimTime>(i), 100));
    const auto older = i - rng.next_below(static_cast<std::uint64_t>(capacity / 2));
    benchmark::DoNotOptimize(
        table.lookup(tuple_for(older), static_cast<sim::SimTime>(i), 100));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableChurn)->Arg(1024);

void BM_ExpireSweep(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    FlowTable table(1 << 20);
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      FlowEntry entry;
      entry.match = FlowMatch::exact(tuple_for(static_cast<std::uint64_t>(i)));
      entry.idle_timeout = 10;
      table.insert(entry, 0);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(table.expire(100));
  }
}
BENCHMARK(BM_ExpireSweep)->Arg(1024)->Arg(16384);

// ---- OpenFlow 1.0 wire codec (control-channel encoding costs) ----

void BM_OfEncodeFlowMod(benchmark::State& state) {
  FlowEntry entry;
  entry.match = FlowMatch::exact(tuple_for(7));
  entry.priority = 100;
  entry.idle_timeout = 60 * sim::kSecond;
  entry.action = openflow::OutputAction{{3}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(openflow::wire::encode_flow_mod(entry, 1));
  }
}
BENCHMARK(BM_OfEncodeFlowMod);

void BM_OfDecodeFlowMod(benchmark::State& state) {
  FlowEntry entry;
  entry.match = FlowMatch::exact(tuple_for(7));
  entry.action = openflow::OutputAction{{3}};
  const auto bytes = openflow::wire::encode_flow_mod(entry, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(openflow::wire::decode_flow_mod(bytes));
  }
}
BENCHMARK(BM_OfDecodeFlowMod);

void BM_OfPacketInRoundTrip(benchmark::State& state) {
  openflow::PacketIn msg;
  msg.switch_id = 1;
  msg.in_port = 2;
  msg.packet = net::make_tcp_packet(
      net::MacAddress::for_node(1), net::MacAddress::for_node(2),
      net::Ipv4Address(0x0a000001), net::Ipv4Address(0x0a000002), 1000, 80,
      std::string(static_cast<std::size_t>(state.range(0)), 'x'));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        openflow::wire::decode_packet_in(openflow::wire::encode_packet_in(msg, 1)));
  }
  state.counters["payload_bytes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_OfPacketInRoundTrip)->Arg(64)->Arg(512)->Arg(1400);

}  // namespace

BENCHMARK_MAIN();
