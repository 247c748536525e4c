// Sharded admission domains (DESIGN.md §10): ShardMap consistency, the
// multi-lane simulator's worker-count-invariant determinism, ScenarioResult
// equality across shard/worker counts, cross-shard revocation ordering
// (a revoke_all / set_policy racing in-flight admissions must never leave
// a stale cover or decision-cache entry in any domain), and per-shard
// cookie namespacing.

#include <gtest/gtest.h>

#include <functional>

#include "controller/shard_map.hpp"
#include "controller/sharded_controller.hpp"
#include "core/network.hpp"
#include "core/scenario.hpp"
#include "sim/worker_pool.hpp"

namespace identxx {
namespace {

using core::Network;
using core::Scenario;
using core::ScenarioOptions;

[[nodiscard]] net::FiveTuple make_flow(std::uint32_t src, std::uint32_t dst,
                                       std::uint16_t src_port,
                                       std::uint16_t dst_port) {
  net::FiveTuple flow;
  flow.src_ip = net::Ipv4Address{src};
  flow.dst_ip = net::Ipv4Address{dst};
  flow.proto = net::IpProto::kTcp;
  flow.src_port = src_port;
  flow.dst_port = dst_port;
  return flow;
}

/// Entries a controller installed (cookie != 0) on `sw`.
[[nodiscard]] std::size_t installed_entries(Network& net, sim::NodeId sw) {
  std::size_t count = 0;
  for (const auto& entry : net.switch_at(sw).table().entries()) {
    if (entry.cookie != 0) ++count;
  }
  return count;
}

// ---------------------------------------------------------------- ShardMap

TEST(ShardMapTest, BothDirectionsHashToTheSameShard) {
  ctrl::ShardMap map(4);
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto flow = make_flow(0x0a000001u + i, 0x0a010001u + (i * 7),
                                static_cast<std::uint16_t>(30000 + i), 80);
    EXPECT_EQ(map.shard_of(flow), map.shard_of(flow.reversed()))
        << "flow " << flow.to_string();
    EXPECT_LT(map.shard_of(flow), 4u);
  }
}

TEST(ShardMapTest, SpreadsFlowsAcrossShards) {
  ctrl::ShardMap map(4);
  std::vector<std::size_t> buckets(4, 0);
  for (std::uint32_t i = 0; i < 400; ++i) {
    ++buckets[map.shard_of(make_flow(0x0a000001u + i, 0x0a010001u,
                                     static_cast<std::uint16_t>(20000 + i),
                                     80))];
  }
  for (const std::size_t count : buckets) {
    EXPECT_GT(count, 40u);  // roughly uniform; far from degenerate
  }
}

TEST(ShardMapTest, EndpointPinOverridesHashBothDirections) {
  ctrl::ShardMap map(4);
  const auto server = *net::Ipv4Address::parse("10.0.1.1");
  map.pin_endpoint(server, 2);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto flow = make_flow(0x0a000001u + i, server.value(),
                                static_cast<std::uint16_t>(20000 + i), 80);
    EXPECT_EQ(map.shard_of(flow), 2u);
    EXPECT_EQ(map.shard_of(flow.reversed()), 2u);
  }
}

TEST(ShardMapTest, CookieTagRoundTrips) {
  const std::uint64_t cookie = (std::uint64_t{3} << 48) | 12345;
  EXPECT_EQ(ctrl::ShardMap::cookie_shard_tag(cookie), 3u);
  EXPECT_EQ(ctrl::ShardMap::cookie_shard_tag(12345), 0u);
}

// ----------------------------------------------------------- simulator lanes

/// Shard-lane events schedule their "commits" back onto the global lane;
/// the committed order must be canonical (lane-major, FIFO within a lane)
/// and identical at any worker count.
std::vector<int> run_lane_commits(std::uint32_t workers) {
  sim::Simulator sim;
  sim.configure_shard_lanes(4);
  sim.set_workers(workers);
  std::vector<int> commits;
  for (int lane = 1; lane <= 4; ++lane) {
    for (int k = 0; k < 3; ++k) {
      sim.schedule_on(static_cast<sim::LaneId>(lane), 10,
                      [&sim, &commits, lane, k] {
                        sim.schedule_on(sim::kGlobalLane, sim.now(),
                                        [&commits, lane, k] {
                                          commits.push_back(lane * 10 + k);
                                        });
                      });
    }
  }
  sim.run();
  return commits;
}

TEST(SimulatorLanes, CommitOrderIsWorkerCountInvariant) {
  const std::vector<int> expected{10, 11, 12, 20, 21, 22,
                                  30, 31, 32, 40, 41, 42};
  EXPECT_EQ(run_lane_commits(1), expected);
  EXPECT_EQ(run_lane_commits(4), expected);
  EXPECT_EQ(run_lane_commits(sim::WorkerPool::hardware_workers()), expected);
}

TEST(SimulatorLanes, ShardEventsInheritTheirLane) {
  sim::Simulator sim;
  sim.configure_shard_lanes(2);
  sim.set_workers(2);
  std::vector<int> order;
  // A shard event's plain schedule_after stays on its lane; the follow-up
  // can still message the global lane.  Lane 2's first-wave event fires
  // with lane 1's, then the inherited second-wave events, all at t=5.
  sim.schedule_on(1, 5, [&] {
    sim.schedule_after(0, [&] {
      sim.schedule_on(sim::kGlobalLane, sim.now(), [&] { order.push_back(11); });
    });
  });
  sim.schedule_on(2, 5, [&] {
    sim.schedule_on(sim::kGlobalLane, sim.now(), [&] { order.push_back(20); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{20, 11}));
  EXPECT_EQ(sim.now(), 5);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorLanes, WavesCountAllEvents) {
  sim::Simulator sim;
  sim.configure_shard_lanes(2);
  int fired = 0;
  sim.schedule_on(0, 1, [&] { ++fired; });
  sim.schedule_on(1, 1, [&] { ++fired; });
  sim.schedule_on(2, 1, [&] { ++fired; });
  sim.schedule_on(1, 2, [&] { ++fired; });
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.stats().events_executed, 4u);
}

// ------------------------------------------------------ scenario invariance

constexpr const char* kScenario = R"(
seed 7
switch s1
switch s2
link s1 s2
host c1 10.0.0.1 s1
host c2 10.0.0.2 s1
host c3 10.0.0.3 s2
host c4 10.0.0.4 s2
host srv 10.0.1.1 s2
user c1 alice staff
user c2 bob staff
user c3 alice staff
user c4 mallory users
user srv www daemons
launch l1 c1 alice /usr/bin/curl
launch l2 c2 bob /usr/bin/curl
launch l3 c3 alice /usr/bin/curl
launch l4 c4 mallory /usr/bin/nc
launch ls srv www /usr/sbin/httpd
listen ls 80
policy begin
block all
pass from any to any port 80 with eq(@src[userID], alice)
policy end
flow f1 l1 10.0.1.1 80
flow f2 l2 10.0.1.1 80
flow f3 l3 10.0.1.1 80
flow f4 l4 10.0.1.1 80
expect f1 delivered
expect f2 blocked
expect f3 delivered
expect f4 blocked
)";

TEST(ShardedScenario, ResultInvariantAcrossShardAndWorkerCounts) {
  const Scenario scenario = Scenario::parse(kScenario);

  ScenarioOptions classic;  // shards = 0: single controller
  const auto base = scenario.run(classic);
  EXPECT_TRUE(base.ok());
  ASSERT_EQ(base.flows.size(), 4u);

  for (const std::uint32_t shards : {1u, 4u}) {
    for (const std::uint32_t workers :
         {1u, sim::WorkerPool::hardware_workers()}) {
      ScenarioOptions options;
      options.shards = shards;
      options.workers = workers;
      const auto result = scenario.run(options);
      EXPECT_TRUE(result.equivalent_to(base))
          << "shards=" << shards << " workers=" << workers;
      ASSERT_EQ(result.domain_stats.size(), std::max(shards, 1u));
      // The per-domain breakdown re-aggregates to the single-controller
      // totals.
      ctrl::ControllerStats sum;
      for (const auto& stats : result.domain_stats) sum.accumulate(stats);
      EXPECT_EQ(sum, base.controller_stats);
    }
  }
}

TEST(ShardedScenario, IdenticalSeedsReplayIdentically) {
  const Scenario scenario = Scenario::parse(kScenario);
  ScenarioOptions a;
  a.shards = 4;
  a.workers = 2;
  a.seed = 99;  // overrides the file's `seed 7`
  const auto first = scenario.run(a);
  const auto second = scenario.run(a);
  EXPECT_TRUE(first.equivalent_to(second));

  ScenarioOptions b = a;
  b.shards = 1;
  EXPECT_TRUE(scenario.run(b).equivalent_to(first));
}

// --------------------------------------------------------------- partition

TEST(ShardedNetwork, FlowsPartitionAcrossDomainsAndAggregate) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(server, s1);
  auto& sharded = net.install_sharded_controller(
      "block all\npass from any to any port 80\n", 4, 2);
  server.add_user("www", "daemons");
  const int srv = server.launch("www", "/usr/sbin/httpd");
  server.listen(srv, 80);

  constexpr int kClients = 12;
  std::vector<core::FlowHandle> handles;
  std::vector<std::uint32_t> expected_shard;
  for (int i = 0; i < kClients; ++i) {
    auto& c = net.add_host("c" + std::to_string(i),
                           "10.0.0." + std::to_string(i + 1));
    net.link(c, s1);
    c.add_user("u", "users");
    const int pid = c.launch("u", "/bin/x");
    handles.push_back(net.start_flow(c, pid, "10.0.1.1", 80));
    expected_shard.push_back(sharded.shard_map().shard_of(handles.back().flow));
  }
  net.run();

  std::vector<std::uint64_t> per_domain(4, 0);
  for (const std::uint32_t shard : expected_shard) ++per_domain[shard];
  std::uint64_t total = 0;
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(sharded.domain(d).stats().flows_seen, per_domain[d])
        << "domain " << d;
    total += sharded.domain(d).stats().flows_seen;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(sharded.aggregated_stats().flows_seen,
            static_cast<std::uint64_t>(kClients));
  for (const auto& handle : handles) {
    EXPECT_TRUE(net.flow_delivered(handle));
  }
}

// ------------------------------------------------- revocation vs in-flight

/// Observer hook: runs a callback on the first daemon response, i.e. in
/// the same global-lane event that dispatches the decision to the shard
/// lane — the window where control operations race in-flight admissions.
class OnResponseHook : public ctrl::AdmissionObserver {
 public:
  explicit OnResponseHook(std::function<void()> fn) : fn_(std::move(fn)) {}
  void on_response_received(net::Ipv4Address) override {
    if (fn_) {
      auto fn = std::move(fn_);
      fn_ = nullptr;
      fn();
    }
  }

 private:
  std::function<void()> fn_;
};

struct RaceRig {
  explicit RaceRig(const char* policy, bool aggregate = true) {
    s1 = net.add_switch("s1");
    client = &net.add_host("client", "10.0.0.1");
    server = &net.add_host("server", "10.0.1.1");
    net.link(*client, s1);
    net.link(*server, s1);
    ctrl::ControllerConfig config;
    config.aggregate_installs = aggregate;
    config.query_both_ends = false;  // decide on the single src response
    config.decision_cache_ttl = 60 * sim::kSecond;
    sharded = &net.install_sharded_controller(policy, 2, 2, config);
    client->add_user("alice", "staff");
    pid = client->launch("alice", "/usr/bin/curl");
    server->add_user("www", "daemons");
    const int srv = server->launch("www", "/usr/sbin/httpd");
    server->listen(srv, 80);
  }

  Network net;
  sim::NodeId s1 = sim::kInvalidNode;
  host::Host* client = nullptr;
  host::Host* server = nullptr;
  ctrl::ShardedAdmissionController* sharded = nullptr;
  int pid = 0;
};

TEST(ShardedRevocation, RevokeAllRacingInFlightAdmissionLeavesNoStaleState) {
  RaceRig rig("block all\npass from any to any port 80\n");
  const auto handle = rig.net.start_flow(*rig.client, rig.pid, "10.0.1.1", 80);
  const std::uint32_t shard = rig.sharded->shard_map().shard_of(handle.flow);
  auto& domain = rig.sharded->domain(shard);
  sim::Simulator& sim = rig.net.simulator();

  // Fire revoke_all between the decision dispatch and its commit: the
  // response event (wave 1) schedules L1 (wave 2), which schedules the
  // revoke (wave 3, ahead of the commit staged from wave 2's shard phase).
  std::size_t removed_during_race = 1;  // sentinel: revoke observed nothing
  domain.add_observer(std::make_unique<OnResponseHook>([&] {
    sim.schedule_at(sim.now(), [&] {
      sim.schedule_at(sim.now(), [&] {
        removed_during_race = rig.sharded->revoke_all();
      });
    });
  }));
  rig.net.run();

  // The revocation saw no installed entries (the decision had not
  // committed yet) — and the re-decided commit still admits the flow
  // under the unchanged policy, with fresh (post-revocation) state only.
  EXPECT_EQ(removed_during_race, 0u);
  EXPECT_TRUE(rig.net.flow_delivered(handle));
  EXPECT_GT(installed_entries(rig.net, rig.s1), 0u);
  EXPECT_GT(domain.stats().flows_allowed, 0u);
}

TEST(ShardedRevocation, PolicySwapRacingInFlightAdmissionBlocksAndLeavesNoCover) {
  RaceRig rig("block all\npass from any to any port 80\n");
  const auto handle = rig.net.start_flow(*rig.client, rig.pid, "10.0.1.1", 80);
  const std::uint32_t shard = rig.sharded->shard_map().shard_of(handle.flow);
  auto& domain = rig.sharded->domain(shard);
  sim::Simulator& sim = rig.net.simulator();

  // Swap to block-all between dispatch and commit.  The in-flight verdict
  // (pass, with a rule cover) was computed under the old policy; the
  // commit must discard it, re-decide, and neither install the stale
  // cover nor cache the stale allow.
  domain.add_observer(std::make_unique<OnResponseHook>([&] {
    sim.schedule_at(sim.now(), [&] {
      sim.schedule_at(sim.now(), [&] {
        rig.sharded->set_policy(pf::parse("block all\n", "swap"));
      });
    });
  }));
  rig.net.run();

  EXPECT_FALSE(rig.net.flow_delivered(handle));
  // No allow entry (aggregate or exact) anywhere; at most the re-decided
  // drop entry remains.
  for (const auto& entry : rig.net.switch_at(rig.s1).table().entries()) {
    if (entry.cookie == 0) continue;  // intercept boot rules
    EXPECT_TRUE(std::holds_alternative<openflow::DropAction>(entry.action))
        << "stale allow entry survived the policy swap";
  }
  // The decision cache must not re-admit the flow either: a repeat packet
  // re-decides (or hits a cached *block*), and is never delivered.
  rig.client->send_flow_packet(handle.flow, "retry");
  rig.net.run();
  EXPECT_FALSE(rig.net.flow_delivered(handle));
}

TEST(ShardedRevocation, CompromisedFrontEndFloodsLikeAStandaloneController) {
  // §5.1 parity: a compromised sharded controller must disable all
  // protection exactly like a compromised standalone controller —
  // everything floods, and daemon responses are never consumed into
  // decisions.
  RaceRig rig("block all\n");  // policy would block everything when honest
  rig.sharded->set_compromised(true);
  const auto handle = rig.net.start_flow(*rig.client, rig.pid, "10.0.1.1", 80);
  rig.net.run();
  EXPECT_TRUE(rig.net.flow_delivered(handle));  // protection is gone
  for (std::uint32_t d = 0; d < rig.sharded->shard_count(); ++d) {
    EXPECT_EQ(rig.sharded->domain(d).stats().responses_received, 0u);
    EXPECT_EQ(rig.sharded->domain(d).stats().flows_blocked, 0u);
  }
}

// --------------------------------------------------------- cookie namespace

TEST(CookieNamespace, DomainsRevokeOnlyTheirOwnEntries) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& server = net.add_host("server", "10.0.1.1");
  net.link(server, s1);
  auto& sharded = net.install_sharded_controller(
      "block all\npass from any to any port 80\n", 2, 1);
  server.add_user("www", "daemons");
  const int srv = server.launch("www", "/usr/sbin/httpd");
  server.listen(srv, 80);

  // Start flows until both domains own at least one admitted flow.
  std::vector<core::FlowHandle> handles;
  std::vector<std::uint32_t> shards;
  for (int i = 0; i < 8; ++i) {
    auto& c = net.add_host("c" + std::to_string(i),
                           "10.0.0." + std::to_string(i + 1));
    net.link(c, s1);
    c.add_user("u", "users");
    const int pid = c.launch("u", "/bin/x");
    handles.push_back(net.start_flow(c, pid, "10.0.1.1", 80));
    shards.push_back(sharded.shard_map().shard_of(handles.back().flow));
  }
  net.run();
  ASSERT_TRUE(std::find(shards.begin(), shards.end(), 0u) != shards.end());
  ASSERT_TRUE(std::find(shards.begin(), shards.end(), 1u) != shards.end());

  const auto entries_with_tag = [&](std::uint32_t tag) {
    std::size_t count = 0;
    for (const auto& entry : net.switch_at(s1).table().entries()) {
      if (ctrl::ShardMap::cookie_shard_tag(entry.cookie) == tag) ++count;
    }
    return count;
  };
  const std::size_t d0_before = entries_with_tag(1);  // domain 0 => tag 1
  const std::size_t d1_before = entries_with_tag(2);  // domain 1 => tag 2
  ASSERT_GT(d0_before, 0u);
  ASSERT_GT(d1_before, 0u);

  const std::size_t removed = sharded.domain(0).revoke_all();
  EXPECT_EQ(removed, d0_before);
  EXPECT_EQ(entries_with_tag(1), 0u);
  EXPECT_EQ(entries_with_tag(2), d1_before);  // sibling untouched

  // Front-end revoke_all clears the rest.
  EXPECT_EQ(sharded.revoke_all(), d1_before);
  EXPECT_EQ(entries_with_tag(2), 0u);
  EXPECT_EQ(sharded.installed_flow_count(), 0u);
}

}  // namespace
}  // namespace identxx
