// Unit tests for the AdmissionPipeline API seams: stage composition with
// fake engines/strategies, decision-cache TTL/LRU behaviour and hit
// accounting, batched decide_many(), the revocation/decision-cache
// interaction, and a regression net that baseline controllers on the
// shared pipeline produce the same verdicts and stats as the pre-pipeline
// (seed) behaviour.

#include <gtest/gtest.h>

#include "controller/admission.hpp"
#include "controller/admission_controller.hpp"
#include "core/network.hpp"
#include "crypto/ec.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/verifier.hpp"
#include "identxx/daemon_config.hpp"
#include "pf/parser.hpp"

namespace identxx {
namespace {

using core::FlowHandle;
using core::Network;

[[nodiscard]] net::FiveTuple make_flow(std::uint32_t src, std::uint32_t dst,
                                       std::uint16_t dst_port) {
  net::FiveTuple flow;
  flow.src_ip = net::Ipv4Address{src};
  flow.dst_ip = net::Ipv4Address{dst};
  flow.proto = net::IpProto::kTcp;
  flow.src_port = 40000;
  flow.dst_port = dst_port;
  return flow;
}

// ---------------------------------------------------------------- fakes

/// Scripted engine: allows everything except a configured blocked port;
/// counts decide()/decide_many() calls.
class FakeDecisionEngine : public ctrl::DecisionEngine {
 public:
  explicit FakeDecisionEngine(std::uint16_t blocked_port)
      : blocked_port_(blocked_port) {}

  ctrl::AdmissionDecision decide(const ctrl::AdmissionContext& ctx) override {
    ++decide_calls;
    ctrl::AdmissionDecision decision;
    decision.allowed = ctx.flow.dst_port != blocked_port_;
    decision.rule = decision.allowed ? "fake pass" : "fake block";
    return decision;
  }

  std::vector<ctrl::AdmissionDecision> decide_many(
      const std::vector<const ctrl::AdmissionContext*>& batch) override {
    batch_sizes.push_back(batch.size());
    return DecisionEngine::decide_many(batch);
  }

  std::size_t decide_calls = 0;
  std::vector<std::size_t> batch_sizes;

 private:
  std::uint16_t blocked_port_;
};

/// Counts installs, delegating placement to the real path strategy.
class CountingInstallStrategy : public ctrl::PathInstallStrategy {
 public:
  std::size_t install_allow(ctrl::AdmissionEnv& env,
                            const ctrl::AdmissionContext& ctx,
                            const ctrl::AdmissionDecision& decision) override {
    ++allow_calls;
    return PathInstallStrategy::install_allow(env, ctx, decision);
  }
  std::size_t install_drop(ctrl::AdmissionEnv& env,
                           const ctrl::AdmissionContext& ctx,
                           const ctrl::AdmissionDecision& decision) override {
    ++drop_calls;
    return PathInstallStrategy::install_drop(env, ctx, decision);
  }

  std::size_t allow_calls = 0;
  std::size_t drop_calls = 0;
};

/// Records decision events — exercises the AdmissionObserver seam.
class RecordingObserver : public ctrl::AdmissionObserver {
 public:
  void on_decision(const ctrl::DecisionRecord& record,
                   const ctrl::AdmissionDecision&) override {
    rules.push_back(record.rule);
  }
  std::vector<std::string> rules;
};

// ---------------------------------------------------------------- composition

TEST(PipelineComposition, FakeStagesDriveAdmission) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);

  ctrl::AdmissionPipeline pipeline;
  pipeline.planner = std::make_unique<ctrl::NoQueryPlanner>();
  auto engine = std::make_unique<FakeDecisionEngine>(23);
  FakeDecisionEngine* engine_ptr = engine.get();
  pipeline.engine = std::move(engine);
  auto installer = std::make_unique<CountingInstallStrategy>();
  CountingInstallStrategy* installer_ptr = installer.get();
  pipeline.installer = std::move(installer);

  auto& controller = net.install_pipeline(std::move(pipeline));
  auto observer = std::make_unique<RecordingObserver>();
  RecordingObserver* observer_ptr = observer.get();
  controller.add_observer(std::move(observer));

  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle web = net.start_flow(client, pid, "10.0.0.2", 80);
  const FlowHandle telnet = net.start_flow(client, pid, "10.0.0.2", 23);
  net.run();

  // The fake engine decided both flows; the fake strategy installed both
  // outcomes; the observer saw both rules.
  EXPECT_TRUE(net.flow_delivered(web));
  EXPECT_FALSE(net.flow_delivered(telnet));
  EXPECT_EQ(engine_ptr->decide_calls, 2u);
  EXPECT_EQ(installer_ptr->allow_calls, 1u);
  EXPECT_EQ(installer_ptr->drop_calls, 1u);
  EXPECT_EQ(controller.stats().flows_allowed, 1u);
  EXPECT_EQ(controller.stats().flows_blocked, 1u);
  ASSERT_EQ(observer_ptr->rules.size(), 2u);
  EXPECT_EQ(observer_ptr->rules[0], "fake pass");
  EXPECT_EQ(observer_ptr->rules[1], "fake block");
  // The shared audit log sees pipeline decisions too.
  ASSERT_EQ(controller.audit_log().size(), 2u);
  EXPECT_EQ(controller.audit_log()[1].rule, "fake block");
}

// ---------------------------------------------------------------- caches

TEST(LruDecisionCacheTest, UnboundedTtlExpiryAndHitAccounting) {
  ctrl::LruDecisionCache cache(0, 100);  // unbounded, 100 ns TTL
  const net::FiveTuple flow = make_flow(1, 2, 80);
  ctrl::AdmissionDecision decision;
  decision.allowed = true;

  EXPECT_FALSE(cache.lookup(flow, 0).has_value());
  cache.store(flow, decision, 10);
  const auto hit = cache.lookup(flow, 50);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->allowed);
  // TTL passed: entry expires, lookup misses.
  EXPECT_FALSE(cache.lookup(flow, 110).has_value());
  EXPECT_EQ(cache.size(), 0u);

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().expirations, 1u);
}

TEST(LruDecisionCacheTest, UnboundedZeroTtlMeansNeverExpire) {
  // ttl = 0 used to stamp entries with expires == now, so every lookup
  // expired them instantly — a silent bypass that still counted
  // insertions.  The contract is: 0 = entries never age out; without a
  // capacity, only invalidation removes them.
  ctrl::LruDecisionCache cache(0, 0);
  const net::FiveTuple flow = make_flow(1, 2, 80);
  ctrl::AdmissionDecision decision;
  decision.allowed = true;

  cache.store(flow, decision, 10);
  EXPECT_TRUE(cache.lookup(flow, 10).has_value());
  EXPECT_TRUE(
      cache.lookup(flow, 10 + 3600 * sim::kSecond).has_value());  // an hour on
  EXPECT_EQ(cache.stats().expirations, 0u);

  // Control-plane invalidation still works — the only way such entries die.
  EXPECT_EQ(cache.invalidate_if([](const net::FiveTuple&) { return true; }), 1u);
  EXPECT_FALSE(cache.lookup(flow, 20).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruDecisionCacheTest, ZeroTtlNeverExpiresOnlyEvicts) {
  // The companion config: capacity with ttl = 0 is a pure LRU bound.
  ctrl::LruDecisionCache cache(2, 0);
  ctrl::AdmissionDecision decision;
  const net::FiveTuple a = make_flow(1, 9, 80);
  cache.store(a, decision, 0);
  EXPECT_TRUE(cache.lookup(a, 1000 * sim::kSecond).has_value());
  EXPECT_EQ(cache.stats().expirations, 0u);
}

TEST(LruDecisionCacheTest, EvictsLeastRecentlyUsed) {
  ctrl::LruDecisionCache cache(2, 0);  // capacity 2, no TTL
  ctrl::AdmissionDecision decision;
  const net::FiveTuple a = make_flow(1, 9, 80);
  const net::FiveTuple b = make_flow(2, 9, 80);
  const net::FiveTuple c = make_flow(3, 9, 80);

  cache.store(a, decision, 0);
  cache.store(b, decision, 1);
  ASSERT_TRUE(cache.lookup(a, 2).has_value());  // refresh a: b becomes LRU
  cache.store(c, decision, 3);                  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(a, 4).has_value());
  EXPECT_FALSE(cache.lookup(b, 5).has_value());
  EXPECT_TRUE(cache.lookup(c, 6).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruDecisionCacheTest, TtlAndInvalidation) {
  ctrl::LruDecisionCache cache(8, 100);
  ctrl::AdmissionDecision decision;
  const net::FiveTuple a = make_flow(1, 9, 80);
  const net::FiveTuple b = make_flow(2, 9, 80);
  cache.store(a, decision, 0);
  cache.store(b, decision, 0);

  EXPECT_TRUE(cache.lookup(a, 50).has_value());
  EXPECT_FALSE(cache.lookup(a, 150).has_value());  // TTL expiry
  EXPECT_EQ(cache.stats().expirations, 1u);

  const std::size_t invalidated = cache.invalidate_if(
      [&b](const net::FiveTuple& flow) { return flow == b; });
  EXPECT_EQ(invalidated, 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

// ---------------------------------------------------------------- decide_many

TEST(DecideMany, PolicyEngineMemoizesDuplicateFlows) {
  ctrl::PolicyDecisionEngine engine(
      pf::parse("block all\npass from any to any port 80\n", "test"));

  ctrl::AdmissionContext web1, web2, telnet;
  web1.flow = make_flow(1, 2, 80);
  web2.flow = web1.flow;  // duplicate 5-tuple: must evaluate once
  telnet.flow = make_flow(1, 2, 23);

  const auto decisions = engine.decide_many({&web1, &web2, &telnet});
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_TRUE(decisions[0].allowed);
  EXPECT_TRUE(decisions[1].allowed);
  EXPECT_FALSE(decisions[2].allowed);
  // Two distinct flows, three contexts: the duplicate was served from the
  // batch memo.
  EXPECT_EQ(engine.policy_engine().stats().evaluations, 2u);
}

TEST(DecideMany, PolicyErrorFailsClosedPerFlow) {
  // Only port-22 flows reach the unknown function: each fails closed on its
  // own, and the rest of the batch keeps its verdicts.
  ctrl::PolicyDecisionEngine engine(pf::parse(
      "block all\npass from any to any port 80\n"
      "pass from any to any port 22 with nosuch(x)\n",
      "test"));

  ctrl::AdmissionContext web, ssh;
  web.flow = make_flow(1, 2, 80);
  ssh.flow = make_flow(1, 2, 22);

  const auto decisions = engine.decide_many({&web, &ssh, &web});
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_TRUE(decisions[0].allowed);
  EXPECT_FALSE(decisions[1].allowed);
  EXPECT_EQ(decisions[1].rule, "default");
  EXPECT_TRUE(decisions[2].allowed);

  // A batch of one fails closed the same way.
  const auto alone = engine.decide_many({&ssh});
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_FALSE(alone[0].allowed);
  EXPECT_EQ(alone[0].rule, "default");
  EXPECT_FALSE(engine.decide(ssh).allowed);
}

/// AdmissionController subclass whose queries vanish into the void: every
/// admission waits for the full query timeout, so simultaneous flows hit
/// one deadline sweep and decide as a single batch.
class BlackholeQueryController : public ctrl::AdmissionController {
 public:
  using AdmissionController::AdmissionController;

 protected:
  bool send_query(const net::FiveTuple&, const ctrl::QueryTarget&) override {
    return true;  // "sent"; no response will ever arrive
  }
};

TEST(DecideMany, SimultaneousTimeoutsDecideAsOneBatch) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& a = net.add_host("a", "10.0.0.1");
  auto& b = net.add_host("b", "10.0.0.2");
  auto& c = net.add_host("c", "10.0.0.3");
  auto& server = net.add_host("server", "10.0.0.9");
  net.link(a, s1);
  net.link(b, s1);
  net.link(c, s1);
  net.link(server, s1);

  ctrl::AdmissionPipeline pipeline;
  auto engine = std::make_unique<FakeDecisionEngine>(23);
  FakeDecisionEngine* engine_ptr = engine.get();
  pipeline.engine = std::move(engine);
  BlackholeQueryController controller(&net.topology(), std::move(pipeline));
  controller.adopt_switch(s1);
  for (auto* h : {&a, &b, &c, &server}) {
    controller.register_host(h->ip(), h->id(), h->mac());
  }

  for (auto* h : {&a, &b, &c}) {
    h->add_user("u", "users");
    const int pid = h->launch("u", "/bin/x");
    net.start_flow(*h, pid, "10.0.0.9", 80);
  }
  net.run();

  // All three flows armed the same deadline; one sweep decided them
  // together through decide_many.
  ASSERT_EQ(engine_ptr->batch_sizes.size(), 1u);
  EXPECT_EQ(engine_ptr->batch_sizes[0], 3u);
  EXPECT_EQ(controller.stats().query_timeouts, 3u);
  EXPECT_EQ(controller.stats().flows_allowed, 3u);
  for (const auto& record : controller.audit_log()) {
    EXPECT_TRUE(record.timed_out);
  }
}

// ---------------------------------------------------------------- revocation

TEST(RevocationCacheInteraction, RevokeInvalidatesCachedDecisions) {
  // The seed bug: revoke_if removed installed entries but left decision-
  // cache entries live, so a revoked flow was silently re-admitted from
  // cache until its TTL passed.  Revocation must invalidate matching
  // cached decisions.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.decision_cache_ttl = 60 * sim::kSecond;
  auto& controller = net.install_controller("pass all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  ASSERT_EQ(controller.stats().flows_seen, 1u);

  const std::size_t removed = controller.revoke_if(
      [&client](const net::FiveTuple& flow) { return flow.src_ip == client.ip(); });
  EXPECT_GE(removed, 1u);
  ASSERT_NE(controller.decision_cache(), nullptr);
  EXPECT_GE(controller.decision_cache()->stats().invalidations, 1u);

  // The next packet must re-run the full decision (packet-in, queries),
  // not replay the revoked verdict from cache.
  client.send_flow_packet(h.flow, "after revoke", net::TcpFlags::kPsh);
  net.run();
  EXPECT_EQ(controller.stats().decision_cache_hits, 0u);
  EXPECT_EQ(controller.stats().flows_seen, 2u);
}

TEST(RevocationCacheInteraction, ReverseDirectionRevokeKillsKeepStateEntry) {
  // A cached keep_state decision installs entries for both directions but
  // is keyed on the forward flow; revoking by a predicate that matches
  // only the reverse direction must still invalidate it.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.decision_cache_ttl = 60 * sim::kSecond;
  auto& controller = net.install_controller("pass all keep state\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));

  // Predicate matches only flows *from the server* — the reverse direction
  // of the cached (forward-keyed) decision.
  (void)controller.revoke_if([&server](const net::FiveTuple& flow) {
    return flow.src_ip == server.ip();
  });
  EXPECT_GE(controller.decision_cache()->stats().invalidations, 1u);

  // Flush the surviving forward entries at the switch (bypassing revoke_if
  // so the cache is untouched): the next forward packet becomes a
  // packet-in, and it must re-decide instead of replaying the cached
  // keep_state verdict — a replay would silently reinstall the revoked
  // reverse entries.
  controller.topology().switch_at(s1).table().remove_if(
      [](const openflow::FlowEntry& e) { return e.cookie != 0; });
  client.send_flow_packet(h.flow, "again", net::TcpFlags::kPsh);
  net.run();
  EXPECT_EQ(controller.stats().decision_cache_hits, 0u);
  EXPECT_EQ(controller.stats().flows_seen, 2u);
}

TEST(RevocationCacheInteraction, CapacityAloneEnablesLruCache) {
  // decision_cache_capacity with ttl=0 means a pure LRU-bounded cache —
  // not "no cache".
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.decision_cache_capacity = 64;  // ttl stays 0
  config.install_full_path = false;
  auto& controller = net.install_controller("pass all\n", config);
  ASSERT_NE(controller.decision_cache(), nullptr);
  EXPECT_NE(dynamic_cast<ctrl::LruDecisionCache*>(controller.decision_cache()),
            nullptr);

  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  // Flush the installed entries: the next packet becomes a packet-in that
  // the (never-aging) cache answers without re-querying daemons.
  controller.topology().switch_at(s1).table().remove_if(
      [](const openflow::FlowEntry& e) { return e.cookie != 0; });
  const auto queries_before = controller.stats().queries_sent;
  client.send_flow_packet(h.flow, "later", net::TcpFlags::kPsh);
  net.run();
  EXPECT_GE(controller.stats().decision_cache_hits, 1u);
  EXPECT_EQ(controller.stats().queries_sent, queries_before);
}

TEST(RevocationCacheInteraction, PolicyReloadClearsCache) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.decision_cache_ttl = 60 * sim::kSecond;
  auto& controller = net.install_controller("pass all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));

  // Tighten the policy and revoke: the cached "pass" must not survive the
  // reload and re-admit the flow.
  controller.set_policy(pf::parse("block all\n", "revised"));
  controller.revoke_all();
  const auto delivered_before = server.stats().flow_payloads_received;
  client.send_flow_packet(h.flow, "after reload", net::TcpFlags::kPsh);
  net.run();
  EXPECT_EQ(controller.stats().decision_cache_hits, 0u);
  EXPECT_EQ(server.stats().flow_payloads_received, delivered_before);
  EXPECT_GE(controller.stats().flows_blocked, 1u);
}

TEST(RevocationCacheInteraction, DeferredDecisionReDecidesAfterControlChange) {
  // A controller on a shard decision lane (DESIGN.md §10) evaluates on
  // that lane and commits on the global lane at the same virtual instant.
  // A revoke_all between dispatch and commit bumps the control epoch, so
  // the commit discards the in-flight verdict and re-decides — behaviour
  // must match the inline (classic) decision path exactly.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  net.simulator().configure_shard_lanes(1);
  ctrl::ControllerConfig config;
  config.decision_lane = 1;
  config.cookie_namespace = 1;
  config.decision_cache_ttl = 60 * sim::kSecond;
  auto& controller = net.install_controller("pass all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  EXPECT_GE(controller.stats().flows_allowed, 1u);

  // And across a policy swap, the cached decision cannot re-admit.
  controller.set_policy(pf::parse("block all\n", "revised"));
  controller.revoke_all();
  client.send_flow_packet(h.flow, "after swap", net::TcpFlags::kPsh);
  net.run();
  EXPECT_EQ(controller.stats().decision_cache_hits, 0u);
  EXPECT_GE(controller.stats().flows_blocked, 1u);
}

TEST(RevocationCacheInteraction, TtlExpiryOnShardLaneReDecidesUnderCurrentEpoch) {
  // Cache expiry × shard control epoch: a TTL-expired verdict must force a
  // full re-decide through the shard-lane dispatch path, and a policy swap
  // after that must never resurrect the expired entry.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  net.simulator().configure_shard_lanes(1);
  ctrl::ControllerConfig config;
  config.decision_lane = 1;
  config.cookie_namespace = 1;
  config.decision_cache_ttl = 1 * sim::kMicrosecond;  // expires before reuse
  auto& controller = net.install_controller("pass all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  const auto queries_after_first = controller.stats().queries_sent;

  // Flush installed entries so the next packet is a packet-in again.  The
  // cached verdict has outlived its TTL by now (round trips take ms), so
  // the controller re-queries and re-decides on the shard lane.
  controller.topology().switch_at(s1).table().remove_if(
      [](const openflow::FlowEntry& e) { return e.cookie != 0; });
  client.send_flow_packet(h.flow, "after ttl", net::TcpFlags::kPsh);
  net.run();
  EXPECT_EQ(controller.stats().decision_cache_hits, 0u);
  EXPECT_GT(controller.stats().queries_sent, queries_after_first);
  ASSERT_NE(controller.decision_cache(), nullptr);
  EXPECT_GE(controller.decision_cache()->stats().expirations, 1u);

  // Epoch bump via policy swap: the re-decide lands under the new policy.
  controller.set_policy(pf::parse("block all\n", "revised"));
  controller.revoke_all();
  client.send_flow_packet(h.flow, "after swap", net::TcpFlags::kPsh);
  net.run();
  EXPECT_GE(controller.stats().flows_blocked, 1u);
}

// ---------------------------------------------------------------- regression

// Baselines on the shared pipeline must keep the seed behaviour bit-for-
// bit: same verdicts, same stats counters.

TEST(BaselineRegression, VanillaMatchesSeedVerdictsAndStats) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "192.168.1.1");
  net.link(client, s1);
  net.link(server, s1);
  auto& fw = net.install_vanilla_firewall(false);
  ctrl::VanillaFirewall::AclRule allow;
  allow.dst_port_low = 80;
  allow.dst_port_high = 80;
  allow.allow = true;
  fw.add_rule(allow);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");

  const FlowHandle web = net.start_flow(client, pid, "192.168.1.1", 80);
  const FlowHandle ssh = net.start_flow(client, pid, "192.168.1.1", 22);
  net.run();

  EXPECT_TRUE(net.flow_delivered(web));
  EXPECT_FALSE(net.flow_delivered(ssh));
  // Seed BaselineController counters: one packet-in per flow, immediate
  // decisions, one path entry (+1 reverse none), one drop entry.
  EXPECT_EQ(fw.stats().packet_ins, 2u);
  EXPECT_EQ(fw.stats().flows_seen, 2u);
  EXPECT_EQ(fw.stats().flows_allowed, 1u);
  EXPECT_EQ(fw.stats().flows_blocked, 1u);
  EXPECT_EQ(fw.stats().entries_installed, 2u);  // 1 allow path + 1 drop
  // No daemon machinery on baselines.
  EXPECT_EQ(fw.stats().queries_sent, 0u);
  EXPECT_EQ(fw.stats().query_timeouts, 0u);

  // Stateful reverse direction rides the state table, as in the seed.
  server.send_flow_packet(web.flow.reversed(), "SYN-ACK",
                          net::TcpFlags::kSyn | net::TcpFlags::kAck);
  net.run();
  EXPECT_EQ(client.stats().flow_payloads_received, 1u);
  EXPECT_EQ(fw.stats().flows_allowed, 2u);
}

TEST(BaselineRegression, EthaneSeesNoEndHostInformation) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  // Port rule works; @src predicate can never match (no queries).
  auto& ethane = net.install_ethane_controller(
      "block all\n"
      "pass from any to any port 80\n"
      "pass from any to any port 22 with eq(@src[userID], alice)\n");
  client.add_user("alice", "users");
  const int pid = client.launch("alice", "/usr/bin/ssh");

  const FlowHandle web = net.start_flow(client, pid, "10.0.0.2", 80);
  const FlowHandle ssh = net.start_flow(client, pid, "10.0.0.2", 22);
  net.run();

  EXPECT_TRUE(net.flow_delivered(web));
  EXPECT_FALSE(net.flow_delivered(ssh));  // alice IS the user, but Ethane
                                          // cannot know that
  EXPECT_EQ(ethane.stats().flows_allowed, 1u);
  EXPECT_EQ(ethane.stats().flows_blocked, 1u);
  EXPECT_EQ(ethane.stats().queries_sent, 0u);
  EXPECT_EQ(ethane.engine().stats().evaluations, 2u);
}

TEST(BaselineRegression, EthaneIgnoresKeepState) {
  // The seed Ethane baseline took only pass/block from the verdict: a
  // `keep state` rule never installed reverse-direction entries, so
  // reverse traffic re-decides on its own packet-in.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& ethane = net.install_ethane_controller("pass all keep state\n");
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  // Forward decision installed forward entries only.
  const auto flows_after_forward = ethane.stats().flows_seen;
  server.send_flow_packet(h.flow.reversed(), "SYN-ACK",
                          net::TcpFlags::kSyn | net::TcpFlags::kAck);
  net.run();
  EXPECT_EQ(ethane.stats().flows_seen, flows_after_forward + 1);
  EXPECT_EQ(client.stats().flow_payloads_received, 1u);  // still delivered
}

// ---------------------------------------------------------------- aggregation

[[nodiscard]] std::size_t installed_entries(core::Network& net, sim::NodeId sw) {
  std::size_t count = 0;
  for (const auto& entry : net.switch_at(sw).table().entries()) {
    if (entry.cookie != 0) ++count;  // skip boot/intercept rules
  }
  return count;
}

TEST(Aggregation, PortScanInstallsOneCoveringDrop) {
  // A port scan against a block-all policy: per-flow exact drops install
  // one entry per probe and punt every probe to the controller; the
  // aggregating strategy caches the covering rule once, after which the
  // scan dies in the switch.
  for (const bool aggregate : {false, true}) {
    Network net;
    const auto s1 = net.add_switch("s1");
    auto& attacker = net.add_host("attacker", "10.0.0.66");
    auto& victim = net.add_host("victim", "10.0.0.2");
    net.link(attacker, s1);
    net.link(victim, s1);
    ctrl::ControllerConfig config;
    config.aggregate_installs = aggregate;
    auto& controller = net.install_controller("block all\n", config);
    attacker.add_user("eve", "users");
    const int pid = attacker.launch("eve", "/bin/scan");

    constexpr std::uint16_t kProbes = 20;
    for (std::uint16_t port = 1000; port < 1000 + kProbes; ++port) {
      net.start_flow(attacker, pid, "10.0.0.2", port);
      net.run();
    }

    if (aggregate) {
      EXPECT_EQ(installed_entries(net, s1), 1u);   // one covering drop
      EXPECT_EQ(controller.stats().flows_seen, 1u);  // probes 2..N die in-switch
    } else {
      EXPECT_EQ(installed_entries(net, s1), kProbes);  // one drop per probe
      EXPECT_EQ(controller.stats().flows_seen, kProbes);
    }
  }
}

TEST(Aggregation, AllowCoverAdmitsLaterFlowsWithoutController) {
  // `pass from any to any port 80` (with an earlier, overridden
  // `block all`) is coverable: one wildcard entry per switch admits every
  // client, and only the first flow pays the controller round trip.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& a = net.add_host("a", "10.0.0.1");
  auto& b = net.add_host("b", "10.0.0.2");
  auto& server = net.add_host("server", "10.0.0.9");
  net.link(a, s1);
  net.link(b, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.aggregate_installs = true;
  auto& controller = net.install_controller(
      "block all\npass from any to any port 80\n", config);

  core::FlowHandle first, second;
  a.add_user("u", "users");
  const int pa = a.launch("u", "/bin/x");
  first = net.start_flow(a, pa, "10.0.0.9", 80);
  net.run();
  b.add_user("v", "users");
  const int pb = b.launch("v", "/bin/x");
  second = net.start_flow(b, pb, "10.0.0.9", 80);
  net.run();

  EXPECT_TRUE(net.flow_delivered(first));
  EXPECT_TRUE(net.flow_delivered(second));
  EXPECT_EQ(installed_entries(net, s1), 1u);       // one covering allow
  EXPECT_EQ(controller.stats().flows_seen, 1u);    // second flow never punted
}

TEST(Aggregation, UncoverableRuleFallsBackToExactEntries) {
  // A rule guarded by a `with` predicate depends on daemon responses a
  // switch cannot evaluate — it must never be aggregated.
  ctrl::PolicyDecisionEngine engine(pf::parse(
      "block all\n"
      "pass from any to any port 22 with eq(@src[userID], alice)\n",
      "test"));
  EXPECT_TRUE(engine.rule_cover(1).empty());
  // And a rule shadowed by a later overlapping rule of opposite action is
  // unsound to cache wholesale.
  ctrl::PolicyDecisionEngine layered(pf::parse(
      "pass from any to any port 80\n"
      "block from 10.0.0.0/8 to any\n",
      "test"));
  EXPECT_TRUE(layered.rule_cover(0).empty());
  EXPECT_FALSE(layered.rule_cover(1).empty());
}

TEST(Aggregation, PolicyReloadFlushesCoveringEntries) {
  // set_policy keeps per-flow exact entries (seed behaviour) but MUST
  // flush rule covers: a covering entry keeps admitting/refusing *new*
  // flows under the old policy.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.aggregate_installs = true;
  auto& controller = net.install_controller("block all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const core::FlowHandle blocked = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(blocked));
  ASSERT_EQ(installed_entries(net, s1), 1u);  // covering drop

  controller.set_policy(pf::parse("pass all\n", "revised"));
  EXPECT_EQ(installed_entries(net, s1), 0u);  // cover flushed with the policy
  const core::FlowHandle now_ok = net.start_flow(client, pid, "10.0.0.2", 81);
  net.run();
  EXPECT_TRUE(net.flow_delivered(now_ok));
}

TEST(Aggregation, RevokeIfRemovesCoverBySeedingFlow) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.aggregate_installs = true;
  auto& controller = net.install_controller("block all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_EQ(installed_entries(net, s1), 1u);

  const std::size_t removed = controller.revoke_if(
      [&client](const net::FiveTuple& flow) { return flow.src_ip == client.ip(); });
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(installed_entries(net, s1), 0u);
}

// ---------------------------------------------------------------- audit log

TEST(Aggregation, PortRangeRuleCoversAsMaskedBlocks) {
  // An aligned contiguous range is one prefix-masked port entry...
  ctrl::PolicyDecisionEngine aligned(pf::parse(
      "block all\npass from any to any port 8000:8007\n", "test"));
  EXPECT_TRUE(aligned.rule_cover(0).empty());  // overlapped by the pass rule
  ASSERT_EQ(aligned.rule_cover(1).size(), 1u);
  EXPECT_EQ(aligned.rule_cover(1)[0].dst_port, 8000);
  EXPECT_EQ(aligned.rule_cover(1)[0].dst_port_mask, 0xfff8);

  // ...an unaligned one decomposes greedily (8000-8003 + 8004-8005)...
  ctrl::PolicyDecisionEngine split(pf::parse(
      "block all\npass from any to any port 8000:8005\n", "test"));
  ASSERT_EQ(split.rule_cover(1).size(), 2u);
  EXPECT_EQ(split.rule_cover(1)[0].dst_port_mask, 0xfffc);
  EXPECT_EQ(split.rule_cover(1)[1].dst_port, 8004);
  EXPECT_EQ(split.rule_cover(1)[1].dst_port_mask, 0xfffe);

  // ...and a range needing more than kMaxCoverEntries blocks stays
  // per-flow (worst-case alignment).
  ctrl::PolicyDecisionEngine awkward(pf::parse(
      "block all\npass from any to any port 1:65534\n", "test"));
  EXPECT_TRUE(awkward.rule_cover(1).empty());
}

TEST(Aggregation, PortRangeCoverAdmitsWholeRangeWithoutController) {
  // One decision against a port-range rule caches the range as masked
  // entries; later flows to OTHER ports of the range never punt.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& a = net.add_host("a", "10.0.0.1");
  auto& b = net.add_host("b", "10.0.0.2");
  auto& server = net.add_host("server", "10.0.0.9");
  net.link(a, s1);
  net.link(b, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.aggregate_installs = true;
  auto& controller = net.install_controller(
      "block all\npass from any to any port 8000:8007\n", config);

  a.add_user("u", "users");
  const int pa = a.launch("u", "/bin/x");
  const auto first = net.start_flow(a, pa, "10.0.0.9", 8000);
  net.run();
  b.add_user("v", "users");
  const int pb = b.launch("v", "/bin/x");
  const auto second = net.start_flow(b, pb, "10.0.0.9", 8005);
  net.run();

  EXPECT_TRUE(net.flow_delivered(first));
  EXPECT_TRUE(net.flow_delivered(second));
  EXPECT_EQ(installed_entries(net, s1), 1u);     // one masked allow block
  EXPECT_EQ(controller.stats().flows_seen, 1u);  // second flow died in-switch
}

TEST(Aggregation, MultiCidrListCoversAsPrefixSet) {
  // A brace-list host covers with one prefix entry per member CIDR — the
  // IP analogue of the port-range block decomposition.
  ctrl::PolicyDecisionEngine engine(pf::parse(
      "block all\n"
      "pass from { 10.0.0.0/24 10.1.0.0/24 } to any port 80\n",
      "test"));
  const auto& covers = engine.rule_cover(1);
  ASSERT_EQ(covers.size(), 2u);
  EXPECT_EQ(covers[0].src_ip_prefix, 24);
  EXPECT_EQ(covers[1].src_ip_prefix, 24);
  EXPECT_NE(covers[0].src_ip, covers[1].src_ip);
  EXPECT_EQ(covers[0].dst_port, 80);

  // Both sides listed: the cover is the cross product.
  ctrl::PolicyDecisionEngine both(pf::parse(
      "block all\n"
      "pass from { 10.0.0.0/24 10.1.0.0/24 } to "
      "{ 192.168.0.0/24 192.168.1.0/24 } port 80\n",
      "test"));
  EXPECT_EQ(both.rule_cover(1).size(), 4u);
}

TEST(Aggregation, TableHostCoversAsPrefixSet) {
  // Table-backed endpoints resolve through the ruleset's tables — a
  // ROADMAP known gap: these used to fall back to per-flow installs.
  ctrl::PolicyDecisionEngine engine(pf::parse(
      "table <lan> { 10.0.0.0/24 10.1.0.0/24 }\n"
      "block all\n"
      "pass from <lan> to any port 80\n",
      "test"));
  // Table declarations are not rules: the pass rule is index 1.
  EXPECT_EQ(engine.rule_cover(1).size(), 2u);
}

TEST(Aggregation, RedundantAndWideCidrListsNormalize) {
  // Contained members collapse into the wider prefix...
  ctrl::PolicyDecisionEngine nested(pf::parse(
      "block all\n"
      "pass from { 10.0.0.0/24 10.0.0.0/25 10.0.0.128/25 } to any port 80\n",
      "test"));
  EXPECT_EQ(nested.rule_cover(1).size(), 1u);
  // ...a /0 member makes the side unconstrained...
  ctrl::PolicyDecisionEngine wide(pf::parse(
      "block all\n"
      "pass from { 0.0.0.0/0 10.0.0.0/24 } to any port 80\n",
      "test"));
  ASSERT_EQ(wide.rule_cover(1).size(), 1u);
  EXPECT_NE(wide.rule_cover(1)[0].wildcards & openflow::Wildcard::kSrcIp,
            openflow::Wildcard::kNone);
  // ...and a cross product beyond kMaxCoverEntries stays per-flow
  // (5 CIDRs x 2 port blocks = 10 > 8).
  ctrl::PolicyDecisionEngine wide_product(pf::parse(
      "block all\n"
      "pass from { 10.0.0.0/24 10.1.0.0/24 10.2.0.0/24 10.3.0.0/24 "
      "10.4.0.0/24 } to any port 8000:8005\n",
      "test"));
  EXPECT_TRUE(wide_product.rule_cover(1).empty());
}

TEST(Aggregation, MultiCidrCoverAdmitsBothPrefixesWithoutController) {
  // One decision against a multi-CIDR rule installs the whole prefix set;
  // a later flow from the *other* CIDR rides it without a controller
  // round trip (previously: per-flow fallback, one round trip each).
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& a = net.add_host("a", "10.0.0.1");
  auto& b = net.add_host("b", "10.1.0.1");
  auto& server = net.add_host("server", "192.168.0.9");
  net.link(a, s1);
  net.link(b, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.aggregate_installs = true;
  auto& controller = net.install_controller(
      "block all\npass from { 10.0.0.0/24 10.1.0.0/24 } to any port 80\n",
      config);

  a.add_user("u", "users");
  const int pa = a.launch("u", "/bin/x");
  const auto first = net.start_flow(a, pa, "192.168.0.9", 80);
  net.run();
  b.add_user("v", "users");
  const int pb = b.launch("v", "/bin/x");
  const auto second = net.start_flow(b, pb, "192.168.0.9", 80);
  net.run();

  EXPECT_TRUE(net.flow_delivered(first));
  EXPECT_TRUE(net.flow_delivered(second));
  EXPECT_EQ(installed_entries(net, s1), 2u);     // one entry per member CIDR
  EXPECT_EQ(controller.stats().flows_seen, 1u);  // second flow died in-switch
}

// ---------------------------------------------------------------- cookies

TEST(CookieMap, RevokeAllEmptiesCookieMap) {
  // The seed's installed_flows_ map never shrank; after a full revoke it
  // must return to zero (acceptance regression for the leak fix).
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& controller =
      net.install_controller("block all\npass from any to any port 80\n");
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  server.add_user("www", "daemons");
  const int srv = server.launch("www", "/usr/sbin/httpd");
  server.listen(srv, 80);

  for (int i = 0; i < 4; ++i) {
    net.start_flow(client, pid, "10.0.0.2", 80);
    net.run();
  }
  EXPECT_GE(controller.installed_flow_count(), 4u);
  controller.revoke_all();
  EXPECT_EQ(controller.installed_flow_count(), 0u);
}

TEST(CookieMap, FlowExpiryRetiresCookies) {
  // Idle-timeout expiry notifies the controller, which must drop the
  // cookie-map entry once the cookie's last flow-table entry is gone.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.flow_idle_timeout = 1 * sim::kSecond;
  auto& controller = net.install_controller(
      "block all\npass from any to any port 80\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");

  net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_GT(controller.installed_flow_count(), 0u);

  // Sweep the table well past the idle timeout, then deliver the
  // flow-removed notifications.
  net.switch_at(s1).table().expire(net.simulator().now() + 5 * sim::kSecond);
  net.run();
  EXPECT_EQ(controller.installed_flow_count(), 0u);
  EXPECT_GT(controller.stats().flows_expired, 0u);
}

TEST(CookieMap, RevokeIfRetiresOnlyMatchingCookies) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& other = net.add_host("other", "10.0.0.3");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(other, s1);
  net.link(server, s1);
  auto& controller =
      net.install_controller("block all\npass from any to any port 80\n");
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  other.add_user("v", "users");
  const int po = other.launch("v", "/bin/x");

  net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  net.start_flow(other, po, "10.0.0.2", 80);
  net.run();
  const std::size_t before = controller.installed_flow_count();
  ASSERT_GE(before, 2u);

  const auto quarantined = *net::Ipv4Address::parse("10.0.0.1");
  controller.revoke_if([quarantined](const net::FiveTuple& flow) {
    return flow.src_ip == quarantined;
  });
  EXPECT_LT(controller.installed_flow_count(), before);
  EXPECT_GT(controller.installed_flow_count(), 0u);
}

// ---------------------------------------------------------------- verifier

TEST(VerifierIntegration, PolicyVerifyMemoizesAcrossDecisions) {
  // The policy's dict-embedded public key is registered (table built) at
  // engine construction, and identical attestations across decisions and
  // within a decide_many batch verify exactly once.
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("vendor");
  const std::string requirements = "block all pass all";
  const std::string exe_hash(64, 'a');
  const crypto::Signature sig =
      key.sign(proto::signed_message({exe_hash, "app", requirements}));

  proto::Response response;
  proto::Section section;
  section.add("exe-hash", exe_hash);
  section.add("app-name", "app");
  section.add("requirements", requirements);
  section.add("req-sig", sig.to_hex());
  response.append_section(section);

  ctrl::PolicyDecisionEngine engine(pf::parse(
      "dict <pubkeys> { vendor : " + key.public_key().to_hex() + " }\n"
      "block all\n"
      "pass all with verify(@dst[req-sig], @pubkeys[vendor], "
      "@dst[exe-hash], @dst[app-name], @dst[requirements])\n",
      "test"));
  ASSERT_NE(engine.verifier(), nullptr);
  EXPECT_EQ(engine.verifier()->registered_key_count(), 1u);

  ctrl::AdmissionContext ctx;
  ctx.flow.src_ip = *net::Ipv4Address::parse("10.0.0.1");
  ctx.flow.dst_ip = *net::Ipv4Address::parse("10.0.0.2");
  ctx.flow.dst_port = 80;
  ctx.dst_response = response;
  EXPECT_TRUE(engine.decide(ctx).allowed);
  EXPECT_EQ(engine.verifier()->stats().memo_misses, 1u);
  EXPECT_EQ(engine.verifier()->stats().table_verifications, 1u);
  EXPECT_TRUE(engine.decide(ctx).allowed);
  EXPECT_EQ(engine.verifier()->stats().memo_hits, 1u);

  // A batch of distinct flows carrying the same attestation: the 5-tuple
  // batch memo covers duplicates, the verification memo covers the rest.
  ctrl::AdmissionContext ctx2 = ctx;
  ctx2.flow.src_ip = *net::Ipv4Address::parse("10.0.0.7");
  const std::vector<const ctrl::AdmissionContext*> batch{&ctx, &ctx2, &ctx2};
  const auto decisions = engine.decide_many(batch);
  ASSERT_EQ(decisions.size(), 3u);
  for (const auto& d : decisions) EXPECT_TRUE(d.allowed);
  EXPECT_EQ(engine.verifier()->stats().table_verifications, 1u);  // still one
}

TEST(VerifierIntegration, SweepWithForgedAttestationsDecidesEachFlowAlone) {
  // A deadline sweep of distinct flows, each carrying its own fresh
  // attestation, forged ones among them: every flow is decided exactly as
  // a lone decide() would decide it, and each attestation is verified once.
  const crypto::PrivateKey vendor =
      crypto::PrivateKey::from_seed("sweep-vendor");
  const crypto::PrivateKey outsider =
      crypto::PrivateKey::from_seed("sweep-outsider");
  const std::string policy =
      "dict <pubkeys> { vendor : " + vendor.public_key().to_hex() + " }\n"
      "block all\n"
      "pass all with verify(@src[sig], @pubkeys[vendor], @src[name], "
      "@src[version])\n";

  enum class Kind { kValid, kTamperedS, kUnknownKey, kOtherMessage };
  const std::vector<Kind> kinds = {
      Kind::kValid, Kind::kTamperedS, Kind::kValid,
      Kind::kUnknownKey, Kind::kValid, Kind::kOtherMessage,
      Kind::kValid, Kind::kValid, Kind::kValid};
  std::vector<ctrl::AdmissionContext> contexts(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const std::string name = "app-" + std::to_string(i);
    const std::string version = "7";
    crypto::Signature sig =
        (kinds[i] == Kind::kUnknownKey ? outsider : vendor)
            .sign(proto::signed_message({name, version}));
    if (kinds[i] == Kind::kTamperedS) {
      sig.s = crypto::add_mod(sig.s, crypto::U256{1}, crypto::Secp256k1::n());
    } else if (kinds[i] == Kind::kOtherMessage) {
      sig = vendor.sign(proto::signed_message({name, "8"}));
    }
    proto::Response response;
    proto::Section section;
    section.add("name", name);
    section.add("version", version);
    section.add("sig", sig.to_hex());
    response.append_section(section);
    contexts[i].flow = make_flow(static_cast<std::uint32_t>(10 + i), 2, 80);
    contexts[i].src_response = response;
  }
  std::vector<const ctrl::AdmissionContext*> sweep;
  for (const auto& ctx : contexts) sweep.push_back(&ctx);
  sweep.push_back(&contexts[1]);  // a repeat packet-in of a forged flow

  ctrl::PolicyDecisionEngine engine(pf::parse(policy, "test"));
  const auto decisions = engine.decide_many(sweep);
  ASSERT_EQ(decisions.size(), sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ctrl::PolicyDecisionEngine alone(pf::parse(policy, "test"));
    const ctrl::AdmissionDecision expected = alone.decide(*sweep[i]);
    EXPECT_EQ(decisions[i].allowed, expected.allowed) << "flow " << i;
    EXPECT_EQ(decisions[i].rule, expected.rule) << "flow " << i;
    const auto flow = static_cast<std::size_t>(sweep[i] - contexts.data());
    EXPECT_EQ(decisions[i].allowed, kinds[flow] == Kind::kValid)
        << "flow " << i;
  }
  EXPECT_EQ(engine.verifier()->stats().memo_misses, kinds.size());
  EXPECT_EQ(engine.verifier()->stats().memo_hits, 0u);
}

TEST(AuditLogCap, RingBufferDropsOldestAndCounts) {
  ctrl::AuditLogObserver log(2);
  ctrl::AdmissionDecision decision;
  for (std::uint16_t port : {std::uint16_t{1}, std::uint16_t{2}, std::uint16_t{3}}) {
    ctrl::DecisionRecord record;
    record.flow = make_flow(1, 2, port);
    log.on_decision(record, decision);
  }
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records().front().flow.dst_port, 2);  // oldest (port 1) dropped
  EXPECT_EQ(log.records().back().flow.dst_port, 3);
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(AuditLogCap, ControllerHonoursConfiguredCapacity) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.audit_log_capacity = 1;
  auto& controller = net.install_controller("pass all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  net.start_flow(client, pid, "10.0.0.2", 81);
  net.run();
  ASSERT_EQ(controller.audit_log().size(), 1u);
  EXPECT_EQ(controller.audit_log().front().flow.dst_port, 81);
  EXPECT_EQ(controller.audit_dropped(), 1u);
}

TEST(AuditLogCap, ZeroCapacityKeepsOnlyTheLatestRecord) {
  // 0 is clamped to 1, not "unbounded": retention is always bounded.
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.audit_log_capacity = 0;
  auto& controller = net.install_controller("pass all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  for (const std::uint16_t port : {80, 81, 82}) {
    net.start_flow(client, pid, "10.0.0.2", port);
    net.run();
  }
  ASSERT_EQ(controller.audit_log().size(), 1u);
  EXPECT_EQ(controller.audit_log().front().flow.dst_port, 82);
  EXPECT_EQ(controller.audit_dropped(), 2u);
}

TEST(BaselineRegression, DistributedFirewallAdmitsEverything) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& dfw = net.install_distributed_firewall();
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");

  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 4444);
  net.run();
  EXPECT_TRUE(net.flow_delivered(h));
  EXPECT_EQ(dfw.stats().flows_allowed, 1u);
  EXPECT_EQ(dfw.stats().flows_blocked, 0u);
}

}  // namespace
}  // namespace identxx
