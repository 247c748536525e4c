// Unit tests for the controller layer: .control file assembly (§3.4),
// baseline controllers (vanilla ACL semantics, Ethane), revocation,
// flow-usage accounting, query interception, and flow-entry expiry
// behaviour.

#include <gtest/gtest.h>

#include "core/network.hpp"
#include "identxx/keys.hpp"
#include "pf/control_files.hpp"
#include "util/error.hpp"

namespace identxx {
namespace {

using core::FlowHandle;
using core::Network;

// ---------------------------------------------------------------- files

TEST(ControlFiles, SortedAndConcatenated) {
  // Out-of-order input; 99- must end up last so its block wins.
  pf::Ruleset rs = pf::load_control_files({
      {"99-footer.control", "block all\n"},
      {"00-header.control", "table <lan> { 10.0.0.0/8 }\npass all\n"},
  });
  ASSERT_EQ(rs.rules.size(), 2u);
  EXPECT_EQ(rs.rules[0].action, pf::RuleAction::kPass);
  EXPECT_EQ(rs.rules[0].source_label, "00-header.control");
  EXPECT_EQ(rs.rules[1].action, pf::RuleAction::kBlock);
  EXPECT_EQ(rs.rules[1].source_label, "99-footer.control");
  EXPECT_TRUE(rs.tables.contains("lan"));
}

TEST(ControlFiles, LaterFilesSeeEarlierDefinitions) {
  // 50-skype.control uses tables/macros defined in 00-local-header.
  pf::Ruleset rs = pf::load_control_files({
      {"50-app.control", "pass from <lan> to any with member(@src[name], $apps)\n"},
      {"00-defs.control", "table <lan> { 10.0.0.0/8 }\napps = \"{ a b }\"\n"},
  });
  ASSERT_EQ(rs.rules.size(), 1u);
}

TEST(ControlFiles, NonControlExtensionIgnored) {
  pf::Ruleset rs = pf::load_control_files({
      {"readme.txt", "this is not policy at all ((("},
      {"10-rules.control", "block all\n"},
  });
  EXPECT_EQ(rs.rules.size(), 1u);
}

TEST(ControlFiles, ErrorNamesTheFile) {
  try {
    (void)pf::load_control_files({{"30-bad.control", "pass from ((("}});
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("30-bad.control"), std::string::npos);
  }
}

TEST(ControlFiles, InstallControllerFromFiles) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& controller = net.install_controller_files({
      {"99-deny.control", "block from any to any port 23\n"},
      {"00-allow.control", "pass all\n"},
  });
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle ok = net.start_flow(client, pid, "10.0.0.2", 80);
  const FlowHandle telnet = net.start_flow(client, pid, "10.0.0.2", 23);
  net.run();
  EXPECT_TRUE(net.flow_delivered(ok));
  EXPECT_FALSE(net.flow_delivered(telnet));
  EXPECT_EQ(controller.stats().flows_blocked, 1u);
}

// ---------------------------------------------------------------- vanilla

struct VanillaFixture : ::testing::Test {
  VanillaFixture() {
    s1 = net.add_switch("s1");
    client = &net.add_host("client", "10.0.0.1");
    server = &net.add_host("server", "192.168.1.1");
    net.link(*client, s1);
    net.link(*server, s1);
    fw = &net.install_vanilla_firewall(false);
    client->add_user("u", "users");
    pid = client->launch("u", "/bin/x");
  }

  Network net;
  sim::NodeId s1{};
  host::Host* client = nullptr;
  host::Host* server = nullptr;
  ctrl::VanillaFirewall* fw = nullptr;
  int pid = 0;
};

TEST_F(VanillaFixture, DefaultDenyBlocks) {
  const FlowHandle h = net.start_flow(*client, pid, "192.168.1.1", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));
  EXPECT_EQ(fw->stats().flows_blocked, 1u);
}

TEST_F(VanillaFixture, FirstMatchWins) {
  ctrl::VanillaFirewall::AclRule deny;
  deny.dst = *net::Cidr::parse("192.168.1.1/32");
  deny.allow = false;
  fw->add_rule(deny);
  ctrl::VanillaFirewall::AclRule allow;  // broader allow AFTER the deny
  allow.allow = true;
  fw->add_rule(allow);
  const FlowHandle h = net.start_flow(*client, pid, "192.168.1.1", 80);
  net.run();
  EXPECT_FALSE(net.flow_delivered(h));  // first match (deny) won
}

TEST_F(VanillaFixture, PortRangeRule) {
  ctrl::VanillaFirewall::AclRule allow;
  allow.dst_port_low = 8000;
  allow.dst_port_high = 8100;
  allow.allow = true;
  fw->add_rule(allow);
  const FlowHandle in_range = net.start_flow(*client, pid, "192.168.1.1", 8050);
  const FlowHandle out_of_range =
      net.start_flow(*client, pid, "192.168.1.1", 8200);
  net.run();
  EXPECT_TRUE(net.flow_delivered(in_range));
  EXPECT_FALSE(net.flow_delivered(out_of_range));
}

TEST_F(VanillaFixture, ProtocolSelector) {
  ctrl::VanillaFirewall::AclRule allow_udp;
  allow_udp.proto = net::IpProto::kUdp;
  allow_udp.allow = true;
  fw->add_rule(allow_udp);
  const FlowHandle udp =
      net.start_flow(*client, pid, "192.168.1.1", 53, net::IpProto::kUdp);
  const FlowHandle tcp =
      net.start_flow(*client, pid, "192.168.1.1", 53, net::IpProto::kTcp);
  net.run();
  EXPECT_TRUE(net.flow_delivered(udp));
  EXPECT_FALSE(net.flow_delivered(tcp));
}

TEST_F(VanillaFixture, StatefulReverseAllowed) {
  ctrl::VanillaFirewall::AclRule allow;
  allow.src = *net::Cidr::parse("10.0.0.0/8");
  allow.allow = true;
  fw->add_rule(allow);
  const FlowHandle h = net.start_flow(*client, pid, "192.168.1.1", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  // Reverse direction matches no ACL rule but is allowed by the state
  // table: the server's reply reaches the client.
  server->send_flow_packet(h.flow.reversed(), "SYN-ACK",
                           net::TcpFlags::kSyn | net::TcpFlags::kAck);
  net.run();
  EXPECT_EQ(client->stats().flow_payloads_received, 1u);
  // An unrelated reverse-direction flow (no prior state) stays blocked.
  net::FiveTuple fresh = h.flow.reversed();
  fresh.src_port = 9999;
  server->send_flow_packet(fresh, "unsolicited");
  net.run();
  EXPECT_EQ(client->stats().flow_payloads_received, 1u);
}

// ---------------------------------------------------------------- learning

TEST(LearningSwitch, LearnsFloodsAndInstalls) {
  openflow::Topology topo;
  const auto s1 = topo.add_switch(std::make_unique<openflow::Switch>("s1"));
  auto h1_ptr = std::make_unique<host::Host>(
      "h1", *net::Ipv4Address::parse("10.0.0.1"), net::MacAddress::for_node(1));
  auto h2_ptr = std::make_unique<host::Host>(
      "h2", *net::Ipv4Address::parse("10.0.0.2"), net::MacAddress::for_node(2));
  host::Host* h1 = h1_ptr.get();
  host::Host* h2 = h2_ptr.get();
  const auto h1_id = topo.add_host(std::move(h1_ptr));
  const auto h2_id = topo.add_host(std::move(h2_ptr));
  topo.link(h1_id, s1);
  topo.link(h2_id, s1);
  ctrl::LearningSwitchController controller(&topo);
  controller.adopt_switch(s1);

  const auto send = [&](host::Host* from, host::Host* to, std::uint16_t sport) {
    topo.simulator().send(
        from->id(), 1,
        net::make_tcp_packet(from->mac(), to->mac(), from->ip(), to->ip(),
                             sport, 9999, "payload", net::TcpFlags::kPsh));
    topo.simulator().run();
  };

  // 1: h1 -> h2: dst unknown, flooded; h1's MAC learned.
  send(h1, h2, 1000);
  EXPECT_EQ(controller.stats().floods, 1u);
  EXPECT_EQ(controller.stats().macs_learned, 1u);
  EXPECT_EQ(h2->stats().flow_payloads_received, 1u);

  // 2: h2 -> h1: h1 known, entry installed and packet forwarded.
  send(h2, h1, 2000);
  EXPECT_EQ(controller.stats().entries_installed, 1u);
  EXPECT_EQ(h1->stats().flow_payloads_received, 1u);

  // 3: h1 -> h2 again: h2 now known too.
  send(h1, h2, 1001);
  EXPECT_EQ(controller.stats().entries_installed, 2u);

  // 4: traffic in both directions now rides installed entries.
  const auto packet_ins = controller.stats().packet_ins;
  send(h1, h2, 1002);
  send(h2, h1, 2001);
  EXPECT_EQ(controller.stats().packet_ins, packet_ins);
  EXPECT_EQ(h2->stats().flow_payloads_received, 3u);
  EXPECT_EQ(h1->stats().flow_payloads_received, 2u);
}

// ---------------------------------------------------------------- usage

TEST(FlowUsageAccounting, CountersAggregateAcrossPath) {
  Network net;
  const auto s1 = net.add_switch("s1");
  const auto s2 = net.add_switch("s2");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(s1, s2);
  net.link(server, s2);
  auto& controller = net.install_controller("pass all\n");
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80, net::IpProto::kTcp, "one");
  net.run();
  client.send_flow_packet(h.flow, "two", net::TcpFlags::kPsh);
  client.send_flow_packet(h.flow, "three", net::TcpFlags::kPsh);
  net.run();

  const auto usage = controller.flow_usage();
  ASSERT_EQ(usage.size(), 1u);
  EXPECT_EQ(usage[0].flow, h.flow);
  // The first packet was released via packet-out at s1 (bypassing its
  // table) but matched s2's freshly installed entry; the two follow-ups
  // matched on both switches.  The per-flow maximum across switches — the
  // true packet count — is therefore 3.
  EXPECT_EQ(usage[0].packets, 3u);
  EXPECT_GT(usage[0].bytes, 0u);
}

TEST(Revocation, RevokeIfTargetsOnlyMatchingFlows) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& a = net.add_host("a", "10.0.0.1");
  auto& b = net.add_host("b", "10.0.0.2");
  auto& server = net.add_host("server", "10.0.0.3");
  net.link(a, s1);
  net.link(b, s1);
  net.link(server, s1);
  auto& controller = net.install_controller("pass all\n");
  a.add_user("u", "users");
  b.add_user("u", "users");
  const int pa = a.launch("u", "/bin/x");
  const int pb = b.launch("u", "/bin/x");
  const FlowHandle fa = net.start_flow(a, pa, "10.0.0.3", 80);
  const FlowHandle fb = net.start_flow(b, pb, "10.0.0.3", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(fa));
  ASSERT_TRUE(net.flow_delivered(fb));

  // Revoke only host a's flows.
  const std::size_t removed = controller.revoke_if(
      [&a](const net::FiveTuple& flow) { return flow.src_ip == a.ip(); });
  EXPECT_GE(removed, 1u);

  const auto packet_ins = controller.stats().packet_ins;
  // b's next packet rides its surviving entry; a's packet re-decides.
  b.send_flow_packet(fb.flow, "still cached", net::TcpFlags::kPsh);
  net.run();
  EXPECT_EQ(controller.stats().packet_ins, packet_ins);
  a.send_flow_packet(fa.flow, "re-decide", net::TcpFlags::kPsh);
  net.run();
  EXPECT_GT(controller.stats().packet_ins, packet_ins);
}

// ---------------------------------------------------------------- expiry

TEST(FlowExpiry, IdleEntryExpiresAndFlowRedecides) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  ctrl::ControllerConfig config;
  config.flow_idle_timeout = 10 * sim::kMillisecond;
  auto& controller = net.install_controller("pass all\n", config);
  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  const FlowHandle h = net.start_flow(client, pid, "10.0.0.2", 80);
  net.run();
  ASSERT_TRUE(net.flow_delivered(h));
  const auto flows_before = controller.stats().flows_seen;

  // Let the entry idle out, then send another packet: it must re-trigger
  // the full decision (packet-in, queries).
  net.simulator().schedule_after(
      100 * sim::kMillisecond, [&client, flow = h.flow] {
        client.send_flow_packet(flow, "later", net::TcpFlags::kPsh);
      });
  net.run();
  EXPECT_EQ(controller.stats().flows_seen, flows_before + 1);
  EXPECT_GE(controller.stats().flows_expired, 1u);
  EXPECT_EQ(net.host("server").stats().flow_payloads_received, 2u);
}

// ---------------------------------------------------------------- intercept

TEST(QueryInterception, ControllerAnswersOnBehalfOfHost) {
  // §3.4: "To respond to an intercepted query on behalf of an end-host,
  // the controller spoofs the IP address of the end-host, sends a response
  // itself, but does not forward the query."
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& asker = net.add_host("asker", "10.0.0.1");
  auto& target = net.add_host("target", "10.0.0.2");
  net.link(asker, s1);
  net.link(target, s1);
  auto& controller = net.install_controller("pass all\n");
  controller.set_query_interceptor(
      [&target](const proto::Query& query, net::Ipv4Address target_ip)
          -> std::optional<proto::Response> {
        if (target_ip != target.ip()) return std::nullopt;
        proto::Response response;
        response.proto = query.proto;
        response.src_port = query.src_port;
        response.dst_port = query.dst_port;
        proto::Section section;
        section.add(proto::keys::kUserId, "proxied-identity");
        response.append_section(section);
        return response;
      });

  asker.add_user("u", "users");
  const int pid = asker.launch("u", "/bin/x");
  const auto ident_flow = asker.connect_flow(pid, target.ip(), proto::kIdentPort);
  proto::Query query;
  query.proto = net::IpProto::kTcp;
  query.src_port = 1111;
  query.dst_port = 2222;
  asker.send_flow_packet(ident_flow, query.serialize(),
                         net::TcpFlags::kPsh | net::TcpFlags::kAck);
  net.run();

  // The target's daemon never saw the query...
  EXPECT_EQ(target.stats().ident_queries_received, 0u);
  // ...but the asker got an answer "from" the target's address.
  bool answered = false;
  for (const auto& packet : asker.delivered()) {
    if (packet.tcp && packet.tcp->src_port == proto::kIdentPort) {
      EXPECT_EQ(packet.ip.src, target.ip());  // spoofed
      const auto response = proto::Response::parse(packet.payload_text());
      const proto::ResponseDict dict(response);
      EXPECT_EQ(*dict.latest(proto::keys::kUserId), "proxied-identity");
      answered = true;
    }
  }
  EXPECT_TRUE(answered);
  EXPECT_GE(controller.stats().queries_proxied, 1u);
}

// ---------------------------------------------------------------- dedupe

TEST(ResponseDedupe, ChannelDuplicateDedupedPastEightThousandResponses) {
  // The consumed-response memo retires entries as they leave the window.
  // With more than 8192 responses consumed inside one window, a channel
  // copy of the first must still be swallowed as a duplicate, and the
  // same bytes arriving once the window has passed must transit.
  constexpr sim::SimTime kWindow = 1 * sim::kSecond;  // controller's window
  constexpr int kFlows = 4200;                          // two responses each

  struct ResponseRecorder : ctrl::AdmissionObserver {
    sim::Simulator* simulator = nullptr;
    std::optional<openflow::PacketIn> first;
    sim::SimTime first_at = 0;
    sim::SimTime last_at = 0;
    std::size_t responses = 0;
    void on_packet_in(const openflow::PacketIn& msg) override {
      const auto& tcp = msg.packet.tcp;
      if (!tcp || tcp->src_port != proto::kIdentPort) return;
      if (!first) {
        first = msg;
        first_at = simulator->now();
      }
      last_at = simulator->now();
      ++responses;
    }
  };

  Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& controller = net.install_controller("pass all\n");
  auto recorder = std::make_unique<ResponseRecorder>();
  recorder->simulator = &net.simulator();
  ResponseRecorder& seen = *recorder;
  controller.add_observer(std::move(recorder));

  client.add_user("u", "users");
  const int pid = client.launch("u", "/bin/x");
  for (int i = 0; i < kFlows; ++i) {
    (void)net.start_flow(client, pid, "10.0.0.2", 80);
  }
  net.run();
  ASSERT_TRUE(seen.first.has_value());
  ASSERT_GT(seen.responses, 8192u);
  ASSERT_LT(seen.last_at - seen.first_at, kWindow / 2);
  EXPECT_EQ(controller.stats().flows_allowed, static_cast<std::uint64_t>(kFlows));

  const auto duplicates = controller.stats().duplicate_responses;
  const auto transits = controller.stats().ident_transit_forwarded;
  net.simulator().schedule_at(seen.first_at + kWindow / 2, [&] {
    controller.on_packet_in(*seen.first);
  });
  net.run();
  EXPECT_EQ(controller.stats().duplicate_responses, duplicates + 1);
  EXPECT_EQ(controller.stats().ident_transit_forwarded, transits);

  net.simulator().schedule_at(seen.first_at + kWindow, [&] {
    controller.on_packet_in(*seen.first);
  });
  net.run();
  EXPECT_EQ(controller.stats().duplicate_responses, duplicates + 1);
  EXPECT_EQ(controller.stats().ident_transit_forwarded, transits + 1);
}

TEST(ResponseDedupe, FloodPastTheMemoCapRetiresOldestAndStillDedupes) {
  // A §5 flood: more responses consumed inside one window than the memo
  // holds.  The memo stays at its cap, every early retirement is counted,
  // and a channel copy of a recent response is still swallowed; only the
  // oldest sightings lose their protection (their copies transit).
  constexpr sim::SimTime kWindow = 1 * sim::kSecond;  // controller's window
  constexpr std::size_t kCap = ctrl::RecentKeys::kMaxSightings;
  constexpr int kFlows = static_cast<int>(kCap / 2) + 300;  // two responses each

  struct ResponseRecorder : ctrl::AdmissionObserver {
    sim::Simulator* simulator = nullptr;
    std::optional<openflow::PacketIn> first;
    std::optional<openflow::PacketIn> last;
    sim::SimTime first_at = 0;
    sim::SimTime last_at = 0;
    std::size_t responses = 0;
    void on_packet_in(const openflow::PacketIn& msg) override {
      const auto& tcp = msg.packet.tcp;
      if (!tcp || tcp->src_port != proto::kIdentPort) return;
      if (!first) {
        first = msg;
        first_at = simulator->now();
      }
      last = msg;
      last_at = simulator->now();
      ++responses;
    }
  };

  Network net;
  const auto s1 = net.add_switch("s1");
  // Two clients: one host's ephemeral port range holds fewer flows.
  auto& client_a = net.add_host("client-a", "10.0.0.1");
  auto& client_b = net.add_host("client-b", "10.0.0.3");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client_a, s1);
  net.link(client_b, s1);
  net.link(server, s1);
  auto& controller = net.install_controller("pass all\n");
  auto recorder = std::make_unique<ResponseRecorder>();
  recorder->simulator = &net.simulator();
  ResponseRecorder& seen = *recorder;
  controller.add_observer(std::move(recorder));

  for (auto* client : {&client_a, &client_b}) {
    client->add_user("u", "users");
    const int pid = client->launch("u", "/bin/x");
    for (int i = 0; i < kFlows / 2; ++i) {
      (void)net.start_flow(*client, pid, "10.0.0.2", 80);
    }
  }
  net.run();
  ASSERT_TRUE(seen.last.has_value());
  ASSERT_EQ(seen.responses, 2u * static_cast<std::size_t>(kFlows));
  ASSERT_GT(seen.responses, kCap);
  ASSERT_LT(seen.last_at - seen.first_at, kWindow / 2);
  EXPECT_EQ(controller.stats().flows_allowed, static_cast<std::uint64_t>(kFlows));
  EXPECT_EQ(controller.recent_response_count(), kCap);
  EXPECT_EQ(controller.stats().dedupe_memo_evictions, seen.responses - kCap);

  const auto duplicates = controller.stats().duplicate_responses;
  const auto transits = controller.stats().ident_transit_forwarded;
  net.simulator().schedule_at(seen.last_at + kWindow / 2, [&] {
    controller.on_packet_in(*seen.last);
  });
  net.run();
  EXPECT_EQ(controller.stats().duplicate_responses, duplicates + 1);
  EXPECT_EQ(controller.stats().ident_transit_forwarded, transits);

  net.simulator().schedule_at(seen.last_at + kWindow / 2, [&] {
    controller.on_packet_in(*seen.first);
  });
  net.run();
  EXPECT_EQ(controller.stats().duplicate_responses, duplicates + 1);
  EXPECT_EQ(controller.stats().ident_transit_forwarded, transits + 1);
  EXPECT_LE(controller.recent_response_count(), kCap);
}

// ---------------------------------------------------------------- misc

TEST(NetworkFacade, HostLookupAndValidation) {
  Network net;
  EXPECT_THROW((void)net.add_host("h", "not-an-ip"), Error);
  const auto s1 = net.add_switch("s1");
  auto& h = net.add_host("h", "10.0.0.1");
  net.link(h, s1);
  EXPECT_EQ(&net.host("h"), &h);
  EXPECT_THROW((void)net.host("nope"), Error);
  EXPECT_THROW((void)net.add_host("h", "10.0.0.2"), Error);  // dup name
  EXPECT_THROW((void)net.host(s1), Error);                   // not a host
}

TEST(NetworkFacade, StartFlowValidatesIp) {
  Network net;
  const auto s1 = net.add_switch("s1");
  auto& h = net.add_host("h", "10.0.0.1");
  net.link(h, s1);
  h.add_user("u", "users");
  const int pid = h.launch("u", "/bin/x");
  EXPECT_THROW((void)net.start_flow(h, pid, "bogus", 80), Error);
}

}  // namespace
}  // namespace identxx
