// Unit tests for the end-host model: users/processes/sockets, the
// lsof-style flow resolution backing the daemon, dynamic per-flow pairs
// (§3.5), ident++ query handling over the wire, and the compromise hooks.

#include <gtest/gtest.h>

#include "host/host.hpp"
#include "identxx/keys.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace identxx::host {
namespace {

const net::Ipv4Address kHostIp = *net::Ipv4Address::parse("10.0.0.1");
const net::Ipv4Address kPeerIp = *net::Ipv4Address::parse("10.0.0.2");

std::unique_ptr<Host> make_host() {
  return std::make_unique<Host>("h", kHostIp, net::MacAddress::for_node(1));
}

TEST(HostModel, LaunchRequiresKnownUser) {
  auto h = make_host();
  EXPECT_THROW((void)h->launch("ghost", "/bin/x"), Error);
  h->add_user("alice", "users");
  const int pid = h->launch("alice", "/bin/x");
  ASSERT_NE(h->process(pid), nullptr);
  EXPECT_EQ(h->process(pid)->user, "alice");
  EXPECT_EQ(h->process(pid)->group, "users");
}

TEST(HostModel, PidsAreUniqueAndKillable) {
  auto h = make_host();
  h->add_user("alice", "users");
  const int p1 = h->launch("alice", "/bin/x");
  const int p2 = h->launch("alice", "/bin/x");
  EXPECT_NE(p1, p2);
  h->kill(p1);
  EXPECT_EQ(h->process(p1), nullptr);
  EXPECT_NE(h->process(p2), nullptr);
}

TEST(HostModel, ImageHashDependsOnPathAndSeed) {
  const auto a = Host::image_hash("/bin/x", "");
  const auto b = Host::image_hash("/bin/y", "");
  const auto c = Host::image_hash("/bin/x", "trojan");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, Host::image_hash("/bin/x", ""));
  EXPECT_EQ(a.size(), 64u);  // SHA-256 hex
}

TEST(HostModel, ConnectFlowAllocatesDistinctPorts) {
  auto h = make_host();
  h->add_user("alice", "users");
  const int pid = h->launch("alice", "/bin/x");
  const auto f1 = h->connect_flow(pid, kPeerIp, 80);
  const auto f2 = h->connect_flow(pid, kPeerIp, 80);
  EXPECT_NE(f1.src_port, f2.src_port);
  EXPECT_EQ(f1.src_ip, kHostIp);
  EXPECT_EQ(f1.dst_port, 80);
}

TEST(HostModel, ConnectFlowSkipsOpenPortsAfterWrap) {
  auto h = make_host();
  h->add_user("alice", "users");
  const int pid = h->launch("alice", "/bin/x");
  constexpr std::size_t kPorts = 65535 - 40000 + 1;
  std::vector<net::FiveTuple> flows;
  flows.reserve(kPorts);
  for (std::size_t i = 0; i < kPorts; ++i) {
    flows.push_back(h->connect_flow(pid, kPeerIp, 80));
  }
  EXPECT_EQ(flows.front().src_port, 40000);
  EXPECT_EQ(flows.back().src_port, 65535);
  // Every port to 10.0.0.2:80 is open: no 5-tuple is left to hand out.
  EXPECT_THROW((void)h->connect_flow(pid, kPeerIp, 80), Error);
  // Another destination still has every port free.
  EXPECT_EQ(h->connect_flow(pid, kPeerIp, 443).src_port, 40000);

  h->close_flow(flows[1234]);
  const auto reused = h->connect_flow(pid, kPeerIp, 80);
  EXPECT_EQ(reused.src_port, flows[1234].src_port);
  EXPECT_TRUE(h->resolve(reused, false).has_value());
  EXPECT_THROW((void)h->connect_flow(pid, kPeerIp, 80), Error);
}

TEST(HostModel, ResolveOutboundFlow) {
  auto h = make_host();
  h->add_user("alice", "research");
  const int pid = h->launch("alice", "/usr/bin/app");
  const auto flow = h->connect_flow(pid, kPeerIp, 80);
  const auto owner = h->resolve(flow, /*as_destination=*/false);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->user_id, "alice");
  EXPECT_EQ(owner->group_id, "research");
  EXPECT_EQ(owner->pid, pid);
  EXPECT_EQ(owner->exe_path, "/usr/bin/app");
  EXPECT_FALSE(owner->exe_hash.empty());
}

TEST(HostModel, ResolveListeningSocketAsDestination) {
  auto h = make_host();
  h->add_user("www", "daemons");
  const int pid = h->launch("www", "/usr/sbin/httpd");
  h->listen(pid, 80);
  net::FiveTuple inbound{kPeerIp, kHostIp, net::IpProto::kTcp, 49152, 80};
  const auto owner = h->resolve(inbound, /*as_destination=*/true);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->user_id, "www");
  // Wrong port: no owner.
  inbound.dst_port = 81;
  EXPECT_FALSE(h->resolve(inbound, true).has_value());
}

TEST(HostModel, ResolveUnknownFlowFails) {
  auto h = make_host();
  h->add_user("alice", "users");
  (void)h->launch("alice", "/bin/x");
  const net::FiveTuple flow{kHostIp, kPeerIp, net::IpProto::kTcp, 1234, 80};
  EXPECT_FALSE(h->resolve(flow, false).has_value());
  EXPECT_FALSE(h->resolve(flow, true).has_value());
}

TEST(HostModel, CloseFlowRemovesSocket) {
  auto h = make_host();
  h->add_user("alice", "users");
  const int pid = h->launch("alice", "/bin/x");
  const auto flow = h->connect_flow(pid, kPeerIp, 80);
  ASSERT_TRUE(h->resolve(flow, false).has_value());
  h->close_flow(flow);
  EXPECT_FALSE(h->resolve(flow, false).has_value());
}

TEST(HostModel, KillRemovesProcessSockets) {
  auto h = make_host();
  h->add_user("alice", "users");
  const int pid = h->launch("alice", "/bin/x");
  const auto flow = h->connect_flow(pid, kPeerIp, 80);
  h->kill(pid);
  EXPECT_FALSE(h->resolve(flow, false).has_value());
}

TEST(HostModel, DynamicPairsAttachToOneFlow) {
  // §3.5: applications register per-flow pairs (the browser user-click
  // example) over the local socket stand-in.
  auto h = make_host();
  h->add_user("alice", "users");
  const int pid = h->launch("alice", "/usr/bin/browser");
  const auto clicked = h->connect_flow(pid, kPeerIp, 443);
  const auto background = h->connect_flow(pid, kPeerIp, 443);
  h->register_flow_pairs(clicked, {{"user-click", "true"}});

  const auto owner_clicked = h->resolve(clicked, false);
  const auto owner_background = h->resolve(background, false);
  ASSERT_TRUE(owner_clicked.has_value());
  ASSERT_TRUE(owner_background.has_value());
  ASSERT_EQ(owner_clicked->dynamic_pairs.size(), 1u);
  EXPECT_EQ(owner_clicked->dynamic_pairs[0].first, "user-click");
  EXPECT_TRUE(owner_background->dynamic_pairs.empty());
}

// ---------------------------------------------------------------- wire

struct WireFixture : ::testing::Test {
  WireFixture() {
    auto host_ptr = make_host();
    host = host_ptr.get();
    host_id = sim.add_node(std::move(host_ptr));
    auto peer_ptr = std::make_unique<Host>("peer", kPeerIp,
                                           net::MacAddress::for_node(2));
    peer = peer_ptr.get();
    peer_id = sim.add_node(std::move(peer_ptr));
    sim.connect(host_id, 1, peer_id, 1);
  }

  /// Send an ident++ query from the peer to the host about `flow`.
  void send_query(const net::FiveTuple& flow) {
    proto::Query query;
    query.proto = flow.proto;
    query.src_port = flow.src_port;
    query.dst_port = flow.dst_port;
    net::Packet packet = net::make_tcp_packet(
        peer->mac(), host->mac(), kPeerIp, kHostIp, 50000, proto::kIdentPort,
        query.serialize(), net::TcpFlags::kPsh);
    sim.send(peer_id, 1, packet);
    sim.run();
  }

  /// The response the peer received, if any.
  std::optional<proto::Response> response() const {
    for (const auto& packet : peer->delivered()) {
      if (packet.tcp && packet.tcp->src_port == proto::kIdentPort) {
        return proto::Response::parse(packet.payload_text());
      }
    }
    return std::nullopt;
  }

  sim::Simulator sim;
  Host* host = nullptr;
  Host* peer = nullptr;
  sim::NodeId host_id{}, peer_id{};
};

TEST_F(WireFixture, AnswersQueryOverTheWire) {
  host->add_user("alice", "users");
  const int pid = host->launch("alice", "/bin/x");
  const auto flow = host->connect_flow(pid, kPeerIp, 80);
  send_query(flow);
  const auto r = response();
  ASSERT_TRUE(r.has_value());
  const proto::ResponseDict dict(*r);
  EXPECT_EQ(*dict.latest(proto::keys::kUserId), "alice");
  EXPECT_EQ(host->stats().ident_queries_received, 1u);
}

TEST_F(WireFixture, DisabledDaemonStaysSilent) {
  host->set_daemon_enabled(false);
  host->add_user("alice", "users");
  const int pid = host->launch("alice", "/bin/x");
  const auto flow = host->connect_flow(pid, kPeerIp, 80);
  send_query(flow);
  EXPECT_FALSE(response().has_value());
}

TEST_F(WireFixture, MalformedQueryIgnored) {
  net::Packet packet = net::make_tcp_packet(
      peer->mac(), host->mac(), kPeerIp, kHostIp, 50000, proto::kIdentPort,
      "not a query at all : ::", net::TcpFlags::kPsh);
  sim.send(peer_id, 1, packet);
  sim.run();
  EXPECT_FALSE(response().has_value());
}

TEST_F(WireFixture, CompromisedHostForgesResponses) {
  host->set_compromised([](const proto::Query& query, net::Ipv4Address) {
    proto::Response response;
    response.proto = query.proto;
    response.src_port = query.src_port;
    response.dst_port = query.dst_port;
    proto::Section lie;
    lie.add(proto::keys::kUserId, "root");
    response.append_section(lie);
    return response;
  });
  EXPECT_TRUE(host->compromised());
  // No process/socket exists, yet the "daemon" answers with a forged user.
  send_query(net::FiveTuple{kHostIp, kPeerIp, net::IpProto::kTcp, 1, 2});
  const auto r = response();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*proto::ResponseDict(*r).latest(proto::keys::kUserId), "root");
}

TEST_F(WireFixture, WrongDestinationIpDropped) {
  net::Packet packet = net::make_tcp_packet(
      peer->mac(), host->mac(), kPeerIp,
      *net::Ipv4Address::parse("99.9.9.9"), 50000, proto::kIdentPort, "x",
      net::TcpFlags::kPsh);
  sim.send(peer_id, 1, packet);
  sim.run();
  EXPECT_EQ(host->stats().packets_dropped_wrong_ip, 1u);
  EXPECT_EQ(host->stats().ident_queries_received, 0u);
}

TEST_F(WireFixture, IngressFilterCountsAndDrops) {
  host->set_ingress_filter([](const net::Packet&) { return false; });
  net::Packet packet = net::make_tcp_packet(
      peer->mac(), host->mac(), kPeerIp, kHostIp, 50000, 80, "junk",
      net::TcpFlags::kPsh);
  sim.send(peer_id, 1, packet);
  sim.run();
  EXPECT_EQ(host->stats().packets_filtered_ingress, 1u);
  EXPECT_TRUE(host->delivered().empty());
}

TEST_F(WireFixture, ClassicIdentQueryOverTheWire) {
  // RFC-1413 compatibility: a legacy client asks "local-port , remote-port"
  // on TCP 783 and gets the classic one-line answer.
  host->add_user("jnaous", "users");
  const int pid = host->launch("jnaous", "/usr/bin/ssh");
  const auto flow = host->connect_flow(pid, kPeerIp, 23);

  net::Packet packet = net::make_tcp_packet(
      peer->mac(), host->mac(), kPeerIp, kHostIp, 50000, proto::kIdentPort,
      std::to_string(flow.src_port) + ", 23", net::TcpFlags::kPsh);
  sim.send(peer_id, 1, packet);
  sim.run();
  ASSERT_EQ(peer->delivered().size(), 1u);
  EXPECT_EQ(peer->delivered()[0].payload_text(),
            std::to_string(flow.src_port) + ", 23 : USERID : UNIX : jnaous\r\n");
}

TEST_F(WireFixture, ClosedFlowsLeaveNoSendSequenceBehind) {
  // A long-running client opens and closes flows forever; the per-flow
  // sequence stamps must not outlive the flows.  100k flows wrap the
  // ephemeral port range four times, so most 5-tuples are reused: a stamp
  // kept after close would number a reused flow's first packet above 1.
  host->add_user("alice", "users");
  const int pid = host->launch("alice", "/bin/x");
  for (int i = 0; i < 100000; ++i) {
    const auto flow = host->connect_flow(pid, kPeerIp, 80);
    host->send_flow_packet(flow);
    host->close_flow(flow);
    if (i % 1000 == 999) {
      sim.run();
      ASSERT_EQ(peer->delivered().size(), 1000u);
      for (const auto& packet : peer->delivered()) {
        ASSERT_TRUE(packet.tcp.has_value());
        ASSERT_EQ(packet.tcp->seq, 1u) << "flow " << i;
      }
      peer->clear_delivered();
    }
  }
  EXPECT_EQ(host->stats().packets_sent, 100000u);
}

TEST_F(WireFixture, DeliveryTimestampTracksLastPayload) {
  EXPECT_EQ(host->last_delivery_time(), -1);
  net::Packet packet = net::make_tcp_packet(
      peer->mac(), host->mac(), kPeerIp, kHostIp, 50000, 80, "data",
      net::TcpFlags::kPsh);
  sim.send(peer_id, 1, packet);
  sim.run();
  EXPECT_GT(host->last_delivery_time(), 0);
  host->clear_delivered();
  EXPECT_TRUE(host->delivered().empty());
}

}  // namespace
}  // namespace identxx::host
