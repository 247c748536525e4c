#include "controller/identxx_controller.hpp"

#include "identxx/keys.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace identxx::ctrl {

namespace {

/// Pseudo-MAC stamped on controller-originated query packets.
const net::MacAddress kControllerMac{0x02c0ffee0000ULL};

/// Key hints included in every query (§3.2: hints only; daemons may return
/// more).
const std::vector<std::string> kDefaultQueryKeys = {
    proto::keys::kUserId,      proto::keys::kGroupId,
    proto::keys::kName,        proto::keys::kVersion,
    proto::keys::kExeHash,     proto::keys::kRequirements,
    proto::keys::kReqSig,      proto::keys::kRuleMaker,
    proto::keys::kOsPatch,
};

}  // namespace

IdentxxController::IdentxxController(openflow::Topology* topology,
                                     pf::Ruleset ruleset,
                                     ControllerConfig config)
    : IdentxxController(topology, std::move(ruleset),
                        pf::FunctionRegistry::with_builtins(),
                        std::move(config)) {}

IdentxxController::IdentxxController(openflow::Topology* topology,
                                     pf::Ruleset ruleset,
                                     pf::FunctionRegistry registry,
                                     ControllerConfig config)
    : AdmissionController(
          topology,
          AdmissionPipeline::identxx(std::move(ruleset), std::move(registry)),
          std::move(config)) {}

void IdentxxController::set_policy(pf::Ruleset ruleset) {
  replace_engine(std::make_unique<PolicyDecisionEngine>(std::move(ruleset)));
}

const pf::PolicyEngine& IdentxxController::engine() const {
  // The identxx pipeline carries a PolicyDecisionEngine unless a caller
  // swapped in something else via replace_engine.
  const auto* policy =
      dynamic_cast<const PolicyDecisionEngine*>(&decision_engine());
  if (policy == nullptr) {
    throw Error("IdentxxController::engine(): decision engine is not a "
                "PolicyDecisionEngine (replaced via replace_engine?)");
  }
  return policy->policy_engine();
}

void IdentxxController::on_switch_adopted(openflow::Switch& sw) {
  install_intercept_rules(sw);
}

void IdentxxController::install_intercept_rules(openflow::Switch& sw) {
  using openflow::Wildcard;
  // Punt ident++ traffic (TCP 783, either direction) so this controller can
  // consume responses to its own queries and intercept transiting ones.
  openflow::FlowEntry to_daemon;
  to_daemon.match.wildcards =
      openflow::without(Wildcard::kAll, Wildcard::kProto | Wildcard::kDstPort);
  to_daemon.match.proto = net::IpProto::kTcp;
  to_daemon.match.dst_port = proto::kIdentPort;
  to_daemon.priority = ControllerConfig::kInterceptPriority;
  to_daemon.action = openflow::ToControllerAction{};
  sw.install_flow(to_daemon);

  openflow::FlowEntry from_daemon;
  from_daemon.match.wildcards =
      openflow::without(Wildcard::kAll, Wildcard::kProto | Wildcard::kSrcPort);
  from_daemon.match.proto = net::IpProto::kTcp;
  from_daemon.match.src_port = proto::kIdentPort;
  from_daemon.priority = ControllerConfig::kInterceptPriority;
  from_daemon.action = openflow::ToControllerAction{};
  sw.install_flow(from_daemon);
}

bool IdentxxController::handle_special_packet(const openflow::PacketIn& msg,
                                              const net::FiveTuple& flow) {
  if (!proto::is_ident_traffic(flow)) return false;
  handle_ident_packet(msg, flow);
  return true;
}

bool IdentxxController::send_query(const net::FiveTuple& flow,
                                   const QueryTarget& target) {
  const HostInfo* host = find_host(target.target);
  if (host == nullptr) return false;
  const auto attachment = topology().attachment(host->node);
  if (!attachment) return false;

  proto::Query query;
  query.proto = flow.proto;
  query.src_port = flow.src_port;
  query.dst_port = flow.dst_port;
  query.keys = kDefaultQueryKeys;

  // §3.2: the query's source IP is the flow's other endpoint.  The
  // ephemeral source port comes from the per-controller seeded stream when
  // one is configured (seed_query_ports), else the sequential counter.
  std::uint16_t query_port;
  if (query_port_rng_) {
    query_port =
        static_cast<std::uint16_t>(20000 + query_port_rng_->next_below(40000));
  } else {
    query_port = next_query_port_++;
    if (next_query_port_ < 20000) next_query_port_ = 20000;  // wrap
  }
  net::Packet packet = net::make_tcp_packet(
      kControllerMac, host->mac, target.spoof_src, target.target,
      query_port, proto::kIdentPort, query.serialize(),
      net::TcpFlags::kPsh | net::TcpFlags::kAck);

  // Inject directly out of the host-facing port.
  topology()
      .switch_at(attachment->switch_id)
      .packet_out(packet, openflow::OutputAction{{attachment->out_port}}, 0);
  return true;
}

void IdentxxController::handle_ident_packet(const openflow::PacketIn& msg,
                                            const net::FiveTuple& flow) {
  if (flow.dst_port == proto::kIdentPort) {
    handle_transit_query(msg);
    return;
  }
  proto::Response response;
  try {
    response = proto::Response::parse(msg.packet.payload_text());
  } catch (const ParseError& e) {
    IDXX_LOG(kWarn, "controller") << config().name
                                  << ": malformed ident++ response dropped: "
                                  << e.what();
    return;
  }
  handle_ident_response(msg, response);
}

void IdentxxController::handle_transit_query(const openflow::PacketIn& msg) {
  // A query crossing our switches (some other firewall is asking one of the
  // hosts behind us).  Either answer on the host's behalf or pass it along;
  // intercepted queries never cause new queries (§3.4).
  proto::Query query;
  try {
    query = proto::Query::parse(msg.packet.payload_text());
  } catch (const ParseError&) {
    return;  // not a well-formed query; drop
  }
  const net::Ipv4Address target_ip = msg.packet.ip.dst;
  if (query_interceptor_) {
    if (auto response = query_interceptor_(query, target_ip)) {
      // Spoof the end-host's address and answer ourselves.
      net::Packet reply = net::make_tcp_packet(
          kControllerMac, msg.packet.eth.src, target_ip, msg.packet.ip.src,
          proto::kIdentPort, msg.packet.src_port(), response->serialize(),
          net::TcpFlags::kPsh | net::TcpFlags::kAck);
      notify([&](AdmissionObserver& o) {
        o.on_query_proxied(msg.packet.five_tuple());
      });
      openflow::PacketIn synthetic{msg.switch_id, std::move(reply), msg.in_port};
      forward_one_hop(synthetic, msg.packet.ip.src);
      return;
    }
  }
  forward_one_hop(msg, target_ip);
}

void IdentxxController::handle_ident_response(const openflow::PacketIn& msg,
                                              const proto::Response& response) {
  if (try_consume_response(msg, response)) return;
  handle_transit_response(msg, response);
}

bool IdentxxController::try_consume_response(const openflow::PacketIn& msg,
                                             const proto::Response& response) {
  const net::Ipv4Address responder = msg.packet.ip.src;
  const net::Ipv4Address peer = msg.packet.ip.dst;
  bool duplicate = false;
  AdmissionContext* ctx =
      collector().accept_response(responder, peer, response, &duplicate);
  // The memo key covers the response body AND the carrying packet's ports:
  // a channel-duplicated punt is byte-identical (same controller query
  // port), while a fresh response about the same flow — e.g. an end host
  // querying its peer directly (§4) — arrives on a different ephemeral
  // port and must still transit.
  const net::FiveTuple as_src{responder, peer, response.proto,
                              response.src_port, response.dst_port};
  const net::FiveTuple pkt = msg.packet.five_tuple();
  const std::string key = as_src.to_string() + "|" +
                          std::to_string(pkt.src_port) + ":" +
                          std::to_string(pkt.dst_port);
  const sim::SimTime now = simulator().now();
  if (ctx == nullptr) {
    // No pending flow — but if this exact packet was consumed moments
    // ago, it is a duplicated delivery, not a transiting response:
    // swallow it so it never forwards on toward a host that did not ask
    // (DESIGN.md §14).  The window mirrors augmented_'s reasoning on
    // 5-tuple reuse.
    if (recent_responses_.contains(key, now)) {
      notify([&](AdmissionObserver& o) { o.on_duplicate_response(responder); });
      return true;
    }
    return false;
  }
  if (duplicate) {
    // The matching slot is already filled: first answer won, count and
    // drop this copy.
    notify([&](AdmissionObserver& o) { o.on_duplicate_response(responder); });
    return true;
  }
  recent_responses_.insert(key, now);
  notify([&](AdmissionObserver& o) { o.on_response_received(responder); });
  decide_if_ready(*ctx);
  return true;
}

void IdentxxController::handle_transit_response(const openflow::PacketIn& msg,
                                                const proto::Response& response) {
  const net::Ipv4Address responder = msg.packet.ip.src;
  const net::Ipv4Address peer = msg.packet.ip.dst;
  notify([&](AdmissionObserver& o) { o.on_response_received(responder); });

  // A response transiting our domain on its way to another firewall.
  // Optionally augment it (network collaboration, §4), then forward it
  // one hop toward its destination.
  const net::FiveTuple as_src{responder, peer, response.proto,
                              response.src_port, response.dst_port};
  openflow::PacketIn forwarded = msg;
  if (augmenter_) {
    const std::string key = as_src.to_string() + "|" + responder.to_string();
    const sim::SimTime now = simulator().now();
    if (!augmented_.contains(key, now)) {
      if (auto section = augmenter_(response, as_src)) {
        proto::Response augmented = response;
        augmented.append_section(std::move(*section));
        forwarded.packet.set_payload_text(augmented.serialize());
        augmented_.insert(key, now);
        notify([&](AdmissionObserver& o) { o.on_response_augmented(as_src); });
      }
    }
  }
  notify([&](AdmissionObserver& o) { o.on_transit_forwarded(as_src); });
  forward_one_hop(forwarded, peer);
}

void IdentxxController::forward_one_hop(const openflow::PacketIn& msg,
                                        net::Ipv4Address toward_ip) {
  const HostInfo* host = find_host(toward_ip);
  if (host == nullptr) return;
  const auto hops = topology().path(msg.switch_id, host->node);
  if (!hops || hops->empty()) return;
  const openflow::Hop& first = hops->front();
  if (first.switch_id != msg.switch_id) return;
  topology()
      .switch_at(msg.switch_id)
      .packet_out(msg.packet, openflow::OutputAction{{first.out_port}},
                  msg.in_port);
}

}  // namespace identxx::ctrl
