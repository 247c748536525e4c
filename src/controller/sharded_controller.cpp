#include "controller/sharded_controller.hpp"

#include <algorithm>

#include "identxx/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace identxx::ctrl {

ShardedAdmissionController::ShardedAdmissionController(
    openflow::Topology* topology, pf::Ruleset ruleset,
    std::uint32_t shard_count, ControllerConfig config)
    : topology_(topology), map_(shard_count) {
  if (topology == nullptr) {
    throw Error("ShardedAdmissionController: null topology");
  }
  const std::uint32_t shards = map_.shard_count();
  topology_->simulator().configure_shard_lanes(shards);
  domains_.reserve(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    ControllerConfig domain_config = config;
    domain_config.name = config.name + "/d" + std::to_string(i);
    domain_config.decision_lane = static_cast<sim::LaneId>(i + 1);
    domain_config.cookie_namespace = static_cast<std::uint16_t>(i + 1);
    // Every domain evaluates the same policy, but with its own engine,
    // registry and verifier — shared-nothing per shard.
    domains_.push_back(std::make_unique<IdentxxController>(
        topology_, ruleset, pf::FunctionRegistry::with_builtins(),
        std::move(domain_config)));
  }
}

void ShardedAdmissionController::adopt_switch(sim::NodeId switch_id,
                                              sim::SimTime control_latency) {
  openflow::Switch& sw = topology_->switch_at(switch_id);
  sw.set_controller(this, control_latency);
  IdentxxController::install_intercept_rules(sw);
  map_.bind_switch(switch_id, next_switch_shard_++);
  // A flow's path may cross every switch, so every domain installs on the
  // whole fabric; cookie namespaces keep their entries distinguishable.
  for (const auto& domain : domains_) domain->join_domain(switch_id);
}

void ShardedAdmissionController::register_host(net::Ipv4Address ip,
                                               sim::NodeId node,
                                               net::MacAddress mac) {
  for (const auto& domain : domains_) domain->register_host(ip, node, mac);
}

std::size_t ShardedAdmissionController::revoke_all() {
  // Epoch-ordered fan-out: domains revoke in shard order on the global
  // lane; each bump makes in-flight shard-lane decisions re-decide at
  // commit, so no stale cover or cached verdict survives anywhere.
  std::size_t removed = 0;
  for (const auto& domain : domains_) removed += domain->revoke_all();
  return removed;
}

std::size_t ShardedAdmissionController::revoke_if(
    const std::function<bool(const net::FiveTuple&)>& pred) {
  std::size_t removed = 0;
  for (const auto& domain : domains_) removed += domain->revoke_if(pred);
  return removed;
}

void ShardedAdmissionController::set_policy(pf::Ruleset ruleset) {
  for (const auto& domain : domains_) domain->set_policy(ruleset);
}

void ShardedAdmissionController::set_compromised(bool compromised) noexcept {
  compromised_ = compromised;
  for (const auto& domain : domains_) domain->set_compromised(compromised);
}

void ShardedAdmissionController::seed_query_ports(std::uint64_t seed) {
  // Independent per-shard streams: domain i's stream is derived from
  // (seed, i) alone, so its draw order never depends on sibling domains —
  // identical seeds replay identically at any shard count.
  for (std::uint32_t i = 0; i < domains_.size(); ++i) {
    util::SplitMix64 derive(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    domains_[i]->seed_query_ports(derive.next());
  }
}

ControllerStats ShardedAdmissionController::aggregated_stats() const {
  ControllerStats total;
  for (const auto& domain : domains_) total.accumulate(domain->stats());
  return total;
}

std::vector<DecisionRecord> ShardedAdmissionController::merged_audit_log()
    const {
  std::vector<DecisionRecord> merged;
  for (const auto& domain : domains_) {
    merged.insert(merged.end(), domain->audit_log().begin(),
                  domain->audit_log().end());
  }
  std::sort(merged.begin(), merged.end(), audit_record_before);
  return merged;
}

std::size_t ShardedAdmissionController::installed_flow_count() const noexcept {
  std::size_t total = 0;
  for (const auto& domain : domains_) total += domain->installed_flow_count();
  return total;
}

void ShardedAdmissionController::dispatch_ident(const openflow::PacketIn& msg,
                                                const net::FiveTuple& flow) {
  if (flow.dst_port == proto::kIdentPort) {
    // A query transiting our fabric (some other firewall asking one of the
    // hosts behind us): the ingress switch's bound domain handles it.
    domains_[map_.switch_shard(msg.switch_id)]->on_packet_in(msg);
    return;
  }
  // A response.  The packet's own 5-tuple carries the query's ephemeral
  // ports; the *queried flow* — which determines the owning shard — is
  // embedded in the response body, with its ports in flow orientation.
  // The responder may be the flow's source OR its destination, and the
  // two orientations can hash to different shards, so probe both domains'
  // collectors; exactly one consumes (and counts) a matching response,
  // moving it into its pending context — a domain that does not consume
  // leaves it intact for the next probe or the transit path.
  // Malformed payloads go to the ingress switch's domain, which warns and
  // drops exactly as a standalone controller would.
  proto::Response response;
  try {
    response = proto::Response::parse(msg.packet.payload_text());
  } catch (const ParseError&) {
    domains_[map_.switch_shard(msg.switch_id)]->on_packet_in(msg);
    return;
  }
  const net::FiveTuple responder_as_src{msg.packet.ip.src, msg.packet.ip.dst,
                                        response.proto, response.src_port,
                                        response.dst_port};
  const net::FiveTuple responder_as_dst{msg.packet.ip.dst, msg.packet.ip.src,
                                        response.proto, response.src_port,
                                        response.dst_port};
  const std::uint32_t shard_a = map_.shard_of(responder_as_src);
  const std::uint32_t shard_b = map_.shard_of(responder_as_dst);
  if (domains_[shard_a]->try_consume_response(msg, response)) {
    domains_[shard_a]->observe_packet_in(msg);
    return;
  }
  if (shard_b != shard_a &&
      domains_[shard_b]->try_consume_response(msg, response)) {
    domains_[shard_b]->observe_packet_in(msg);
    return;
  }
  // Matched nowhere: a response transiting our fabric — the ingress
  // switch's bound domain augments/forwards it.
  IdentxxController& transit = *domains_[map_.switch_shard(msg.switch_id)];
  transit.observe_packet_in(msg);
  transit.handle_transit_response(msg, response);
}

void ShardedAdmissionController::on_packet_in(const openflow::PacketIn& msg) {
  const net::FiveTuple flow = msg.packet.five_tuple();
  if (compromised_) {
    // §5.1 parity with a standalone controller: no response parsing or
    // consumption — the owning domain's compromised path flood-installs
    // and forwards everything.
    domain_for_flow(flow).on_packet_in(msg);
    return;
  }
  if (proto::is_ident_traffic(flow)) {
    dispatch_ident(msg, flow);
    return;
  }
  domain_for_flow(flow).on_packet_in(msg);
}

void ShardedAdmissionController::on_flow_removed(
    const openflow::FlowRemovedMsg& msg) {
  const std::uint32_t tag = ShardMap::cookie_shard_tag(msg.entry.cookie);
  if (tag == 0 || tag > domains_.size()) return;  // boot rule or foreign
  domains_[tag - 1]->on_flow_removed(msg);
}

}  // namespace identxx::ctrl
