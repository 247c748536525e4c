#include "core/network.hpp"

#include "util/error.hpp"

namespace identxx::core {

sim::NodeId Network::add_switch(const std::string& name,
                                std::size_t table_capacity) {
  const sim::NodeId id = topology_.add_switch(
      std::make_unique<openflow::Switch>(name, table_capacity));
  adopted_[id] = false;
  return id;
}

host::Host& Network::add_host(const std::string& name, const std::string& ip) {
  const auto addr = net::Ipv4Address::parse(ip);
  if (!addr) throw Error("add_host: invalid IP '" + ip + "'");
  if (hosts_by_name_.contains(name)) {
    throw Error("add_host: duplicate host name '" + name + "'");
  }
  // MAC derived from the eventual node id (node_count is the next id).
  const auto mac = net::MacAddress::for_node(
      static_cast<std::uint32_t>(topology_.simulator().node_count()));
  auto host_ptr = std::make_unique<host::Host>(name, *addr, mac);
  host::Host& ref = *host_ptr;
  const sim::NodeId id = topology_.add_host(std::move(host_ptr));
  hosts_by_name_[name] = id;
  host_ids_.push_back(id);
  // Late host registration: tell every existing controller about it.
  for (const auto& controller : controllers_) {
    controller->register_host(ref.ip(), id, ref.mac());
  }
  for (const auto& controller : sharded_controllers_) {
    controller->register_host(ref.ip(), id, ref.mac());
  }
  return ref;
}

void Network::link(sim::NodeId a, sim::NodeId b, sim::SimTime latency,
                   std::uint64_t bandwidth_bps) {
  topology_.link(a, b, latency, bandwidth_bps);
}

void Network::link(host::Host& a, sim::NodeId b, sim::SimTime latency,
                   std::uint64_t bandwidth_bps) {
  topology_.link(a.id(), b, latency, bandwidth_bps);
}

void Network::set_queue_depth(std::uint32_t packets) {
  for (const sim::NodeId id : topology_.switch_ids()) {
    topology_.switch_at(id).set_queue_depth(packets);
  }
}

std::vector<sim::NodeId> Network::unadopted_switches() const {
  std::vector<sim::NodeId> out;
  for (const sim::NodeId id : topology_.switch_ids()) {
    const auto it = adopted_.find(id);
    if (it != adopted_.end() && !it->second) out.push_back(id);
  }
  return out;
}

ctrl::AdmissionController& Network::attach_controller(
    std::unique_ptr<ctrl::AdmissionController> controller,
    const std::vector<sim::NodeId>* switches) {
  const std::vector<sim::NodeId> unadopted =
      switches == nullptr ? unadopted_switches() : *switches;
  for (const sim::NodeId id : unadopted) {
    controller->adopt_switch(id);
    adopted_[id] = true;
  }
  for (const sim::NodeId id : host_ids_) {
    auto& h = host(id);
    controller->register_host(h.ip(), id, h.mac());
  }
  controllers_.push_back(std::move(controller));
  return *controllers_.back();
}

ctrl::IdentxxController& Network::install_controller(
    std::string_view policy, ctrl::ControllerConfig config) {
  return install_domain_controller(policy, unadopted_switches(),
                                   std::move(config));
}

ctrl::IdentxxController& Network::install_controller_files(
    std::vector<pf::ControlFile> files, ctrl::ControllerConfig config) {
  pf::Ruleset ruleset = pf::load_control_files(std::move(files));
  return static_cast<ctrl::IdentxxController&>(
      attach_controller(std::make_unique<ctrl::IdentxxController>(
          &topology_, std::move(ruleset), std::move(config))));
}

ctrl::IdentxxController& Network::install_domain_controller(
    std::string_view policy, const std::vector<sim::NodeId>& switches,
    ctrl::ControllerConfig config) {
  pf::Ruleset ruleset = pf::parse(policy, config.name);
  return static_cast<ctrl::IdentxxController&>(attach_controller(
      std::make_unique<ctrl::IdentxxController>(&topology_, std::move(ruleset),
                                                std::move(config)),
      &switches));
}

ctrl::ShardedAdmissionController& Network::install_sharded_controller(
    std::string_view policy, std::uint32_t shards,
    ctrl::ControllerConfig config) {
  simulator().configure_shard_lanes(shards == 0 ? 1 : shards);
  pf::Ruleset ruleset = pf::parse(policy, config.name);
  auto controller = std::make_unique<ctrl::ShardedAdmissionController>(
      &topology_, std::move(ruleset), shards, std::move(config));
  for (const sim::NodeId id : unadopted_switches()) {
    controller->adopt_switch(id);
    adopted_[id] = true;
  }
  for (const sim::NodeId id : host_ids_) {
    auto& h = host(id);
    controller->register_host(h.ip(), id, h.mac());
  }
  sharded_controllers_.push_back(std::move(controller));
  return *sharded_controllers_.back();
}

ctrl::VanillaFirewall& Network::install_vanilla_firewall(bool default_allow) {
  return static_cast<ctrl::VanillaFirewall&>(attach_controller(
      std::make_unique<ctrl::VanillaFirewall>(&topology_, default_allow)));
}

ctrl::EthaneController& Network::install_ethane_controller(
    std::string_view policy) {
  return static_cast<ctrl::EthaneController&>(
      attach_controller(std::make_unique<ctrl::EthaneController>(
          &topology_, pf::parse(policy, "ethane"))));
}

ctrl::DistributedFirewallController& Network::install_distributed_firewall() {
  return static_cast<ctrl::DistributedFirewallController&>(attach_controller(
      std::make_unique<ctrl::DistributedFirewallController>(&topology_)));
}

ctrl::AdmissionController& Network::install_pipeline(
    ctrl::AdmissionPipeline pipeline, ctrl::ControllerConfig config) {
  return attach_controller(std::make_unique<ctrl::AdmissionController>(
      &topology_, std::move(pipeline), std::move(config)));
}

FlowHandle Network::start_flow(host::Host& src, int pid,
                               const std::string& dst_ip,
                               std::uint16_t dst_port, net::IpProto proto,
                               std::string_view payload) {
  const auto addr = net::Ipv4Address::parse(dst_ip);
  if (!addr) throw Error("start_flow: invalid IP '" + dst_ip + "'");
  const net::FiveTuple flow = src.connect_flow(pid, *addr, dst_port, proto);
  src.send_flow_packet(flow, payload);

  FlowHandle handle;
  handle.flow = flow;
  handle.src_node = src.id();
  handle.src_pid = pid;
  for (const sim::NodeId id : host_ids_) {
    if (const auto* h = dynamic_cast<const host::Host*>(
            &topology_.simulator().node(id));
        h != nullptr && h->ip() == *addr) {
      handle.dst_node = id;
      break;
    }
  }
  return handle;
}

bool Network::flow_delivered(const FlowHandle& handle) const {
  if (handle.dst_node == sim::kInvalidNode) return false;
  const auto& dst = dynamic_cast<const host::Host&>(
      topology_.simulator().node(handle.dst_node));
  for (const net::Packet& packet : dst.delivered()) {
    if (packet.five_tuple() == handle.flow) return true;
  }
  return false;
}

void Network::run(sim::SimTime deadline) {
  topology_.simulator().run(deadline);
}

host::Host& Network::host(sim::NodeId id) {
  auto* h = dynamic_cast<host::Host*>(&topology_.simulator().node(id));
  if (h == nullptr) throw Error("host: node is not a Host");
  return *h;
}

host::Host& Network::host(const std::string& name) {
  const auto it = hosts_by_name_.find(name);
  if (it == hosts_by_name_.end()) throw Error("host: unknown name '" + name + "'");
  return host(it->second);
}

}  // namespace identxx::core
