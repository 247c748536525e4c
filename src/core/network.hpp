#pragma once

// identxx::core::Network — the library's one-stop facade.
//
// Wires together the simulator, OpenFlow topology, end-hosts, daemons and
// controllers so that examples, tests and benchmarks read like the
// scenarios in the paper:
//
//     core::Network net;
//     auto& s1 = net.add_switch("s1");
//     auto& client = net.add_host("client", "192.168.0.10");
//     auto& server = net.add_host("server", "192.168.1.1");
//     net.link(client, s1);
//     net.link(server, s1);
//     auto& controller = net.install_controller(kPolicyText);
//     ... launch processes, start flows, run, inspect ...

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "controller/baselines.hpp"
#include "controller/identxx_controller.hpp"
#include "controller/sharded_controller.hpp"
#include "host/host.hpp"
#include "openflow/topology.hpp"
#include "pf/control_files.hpp"
#include "pf/parser.hpp"

namespace identxx::core {

/// Handle to a started application flow.
struct FlowHandle {
  net::FiveTuple flow;
  sim::NodeId src_node = sim::kInvalidNode;
  sim::NodeId dst_node = sim::kInvalidNode;
  int src_pid = 0;
};

class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- topology -------------------------------------------------------------

  /// Add an OpenFlow switch; returns its node id.
  sim::NodeId add_switch(const std::string& name,
                         std::size_t table_capacity = 65536);

  /// Add an end-host with a deterministic MAC derived from its node id.
  host::Host& add_host(const std::string& name, const std::string& ip);

  /// Wire two nodes (host or switch) together.  `bandwidth_bps` feeds the
  /// serialization-delay model and the switch queue model (DESIGN.md §12).
  void link(sim::NodeId a, sim::NodeId b,
            sim::SimTime latency = 10 * sim::kMicrosecond,
            std::uint64_t bandwidth_bps = sim::kDefaultBandwidthBps);
  void link(host::Host& a, sim::NodeId b,
            sim::SimTime latency = 10 * sim::kMicrosecond,
            std::uint64_t bandwidth_bps = sim::kDefaultBandwidthBps);

  /// Bound every switch's output queues to `packets` (0 restores the
  /// idealized unbounded behaviour).  Applies to all current switches.
  void set_queue_depth(std::uint32_t packets);

  // ---- controllers -----------------------------------------------------------

  /// Parse `policy` (concatenated .control file text) and install an
  /// ident++ controller owning every so-far-unadopted switch.  All hosts
  /// (current and future) are registered with it.
  ctrl::IdentxxController& install_controller(
      std::string_view policy, ctrl::ControllerConfig config = {});

  /// Multi-domain variant: the controller adopts only `switches`.
  ctrl::IdentxxController& install_domain_controller(
      std::string_view policy, const std::vector<sim::NodeId>& switches,
      ctrl::ControllerConfig config = {});

  /// Install a controller from a set of .control files (sorted and
  /// concatenated per §3.4, as in Figure 2).
  ctrl::IdentxxController& install_controller_files(
      std::vector<pf::ControlFile> files, ctrl::ControllerConfig config = {});

  /// Sharded admission domains (DESIGN.md §10): partition flows across
  /// `shards` AdmissionControllers with shard-local caches and verifiers,
  /// each deciding on its own simulator lane.  Adopts every
  /// so-far-unadopted switch and configures the simulator's shard lanes.
  ctrl::ShardedAdmissionController& install_sharded_controller(
      std::string_view policy, std::uint32_t shards,
      ctrl::ControllerConfig config = {});

  /// Baselines (each adopts every unadopted switch).
  ctrl::VanillaFirewall& install_vanilla_firewall(bool default_allow = false);
  ctrl::EthaneController& install_ethane_controller(std::string_view policy);
  ctrl::DistributedFirewallController& install_distributed_firewall();

  // ---- traffic ---------------------------------------------------------------

  /// Open a flow from process `pid` on `src` to `dst_ip:dst_port` and emit
  /// its first packet (SYN).
  FlowHandle start_flow(host::Host& src, int pid, const std::string& dst_ip,
                        std::uint16_t dst_port,
                        net::IpProto proto = net::IpProto::kTcp,
                        std::string_view payload = "");

  /// Did any packet of `handle`'s flow reach the destination application?
  [[nodiscard]] bool flow_delivered(const FlowHandle& handle) const;

  // ---- running ----------------------------------------------------------------

  /// Run the simulation until idle (or `deadline` if nonnegative).
  void run(sim::SimTime deadline = -1);

  // ---- access -----------------------------------------------------------------

  [[nodiscard]] openflow::Topology& topology() noexcept { return topology_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept {
    return topology_.simulator();
  }
  [[nodiscard]] host::Host& host(sim::NodeId id);
  [[nodiscard]] host::Host& host(const std::string& name);
  [[nodiscard]] openflow::Switch& switch_at(sim::NodeId id) {
    return topology_.switch_at(id);
  }
  [[nodiscard]] const std::vector<sim::NodeId>& switch_ids() const noexcept {
    return topology_.switch_ids();
  }

  /// Install a caller-assembled AdmissionPipeline as a controller owning
  /// every so-far-unadopted switch — the escape hatch for custom stage
  /// compositions (new flavours, instrumented stages, test fakes).
  ctrl::AdmissionController& install_pipeline(ctrl::AdmissionPipeline pipeline,
                                              ctrl::ControllerConfig config = {});

 private:
  /// Adopt `switches` (or every unadopted switch when nullptr), register
  /// all current hosts, take ownership.
  ctrl::AdmissionController& attach_controller(
      std::unique_ptr<ctrl::AdmissionController> controller,
      const std::vector<sim::NodeId>* switches = nullptr);
  [[nodiscard]] std::vector<sim::NodeId> unadopted_switches() const;

  openflow::Topology topology_;
  std::unordered_map<std::string, sim::NodeId> hosts_by_name_;
  std::vector<sim::NodeId> host_ids_;
  std::vector<std::unique_ptr<ctrl::AdmissionController>> controllers_;
  std::vector<std::unique_ptr<ctrl::ShardedAdmissionController>>
      sharded_controllers_;
  std::unordered_map<sim::NodeId, bool> adopted_;
};

}  // namespace identxx::core
