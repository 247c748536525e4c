#pragma once

// OpenFlow switch datapath (§3.1): match packets against the flow table,
// apply the cached action, and punt table misses to the controller over an
// out-of-band control channel with configurable RPC latency.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "openflow/flow_table.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace identxx::openflow {

class Switch;

/// Packet-in message: a table miss (or explicit punt) encapsulated and sent
/// to the controller, as in Figure 1 step 2.
struct PacketIn {
  sim::NodeId switch_id = sim::kInvalidNode;
  net::Packet packet;
  sim::PortId in_port = 0;
};

/// Flow-removed notification (idle/hard timeout or eviction).
struct FlowRemovedMsg {
  sim::NodeId switch_id = sim::kInvalidNode;
  FlowEntry entry;
  RemovalReason reason = RemovalReason::kDeleted;
};

/// The controller side of the OpenFlow control channel.
class ControlPlane {
 public:
  virtual ~ControlPlane() = default;
  virtual void on_packet_in(const PacketIn& msg) = 0;
  virtual void on_flow_removed(const FlowRemovedMsg& msg) { (void)msg; }
};

struct SwitchStats {
  std::uint64_t packets_received = 0;
  std::uint64_t packets_forwarded = 0;  ///< output actions applied (pre-queue)
  std::uint64_t packets_flooded = 0;
  std::uint64_t packets_dropped = 0;  ///< policy drops (DropAction, miss-drop)
  std::uint64_t packets_to_controller = 0;
  std::uint64_t queue_tail_drops = 0;  ///< bounded output queue overflows
};

/// Occupancy accounting for one bounded output port queue (DESIGN.md §12).
/// A packet occupies a slot from enqueue until its serialization starts;
/// the packet currently on the wire is not counted.
struct PortQueueStats {
  std::uint32_t occupancy = 0;  ///< packets waiting right now
  std::uint32_t peak_occupancy = 0;
  std::uint64_t enqueued = 0;   ///< packets that waited at least one slot
  std::uint64_t tail_drops = 0;
};

/// What to do with a packet that misses the flow table.
enum class MissBehaviour { kToController, kDrop };

class Switch : public sim::Node {
 public:
  explicit Switch(std::string name, std::size_t table_capacity = 65536);

  // -- control plane wiring ------------------------------------------------

  /// Attach the controller; `control_latency` models the switch-controller
  /// RTT/2 (each direction of the control channel pays it once).
  void set_controller(ControlPlane* controller,
                      sim::SimTime control_latency = 100 * sim::kMicrosecond);

  void set_miss_behaviour(MissBehaviour behaviour) noexcept {
    miss_behaviour_ = behaviour;
  }

  /// Inject seeded faults on this switch's switch→controller channel
  /// (DESIGN.md §14): packet-in punts and flow-removed notifications may be
  /// dropped, duplicated, or delayed on top of `control_latency`.
  void set_control_fault(const sim::ChannelFaultSpec& spec,
                         std::uint64_t stream_seed) {
    fault_.emplace(spec, stream_seed);
  }
  /// Fault counters for this channel (zeros when no fault was configured).
  [[nodiscard]] sim::ChannelFaultStats control_fault_stats() const noexcept {
    return fault_ ? fault_->stats() : sim::ChannelFaultStats{};
  }

  /// Declare that `port` exists (wired in the topology).  Needed for flood.
  void register_port(sim::PortId port);

  // -- OpenFlow messages from the controller -------------------------------

  /// Install a flow entry (FlowMod ADD).  Called on the controller's
  /// schedule; takes effect immediately.
  void install_flow(FlowEntry entry);

  /// Remove entries by cookie (FlowMod DELETE).
  std::size_t remove_flows_by_cookie(std::uint64_t cookie);

  /// Packet-out: emit `packet` using `action` as if it matched.
  void packet_out(const net::Packet& packet, const Action& action,
                  sim::PortId in_port);

  // -- datapath -------------------------------------------------------------

  void on_packet(const net::Packet& packet, sim::PortId in_port) override;
  [[nodiscard]] std::string name() const override { return name_; }

  /// Compromise hook for the §5 security experiments: a compromised switch
  /// forwards everything (flood) and never consults its table.
  void set_compromised(bool compromised) noexcept { compromised_ = compromised; }
  [[nodiscard]] bool compromised() const noexcept { return compromised_; }

  // -- bounded output queues (DESIGN.md §12) --------------------------------

  /// Bound every output port's queue to `packets` waiting packets; a
  /// packet arriving at a busy port with a full queue is tail-dropped.
  /// 0 (the default) disables the queue model entirely: transmission is
  /// immediate and unbounded, the historical idealized behaviour.
  void set_queue_depth(std::uint32_t packets) noexcept {
    queue_depth_ = packets;
  }
  [[nodiscard]] std::uint32_t queue_depth() const noexcept {
    return queue_depth_;
  }
  /// Per-port queue counters; nullptr when the port never queued.
  [[nodiscard]] const PortQueueStats* port_queue(sim::PortId port) const;

  [[nodiscard]] FlowTable& table() noexcept { return table_; }
  [[nodiscard]] const FlowTable& table() const noexcept { return table_; }
  [[nodiscard]] const SwitchStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<sim::PortId>& ports() const noexcept {
    return ports_;
  }

 private:
  /// One output port's transmission state.  All mutation happens on the
  /// simulator's global lane (packet events are never sharded), so the
  /// bounded-queue model is deterministic at any shard count for free.
  struct PortQueue {
    sim::SimTime next_free = 0;  ///< when the wire finishes its last packet
    PortQueueStats stats;
  };

  void apply_action(const Action& action, const net::Packet& packet,
                    sim::PortId in_port);
  /// Egress path for every forwarded/flooded packet: immediate send when
  /// the queue model is off, otherwise FIFO tail-drop through the port's
  /// bounded output queue.
  void transmit(sim::PortId port, const net::Packet& packet);
  void punt_to_controller(const net::Packet& packet, sim::PortId in_port);
  /// Common switch→controller delivery path: applies the configured channel
  /// fault (if any) on top of `control_latency_` and schedules `deliver`
  /// zero, one, or two times accordingly.
  void deliver_control(std::function<void()> deliver);

  std::string name_;
  FlowTable table_;
  std::vector<sim::PortId> ports_;
  ControlPlane* controller_ = nullptr;
  sim::SimTime control_latency_ = 100 * sim::kMicrosecond;
  MissBehaviour miss_behaviour_ = MissBehaviour::kToController;
  bool compromised_ = false;
  std::uint32_t queue_depth_ = 0;
  std::unordered_map<sim::PortId, PortQueue> queues_;
  std::optional<sim::FaultChannel> fault_;
  SwitchStats stats_;
};

}  // namespace identxx::openflow
