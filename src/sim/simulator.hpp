#pragma once

// Deterministic discrete-event network simulator.
//
// This is the substrate standing in for the physical OpenFlow testbed the
// paper assumes (see DESIGN.md, substitution table).  It provides:
//   * a virtual clock in nanoseconds,
//   * an event queue with stable FIFO ordering for simultaneous events,
//   * nodes (hosts, switches, controllers) connected by ports over
//     latency-modelled links,
//   * packet delivery with per-link latency and serialization delay.
//
// Determinism contract: given the same initial configuration and inputs,
// a run produces the identical event order.  Ties in time are broken by
// insertion sequence number.
//
// Multi-queue core (sharded admission domains, DESIGN.md §10): the event
// queue is split into lanes — lane 0 (kGlobalLane) carries every node /
// packet / control-channel event, and one extra lane per admission domain
// carries that shard's decision work.  Execution proceeds in virtual-clock
// epochs ("waves"): all events at the earliest pending timestamp run
// together — the global lane first, then the shard lanes in ascending lane
// order, all on the calling thread.  Shard-lane events touch only
// shard-local state and reach shared state through events they schedule
// onto the global lane, so the lanes are a deterministic partition that a
// ScheduleController may reorder (DESIGN.md §13) without changing the
// result.  Single-lane configurations reproduce the historical
// single-queue order.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/schedule.hpp"
#include "util/error.hpp"

namespace identxx::sim {

/// Simulated time in nanoseconds since simulation start.
using SimTime = std::int64_t;

constexpr SimTime kMicrosecond = 1'000;
constexpr SimTime kMillisecond = 1'000'000;
constexpr SimTime kSecond = 1'000'000'000;

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = ~NodeId{0};

/// Event lane.  Lane 0 is the global lane (all node/packet events); lanes
/// 1..N are shard lanes created by configure_shard_lanes().
using LaneId = std::uint32_t;
constexpr LaneId kGlobalLane = 0;

/// Port number on a node.  Port numbering is per-node, starting at 1 to
/// match OpenFlow conventions (0 is reserved).
using PortId = std::uint16_t;

class Simulator;

/// Anything attached to the simulated network: host, switch, controller.
class Node {
 public:
  virtual ~Node() = default;

  /// Called by the simulator when a packet arrives on `in_port`.
  virtual void on_packet(const net::Packet& packet, PortId in_port) = 0;

  /// Human-readable name for traces.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Set by the simulator at registration.
  void attach(Simulator* simulator, NodeId id) noexcept {
    simulator_ = simulator;
    id_ = id;
  }
  [[nodiscard]] NodeId id() const noexcept { return id_; }

 protected:
  [[nodiscard]] Simulator* simulator() const noexcept { return simulator_; }

 private:
  Simulator* simulator_ = nullptr;
  NodeId id_ = kInvalidNode;
};

/// Default link capacity: 10 Gbit/s, fast enough that serialization delay
/// is negligible for the paper's control-plane experiments.
constexpr std::uint64_t kDefaultBandwidthBps = 10'000'000'000ULL;

/// One direction of a link: sending out of (node, port) reaches `peer` on
/// `peer_port` after `latency` plus serialization delay.
struct LinkEnd {
  NodeId peer = kInvalidNode;
  PortId peer_port = 0;
  SimTime latency = 10 * kMicrosecond;
  /// Bits per simulated second; 0 disables serialization delay.
  std::uint64_t bandwidth_bps = kDefaultBandwidthBps;
};

/// Serialization time of `packet` on a `bandwidth_bps` link (0 = free):
/// modelled wire size (Ethernet + IPv4 headers, payload, transport
/// approximation) over capacity.  The switch queue model and the
/// simulator's own delivery path share this so occupancy and delivery
/// times stay consistent.
[[nodiscard]] SimTime serialization_delay(const net::Packet& packet,
                                          std::uint64_t bandwidth_bps) noexcept;

/// Counters the trace/benchmark layer reads after a run.
struct SimStats {
  std::uint64_t events_executed = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped_no_link = 0;
};

/// The simulator owns all nodes and the event queue.
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Register a node; the simulator takes ownership.  Returns its id.
  NodeId add_node(std::unique_ptr<Node> node);

  /// Connect two (node, port) pairs bidirectionally.
  /// Throws SimError if either port is already wired.
  void connect(NodeId a, PortId a_port, NodeId b, PortId b_port,
               SimTime latency = 10 * kMicrosecond,
               std::uint64_t bandwidth_bps = kDefaultBandwidthBps);

  /// Send `packet` out of (from, port).  Delivery is scheduled after the
  /// link latency + serialization delay; silently counted as dropped when
  /// the port is unwired (mirrors pulling a cable).
  void send(NodeId from, PortId port, net::Packet packet);

  /// Schedule an arbitrary callback at absolute time `when` (>= now).
  /// The event lands on the lane of the currently-executing event (the
  /// global lane outside event execution), so follow-up work stays in its
  /// shard by default.
  void schedule_at(SimTime when, std::function<void()> callback);

  /// Schedule a callback `delay` after now (same lane inheritance).
  void schedule_after(SimTime delay, std::function<void()> callback);

  /// Schedule onto an explicit lane — the cross-lane message primitive:
  /// shard work dispatches with schedule_on(shard_lane, ...) and commits
  /// its shared-state effects back with schedule_on(kGlobalLane, ...).
  void schedule_on(LaneId lane, SimTime when, std::function<void()> callback);

  // ---- sharded execution ----------------------------------------------------

  /// Create `shard_lanes` additional lanes (ids 1..shard_lanes).  The
  /// lane count only grows; existing events keep their lanes.  Safe to
  /// call between runs.
  void configure_shard_lanes(std::uint32_t shard_lanes);
  [[nodiscard]] std::uint32_t lane_count() const noexcept {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  // ---- schedule exploration (DESIGN.md §13) ---------------------------------

  /// Attach a ScheduleController: every shard-lane phase then runs
  /// serially in the per-wave order the controller dictates, with newly
  /// scheduled events staged and merged canonically (ascending lane
  /// order) at the wave barrier.  An identity controller reproduces the
  /// canonical run bit-for-bit.  Pass nullptr to detach.  Not owned.
  void set_schedule_controller(ScheduleController* controller) noexcept {
    schedule_controller_ = controller;
  }
  [[nodiscard]] ScheduleController* schedule_controller() const noexcept {
    return schedule_controller_;
  }

  /// Injected determinism mutation (checker self-test, DESIGN.md §13):
  /// merge staged cross-lane events in modeled *arrival* (execution)
  /// order instead of canonical ascending lane order.  Only observable
  /// under a ScheduleController that permutes lane order.
  void set_fault_merge_arrival_order(bool on) noexcept {
    fault_merge_arrival_order_ = on;
  }

  /// Run until the event queue drains or `deadline` is reached.
  /// Returns the number of events executed.
  std::uint64_t run(SimTime deadline = -1);

  /// Execute at most `max_events` pending events.
  std::uint64_t run_events(std::uint64_t max_events);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool idle() const noexcept;
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }

  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// The link wired to (node, port), if any.
  [[nodiscard]] const LinkEnd* link_at(NodeId node, PortId port) const noexcept;

  /// Observe every packet delivery (debugging / trace capture).  Called at
  /// delivery time, before the receiving node's on_packet.
  using DeliveryTracer =
      std::function<void(SimTime when, NodeId from, PortId from_port,
                         NodeId to, PortId to_port, const net::Packet&)>;
  void set_delivery_tracer(DeliveryTracer tracer) {
    tracer_ = std::move(tracer);
  }

  /// An event scheduled from a shard lane under a ScheduleController,
  /// buffered until the wave barrier merges it canonically.  `origin` is
  /// the shard lane the event is attributed to for schedule-exploration
  /// footprints (kGlobalLane for work with no shard ancestry).
  struct StagedEvent {
    LaneId lane;
    SimTime when;
    LaneId origin;
    std::function<void()> action;
  };

 private:
  struct Event {
    SimTime when;
    std::uint64_t sequence;  // FIFO tiebreaker
    LaneId origin;           // shard attribution for schedule exploration
    std::function<void()> action;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };
  struct Lane {
    std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  };

  /// Earliest pending timestamp across lanes, or -1 when idle.
  [[nodiscard]] SimTime next_event_time() const noexcept;
  /// Execute every event at exactly `t` (one virtual-clock epoch).
  std::uint64_t run_wave(SimTime t);
  void push_event(LaneId lane, SimTime when, LaneId origin,
                  std::function<void()> action);

  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<std::uint64_t, LinkEnd> links_;  // key: node<<16 | port
  std::vector<Lane> lanes_;
  SimTime now_ = 0;
  std::uint64_t next_sequence_ = 0;
  ScheduleController* schedule_controller_ = nullptr;
  bool fault_merge_arrival_order_ = false;
  SimStats stats_;
  DeliveryTracer tracer_;

  [[nodiscard]] static std::uint64_t port_key(NodeId node, PortId port) noexcept {
    return (static_cast<std::uint64_t>(node) << 16) | port;
  }
};

}  // namespace identxx::sim
