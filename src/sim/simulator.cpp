#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"

namespace identxx::sim {

namespace {

/// Which simulator/lane the current event executes for, and (for shard
/// lanes under a ScheduleController) where its newly scheduled events are
/// staged.  `origin` is the shard lane the current event is attributed to
/// for schedule-exploration footprints: the executing lane for shard
/// work, or — for global-lane events such as staged decision commits —
/// the shard lane whose execution scheduled them, propagated transitively
/// through schedule_on.
struct ExecContext {
  Simulator* sim = nullptr;
  LaneId lane = kGlobalLane;
  std::vector<Simulator::StagedEvent>* staging = nullptr;
  LaneId origin = kGlobalLane;
};
thread_local ExecContext t_exec;

class ExecScope {
 public:
  ExecScope(Simulator* sim, LaneId lane,
            std::vector<Simulator::StagedEvent>* staging,
            LaneId origin) noexcept
      : saved_(t_exec) {
    t_exec = ExecContext{sim, lane, staging, origin};
  }
  ~ExecScope() noexcept { t_exec = saved_; }
  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  ExecContext saved_;
};

}  // namespace

void note_access(const LaneAccess& access) noexcept {
  if (t_exec.sim == nullptr) return;
  ScheduleController* controller = t_exec.sim->schedule_controller();
  if (controller == nullptr) return;
  controller->on_access(t_exec.origin, access);
}

Simulator::Simulator() : lanes_(1) {}
Simulator::~Simulator() = default;

NodeId Simulator::add_node(std::unique_ptr<Node> node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  node->attach(this, id);
  nodes_.push_back(std::move(node));
  return id;
}

void Simulator::configure_shard_lanes(std::uint32_t shard_lanes) {
  while (lanes_.size() < static_cast<std::size_t>(shard_lanes) + 1) {
    lanes_.emplace_back();
  }
}

void Simulator::connect(NodeId a, PortId a_port, NodeId b, PortId b_port,
                        SimTime latency, std::uint64_t bandwidth_bps) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw SimError("connect: unknown node id");
  }
  if (a_port == 0 || b_port == 0) {
    throw SimError("connect: port 0 is reserved");
  }
  if (latency < 0) {
    throw SimError("connect: negative latency");
  }
  const auto key_a = port_key(a, a_port);
  const auto key_b = port_key(b, b_port);
  if (links_.contains(key_a) || links_.contains(key_b)) {
    throw SimError("connect: port already wired");
  }
  links_[key_a] = LinkEnd{b, b_port, latency, bandwidth_bps};
  links_[key_b] = LinkEnd{a, a_port, latency, bandwidth_bps};
}

SimTime serialization_delay(const net::Packet& packet,
                            std::uint64_t bandwidth_bps) noexcept {
  if (bandwidth_bps == 0) return 0;
  const std::uint64_t wire_bits =
      (net::EthernetHeader::kSize + net::Ipv4Header::kSize +
       packet.payload.size() + 20 /* transport approx */) * 8;
  return static_cast<SimTime>(wire_bits * static_cast<std::uint64_t>(kSecond) /
                              bandwidth_bps);
}

void Simulator::send(NodeId from, PortId port, net::Packet packet) {
  const auto it = links_.find(port_key(from, port));
  if (it == links_.end()) {
    ++stats_.packets_dropped_no_link;
    IDXX_LOG(kDebug, "sim") << nodes_[from]->name() << " port " << port
                            << ": send on unwired port dropped";
    return;
  }
  const LinkEnd link = it->second;
  const SimTime delay =
      link.latency + serialization_delay(packet, link.bandwidth_bps);
  schedule_after(delay, [this, from, port, link,
                         packet = std::move(packet)]() mutable {
    ++stats_.packets_delivered;
    if (tracer_) {
      tracer_(now_, from, port, link.peer, link.peer_port, packet);
    }
    nodes_[link.peer]->on_packet(packet, link.peer_port);
  });
}

void Simulator::push_event(LaneId lane, SimTime when, LaneId origin,
                           std::function<void()> action) {
  lanes_[lane].queue.push(
      Event{when, next_sequence_++, origin, std::move(action)});
}

void Simulator::schedule_on(LaneId lane, SimTime when,
                            std::function<void()> callback) {
  if (lane >= lanes_.size()) {
    throw SimError("schedule_on: unknown lane");
  }
  if (when < now_) {
    throw SimError("schedule_at: time in the past");
  }
  // Shard attribution: work scheduled from an event with shard ancestry
  // keeps that ancestry (so a staged commit's effects count against its
  // origin lane); fresh work is attributed to its target lane.
  LaneId origin = t_exec.sim == this ? t_exec.origin : kGlobalLane;
  if (origin == kGlobalLane) origin = lane;
  if (t_exec.sim == this && t_exec.staging != nullptr) {
    // Explored shard phase: stage; the wave barrier merges in lane order.
    t_exec.staging->push_back(
        StagedEvent{lane, when, origin, std::move(callback)});
    return;
  }
  push_event(lane, when, origin, std::move(callback));
}

void Simulator::schedule_at(SimTime when, std::function<void()> callback) {
  const LaneId lane = t_exec.sim == this ? t_exec.lane : kGlobalLane;
  schedule_on(lane, when, std::move(callback));
}

void Simulator::schedule_after(SimTime delay, std::function<void()> callback) {
  schedule_at(now_ + delay, std::move(callback));
}

bool Simulator::idle() const noexcept {
  for (const Lane& lane : lanes_) {
    if (!lane.queue.empty()) return false;
  }
  return true;
}

SimTime Simulator::next_event_time() const noexcept {
  SimTime t = -1;
  for (const Lane& lane : lanes_) {
    if (lane.queue.empty()) continue;
    if (t < 0 || lane.queue.top().when < t) t = lane.queue.top().when;
  }
  return t;
}

std::uint64_t Simulator::run_wave(SimTime t) {
  // Pop the wave: every event at exactly `t`, per lane in FIFO seq order.
  std::vector<std::vector<Event>> batches(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    auto& queue = lanes_[i].queue;
    while (!queue.empty() && queue.top().when == t) {
      batches[i].push_back(std::move(const_cast<Event&>(queue.top())));
      queue.pop();
    }
  }

  std::uint64_t executed = 0;

  // Global-lane phase: serial; schedules go straight into the queues,
  // which reproduces the historical single-queue order exactly.  Under a
  // schedule controller each event runs with its own shard attribution so
  // staged commits report accesses against their origin lane.
  if (schedule_controller_ != nullptr) {
    for (Event& event : batches[kGlobalLane]) {
      ExecScope scope(this, kGlobalLane, nullptr, event.origin);
      event.action();
      ++executed;
    }
  } else {
    ExecScope scope(this, kGlobalLane, nullptr, kGlobalLane);
    for (Event& event : batches[kGlobalLane]) {
      event.action();
      ++executed;
    }
  }

  // Shard-lane phase: serially, in ascending lane order.  Events the
  // lanes schedule go straight into the queues.
  std::vector<LaneId> active;
  for (LaneId lane = 1; lane < batches.size(); ++lane) {
    if (!batches[lane].empty()) active.push_back(lane);
  }
  if (!active.empty()) {
    if (schedule_controller_ != nullptr) {
      // Schedule-exploration path (DESIGN.md §13): run the shard batches
      // in the order the controller dictates — the modeled arrival order
      // — while keeping the cross-lane merge canonical: new events are
      // staged per lane and pushed at the barrier in ascending lane
      // order, the order the serial pass pushes them in.  With an
      // identity controller this is bit-identical to canonical execution.
      std::vector<LaneId> order = active;
      schedule_controller_->plan_wave(t, order);
      std::vector<std::vector<StagedEvent>> staged(order.size());
      for (std::size_t k = 0; k < order.size(); ++k) {
        const LaneId lane = order[k];
        ExecScope scope(this, lane, &staged[k], lane);
        for (Event& event : batches[lane]) {
          event.action();
          ++executed;
        }
      }
      if (fault_merge_arrival_order_) {
        // Injected mutation: commit staged events in modeled arrival
        // order.  Divergences under permuted schedules are the checker's
        // self-test signal.
        for (auto& lane_staged : staged) {
          for (StagedEvent& event : lane_staged) {
            push_event(event.lane, event.when, event.origin,
                       std::move(event.action));
          }
        }
      } else {
        for (const LaneId lane : active) {
          const std::size_t k = static_cast<std::size_t>(
              std::find(order.begin(), order.end(), lane) - order.begin());
          for (StagedEvent& event : staged[k]) {
            push_event(event.lane, event.when, event.origin,
                       std::move(event.action));
          }
        }
      }
    } else {
      for (const LaneId lane : active) {
        ExecScope scope(this, lane, nullptr, lane);
        for (Event& event : batches[lane]) {
          event.action();
          ++executed;
        }
      }
    }
  }

  stats_.events_executed += executed;
  return executed;
}

std::uint64_t Simulator::run(SimTime deadline) {
  std::uint64_t executed = 0;
  // Single-lane fast path (every unsharded run): the historical
  // pop-execute loop, no per-wave batch allocation.  Semantically
  // identical to the wave loop restricted to one lane.  The lane count is
  // re-checked each iteration (an event may configure shard lanes, which
  // can also reallocate lanes_); any remainder falls through to the wave
  // loop below.
  while (lanes_.size() == 1 && !lanes_[kGlobalLane].queue.empty()) {
    auto& queue = lanes_[kGlobalLane].queue;
    if (deadline >= 0 && queue.top().when > deadline) break;
    Event event = std::move(const_cast<Event&>(queue.top()));
    queue.pop();
    now_ = event.when;
    {
      ExecScope scope(this, kGlobalLane, nullptr, event.origin);
      event.action();
    }
    ++executed;
    ++stats_.events_executed;
  }
  for (;;) {
    const SimTime t = next_event_time();
    if (t < 0) break;
    if (deadline >= 0 && t > deadline) break;
    now_ = t;
    executed += run_wave(t);
  }
  if (deadline >= 0 && now_ < deadline && idle()) {
    now_ = deadline;
  }
  return executed;
}

std::uint64_t Simulator::run_events(std::uint64_t max_events) {
  // Bounded single-step execution (tests/debugging): events run one at a
  // time in the canonical (when, sequence) order across all lanes.
  std::uint64_t executed = 0;
  while (executed < max_events) {
    std::size_t best = lanes_.size();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].queue.empty()) continue;
      if (best == lanes_.size() ||
          EventLater{}(lanes_[best].queue.top(), lanes_[i].queue.top())) {
        best = i;
      }
    }
    if (best == lanes_.size()) break;
    Event event = std::move(const_cast<Event&>(lanes_[best].queue.top()));
    lanes_[best].queue.pop();
    now_ = event.when;
    {
      ExecScope scope(this, static_cast<LaneId>(best), nullptr, event.origin);
      event.action();
    }
    ++executed;
    ++stats_.events_executed;
  }
  return executed;
}

Node& Simulator::node(NodeId id) {
  if (id >= nodes_.size()) throw SimError("node: unknown id");
  return *nodes_[id];
}

const Node& Simulator::node(NodeId id) const {
  if (id >= nodes_.size()) throw SimError("node: unknown id");
  return *nodes_[id];
}

const LinkEnd* Simulator::link_at(NodeId node, PortId port) const noexcept {
  const auto it = links_.find(port_key(node, port));
  return it == links_.end() ? nullptr : &it->second;
}

}  // namespace identxx::sim
