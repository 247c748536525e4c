#include "openflow/switch.hpp"

#include <algorithm>

#include "sim/schedule.hpp"
#include "util/logging.hpp"

namespace identxx::openflow {

namespace {

/// Schedule-exploration footprint (DESIGN.md §13): state of one switch.
void note_switch_access(sim::NodeId switch_id, bool write) noexcept {
  sim::note_access({sim::LaneAccess::Kind::kSwitch, switch_id, write});
}

}  // namespace

Switch::Switch(std::string name, std::size_t table_capacity)
    : name_(std::move(name)), table_(table_capacity) {
  table_.set_removal_listener(
      [this](const FlowEntry& entry, RemovalReason reason) {
        if (controller_ == nullptr || simulator() == nullptr) return;
        // Notify asynchronously over the (possibly faulted) control channel.
        deliver_control([this, msg = FlowRemovedMsg{id(), entry, reason}]() {
          controller_->on_flow_removed(msg);
        });
      });
}

void Switch::set_controller(ControlPlane* controller,
                            sim::SimTime control_latency) {
  controller_ = controller;
  control_latency_ = control_latency;
}

void Switch::register_port(sim::PortId port) {
  if (std::find(ports_.begin(), ports_.end(), port) == ports_.end()) {
    ports_.push_back(port);
    std::sort(ports_.begin(), ports_.end());
  }
}

void Switch::install_flow(FlowEntry entry) {
  note_switch_access(id(), /*write=*/true);
  table_.insert(std::move(entry), simulator() ? simulator()->now() : 0);
}

std::size_t Switch::remove_flows_by_cookie(std::uint64_t cookie) {
  note_switch_access(id(), /*write=*/true);
  return table_.remove_if(
      [cookie](const FlowEntry& e) { return e.cookie == cookie; });
}

void Switch::packet_out(const net::Packet& packet, const Action& action,
                        sim::PortId in_port) {
  note_switch_access(id(), /*write=*/true);
  apply_action(action, packet, in_port);
}

void Switch::on_packet(const net::Packet& packet, sim::PortId in_port) {
  note_switch_access(id(), /*write=*/true);
  ++stats_.packets_received;
  if (compromised_) {
    // §5.2: a compromised switch passes all traffic without regulation.
    apply_action(FloodAction{}, packet, in_port);
    return;
  }
  const net::TenTuple tuple = packet.ten_tuple(in_port);
  const std::size_t wire_bytes = packet.payload.size() +
                                 net::EthernetHeader::kSize +
                                 net::Ipv4Header::kSize;
  const FlowEntry* entry =
      table_.lookup(tuple, simulator()->now(), wire_bytes);
  if (entry != nullptr) {
    apply_action(entry->action, packet, in_port);
    return;
  }
  // Table miss (Figure 1 step 2).
  switch (miss_behaviour_) {
    case MissBehaviour::kToController:
      punt_to_controller(packet, in_port);
      break;
    case MissBehaviour::kDrop:
      ++stats_.packets_dropped;
      break;
  }
}

void Switch::apply_action(const Action& action, const net::Packet& packet,
                          sim::PortId in_port) {
  struct Visitor {
    Switch& self;
    const net::Packet& packet;
    sim::PortId in_port;

    void operator()(const OutputAction& a) {
      for (const auto port : a.ports) {
        ++self.stats_.packets_forwarded;
        self.transmit(port, packet);
      }
    }
    void operator()(const FloodAction&) {
      ++self.stats_.packets_flooded;
      for (const auto port : self.ports_) {
        if (port == in_port) continue;
        self.transmit(port, packet);
      }
    }
    void operator()(const DropAction&) { ++self.stats_.packets_dropped; }
    void operator()(const ToControllerAction&) {
      self.punt_to_controller(packet, in_port);
    }
  };
  std::visit(Visitor{*this, packet, in_port}, action);
}

void Switch::transmit(sim::PortId port, const net::Packet& packet) {
  if (queue_depth_ == 0) {
    simulator()->send(id(), port, packet);
    return;
  }
  const sim::LinkEnd* link = simulator()->link_at(id(), port);
  if (link == nullptr || link->bandwidth_bps == 0) {
    // Unwired (send() counts the drop) or serialization-free: no queue.
    simulator()->send(id(), port, packet);
    return;
  }
  PortQueue& q = queues_[port];
  const sim::SimTime now = simulator()->now();
  if (q.next_free <= now) {
    // Wire idle: start immediately, never occupies a queue slot.
    q.next_free = now + sim::serialization_delay(packet, link->bandwidth_bps);
    simulator()->send(id(), port, packet);
    return;
  }
  if (q.stats.occupancy >= queue_depth_) {
    ++q.stats.tail_drops;
    ++stats_.queue_tail_drops;
    return;
  }
  // A slot is held from now until the packet's serialization starts; the
  // deferred send() then pays serialization + latency itself, so delivery
  // lands at start + serialization + latency with no double counting.
  const sim::SimTime start = q.next_free;
  q.next_free = start + sim::serialization_delay(packet, link->bandwidth_bps);
  ++q.stats.occupancy;
  ++q.stats.enqueued;
  q.stats.peak_occupancy = std::max(q.stats.peak_occupancy, q.stats.occupancy);
  simulator()->schedule_at(start, [this, port, packet]() {
    --queues_[port].stats.occupancy;
    simulator()->send(id(), port, packet);
  });
}

const PortQueueStats* Switch::port_queue(sim::PortId port) const {
  const auto it = queues_.find(port);
  return it == queues_.end() ? nullptr : &it->second.stats;
}

void Switch::punt_to_controller(const net::Packet& packet, sim::PortId in_port) {
  if (controller_ == nullptr) {
    ++stats_.packets_dropped;
    IDXX_LOG(kDebug, "switch") << name_ << ": miss with no controller, drop";
    return;
  }
  ++stats_.packets_to_controller;
  // The one copy of the packet: the event owns it from here.
  deliver_control([this, msg = PacketIn{id(), packet, in_port}]() {
    controller_->on_packet_in(msg);
  });
}

void Switch::deliver_control(std::function<void()> deliver) {
  sim::SimTime latency = control_latency_;
  if (fault_.has_value()) {
    // Both Bernoullis are always drawn so the stream position depends only
    // on the message count, keeping faulted runs shard-count invariant.
    const sim::FaultChannel::Draw draw = fault_->draw();
    if (draw.dropped) {
      ++fault_->stats().dropped;
      return;
    }
    if (draw.delay > 0) {
      latency += draw.delay;
      ++fault_->stats().delayed;
    }
    if (draw.duplicated) {
      ++fault_->stats().duplicated;
      simulator()->schedule_after(latency, deliver);
    }
  }
  simulator()->schedule_after(latency, std::move(deliver));
}

}  // namespace identxx::openflow
