#include "host/host.hpp"

#include "crypto/sha256.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace identxx::host {

namespace {

/// Hosts have a single NIC wired as port 1.
constexpr sim::PortId kNic = 1;

/// The ephemeral source-port range connect_flow hands out, in order.
constexpr std::uint16_t kFirstEphemeralPort = 40000;
constexpr std::uint16_t kLastEphemeralPort = 65535;
constexpr std::size_t kEphemeralPorts =
    kLastEphemeralPort - kFirstEphemeralPort + 1;

/// Destination MAC used when the sender has not resolved the peer (the
/// controller installs flow entries keyed on whatever MACs the flow's
/// packets carry, so forwarding does not depend on MAC correctness).
const net::MacAddress kBroadcastMac{0xffffffffffffULL};

}  // namespace

Host::Host(std::string name, net::Ipv4Address ip, net::MacAddress mac)
    : name_(std::move(name)), ip_(ip), mac_(mac), daemon_(this) {}

void Host::add_user(std::string user, std::string group) {
  users_[user] = User{user, std::move(group)};
}

int Host::launch(const std::string& user, const std::string& exe_path,
                 std::string_view image_seed) {
  const auto it = users_.find(user);
  if (it == users_.end()) {
    throw Error("launch: unknown user '" + user + "' on " + name_);
  }
  const int pid = next_pid_++;
  processes_[pid] = Process{pid, it->second.name, it->second.group, exe_path,
                            image_hash(exe_path, image_seed)};
  return pid;
}

void Host::kill(int pid) {
  processes_.erase(pid);
  std::erase_if(connected_, [pid](const auto& entry) {
    return entry.second == pid;
  });
  std::erase_if(listening_,
                [pid](const ListeningSocket& s) { return s.pid == pid; });
}

const Process* Host::process(int pid) const noexcept {
  const auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : &it->second;
}

net::FiveTuple Host::connect_flow(int pid, net::Ipv4Address dst_ip,
                                  std::uint16_t dst_port, net::IpProto proto) {
  if (!processes_.contains(pid)) {
    throw Error("connect_flow: unknown pid on " + name_);
  }
  // Once the port counter has wrapped, a port may still be open to this
  // destination: take the next one whose 5-tuple is free.
  net::FiveTuple flow{ip_, dst_ip, proto, next_ephemeral_port_, dst_port};
  for (std::size_t tries = 1; connected_.contains(flow); ++tries) {
    if (tries == kEphemeralPorts) {
      throw Error("connect_flow: every ephemeral port to " +
                  dst_ip.to_string() + ":" + std::to_string(dst_port) +
                  " is in use on " + name_);
    }
    flow.src_port = flow.src_port == kLastEphemeralPort ? kFirstEphemeralPort
                                                        : flow.src_port + 1;
  }
  next_ephemeral_port_ = flow.src_port == kLastEphemeralPort
                             ? kFirstEphemeralPort
                             : flow.src_port + 1;
  connected_.emplace(flow, pid);
  return flow;
}

void Host::listen(int pid, std::uint16_t port, net::IpProto proto) {
  if (!processes_.contains(pid)) {
    throw Error("listen: unknown pid on " + name_);
  }
  listening_.push_back(ListeningSocket{pid, port, proto});
}

void Host::close_flow(const net::FiveTuple& flow) {
  connected_.erase(flow);
  flow_pairs_.erase(flow);
  send_seqs_.erase(flow);
}

void Host::register_flow_pairs(const net::FiveTuple& flow,
                               proto::KeyValueList pairs) {
  auto& existing = flow_pairs_[flow];
  for (auto& pair : pairs) existing.push_back(std::move(pair));
}

std::optional<proto::FlowOwner> Host::resolve(const net::FiveTuple& flow,
                                              bool as_destination) const {
  // A connected socket (for a destination: the accepted reverse flow);
  // failing that, a destination's last listening socket on the port.
  std::optional<int> pid;
  if (const auto it = connected_.find(as_destination ? flow.reversed() : flow);
      it != connected_.end()) {
    pid = it->second;
  } else if (as_destination) {
    for (const ListeningSocket& socket : listening_) {
      if (socket.port == flow.dst_port && socket.proto == flow.proto) {
        pid = socket.pid;
      }
    }
  }
  if (!pid) return std::nullopt;
  const auto proc_it = processes_.find(*pid);
  if (proc_it == processes_.end()) return std::nullopt;
  const Process& proc = proc_it->second;

  proto::FlowOwner owner;
  owner.user_id = proc.user;
  owner.group_id = proc.group;
  owner.pid = proc.pid;
  owner.exe_path = proc.exe_path;
  owner.exe_hash = proc.exe_hash;
  if (const auto pairs_it = flow_pairs_.find(flow);
      pairs_it != flow_pairs_.end()) {
    owner.dynamic_pairs = pairs_it->second;
  }
  return owner;
}

void Host::on_packet(const net::Packet& packet, sim::PortId in_port) {
  (void)in_port;
  ++stats_.packets_received;
  if (packet.ip.dst != ip_) {
    // Flooded copy for someone else.
    ++stats_.packets_dropped_wrong_ip;
    return;
  }
  if (packet.tcp && packet.tcp->dst_port == proto::kIdentPort) {
    handle_ident_query(packet);
    return;
  }
  if (ingress_filter_ && !ingress_filter_(packet)) {
    ++stats_.packets_filtered_ingress;
    return;
  }
  ++stats_.flow_payloads_received;
  last_delivery_time_ = simulator()->now();
  delivered_.push_back(packet);
  const net::FiveTuple delivered_flow = packet.five_tuple();
  ++delivered_counts_[delivered_flow];

  // Reorder detection: send_flow_packet stamps a per-flow 1-based sequence
  // (TCP seq / IP identification); a stamped packet arriving below the
  // flow's high-water mark was overtaken in the network.
  const std::uint32_t seq =
      packet.tcp ? packet.tcp->seq : packet.ip.identification;
  if (seq != 0) {
    std::uint32_t& high = max_seq_seen_[delivered_flow];
    if (seq < high) {
      ++reordered_counts_[delivered_flow];
      ++stats_.packets_reordered;
    } else {
      high = seq;
    }
  }

  // TCP accept emulation: answer a SYN to a listening socket with SYN-ACK
  // and record the connected socket (so the daemon resolves the flow on
  // later queries about either direction).
  if (auto_accept_ && packet.tcp && (packet.tcp->flags & net::TcpFlags::kSyn) &&
      !(packet.tcp->flags & net::TcpFlags::kAck)) {
    const net::FiveTuple flow = packet.five_tuple();
    for (const ListeningSocket& socket : listening_) {
      if (socket.proto == flow.proto && socket.port == flow.dst_port) {
        connected_.emplace(flow.reversed(), socket.pid);
        send_flow_packet(flow.reversed(), "",
                         net::TcpFlags::kSyn | net::TcpFlags::kAck);
        break;
      }
    }
  }
}

void Host::handle_ident_query(const net::Packet& packet) {
  ++stats_.ident_queries_received;
  if (!daemon_enabled_) {
    // No daemon: the query goes unanswered (the controller times out).
    ++stats_.ident_queries_ignored;
    return;
  }
  // RFC-1413 compatibility: classic "port , port" queries get classic
  // one-line answers (§6 lineage; legacy auditing clients keep working).
  if (!response_forger_) {
    if (const auto classic = daemon_.answer_classic(packet.payload_text(),
                                                    packet.ip.src, ip_)) {
      net::Packet reply = net::make_tcp_packet(
          mac_, packet.eth.src, ip_, packet.ip.src, proto::kIdentPort,
          packet.tcp->src_port, *classic + "\r\n",
          net::TcpFlags::kPsh | net::TcpFlags::kAck);
      ++stats_.packets_sent;
      simulator()->send(id(), kNic, std::move(reply));
      return;
    }
  }
  proto::Query query;
  try {
    query = proto::Query::parse(packet.payload_text());
  } catch (const ParseError& e) {
    IDXX_LOG(kWarn, "host") << name_ << ": malformed ident++ query: "
                            << e.what();
    return;
  }
  const net::Ipv4Address peer_ip = packet.ip.src;
  const proto::Response response =
      response_forger_ ? response_forger_(query, peer_ip)
                       : daemon_.answer(query, peer_ip, ip_);

  // Reply to wherever the query claimed to come from; ident++-enabled
  // firewalls on the path intercept it (§2).
  net::Packet reply = net::make_tcp_packet(
      mac_, packet.eth.src, ip_, peer_ip, proto::kIdentPort,
      packet.tcp->src_port, response.serialize(),
      net::TcpFlags::kPsh | net::TcpFlags::kAck);
  ++stats_.packets_sent;
  simulator()->send(id(), kNic, std::move(reply));
}

void Host::send_flow_packet(const net::FiveTuple& flow, std::string_view payload,
                            std::uint8_t tcp_flags) {
  net::Packet packet;
  // 1-based per-flow sequence stamp so the receiver can count out-of-order
  // deliveries (TCP carries it in seq, UDP in the IP identification field
  // — 16-bit there, which wraps long before any scenario does).
  const std::uint32_t seq = ++send_seqs_[flow];
  if (flow.proto == net::IpProto::kUdp) {
    packet = net::make_udp_packet(mac_, kBroadcastMac, flow.src_ip, flow.dst_ip,
                                  flow.src_port, flow.dst_port, payload);
    packet.ip.identification = static_cast<std::uint16_t>(seq);
  } else {
    packet = net::make_tcp_packet(mac_, kBroadcastMac, flow.src_ip, flow.dst_ip,
                                  flow.src_port, flow.dst_port, payload,
                                  tcp_flags);
    packet.tcp->seq = seq;
  }
  ++stats_.packets_sent;
  simulator()->send(id(), kNic, std::move(packet));
}

std::string Host::image_hash(std::string_view exe_path,
                             std::string_view image_seed) {
  crypto::Sha256 h;
  h.update("exe-image:");
  h.update(exe_path);
  h.update("#");
  h.update(image_seed);
  return crypto::to_hex(h.finish());
}

}  // namespace identxx::host
