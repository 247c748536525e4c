#pragma once

// End-host model.
//
// A Host is a simulator node with an IP/MAC, a user table, a process table
// and a socket table.  The socket table implements proto::FlowResolver —
// the deterministic stand-in for the `lsof`-style kernel introspection the
// paper's daemon performs (§3.5, and DESIGN.md's substitution table).
//
// Each host runs an ident++ Daemon answering queries on TCP port 783, and
// exposes the run-time API applications use to attach per-flow key-value
// pairs (standing in for the Unix domain socket).
//
// Security hooks for the §5 experiments: a host can be marked compromised
// (its daemon then emits attacker-chosen responses), the daemon can be
// disabled entirely (incremental-deployment scenario), and processes can be
// launched with a tampered executable image (hash changes, signatures stop
// verifying).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "identxx/daemon.hpp"
#include "identxx/wire.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace identxx::host {

struct User {
  std::string name;
  std::string group;
};

/// A running process.
struct Process {
  int pid = 0;
  std::string user;
  std::string group;
  std::string exe_path;
  std::string exe_hash;  ///< SHA-256 of the (simulated) executable image
};

/// A listening socket: `pid` accepts `proto` connections on `port`.
struct ListeningSocket {
  int pid = 0;
  std::uint16_t port = 0;
  net::IpProto proto = net::IpProto::kTcp;
};

struct HostStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_dropped_wrong_ip = 0;
  std::uint64_t flow_payloads_received = 0;
  std::uint64_t ident_queries_received = 0;
  std::uint64_t ident_queries_ignored = 0;  ///< daemon down (DESIGN.md §14)
  std::uint64_t packets_filtered_ingress = 0;
  /// Stamped payload packets that arrived behind a later-sent packet of
  /// their flow (multipath re-pinning, path changes mid-flow).
  std::uint64_t packets_reordered = 0;
};

class Host : public sim::Node, public proto::FlowResolver {
 public:
  Host(std::string name, net::Ipv4Address ip, net::MacAddress mac);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] net::Ipv4Address ip() const noexcept { return ip_; }
  [[nodiscard]] net::MacAddress mac() const noexcept { return mac_; }

  // ---- users & processes -------------------------------------------------

  void add_user(std::string user, std::string group);

  /// Launch `exe_path` as `user`.  The executable image content is derived
  /// from `exe_path` and `image_seed`; a different seed models a modified
  /// (e.g. trojaned) binary whose hash no longer matches any signature.
  /// Returns the new pid.  Throws Error for unknown users.
  int launch(const std::string& user, const std::string& exe_path,
             std::string_view image_seed = "");

  void kill(int pid);

  [[nodiscard]] const Process* process(int pid) const noexcept;

  // ---- sockets (the lsof substitute) --------------------------------------

  /// Open an outbound flow from `pid`: allocates an ephemeral source port
  /// (40000..65535, in order, wrapping, skipping any whose 5-tuple is
  /// still open) and records the socket.  Throws Error when every port to
  /// the destination is in use.  Returns the flow 5-tuple.
  net::FiveTuple connect_flow(int pid, net::Ipv4Address dst_ip,
                              std::uint16_t dst_port,
                              net::IpProto proto = net::IpProto::kTcp);

  /// Record a listening socket for `pid` on `port`.
  void listen(int pid, std::uint16_t port,
              net::IpProto proto = net::IpProto::kTcp);

  /// When enabled, a TCP SYN delivered to a listening socket is accepted
  /// automatically: a connected socket is recorded for the reverse flow
  /// and a SYN-ACK is emitted.  With a `keep state` policy the SYN-ACK
  /// rides the reverse-path entries; under a stateless policy it faces the
  /// controller as a fresh flow — exactly PF's semantics.
  void set_auto_accept(bool enabled) noexcept { auto_accept_ = enabled; }

  /// Forget `flow`: its socket, registered pairs and send-sequence stamp.
  void close_flow(const net::FiveTuple& flow);

  // ---- application -> daemon run-time API (§3.5) ---------------------------

  /// Attach dynamic key-value pairs to one flow (the web-browser
  /// user-click example).  Delivered in the response's last section.
  void register_flow_pairs(const net::FiveTuple& flow,
                           proto::KeyValueList pairs);

  // ---- daemon ---------------------------------------------------------------

  [[nodiscard]] proto::Daemon& daemon() noexcept { return daemon_; }
  [[nodiscard]] const proto::Daemon& daemon() const noexcept { return daemon_; }

  /// Disable/enable the ident++ daemon (incremental deployment, §4).
  void set_daemon_enabled(bool enabled) noexcept { daemon_enabled_ = enabled; }
  [[nodiscard]] bool daemon_enabled() const noexcept { return daemon_enabled_; }

  /// Ingress filter for the distributed-firewall baseline (§6): applied to
  /// every packet addressed to this host before delivery; returning false
  /// drops it.  Note the packet has already consumed network resources and
  /// host CPU by this point — the DoS weakness the paper calls out.
  using IngressFilter = std::function<bool(const net::Packet&)>;
  void set_ingress_filter(IngressFilter filter) {
    ingress_filter_ = std::move(filter);
  }

  /// §5.3: full host compromise — the attacker controls daemon responses.
  using ResponseForger = std::function<proto::Response(
      const proto::Query&, net::Ipv4Address peer_ip)>;
  void set_compromised(ResponseForger forger) {
    response_forger_ = std::move(forger);
  }
  [[nodiscard]] bool compromised() const noexcept {
    return static_cast<bool>(response_forger_);
  }

  // ---- FlowResolver ----------------------------------------------------------

  [[nodiscard]] std::optional<proto::FlowOwner> resolve(
      const net::FiveTuple& flow, bool as_destination) const override;

  // ---- network -----------------------------------------------------------------

  void on_packet(const net::Packet& packet, sim::PortId in_port) override;

  /// Emit the first packet of `flow` (a SYN for TCP) with `payload`.
  void send_flow_packet(const net::FiveTuple& flow, std::string_view payload = "",
                        std::uint8_t tcp_flags = net::TcpFlags::kSyn);

  /// Packets whose payload was delivered to an application socket,
  /// newest last (observable by tests).
  [[nodiscard]] const std::vector<net::Packet>& delivered() const noexcept {
    return delivered_;
  }

  /// Simulated time of the most recent payload delivery; -1 if none yet.
  /// Benchmarks use this to measure flow-setup latency.
  [[nodiscard]] sim::SimTime last_delivery_time() const noexcept {
    return last_delivery_time_;
  }

  /// Payload packets of `flow` delivered so far — O(1), maintained
  /// alongside delivered().  The closed-loop traffic senders
  /// (net::traffic::FlowDriver) read this as their ACK signal.
  [[nodiscard]] std::uint64_t delivered_count(const net::FiveTuple& flow) const {
    const auto it = delivered_counts_.find(flow);
    return it == delivered_counts_.end() ? 0 : it->second;
  }

  /// Out-of-order deliveries observed for `flow` — a delivered packet
  /// whose sender-stamped sequence number is below one already seen (e.g.
  /// an ECMP re-pin moved the flow onto a faster equal-cost path while
  /// older packets were still in flight on the slower one).  Only packets
  /// stamped by send_flow_packet count; control traffic is unstamped.
  [[nodiscard]] std::uint64_t reordered_count(const net::FiveTuple& flow) const {
    const auto it = reordered_counts_.find(flow);
    return it == reordered_counts_.end() ? 0 : it->second;
  }

  /// Drop the delivered-packet log (long benchmark runs).
  void clear_delivered() noexcept {
    delivered_.clear();
    delivered_counts_.clear();
    reordered_counts_.clear();
    max_seq_seen_.clear();
  }

  [[nodiscard]] const HostStats& stats() const noexcept { return stats_; }

  /// Compute the simulated executable hash for (path, seed) — the daemon
  /// reports this as exe-hash, and signers sign it.
  [[nodiscard]] static std::string image_hash(std::string_view exe_path,
                                              std::string_view image_seed);

 private:
  void handle_ident_query(const net::Packet& packet);

  std::string name_;
  net::Ipv4Address ip_;
  net::MacAddress mac_;
  std::unordered_map<std::string, User> users_;
  std::unordered_map<int, Process> processes_;
  /// Connected sockets: flow (this host as source) -> owning pid.
  std::unordered_map<net::FiveTuple, int> connected_;
  std::vector<ListeningSocket> listening_;
  std::unordered_map<net::FiveTuple, proto::KeyValueList> flow_pairs_;
  proto::Daemon daemon_;
  bool daemon_enabled_ = true;
  bool auto_accept_ = false;
  ResponseForger response_forger_;
  IngressFilter ingress_filter_;
  int next_pid_ = 100;
  std::uint16_t next_ephemeral_port_ = 40000;
  std::vector<net::Packet> delivered_;
  std::unordered_map<net::FiveTuple, std::uint64_t> delivered_counts_;
  /// Sender-side per-flow sequence stamps (1-based; 0 = unstamped) and the
  /// receiver-side high-water marks + out-of-order tallies they feed.
  std::unordered_map<net::FiveTuple, std::uint32_t> send_seqs_;
  std::unordered_map<net::FiveTuple, std::uint32_t> max_seq_seen_;
  std::unordered_map<net::FiveTuple, std::uint64_t> reordered_counts_;
  sim::SimTime last_delivery_time_ = -1;
  HostStats stats_;
};

}  // namespace identxx::host
