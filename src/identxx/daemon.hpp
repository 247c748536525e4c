#pragma once

// The ident++ daemon (§3.5).
//
// Runs on every end-host, listening on TCP port 783.  Given a query it:
//   1. maps the flow 5-tuple to the owning process and user (à la lsof),
//   2. finds the executable's @app configuration blocks,
//   3. assembles a response with one section per source of information:
//      system daemon facts, system config, user config, then dynamic pairs
//      the application registered for this flow at run time.
//
// The daemon answers both when the host is the flow's source and when it is
// a destination that has yet to accept a connection.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "identxx/daemon_config.hpp"
#include "identxx/dict.hpp"
#include "identxx/wire.hpp"
#include "net/flow.hpp"

namespace identxx::proto {

/// Everything the host kernel knows about a flow's owner — the output of
/// the lsof-style lookup the paper describes.
struct FlowOwner {
  std::string user_id;    ///< e.g. "jnaous", "smtp", "system"
  std::string group_id;   ///< primary group, e.g. "research"
  int pid = 0;
  std::string exe_path;   ///< e.g. "/usr/bin/skype"
  std::string exe_hash;   ///< SHA-256 of the executable image (hex)
  /// Pairs the application registered for this flow over the local socket.
  KeyValueList dynamic_pairs;
};

/// The host side of the 5-tuple -> process lookup; implemented by the host
/// model's socket table (substituting for kernel introspection).
class FlowResolver {
 public:
  virtual ~FlowResolver() = default;

  /// Resolve `flow` to its owner on this host.  `as_destination` is false
  /// when this host is the flow's source, true when it is the (possibly
  /// not-yet-accepted) destination.
  [[nodiscard]] virtual std::optional<FlowOwner> resolve(
      const net::FiveTuple& flow, bool as_destination) const = 0;
};

/// Which configuration directory a file came from; system files are only
/// modifiable by the local administrator, user files by the user (§3.5).
enum class ConfigTrust { kSystem, kUser };

class Daemon {
 public:
  /// `resolver` must outlive the daemon.
  explicit Daemon(const FlowResolver* resolver) : resolver_(resolver) {}

  /// Load a configuration file's contents.  Files are consulted in the
  /// order added within each trust class.
  void add_config(ConfigTrust trust, const DaemonConfig& config);

  /// Host-wide facts (e.g. os-patch) reported in the system section.
  void add_host_fact(std::string key, std::string value);

  /// Answer a query.  `query_peer_ip` is the IP the query claims to be from
  /// (the flow's other endpoint, §3.2) and `host_ip` this host's address.
  /// The daemon reconstructs the flow in both orientations and answers for
  /// whichever one its resolver recognizes; an unknown flow produces a
  /// single-section response with an `error: NO-USER` pair, mirroring the
  /// classic ident protocol's error replies.
  [[nodiscard]] Response answer(const Query& query,
                                net::Ipv4Address query_peer_ip,
                                net::Ipv4Address host_ip) const;

  /// RFC-1413 compatibility (§6: ident++ "expands on the idea of the ident
  /// protocol").  A classic Identification Protocol client sends
  /// "<server-port> , <client-port>" on the same TCP 783 socket; the daemon
  /// answers "<ports> : USERID : UNIX : <user>" or "<ports> : ERROR :
  /// NO-USER".  Returns nullopt when the payload is not a classic query
  /// (the caller then tries the ident++ format).
  ///
  /// Orientation matches RFC 1413: the pair names (port-on-this-host,
  /// port-on-the-querying-host) of an existing connection between the two.
  [[nodiscard]] std::optional<std::string> answer_classic(
      std::string_view payload, net::Ipv4Address query_peer_ip,
      net::Ipv4Address host_ip) const;

  /// Statistics for tests/benchmarks.
  struct Stats {
    std::uint64_t queries_answered = 0;
    std::uint64_t queries_unresolved = 0;
    std::uint64_t classic_queries = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] Response build_response(const Query& query,
                                        FlowOwner owner) const;

  const FlowResolver* resolver_;
  DaemonConfig system_config_;
  DaemonConfig user_config_;
  KeyValueList host_facts_;
  mutable Stats stats_;
};

}  // namespace identxx::proto
