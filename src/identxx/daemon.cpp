#include "identxx/daemon.hpp"

#include "identxx/keys.hpp"
#include "util/strings.hpp"

namespace identxx::proto {

namespace {

/// Pairs a response section takes from `apps` (each pair, plus an app-name
/// alias after a name) and from `global`.
std::size_t config_pair_count(const std::vector<const AppConfig*>& apps,
                              const KeyValueList& global) {
  std::size_t n = global.size();
  for (const AppConfig* app : apps) {
    for (const auto& [key, value] : app->pairs) n += key == keys::kName ? 2 : 1;
  }
  return n;
}

}  // namespace

void Daemon::add_config(ConfigTrust trust, const DaemonConfig& config) {
  DaemonConfig copy = config;
  if (trust == ConfigTrust::kSystem) {
    system_config_.merge(std::move(copy));
  } else {
    user_config_.merge(std::move(copy));
  }
}

void Daemon::add_host_fact(std::string key, std::string value) {
  host_facts_.emplace_back(std::move(key), std::move(value));
}

Response Daemon::answer(const Query& query, net::Ipv4Address query_peer_ip,
                        net::Ipv4Address host_ip) const {
  // Orientation 1: this host is the source.
  const net::FiveTuple as_source{host_ip, query_peer_ip, query.proto,
                                 query.src_port, query.dst_port};
  // Orientation 2: this host is the destination.
  const net::FiveTuple as_destination{query_peer_ip, host_ip, query.proto,
                                      query.src_port, query.dst_port};

  std::optional<FlowOwner> owner = resolver_->resolve(as_source, false);
  if (!owner) {
    owner = resolver_->resolve(as_destination, true);
  }

  Response response;
  response.proto = query.proto;
  response.src_port = query.src_port;
  response.dst_port = query.dst_port;

  if (!owner) {
    ++stats_.queries_unresolved;
    Section error;
    error.add("error", "NO-USER");
    response.append_section(std::move(error));
    return response;
  }
  ++stats_.queries_answered;
  return build_response(query, std::move(*owner));
}

std::optional<std::string> Daemon::answer_classic(
    std::string_view payload, net::Ipv4Address query_peer_ip,
    net::Ipv4Address host_ip) const {
  // RFC 1413 query: "<port-on-server> , <port-on-client>" (whitespace
  // tolerant, one line).  Anything with letters/colons is ident++.
  const auto line = util::trim(payload);
  const auto [left, right] = util::split_once(line, ',');
  if (!right) return std::nullopt;
  const auto local = util::parse_u64(util::trim(left));
  const auto remote = util::parse_u64(util::trim(*right));
  if (!local || *local == 0 || *local > 65535 || !remote || *remote == 0 ||
      *remote > 65535) {
    return std::nullopt;
  }
  ++stats_.classic_queries;
  const auto ports = std::to_string(*local) + ", " + std::to_string(*remote);

  // The connection, seen from this host: local port here, remote port on
  // the querying host.
  const net::FiveTuple outbound{host_ip, query_peer_ip, net::IpProto::kTcp,
                                static_cast<std::uint16_t>(*local),
                                static_cast<std::uint16_t>(*remote)};
  std::optional<FlowOwner> owner = resolver_->resolve(outbound, false);
  if (!owner) {
    const net::FiveTuple inbound{query_peer_ip, host_ip, net::IpProto::kTcp,
                                 static_cast<std::uint16_t>(*remote),
                                 static_cast<std::uint16_t>(*local)};
    owner = resolver_->resolve(inbound, true);
  }
  if (!owner) {
    ++stats_.queries_unresolved;
    return ports + " : ERROR : NO-USER";
  }
  ++stats_.queries_answered;
  return ports + " : USERID : UNIX : " + owner->user_id;
}

Response Daemon::build_response(const Query& query, FlowOwner owner) const {
  Response response;
  response.proto = query.proto;
  response.src_port = query.src_port;
  response.dst_port = query.dst_port;
  response.sections.reserve(3);  // system, user, dynamic

  // Section 1 — facts the daemon itself derives (kernel-level truth).
  const auto system_apps = system_config_.find_apps(owner.exe_path);
  Section system;
  system.pairs.reserve(
      4 + host_facts_.size() +
      config_pair_count(system_apps, system_config_.global_pairs));
  system.add(keys::kUserId, std::move(owner.user_id));
  if (!owner.group_id.empty()) {
    system.add(keys::kGroupId, std::move(owner.group_id));
  }
  system.add(keys::kPid, std::to_string(owner.pid));
  if (!owner.exe_hash.empty()) {
    system.add(keys::kExeHash, std::move(owner.exe_hash));
  }
  for (const auto& [key, value] : host_facts_) {
    system.add(key, value);
  }
  // @app pairs from system config (administrator / distro / third party).
  for (const AppConfig* app : system_apps) {
    for (const auto& [key, value] : app->pairs) {
      system.add(key, value);
      if (key == keys::kName) system.add(keys::kAppName, value);
    }
  }
  for (const auto& [key, value] : system_config_.global_pairs) {
    system.add(key, value);
  }
  response.append_section(std::move(system));

  // Section 2 — user-modifiable configuration.
  const auto user_apps = user_config_.find_apps(owner.exe_path);
  Section user;
  user.pairs.reserve(config_pair_count(user_apps, user_config_.global_pairs));
  for (const AppConfig* app : user_apps) {
    for (const auto& [key, value] : app->pairs) {
      user.add(key, value);
      if (key == keys::kName) user.add(keys::kAppName, value);
    }
  }
  for (const auto& [key, value] : user_config_.global_pairs) {
    user.add(key, value);
  }
  response.append_section(std::move(user));

  // Section 3 — pairs the application registered for this flow at run time
  // (delivered over the local socket, §3.5).
  Section dynamic;
  dynamic.pairs = std::move(owner.dynamic_pairs);
  response.append_section(std::move(dynamic));

  (void)query;  // `keys` are hints only; we return everything we know (§3.2)
  return response;
}

}  // namespace identxx::proto
