#include "core/scenario.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>

#include "crypto/schnorr.hpp"
#include "identxx/keys.hpp"
#include "net/traffic/traffic.hpp"
#include "pf/parser.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace identxx::core {

namespace {

/// Split a line into fields, honoring double quotes for values with
/// spaces ("MS08-001 MS08-067").
std::vector<std::string> fields_of(std::string_view line, std::size_t lineno) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size()) break;
    if (line[i] == '"') {
      const std::size_t close = line.find('"', i + 1);
      if (close == std::string_view::npos) {
        throw ParseError("unterminated quote", lineno);
      }
      out.emplace_back(line.substr(i + 1, close - i - 1));
      i = close + 1;
    } else {
      std::size_t end = i;
      while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
      out.emplace_back(line.substr(i, end - i));
      i = end;
    }
  }
  return out;
}

net::IpProto parse_proto_field(const std::vector<std::string>& fields,
                               std::size_t index, std::size_t lineno) {
  if (fields.size() <= index) return net::IpProto::kTcp;
  if (util::iequals(fields[index], "udp")) return net::IpProto::kUdp;
  if (util::iequals(fields[index], "tcp")) return net::IpProto::kTcp;
  throw ParseError("expected 'tcp' or 'udp', got '" + fields[index] + "'",
                   lineno);
}

std::uint16_t parse_port_field(const std::string& field, std::size_t lineno) {
  const auto port = util::parse_u64(field);
  if (!port || *port == 0 || *port > 65535) {
    throw ParseError("invalid port '" + field + "'", lineno);
  }
  return static_cast<std::uint16_t>(*port);
}

void require_fields(const std::vector<std::string>& fields, std::size_t n,
                    const char* usage, std::size_t lineno) {
  if (fields.size() < n) {
    throw ParseError(std::string("usage: ") + usage, lineno);
  }
}

/// Parse a probability in [0, 1] (fault loss/dup rates).
double parse_prob_field(const std::string& field, const char* what,
                        std::size_t lineno) {
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (end == nullptr || end == field.c_str() || *end != '\0' || value < 0.0 ||
      value > 1.0) {
    throw ParseError(std::string("invalid ") + what + " '" + field +
                         "' (want 0..1)",
                     lineno);
  }
  return value;
}

std::uint64_t parse_u64_field(const std::string& field, const char* what,
                              std::size_t lineno) {
  const auto value = util::parse_u64(field);
  if (!value) {
    throw ParseError(std::string("invalid ") + what + " '" + field + "'",
                     lineno);
  }
  return *value;
}

/// Expand $pubkey(<seed>) references so policy text (and control
/// set_policy payloads) can name signing keys symbolically.
std::string expand_pubkeys(std::string policy) {
  for (std::size_t pos = policy.find("$pubkey("); pos != std::string::npos;
       pos = policy.find("$pubkey(", pos)) {
    const std::size_t close = policy.find(')', pos);
    if (close == std::string::npos) {
      throw Error("unterminated $pubkey( in policy");
    }
    const std::string key_seed = policy.substr(pos + 8, close - pos - 8);
    const std::string hex =
        crypto::PrivateKey::from_seed(key_seed).public_key().to_hex();
    policy.replace(pos, close - pos + 1, hex);
    pos += hex.size();
  }
  return policy;
}

/// `control ... raced ...` trigger: fire the op on the first daemon
/// response at-or-after the arming time, two global-lane waves later —
/// i.e. between a sharded decision's shard-lane dispatch (scheduled by
/// the response event itself) and its global-lane commit, inside the
/// control-epoch re-decision window.  The op is shared across domains so
/// whichever response arrives first claims it.
class RacedControlHook : public ctrl::AdmissionObserver {
 public:
  RacedControlHook(sim::Simulator& sim, sim::SimTime at,
                   std::shared_ptr<std::function<void()>> op)
      : sim_(&sim), at_(at), op_(std::move(op)) {}

  void on_response_received(net::Ipv4Address /*responder*/) override {
    if (!op_ || !*op_ || sim_->now() < at_) return;
    std::function<void()> fn = std::move(*op_);
    *op_ = nullptr;
    sim_->schedule_at(sim_->now(), [sim = sim_, fn = std::move(fn)] {
      sim->schedule_at(sim->now(), fn);
    });
  }

 private:
  sim::Simulator* sim_;
  sim::SimTime at_;
  std::shared_ptr<std::function<void()>> op_;
};

}  // namespace

Scenario Scenario::parse(std::string_view text) {
  Scenario scenario;
  bool in_policy = false;
  std::size_t lineno = 0;
  for (const auto raw_line : util::split_lines(text)) {
    ++lineno;
    if (in_policy) {
      // Policy block runs verbatim until 'policy end' (PF+=2 has its own
      // comment handling).
      if (util::trim(raw_line) == "policy end") {
        in_policy = false;
      } else {
        scenario.policy_ += std::string(raw_line) + "\n";
      }
      continue;
    }
    std::string_view line = raw_line;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = util::trim(line);
    if (line.empty()) continue;
    const auto fields = fields_of(line, lineno);
    const std::string& directive = fields[0];

    if (directive == "seed") {
      require_fields(fields, 2, "seed <n>", lineno);
      const auto seed = util::parse_u64(fields[1]);
      if (!seed) throw ParseError("invalid seed '" + fields[1] + "'", lineno);
      scenario.seed_ = *seed;
    } else if (directive == "switch") {
      require_fields(fields, 2, "switch <name>", lineno);
      scenario.switches_.push_back({fields[1]});
    } else if (directive == "link") {
      require_fields(fields, 3, "link <a> <b> [latency_us] [bw_mbps]", lineno);
      LinkDecl link{fields[1], fields[2], 10 * sim::kMicrosecond,
                    sim::kDefaultBandwidthBps};
      if (fields.size() > 3) {
        const auto us = util::parse_u64(fields[3]);
        if (!us) throw ParseError("invalid latency", lineno);
        link.latency = static_cast<sim::SimTime>(*us) * sim::kMicrosecond;
      }
      if (fields.size() > 4) {
        const auto mbps = util::parse_u64(fields[4]);
        if (!mbps) throw ParseError("invalid bandwidth", lineno);
        link.bandwidth_bps = *mbps * 1'000'000ULL;
      }
      scenario.links_.push_back(std::move(link));
    } else if (directive == "host") {
      require_fields(fields, 4, "host <name> <ip> <switch>", lineno);
      scenario.hosts_.push_back({fields[1], fields[2], fields[3]});
    } else if (directive == "user") {
      require_fields(fields, 4, "user <host> <user> <group>", lineno);
      scenario.users_.push_back({fields[1], fields[2], fields[3]});
    } else if (directive == "launch") {
      require_fields(fields, 5, "launch <id> <host> <user> <exe>", lineno);
      scenario.launches_.push_back({fields[1], fields[2], fields[3], fields[4]});
    } else if (directive == "appconfig") {
      require_fields(fields, 4, "appconfig <host> <exe> <k>=<v>...", lineno);
      AppConfigDecl decl{fields[1], fields[2], {}};
      for (std::size_t i = 3; i < fields.size(); ++i) {
        const auto [key, value] = util::split_once(fields[i], '=');
        if (!value) {
          throw ParseError("expected key=value, got '" + fields[i] + "'",
                           lineno);
        }
        decl.pairs.emplace_back(std::string(key), std::string(*value));
      }
      scenario.app_configs_.push_back(std::move(decl));
    } else if (directive == "signedapp") {
      require_fields(fields, 6,
                     "signedapp <host> <exe> <name> <key-seed> \"<rules>\"",
                     lineno);
      scenario.signed_apps_.push_back(
          {fields[1], fields[2], fields[3], fields[4], fields[5]});
    } else if (directive == "hostfact") {
      require_fields(fields, 4, "hostfact <host> <key> <value>", lineno);
      scenario.host_facts_.push_back({fields[1], fields[2], fields[3]});
    } else if (directive == "listen") {
      require_fields(fields, 3, "listen <launch-id> <port> [udp]", lineno);
      scenario.listens_.push_back({fields[1],
                                   parse_port_field(fields[2], lineno),
                                   parse_proto_field(fields, 3, lineno)});
    } else if (directive == "policy") {
      require_fields(fields, 2, "policy begin", lineno);
      if (fields[1] != "begin") {
        throw ParseError("expected 'policy begin'", lineno);
      }
      in_policy = true;
    } else if (directive == "flow") {
      require_fields(fields, 5, "flow <id> <launch-id> <dst-ip> <port> [udp]",
                     lineno);
      scenario.flows_.push_back({fields[1], fields[2], fields[3],
                                 parse_port_field(fields[4], lineno),
                                 parse_proto_field(fields, 5, lineno),
                                 /*traffic=*/{}});
    } else if (directive == "traffic") {
      require_fields(fields, 3, "traffic <flow-id> <model> [key=value...]",
                     lineno);
      std::string spec = fields[2];
      for (std::size_t i = 3; i < fields.size(); ++i) {
        spec += ',' + fields[i];
      }
      try {
        (void)net::traffic::TrafficSpec::parse(spec);  // validate eagerly
      } catch (const Error& e) {
        throw ParseError(e.what(), lineno);
      }
      bool found = false;
      for (auto& flow : scenario.flows_) {
        if (flow.id == fields[1]) {
          flow.traffic = spec;
          found = true;
          break;
        }
      }
      if (!found) {
        throw ParseError("traffic references unknown flow '" + fields[1] + "'",
                         lineno);
      }
    } else if (directive == "pin") {
      require_fields(fields, 3, "pin <host> <shard>", lineno);
      const auto shard = util::parse_u64(fields[2]);
      if (!shard) throw ParseError("invalid shard '" + fields[2] + "'", lineno);
      scenario.pins_.push_back(
          {fields[1], static_cast<std::uint32_t>(*shard)});
    } else if (directive == "control") {
      require_fields(fields, 3, "control <at_us> [raced] <op> [args...]",
                     lineno);
      ControlDecl decl;
      const auto at = util::parse_u64(fields[1]);
      if (!at) {
        throw ParseError("invalid control time '" + fields[1] + "'", lineno);
      }
      decl.at = static_cast<sim::SimTime>(*at) * sim::kMicrosecond;
      std::size_t i = 2;
      if (fields[i] == "raced") {
        decl.raced = true;
        ++i;
        require_fields(fields, i + 1, "control <at_us> raced <op> [args...]",
                       lineno);
      }
      const std::string& op = fields[i];
      if (op == "revoke_all") {
        decl.op = ControlDecl::Op::kRevokeAll;
      } else if (op == "revoke_port") {
        require_fields(fields, i + 2, "control <at_us> revoke_port <port>",
                       lineno);
        decl.op = ControlDecl::Op::kRevokePort;
        decl.port = parse_port_field(fields[i + 1], lineno);
      } else if (op == "set_policy") {
        require_fields(fields, i + 2,
                       "control <at_us> set_policy \"<rules>\"", lineno);
        decl.op = ControlDecl::Op::kSetPolicy;
        decl.policy = fields[i + 1];
      } else if (op == "set_multipath") {
        require_fields(fields, i + 2,
                       "control <at_us> set_multipath <k> [seed]", lineno);
        decl.op = ControlDecl::Op::kSetMultipath;
        const auto k = util::parse_u64(fields[i + 1]);
        if (!k || *k == 0) throw ParseError("invalid k_paths", lineno);
        decl.k_paths = static_cast<std::uint32_t>(*k);
        if (fields.size() > i + 2) {
          const auto ecmp = util::parse_u64(fields[i + 2]);
          if (!ecmp) throw ParseError("invalid ecmp seed", lineno);
          decl.ecmp_seed = *ecmp;
        }
      } else {
        throw ParseError("unknown control op '" + op + "'", lineno);
      }
      scenario.controls_.push_back(std::move(decl));
    } else if (directive == "fault") {
      // Seeded control-plane fault model (DESIGN.md §14).
      require_fields(fields, 2, "fault chan|host|retry ...", lineno);
      const std::string& kind = fields[1];
      if (kind == "chan") {
        require_fields(fields, 3,
                       "fault chan <switch|all> [loss=<p>] [dup=<p>] "
                       "[delay_us=<n>]",
                       lineno);
        ChannelFaultDecl decl;
        decl.sw = fields[2];
        for (std::size_t i = 3; i < fields.size(); ++i) {
          const auto [key, value] = util::split_once(fields[i], '=');
          if (!value) {
            throw ParseError("expected key=value, got '" + fields[i] + "'",
                             lineno);
          }
          const std::string val(*value);
          if (key == "loss") {
            decl.spec.loss = parse_prob_field(val, "loss", lineno);
          } else if (key == "dup") {
            decl.spec.dup = parse_prob_field(val, "dup", lineno);
          } else if (key == "delay_us") {
            decl.spec.delay =
                static_cast<sim::SimTime>(
                    parse_u64_field(val, "delay_us", lineno)) *
                sim::kMicrosecond;
          } else {
            throw ParseError("unknown fault chan key '" + std::string(key) +
                                 "'",
                             lineno);
          }
        }
        scenario.chan_faults_.push_back(std::move(decl));
      } else if (kind == "host") {
        require_fields(fields, 4, "fault host <name> down_at=<us> [up_at=<us>]",
                       lineno);
        HostFaultDecl decl;
        decl.host = fields[2];
        bool have_down = false;
        for (std::size_t i = 3; i < fields.size(); ++i) {
          const auto [key, value] = util::split_once(fields[i], '=');
          if (!value) {
            throw ParseError("expected key=value, got '" + fields[i] + "'",
                             lineno);
          }
          const std::string val(*value);
          if (key == "down_at") {
            decl.down_at = static_cast<sim::SimTime>(
                               parse_u64_field(val, "down_at", lineno)) *
                           sim::kMicrosecond;
            have_down = true;
          } else if (key == "up_at") {
            decl.up_at = static_cast<sim::SimTime>(
                             parse_u64_field(val, "up_at", lineno)) *
                         sim::kMicrosecond;
          } else {
            throw ParseError("unknown fault host key '" + std::string(key) +
                                 "'",
                             lineno);
          }
        }
        if (!have_down) {
          throw ParseError("fault host requires down_at=<us>", lineno);
        }
        scenario.host_faults_.push_back(std::move(decl));
      } else if (kind == "retry") {
        for (std::size_t i = 2; i < fields.size(); ++i) {
          const auto [key, value] = util::split_once(fields[i], '=');
          if (!value) {
            throw ParseError("expected key=value, got '" + fields[i] + "'",
                             lineno);
          }
          const std::string val(*value);
          if (key == "max") {
            scenario.retry_.max_retries = static_cast<std::uint32_t>(
                parse_u64_field(val, "max", lineno));
          } else if (key == "jitter_us") {
            scenario.retry_.jitter = static_cast<sim::SimTime>(
                                         parse_u64_field(val, "jitter_us",
                                                         lineno)) *
                                     sim::kMicrosecond;
          } else if (key == "degraded_ttl_us") {
            scenario.retry_.degraded_ttl =
                static_cast<sim::SimTime>(
                    parse_u64_field(val, "degraded_ttl_us", lineno)) *
                sim::kMicrosecond;
          } else if (key == "probe_delay_us") {
            scenario.retry_.probe_delay =
                static_cast<sim::SimTime>(
                    parse_u64_field(val, "probe_delay_us", lineno)) *
                sim::kMicrosecond;
          } else if (key == "max_probes") {
            scenario.retry_.max_probes = static_cast<std::uint32_t>(
                parse_u64_field(val, "max_probes", lineno));
          } else {
            throw ParseError("unknown fault retry key '" + std::string(key) +
                                 "'",
                             lineno);
          }
        }
        scenario.retry_.set = true;
      } else {
        throw ParseError("unknown fault kind '" + kind + "'", lineno);
      }
    } else if (directive == "expect") {
      require_fields(fields, 3, "expect <flow-id> delivered|blocked", lineno);
      if (fields[2] == "delivered") {
        scenario.expectations_[fields[1]] = true;
      } else if (fields[2] == "blocked") {
        scenario.expectations_[fields[1]] = false;
      } else {
        throw ParseError("expect verdict must be 'delivered' or 'blocked'",
                         lineno);
      }
    } else {
      throw ParseError("unknown directive '" + directive + "'", lineno);
    }
  }
  if (in_policy) throw ParseError("unterminated 'policy begin' block");
  return scenario;
}

ScenarioResult Scenario::run(ctrl::ControllerConfig config) const {
  ScenarioOptions options;
  options.config = std::move(config);
  return run(options);
}

ScenarioResult Scenario::run(const ScenarioOptions& options) const {
  Network net;
  const std::uint64_t seed = options.seed != 0 ? options.seed : seed_;
  std::unordered_map<std::string, sim::NodeId> switches;
  for (const auto& decl : switches_) {
    if (switches.contains(decl.name)) {
      throw Error("duplicate switch '" + decl.name + "'");
    }
    switches[decl.name] = net.add_switch(decl.name);
  }
  // Congestion knobs (DESIGN.md §12): an options-level bandwidth override
  // applies to every link, host attachments included; otherwise each link
  // keeps its declared (or default) capacity.
  const auto link_bandwidth = [&options](std::uint64_t declared) {
    return options.link_bandwidth_bps != 0 ? options.link_bandwidth_bps
                                           : declared;
  };
  std::unordered_map<std::string, host::Host*> hosts;
  for (const auto& decl : hosts_) {
    auto& h = net.add_host(decl.name, decl.ip);
    hosts[decl.name] = &h;
    const auto sw = switches.find(decl.attach);
    if (sw == switches.end()) {
      throw Error("host '" + decl.name + "' attaches to unknown switch '" +
                  decl.attach + "'");
    }
    net.link(h, sw->second, 10 * sim::kMicrosecond,
             link_bandwidth(sim::kDefaultBandwidthBps));
  }
  for (const auto& decl : links_) {
    const auto a = switches.find(decl.a);
    const auto b = switches.find(decl.b);
    if (a == switches.end() || b == switches.end()) {
      throw Error("link references unknown switch");
    }
    net.link(a->second, b->second, decl.latency,
             link_bandwidth(decl.bandwidth_bps));
  }
  // Control-channel faults (DESIGN.md §14): an options-level override
  // applies one spec to every switch, replacing `fault chan` directives;
  // otherwise each declaration applies to its named switch (or "all").
  // Either way a switch draws from its own (seed, name)-derived stream,
  // so injection is bit-identical at any shard count.
  const bool chan_override =
      options.chan_loss > 0.0 || options.chan_dup > 0.0 ||
      options.chan_delay > 0;
  if (chan_override) {
    const sim::ChannelFaultSpec spec{options.chan_loss, options.chan_dup,
                                     options.chan_delay};
    for (const auto& decl : switches_) {
      net.switch_at(switches[decl.name])
          .set_control_fault(spec, sim::fault_stream_seed(seed, decl.name));
    }
  } else {
    for (const ChannelFaultDecl& decl : chan_faults_) {
      if (decl.sw == "all") {
        for (const auto& sw_decl : switches_) {
          net.switch_at(switches[sw_decl.name])
              .set_control_fault(decl.spec,
                                 sim::fault_stream_seed(seed, sw_decl.name));
        }
        continue;
      }
      const auto it = switches.find(decl.sw);
      if (it == switches.end()) {
        throw Error("fault chan references unknown switch '" + decl.sw + "'");
      }
      net.switch_at(it->second)
          .set_control_fault(decl.spec, sim::fault_stream_seed(seed, decl.sw));
    }
  }
  net.topology().set_multipath(options.k_paths, seed);
  if (options.queue_depth > 0) net.set_queue_depth(options.queue_depth);
  // Expand $pubkey(<seed>) references in the policy so <pubkeys> dicts can
  // name signing keys symbolically.
  const std::string policy = expand_pubkeys(policy_);
  // Controller flavour: classic single controller, or sharded admission
  // domains (DESIGN.md §10).  Identical seeds replay identically at any
  // shard count: every domain draws from its own seed-derived RNG stream,
  // so no draw order ever crosses a shard boundary.
  // Robustness policy (DESIGN.md §14): `fault retry` directives fill in
  // controller knobs the caller left at their defaults, so CLI/test
  // overrides always win.  The jitter stream seed defaults off the
  // scenario seed so every run configuration draws identically.
  ctrl::ControllerConfig config = options.config;
  if (retry_.set) {
    const ctrl::ControllerConfig defaults;
    if (retry_.max_retries &&
        config.max_query_retries == defaults.max_query_retries) {
      config.max_query_retries = *retry_.max_retries;
    }
    if (retry_.jitter && config.retry_jitter == defaults.retry_jitter) {
      config.retry_jitter = *retry_.jitter;
    }
    if (retry_.degraded_ttl &&
        config.degraded_cover_ttl == defaults.degraded_cover_ttl) {
      config.degraded_cover_ttl = *retry_.degraded_ttl;
    }
    if (retry_.probe_delay &&
        config.readmission_probe_delay == defaults.readmission_probe_delay) {
      config.readmission_probe_delay = *retry_.probe_delay;
    }
    if (retry_.max_probes &&
        config.max_readmission_probes == defaults.max_readmission_probes) {
      config.max_readmission_probes = *retry_.max_probes;
    }
  }
  if (config.retry_jitter_seed == 0) {
    config.retry_jitter_seed = seed ^ 0x2545f4914f6cdd1dULL;
  }
  ctrl::IdentxxController* classic = nullptr;
  ctrl::ShardedAdmissionController* sharded = nullptr;
  if (options.shards == 0) {
    classic = &net.install_controller(policy, config);
    if (seed != 0) {
      // Same derivation as sharded domain 0, so classic and 1-shard runs
      // draw identical streams.
      util::SplitMix64 derive(seed ^ 0x9e3779b97f4a7c15ULL);
      classic->seed_query_ports(derive.next());
    }
  } else {
    sharded = &net.install_sharded_controller(policy, options.shards, config);
    if (seed != 0) sharded->seed_query_ports(seed);
  }

  // Endpoint pins: shard placement for sharded runs (the shard-count
  // invariant must hold under any placement, so MC scenarios pin hosts to
  // make cross-shard races reproducible).  No-op for classic runs.
  if (sharded != nullptr) {
    for (const PinDecl& decl : pins_) {
      bool found = false;
      for (const auto& host : hosts_) {
        if (host.name != decl.host) continue;
        const auto ip = net::Ipv4Address::parse(host.ip);
        if (!ip) throw Error("pin: bad ip for host '" + decl.host + "'");
        sharded->shard_map().pin_endpoint(*ip, decl.shard);
        found = true;
        break;
      }
      if (!found) throw Error("pin references unknown host '" + decl.host + "'");
    }
  }

  // Schedule exploration (DESIGN.md §13): dictated shard-lane order and
  // the injected merge mutation, both off by default.
  net.simulator().set_schedule_controller(options.schedule_controller);
  net.simulator().set_fault_merge_arrival_order(
      options.fault_merge_arrival_order);

  // Control-plane churn directives: plain ops fire on the global lane at
  // their virtual time; raced ops arm an observer that fires inside the
  // dispatch-to-commit window of an in-flight admission.
  for (const ControlDecl& decl : controls_) {
    std::function<void()> apply;
    switch (decl.op) {
      case ControlDecl::Op::kRevokeAll:
        apply = [classic, sharded] {
          if (sharded != nullptr) {
            (void)sharded->revoke_all();
          } else {
            (void)classic->revoke_all();
          }
        };
        break;
      case ControlDecl::Op::kRevokePort:
        apply = [classic, sharded, port = decl.port] {
          const auto pred = [port](const net::FiveTuple& flow) {
            return flow.dst_port == port;
          };
          if (sharded != nullptr) {
            (void)sharded->revoke_if(pred);
          } else {
            (void)classic->revoke_if(pred);
          }
        };
        break;
      case ControlDecl::Op::kSetPolicy:
        apply = [classic, sharded, rules = expand_pubkeys(decl.policy)] {
          pf::Ruleset ruleset = pf::parse(rules, "control");
          if (sharded != nullptr) {
            sharded->set_policy(std::move(ruleset));
          } else {
            classic->set_policy(std::move(ruleset));
          }
        };
        break;
      case ControlDecl::Op::kSetMultipath:
        apply = [topology = &net.topology(), k = decl.k_paths,
                 ecmp = decl.ecmp_seed] { topology->set_multipath(k, ecmp); };
        break;
    }
    if (!decl.raced) {
      net.simulator().schedule_at(decl.at, std::move(apply));
    } else {
      auto shared = std::make_shared<std::function<void()>>(std::move(apply));
      if (sharded != nullptr) {
        for (std::uint32_t i = 0; i < sharded->shard_count(); ++i) {
          sharded->domain(i).add_observer(std::make_unique<RacedControlHook>(
              net.simulator(), decl.at, shared));
        }
      } else {
        classic->add_observer(std::make_unique<RacedControlHook>(
            net.simulator(), decl.at, shared));
      }
    }
  }

  const auto host_of = [&hosts](const std::string& name) -> host::Host& {
    const auto it = hosts.find(name);
    if (it == hosts.end()) throw Error("unknown host '" + name + "'");
    return *it->second;
  };
  // Daemon unresponsiveness (DESIGN.md §14): the host stays reachable, but
  // its ident++ daemon ignores queries between down_at and up_at — the
  // controller sees silence, not a reset.
  for (const HostFaultDecl& decl : host_faults_) {
    host::Host& down_host = host_of(decl.host);
    net.simulator().schedule_at(
        decl.down_at, [&down_host] { down_host.set_daemon_enabled(false); });
    if (decl.up_at >= 0) {
      net.simulator().schedule_at(
          decl.up_at, [&down_host] { down_host.set_daemon_enabled(true); });
    }
  }
  for (const auto& decl : users_) {
    host_of(decl.host).add_user(decl.user, decl.group);
  }
  struct LaunchInfo {
    host::Host* host = nullptr;
    int pid = 0;
  };
  std::unordered_map<std::string, LaunchInfo> launches;
  for (const auto& decl : launches_) {
    if (launches.contains(decl.id)) {
      throw Error("duplicate launch id '" + decl.id + "'");
    }
    auto& h = host_of(decl.host);
    launches[decl.id] = {&h, h.launch(decl.user, decl.exe)};
  }
  for (const auto& decl : app_configs_) {
    proto::DaemonConfig config_entry;
    proto::AppConfig app;
    app.exe_path = decl.exe;
    app.pairs = decl.pairs;
    config_entry.apps.push_back(std::move(app));
    host_of(decl.host).daemon().add_config(proto::ConfigTrust::kSystem,
                                           config_entry);
  }
  for (const auto& decl : signed_apps_) {
    const crypto::PrivateKey key = crypto::PrivateKey::from_seed(decl.key_seed);
    const std::string exe_hash = host::Host::image_hash(decl.exe, "");
    const crypto::Signature sig = key.sign(
        proto::signed_message({exe_hash, decl.name, decl.requirements}));
    proto::DaemonConfig config_entry;
    proto::AppConfig app;
    app.exe_path = decl.exe;
    app.pairs = {{proto::keys::kName, decl.name},
                 {proto::keys::kRequirements, decl.requirements},
                 {proto::keys::kReqSig, sig.to_hex()}};
    config_entry.apps.push_back(std::move(app));
    host_of(decl.host).daemon().add_config(proto::ConfigTrust::kUser,
                                           config_entry);
  }
  for (const auto& decl : host_facts_) {
    host_of(decl.host).daemon().add_host_fact(decl.key, decl.value);
  }
  const auto launch_of = [&launches](const std::string& id) -> LaunchInfo& {
    const auto it = launches.find(id);
    if (it == launches.end()) throw Error("unknown launch id '" + id + "'");
    return it->second;
  };
  for (const auto& decl : listens_) {
    const LaunchInfo& info = launch_of(decl.launch_id);
    info.host->listen(info.pid, decl.port, decl.proto);
  }

  ScenarioResult result;
  std::vector<std::pair<std::string, FlowHandle>> handles;
  // Traffic generators (src/net/traffic): per-flow seeds come from one
  // SplitMix64 stream over the scenario seed in flow file order, so a given
  // scenario+seed drives identical traffic at any shard count.
  std::vector<std::unique_ptr<net::traffic::FlowDriver>> drivers;
  std::unordered_map<std::string, const net::traffic::FlowDriver*> by_flow_id;
  util::SplitMix64 traffic_seeds(seed ^ 0xc2b2ae3d27d4eb4fULL);
  for (const auto& decl : flows_) {
    const LaunchInfo& info = launch_of(decl.launch_id);
    handles.emplace_back(
        decl.id,
        net.start_flow(*info.host, info.pid, decl.dst_ip, decl.port, decl.proto));
    const std::uint64_t flow_seed = traffic_seeds.next();
    const std::string& spec_text =
        !options.traffic.empty() ? options.traffic : decl.traffic;
    if (spec_text.empty()) continue;
    const auto spec = net::traffic::TrafficSpec::parse(spec_text);
    if (spec.model == net::traffic::Model::kSingle) continue;
    const FlowHandle& handle = handles.back().second;
    if (handle.dst_node == sim::kInvalidNode) {
      throw Error("traffic for flow '" + decl.id +
                  "': destination host not in scenario");
    }
    drivers.push_back(std::make_unique<net::traffic::FlowDriver>(
        net.simulator(), *info.host, net.host(handle.dst_node), handle.flow,
        spec, flow_seed));
    by_flow_id[decl.id] = drivers.back().get();
  }
  for (const auto& driver : drivers) driver->start();
  net.run();

  for (const auto& [id, handle] : handles) {
    ScenarioFlowResult flow_result;
    flow_result.id = id;
    flow_result.flow = handle.flow;
    flow_result.delivered = net.flow_delivered(handle);
    if (const auto it = by_flow_id.find(id); it != by_flow_id.end()) {
      flow_result.packets_sent = it->second->stats().packets_sent;
    }
    if (handle.dst_node != sim::kInvalidNode) {
      flow_result.packets_delivered =
          net.host(handle.dst_node).delivered_count(handle.flow);
      flow_result.packets_reordered =
          net.host(handle.dst_node).reordered_count(handle.flow);
    }
    if (const auto it = expectations_.find(id); it != expectations_.end()) {
      flow_result.expectation_known = true;
      flow_result.expected_delivered = it->second;
    }
    result.flows.push_back(std::move(flow_result));
  }
  for (const sim::NodeId id : net.switch_ids()) {
    const std::uint64_t drops = net.switch_at(id).stats().queue_tail_drops;
    result.switch_queue_drops.push_back(drops);
    result.queue_tail_drops += drops;
    const sim::ChannelFaultStats fstats = net.switch_at(id).control_fault_stats();
    result.fault_stats.chan_dropped += fstats.dropped;
    result.fault_stats.chan_duplicated += fstats.duplicated;
    result.fault_stats.chan_delayed += fstats.delayed;
  }
  for (const auto& decl : hosts_) {
    result.fault_stats.daemon_queries_ignored +=
        hosts.at(decl.name)->stats().ident_queries_ignored;
  }
  result.path_cache_stats = net.topology().path_cache_stats();
  if (sharded != nullptr) {
    result.controller_stats = sharded->aggregated_stats();
    for (std::uint32_t i = 0; i < sharded->shard_count(); ++i) {
      result.domain_stats.push_back(sharded->domain(i).stats());
    }
    result.audit_log = sharded->merged_audit_log();
  } else {
    result.controller_stats = classic->stats();
    result.domain_stats.push_back(classic->stats());
    result.audit_log.assign(classic->audit_log().begin(),
                            classic->audit_log().end());
    // Same canonical order as merged sharded logs, so results compare
    // across run configurations.
    std::sort(result.audit_log.begin(), result.audit_log.end(),
              ctrl::audit_record_before);
  }
  return result;
}

}  // namespace identxx::core
