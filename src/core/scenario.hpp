#pragma once

// Scenario descriptions: build and drive a whole ident++ deployment from a
// plain-text file, no C++ required.  This is what `tools/identxx_sim` runs
// and what operators would use to stage policy changes.
//
// Directive language (one directive per line, '#' comments):
//
//     seed 42                            # RNG seed for deterministic replay
//     switch s1
//     switch s2
//     link s1 s2 [latency_us] [bw_mbps]  # 0 mbps = serialization-free
//     host client 192.168.0.10 s1        # name ip attachment-switch
//     user client alice staff            # host user group
//     launch curl1 client alice /usr/bin/curl     # id host user exe
//     appconfig client /usr/bin/curl name=curl version=3
//     hostfact server os-patch "MS08-001 MS08-067"
//     listen httpd1 80 [udp]
//     policy begin                       # inline PF+=2 until 'policy end'
//       block all
//       pass from any to any port 80 with eq(@src[userID], alice)
//     policy end
//     flow f1 curl1 192.168.1.1 80 [udp]
//     traffic f1 cbr packets=64 rate=20000   # traffic model (DESIGN.md §12)
//     control 500 revoke_all             # control-plane op at t=500us
//     control 500 raced set_policy "block all"   # fired mid-admission
//     fault chan s1 loss=0.05 delay_us=200 dup=0.01   # control-channel fault
//     fault chan all loss=0.01           # every switch's channel
//     fault host server down_at=0 up_at=40000         # daemon crash/restart
//     fault retry max=2 jitter_us=500 degraded_ttl_us=20000
//     fault retry probe_delay_us=100000 max_probes=3  # admission robustness
//     pin client 1                       # pin a host's flows to shard 1
//     expect f1 delivered                # or blocked
//
// Control-plane churn (DESIGN.md §13): `control <at_us> [raced] <op>` runs
// a cross-shard control operation mid-run.  Ops: `revoke_all`,
// `revoke_port <port>`, `set_policy "<rules>"` ($pubkey expansion
// applies), `set_multipath <k> [seed]`.  Plain ops fire on the global
// lane at the given virtual time, before that instant's admission work —
// classic and sharded runs stay comparable.  `raced` ops instead arm on
// the first daemon response at-or-after the given time and fire two
// global-lane waves later — between a sharded decision's shard-lane
// dispatch and its global-lane commit, the control-epoch re-decision
// window (raced scenarios are for exercising sharded commit ordering;
// classic runs decide inline, so the op lands after the decision).
//
// Traffic models (src/net/traffic): single (default), cbr, onoff,
// pareto, aimd — `traffic <flow-id> <model> [key=value ...]` attaches a
// generator to the flow; see traffic.hpp for the keys.
//
// Authenticated delegation (Figs 4-7) is first-class:
//
//     signedapp rm1 /usr/bin/research-app research-app research-key ...
//         "block all pass all with eq(@src[name], research-app)"
//
// derives a Schnorr key pair from the seed "research-key", signs
// (exe-hash, app-name, requirements), and installs the @app block on the
// host.  Inside the policy block, `$pubkey(research-key)` expands to the
// corresponding public key hex, so the Fig 5 <pubkeys> dict can be written
// without pasting keys.
//
// Flows start in file order; expectations are checked after the run.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/network.hpp"
#include "sim/fault.hpp"

namespace identxx::core {

/// Outcome of one scenario flow.
struct ScenarioFlowResult {
  std::string id;
  net::FiveTuple flow;
  bool delivered = false;
  /// Traffic accounting: packets the flow's generator emitted (1 for the
  /// default single-SYN flows) and payload packets the destination
  /// application received.  Compared by equivalent_to, so per-flow
  /// delivery under congestion must be bit-identical across shard
  /// counts.
  std::uint64_t packets_sent = 1;
  std::uint64_t packets_delivered = 0;
  /// Deliveries that arrived behind a later-sent packet of this flow
  /// (sender-stamped sequence below the receiver's high-water mark) — the
  /// per-flow cost of mid-run path changes, e.g. a `control set_multipath`
  /// re-pin moving the flow across equal-cost paths of different latency.
  /// Compared by equivalent_to like the other traffic counters.
  std::uint64_t packets_reordered = 0;
  bool expectation_known = false;
  bool expected_delivered = false;

  [[nodiscard]] bool matches_expectation() const noexcept {
    return !expectation_known || delivered == expected_delivered;
  }

  [[nodiscard]] bool operator==(const ScenarioFlowResult&) const = default;
};

/// What the seeded fault model actually did during a run (DESIGN.md §14).
/// Part of equivalent_to: fault injection draws on the global lane, so a
/// faulted run's injections must be bit-identical at any shard count.
struct ScenarioFaultStats {
  std::uint64_t chan_dropped = 0;
  std::uint64_t chan_duplicated = 0;
  std::uint64_t chan_delayed = 0;
  std::uint64_t daemon_queries_ignored = 0;  ///< queries hitting a down daemon

  [[nodiscard]] bool operator==(const ScenarioFaultStats&) const = default;
};

struct ScenarioResult {
  std::vector<ScenarioFlowResult> flows;
  /// Aggregate over all admission domains (a single controller's stats
  /// verbatim for unsharded runs).
  ctrl::ControllerStats controller_stats;
  /// Per-domain breakdown; one entry for unsharded runs.
  std::vector<ctrl::ControllerStats> domain_stats;
  /// Canonically ordered (audit_record_before) so the log is comparable
  /// across shard counts.
  std::vector<ctrl::DecisionRecord> audit_log;
  /// Congestion observability (DESIGN.md §12): bounded-queue tail drops,
  /// total and per switch in creation order.  Zero everywhere when the
  /// queue model is off (queue_depth 0).
  std::uint64_t queue_tail_drops = 0;
  std::vector<std::uint64_t> switch_queue_drops;
  /// Path-set cache counters and the ECMP selection histogram, surfaced
  /// by identxx_sim.  Part of equivalent_to: every path query goes through
  /// the topology's one memo, so the counts cannot depend on the shard
  /// count.
  openflow::PathCacheStats path_cache_stats;
  /// Injected control-plane faults (DESIGN.md §14); all-zero in unfaulted
  /// runs.
  ScenarioFaultStats fault_stats;

  /// All expectations met?
  [[nodiscard]] bool ok() const noexcept {
    for (const auto& flow : flows) {
      if (!flow.matches_expectation()) return false;
    }
    return true;
  }

  /// The shard-count invariant (DESIGN.md §10): everything observable —
  /// flow verdicts, aggregate stats, the canonical audit log, the path
  /// cache — must be identical however the run was partitioned.  The
  /// per-domain breakdown is intentionally not compared.
  [[nodiscard]] bool equivalent_to(const ScenarioResult& other) const {
    return flows == other.flows && controller_stats == other.controller_stats &&
           audit_log == other.audit_log &&
           queue_tail_drops == other.queue_tail_drops &&
           switch_queue_drops == other.switch_queue_drops &&
           path_cache_stats == other.path_cache_stats &&
           fault_stats == other.fault_stats;
  }
};

/// Knobs for Scenario::run.
struct ScenarioOptions {
  ctrl::ControllerConfig config;
  /// 0 = classic single controller; >= 1 = sharded admission domains.
  std::uint32_t shards = 0;
  /// Seed for the deterministic per-domain RNG streams (query ephemeral
  /// ports).  0 falls back to the scenario file's `seed` directive (or 0).
  std::uint64_t seed = 0;
  /// Congestion knobs (DESIGN.md §12).  The defaults reproduce the
  /// idealized pre-multipath behaviour exactly: one BFS path per pair,
  /// per-link declared bandwidth, unbounded queues, one SYN per flow.
  std::uint32_t k_paths = 1;  ///< equal-cost paths per (src,dst) pair
  /// Override every link's bandwidth (host attachments included);
  /// 0 = keep per-link declarations / defaults.
  std::uint64_t link_bandwidth_bps = 0;
  std::uint32_t queue_depth = 0;  ///< bounded switch output queues; 0 = off
  /// Override every flow's traffic model with this spec
  /// ("cbr,packets=64,..."); empty = per-flow `traffic` directives.
  std::string traffic;
  /// Schedule exploration (DESIGN.md §13): dictate the per-wave shard-lane
  /// execution order.  Not owned; nullptr = canonical order.
  sim::ScheduleController* schedule_controller = nullptr;
  /// Injected determinism mutation: merge staged cross-lane events in
  /// modeled arrival order instead of canonical lane order (checker
  /// self-test; see Simulator::set_fault_merge_arrival_order).
  bool fault_merge_arrival_order = false;
  /// Control-channel fault overrides (DESIGN.md §14): when any is nonzero,
  /// a ChannelFaultSpec{chan_loss, chan_dup, chan_delay} is applied to
  /// EVERY switch, replacing the scenario's `fault chan` directives.  Each
  /// switch still draws from its own name-derived stream.
  double chan_loss = 0.0;
  double chan_dup = 0.0;
  sim::SimTime chan_delay = 0;
};

/// A parsed scenario, ready to run.  Parsing and execution are split so
/// tests can inspect intermediate state and reuse a scenario.
class Scenario {
 public:
  /// Parse a scenario description.  Throws ParseError with line numbers.
  [[nodiscard]] static Scenario parse(std::string_view text);

  /// Build the network, start every flow, run to completion, check
  /// expectations.  Throws Error for semantic problems (unknown names).
  [[nodiscard]] ScenarioResult run(ctrl::ControllerConfig config = {}) const;

  /// As above, with sharding/seed control.  A given scenario and seed
  /// produce an equivalent_to-identical result at any shard count.
  [[nodiscard]] ScenarioResult run(const ScenarioOptions& options) const;

  [[nodiscard]] const std::string& policy() const noexcept { return policy_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::size_t switch_count() const noexcept {
    return switches_.size();
  }
  [[nodiscard]] std::size_t host_count() const noexcept { return hosts_.size(); }
  [[nodiscard]] std::size_t flow_count() const noexcept { return flows_.size(); }

 private:
  struct SwitchDecl {
    std::string name;
  };
  struct LinkDecl {
    std::string a, b;
    sim::SimTime latency = 10 * sim::kMicrosecond;
    /// Declared capacity; an explicit 0 mbps disables serialization delay.
    std::uint64_t bandwidth_bps = sim::kDefaultBandwidthBps;
  };
  struct HostDecl {
    std::string name, ip, attach;
  };
  struct UserDecl {
    std::string host, user, group;
  };
  struct LaunchDecl {
    std::string id, host, user, exe;
  };
  struct AppConfigDecl {
    std::string host, exe;
    proto::KeyValueList pairs;
  };
  struct SignedAppDecl {
    std::string host, exe, name, key_seed, requirements;
  };
  struct HostFactDecl {
    std::string host, key, value;
  };
  struct ListenDecl {
    std::string launch_id;
    std::uint16_t port = 0;
    net::IpProto proto = net::IpProto::kTcp;
  };
  struct FlowDecl {
    std::string id, launch_id, dst_ip;
    std::uint16_t port = 0;
    net::IpProto proto = net::IpProto::kTcp;
    std::string traffic;  ///< TrafficSpec text; empty = single SYN
  };
  struct PinDecl {
    std::string host;
    std::uint32_t shard = 0;
  };
  struct ChannelFaultDecl {
    std::string sw;  ///< switch name, or "all"
    sim::ChannelFaultSpec spec;
  };
  struct HostFaultDecl {
    std::string host;
    sim::SimTime down_at = 0;
    sim::SimTime up_at = -1;  ///< -1 = never restarts
  };
  /// Scenario-level admission robustness policy (`fault retry ...`).
  /// Applied to the controller config only where the caller left the
  /// corresponding knob at its default, so CLI/test overrides win.
  struct RetryDecl {
    bool set = false;
    std::optional<std::uint32_t> max_retries;
    std::optional<sim::SimTime> jitter;
    std::optional<sim::SimTime> degraded_ttl;
    std::optional<sim::SimTime> probe_delay;
    std::optional<std::uint32_t> max_probes;
  };
  struct ControlDecl {
    enum class Op { kRevokeAll, kRevokePort, kSetPolicy, kSetMultipath };
    sim::SimTime at = 0;
    bool raced = false;
    Op op = Op::kRevokeAll;
    std::uint16_t port = 0;      ///< kRevokePort
    std::string policy;          ///< kSetPolicy
    std::uint32_t k_paths = 1;   ///< kSetMultipath
    std::uint64_t ecmp_seed = 0; ///< kSetMultipath
  };

  std::vector<SwitchDecl> switches_;
  std::vector<LinkDecl> links_;
  std::vector<HostDecl> hosts_;
  std::vector<UserDecl> users_;
  std::vector<LaunchDecl> launches_;
  std::vector<AppConfigDecl> app_configs_;
  std::vector<SignedAppDecl> signed_apps_;
  std::vector<HostFactDecl> host_facts_;
  std::vector<ListenDecl> listens_;
  std::vector<FlowDecl> flows_;
  std::vector<PinDecl> pins_;
  std::vector<ControlDecl> controls_;
  std::vector<ChannelFaultDecl> chan_faults_;
  std::vector<HostFaultDecl> host_faults_;
  RetryDecl retry_;
  std::unordered_map<std::string, bool> expectations_;  // flow id -> delivered
  std::string policy_;
  std::uint64_t seed_ = 0;  ///< `seed <n>` directive; 0 when absent
};

}  // namespace identxx::core
