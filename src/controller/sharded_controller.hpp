#pragma once

// ShardedAdmissionController: N parallel admission domains behind one
// OpenFlow control plane (DESIGN.md §10).
//
// The paper assumes the controller is the scaling bottleneck of flow-based
// admission; this front-end removes the single-controller assumption by
// partitioning flows across `shard_count` full IdentxxController instances
// ("domains") with a consistent ShardMap (canonical 5-tuple hash, endpoint
// affinity).  Each domain owns shard-local state — its PolicyDecisionEngine
// (and thus its SchnorrVerifier with per-key tables and memo), its
// LruDecisionCache, its ResponseCollector, its install bookkeeping and audit
// log — shared-nothing, no locks anywhere on the decision hot path.
//
// The front-end owns every switch's control channel and dispatches:
//   * ordinary packet-ins by shard_of(flow) — both directions of a flow
//     reach the same domain, so caches and keep-state stay local;
//   * ident++ responses (TCP 783) by the *queried flow* embedded in the
//     response body (the packet's own 5-tuple carries query ports);
//   * transiting ident++ queries by the ingress switch's domain binding;
//   * flow-removed notifications by the cookie's shard namespace.
//
// Domains evaluate decisions on their own simulator shard lane
// (ControllerConfig::decision_lane), so verification and policy evaluation
// for different shards run on parallel workers while every install /
// packet release commits on the global lane — results stay bit-identical
// across shard and worker counts.
//
// Cross-shard control operations (revoke_all / revoke_if / set_policy)
// fan out to every domain in shard order on the global lane ("epoch-
// ordered control events"): shard lanes are quiescent whenever global-lane
// code runs, and each domain's control epoch makes any decision already
// dispatched re-decide at commit, so a racing revocation can never leave a
// stale cover or cached decision in any domain.

#include <memory>
#include <vector>

#include "controller/identxx_controller.hpp"
#include "controller/shard_map.hpp"

namespace identxx::ctrl {

class ShardedAdmissionController : public openflow::ControlPlane {
 public:
  /// `topology` must outlive the controller.  Every domain gets a copy of
  /// `ruleset` and its own FunctionRegistry (with builtins), hence its own
  /// verifier.  `config` is cloned per domain with the shard's name
  /// suffix, decision lane (i + 1) and cookie namespace (i + 1); the
  /// simulator must have at least `shard_count` shard lanes configured.
  ShardedAdmissionController(openflow::Topology* topology, pf::Ruleset ruleset,
                             std::uint32_t shard_count,
                             ControllerConfig config = {});

  // ---- domain wiring -------------------------------------------------------

  /// Take the switch's control channel, install the ident++ intercept boot
  /// rules, bind the switch to a domain (round-robin) and add it to every
  /// domain's install domain.
  void adopt_switch(sim::NodeId switch_id,
                    sim::SimTime control_latency = 100 * sim::kMicrosecond);

  /// Teach every domain where a host lives.
  void register_host(net::Ipv4Address ip, sim::NodeId node,
                     net::MacAddress mac);

  // ---- cross-shard control (fans out to every domain, shard order) ---------

  std::size_t revoke_all();
  std::size_t revoke_if(const std::function<bool(const net::FiveTuple&)>& pred);
  void set_policy(pf::Ruleset ruleset);
  /// §5.1: a compromised controller disables all protection.  While set,
  /// every packet-in — ident++ control traffic included — takes the
  /// owning domain's flood path, exactly like a compromised standalone
  /// controller (responses are never consumed into decisions).
  void set_compromised(bool compromised) noexcept;

  /// Derive per-domain query-port streams from one scenario seed
  /// (scenario.hpp): domain i draws from its own stream, so replay is
  /// invariant to the shard count.
  void seed_query_ports(std::uint64_t seed);

  // ---- observation ---------------------------------------------------------

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(domains_.size());
  }
  [[nodiscard]] IdentxxController& domain(std::uint32_t shard) {
    return *domains_.at(shard);
  }
  [[nodiscard]] const IdentxxController& domain(std::uint32_t shard) const {
    return *domains_.at(shard);
  }
  [[nodiscard]] const ShardMap& shard_map() const noexcept { return map_; }
  [[nodiscard]] ShardMap& shard_map() noexcept { return map_; }

  /// Field-wise sum of every domain's stats — comparable to a single
  /// controller handling the same traffic.
  [[nodiscard]] ControllerStats aggregated_stats() const;

  /// All domains' audit records merged into the canonical order
  /// (audit_record_before), so the log is identical whatever the shard
  /// count that produced it.
  [[nodiscard]] std::vector<DecisionRecord> merged_audit_log() const;

  /// Sum of installed-flow bookkeeping entries across domains.
  [[nodiscard]] std::size_t installed_flow_count() const noexcept;

  // ---- ControlPlane --------------------------------------------------------

  void on_packet_in(const openflow::PacketIn& msg) override;
  void on_flow_removed(const openflow::FlowRemovedMsg& msg) override;

 private:
  [[nodiscard]] IdentxxController& domain_for_flow(const net::FiveTuple& flow) {
    return *domains_[map_.shard_of(flow)];
  }
  void dispatch_ident(const openflow::PacketIn& msg,
                      const net::FiveTuple& flow);

  openflow::Topology* topology_;
  ShardMap map_;
  std::vector<std::unique_ptr<IdentxxController>> domains_;
  std::uint32_t next_switch_shard_ = 0;  ///< round-robin switch binding
  bool compromised_ = false;
};

}  // namespace identxx::ctrl
