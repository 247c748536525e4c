#pragma once

// The ident++ controller (§3.4) — the paper's primary contribution.
//
// Sits on the OpenFlow control channel of the switches in its domain.  For
// every new flow (packet-in):
//   1. queries the source and destination ident++ daemons (Figure 1 step 3),
//      spoofing the flow's other endpoint as the query's source address
//      (§3.2) and injecting the query at the queried host's attachment
//      switch via packet-out;
//   2. collects the responses — which arrive as ordinary network packets and
//      are punted back by pre-installed ident++ intercept rules (TCP 783);
//   3. builds the @src/@dst dictionaries and evaluates the PF+=2 policy
//      assembled from its .control files;
//   4. on pass, installs exact-match entries along the flow's path (Figure 1
//      step 4) and releases the buffered packet(s); on block, optionally
//      installs a drop entry at the ingress switch.
//
// It also implements the §2 interception behaviours: answering queries on
// behalf of end-hosts (without forwarding them), and augmenting transiting
// responses with an additional section — the mechanism behind the §4
// "network collaboration" scenario.  Compromise and revocation hooks
// support the §5 security experiments.
//
// Structurally this is AdmissionPipeline::identxx() driven by the shared
// AdmissionController skeleton (admission_controller.hpp), plus the
// ident++ wire layer: query emission, response interception, transit
// handling and response augmentation.  The admission loop itself —
// cache, planning, collection, decision, installation — lives in the
// pipeline stages (admission.hpp), where the baselines share it.

#include <functional>
#include <optional>
#include <utility>

#include "controller/admission_controller.hpp"
#include "controller/recent_keys.hpp"
#include "util/rng.hpp"

namespace identxx::ctrl {

class IdentxxController : public AdmissionController {
 public:
  /// `topology` must outlive the controller.
  IdentxxController(openflow::Topology* topology, pf::Ruleset ruleset,
                    ControllerConfig config = {});
  IdentxxController(openflow::Topology* topology, pf::Ruleset ruleset,
                    pf::FunctionRegistry registry, ControllerConfig config);

  // ---- §2 interception hooks ----------------------------------------------

  /// Answer queries for `ip` on the host's behalf (host without a daemon —
  /// "incremental benefit", §4).  The pairs are returned as a single
  /// section.  Applies on query timeout as a proxy answer.
  void set_proxy_response(net::Ipv4Address ip, proto::Section section) {
    collector().set_proxy(ip, std::move(section));
  }

  /// Augment transiting responses (network collaboration, §4): called once
  /// per response as it crosses this controller's domain; a returned
  /// section is appended after an empty line (§2).
  using ResponseAugmenter = std::function<std::optional<proto::Section>(
      const proto::Response&, const net::FiveTuple& flow)>;
  void set_response_augmenter(ResponseAugmenter augmenter) {
    augmenter_ = std::move(augmenter);
  }

  /// Intercept transiting queries: return a Response to answer on the
  /// queried host's behalf (the query is then *not* forwarded, §3.4).
  using QueryInterceptor = std::function<std::optional<proto::Response>(
      const proto::Query&, net::Ipv4Address target_ip)>;
  void set_query_interceptor(QueryInterceptor interceptor) {
    query_interceptor_ = std::move(interceptor);
  }

  // ---- management ----------------------------------------------------------

  /// Replace the policy (hot reload of .control files).  Does not flush
  /// installed entries — call revoke_all() for that — but does invalidate
  /// cached decisions.
  void set_policy(pf::Ruleset ruleset);

  /// Draw query ephemeral source ports from a deterministic per-controller
  /// stream instead of the sequential counter.  Sharded scenario runs give
  /// every domain its own seed-derived stream (util::SplitMix64), so the
  /// ports one domain draws never depend on a sibling's draw order — a
  /// precondition for shard-count-invariant replay (DESIGN.md §10).
  void seed_query_ports(std::uint64_t seed) noexcept {
    query_port_rng_.emplace(seed);
  }

  /// The TCP-783 intercept rules every ident++ deployment boots a switch
  /// with (both directions punt to the controller).  Shared with the
  /// sharded front-end, which owns switch channels itself.
  static void install_intercept_rules(openflow::Switch& sw);

  // ---- sharded front-end hooks ---------------------------------------------
  // A ShardedAdmissionController parses responses once and probes candidate
  // domains directly (a response names the queried flow's ports in flow
  // orientation, so either endpoint may be the flow's source — the two
  // orientations can hash to different shards).

  /// Consume `response` if it matches one of this controller's pending
  /// flows: counts it, moves it into the context and decides.  Returns
  /// false — with nothing counted and `response` untouched — when no
  /// pending flow matches, so the caller may probe another domain or
  /// forward it in transit.
  bool try_consume_response(const openflow::PacketIn& msg,
                            proto::Response& response);

  /// A response transiting the domain (matched nowhere): optionally
  /// augment it (§4 network collaboration) and forward it one hop.
  void handle_transit_response(const openflow::PacketIn& msg,
                               const proto::Response& response);

  // ---- observation ---------------------------------------------------------

  /// Throws when the decision engine was replaced with a non-PF engine.
  [[nodiscard]] const pf::PolicyEngine& engine() const;

  /// Distinct responses held by the consumed-response dedupe memo (at
  /// most RecentKeys::kMaxSightings).
  [[nodiscard]] std::size_t recent_response_count() const noexcept {
    return recent_responses_.size();
  }

 protected:
  // ---- AdmissionController hooks -------------------------------------------

  /// Install the ident++ intercept rules (TCP 783 both directions punt to
  /// controller) on every adopted switch.
  void on_switch_adopted(openflow::Switch& sw) override;

  /// Claims ident++ control traffic (TCP 783) before flow admission.
  bool handle_special_packet(const openflow::PacketIn& msg,
                             const net::FiveTuple& flow) override;

  /// Send an ident++ query to the daemon at `target.target` about `flow`,
  /// spoofing `target.spoof_src` (§3.2).  Returns false when the host is
  /// unknown or unreachable.
  bool send_query(const net::FiveTuple& flow,
                  const QueryTarget& target) override;

 private:
  void handle_ident_packet(const openflow::PacketIn& msg,
                           const net::FiveTuple& flow);
  void handle_transit_query(const openflow::PacketIn& msg);
  void forward_one_hop(const openflow::PacketIn& msg,
                       net::Ipv4Address toward_ip);
  /// Record a sighting in `memo`, counting an early retirement.
  void remember(RecentKeys& memo, const RecentKeys::Key& key, sim::SimTime now);

  /// Responses this controller recently augmented, so a response punted at
  /// every hop through the domain is only augmented once.  Time-bounded:
  /// an entry only suppresses re-augmentation within kAugmentWindow (a
  /// response crosses the domain in far less), so reused 5-tuples (port
  /// reuse on long-running networks) augment correctly again.
  static constexpr sim::SimTime kAugmentWindow = 1 * sim::kSecond;
  RecentKeys augmented_{kAugmentWindow};
  /// Responses recently consumed into a pending flow, keyed by the
  /// flow-oriented tuple plus the carrying packet's ports: an identical
  /// copy arriving with no pending context within kAugmentWindow is a
  /// channel duplicate and is deduped, not transit-forwarded
  /// (DESIGN.md §14).  Responses about the same flow on a different
  /// ephemeral port (a host querying its peer directly, §4) still
  /// transit.
  RecentKeys recent_responses_{kAugmentWindow};
  ResponseAugmenter augmenter_;
  QueryInterceptor query_interceptor_;
  /// The outgoing query, its keys set once; send_query fills in the flow.
  proto::Query query_;
  std::uint16_t next_query_port_ = 20000;
  std::optional<util::SplitMix64> query_port_rng_;  ///< seeded stream, if any
};

}  // namespace identxx::ctrl
