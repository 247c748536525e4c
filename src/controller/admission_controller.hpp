#pragma once

// AdmissionController: the one flow-admission skeleton.
//
// Drives an AdmissionPipeline (admission.hpp) from the OpenFlow control
// channel: packet-in -> decision cache -> query plan -> collect responses
// (with deadline) -> DecisionEngine -> InstallStrategy -> release buffered
// packets, with every step mirrored to the attached AdmissionObservers.
//
// The ident++ controller and all three baseline controllers are this class
// with different pipelines (and, for ident++, the §2/§3.4 wire-level
// interception layered on top in IdentxxController).  The old duplicated
// adopt/register/install skeleton in baselines.cpp is gone.

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "controller/admission.hpp"

namespace identxx::ctrl {

class AdmissionController : public openflow::ControlPlane, public AdmissionEnv {
 public:
  /// `topology` must outlive the controller.  `pipeline.engine` is
  /// required; unset stages are defaulted via AdmissionPipeline::finish.
  AdmissionController(openflow::Topology* topology, AdmissionPipeline pipeline,
                      ControllerConfig config = {});
  ~AdmissionController() override = default;

  // ---- domain wiring -------------------------------------------------------

  /// Take ownership of a switch's control channel: sets this controller on
  /// it, then lets the subclass install boot rules (on_switch_adopted).
  void adopt_switch(sim::NodeId switch_id,
                    sim::SimTime control_latency = 100 * sim::kMicrosecond);

  /// Add a switch to this controller's install domain WITHOUT taking its
  /// control channel or installing boot rules — sharded admission domains
  /// share every switch while a ShardedAdmissionController front-end owns
  /// the channels and dispatches messages by flow shard.
  void join_domain(sim::NodeId switch_id);

  /// Teach the controller where a host lives (IP -> node/attachment/MAC).
  void register_host(net::Ipv4Address ip, sim::NodeId node,
                     net::MacAddress mac);

  // ---- management ----------------------------------------------------------

  /// Swap the decision engine (hot policy reload).  Does not flush
  /// installed entries — call revoke_all() for that — but does clear the
  /// decision cache: stale verdicts must not outlive the policy that
  /// produced them.
  void replace_engine(std::unique_ptr<DecisionEngine> engine);

  /// Remove every flow entry this controller installed (revocation, §1).
  /// Boot rules (e.g. ident++ intercepts) stay.  Also invalidates the
  /// whole decision cache.  Returns entries removed.
  std::size_t revoke_all();

  /// Remove installed entries whose flow matches `pred`, and invalidate
  /// matching cached decisions — a revoked flow must not be silently
  /// re-admitted from cache.
  std::size_t revoke_if(const std::function<bool(const net::FiveTuple&)>& pred);

  /// §5.1: a compromised controller disables all protection.
  void set_compromised(bool compromised) noexcept { compromised_ = compromised; }

  /// Attach an additional observer (tracing, metrics, tests).
  void add_observer(std::unique_ptr<AdmissionObserver> observer);

  /// Record a control-channel packet-in handled through a sharded
  /// front-end dispatch path that bypasses on_packet_in (direct response
  /// consumption) — keeps per-domain packet_in accounting equal to a
  /// standalone controller's.
  void observe_packet_in(const openflow::PacketIn& msg) {
    notify([&](AdmissionObserver& o) { o.on_packet_in(msg); });
  }

  // ---- accounting ----------------------------------------------------------

  /// Datapath usage of a flow this controller admitted, read back from the
  /// switches' flow tables (OpenFlow counters) — accounting/audit support.
  struct FlowUsage {
    net::FiveTuple flow;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  /// Aggregate per-flow counters across the domain's switches.  Entries
  /// installed on several switches along a path count each packet once
  /// (the maximum over switches is reported).
  [[nodiscard]] std::vector<FlowUsage> flow_usage() const;

  /// Cookies with live flow-table entries somewhere in the domain.  The
  /// map shrinks as entries expire/evict (flow-removed notifications) and
  /// synchronously on revoke_all/revoke_if/replace_engine — the seed kept
  /// every cookie forever, an unbounded leak under sustained traffic.
  [[nodiscard]] std::size_t installed_flow_count() const noexcept {
    return installed_flows_.size();
  }

  // ---- ControlPlane --------------------------------------------------------

  void on_packet_in(const openflow::PacketIn& msg) override;
  void on_flow_removed(const openflow::FlowRemovedMsg& msg) override;

  // ---- observation ---------------------------------------------------------

  [[nodiscard]] const ControllerStats& stats() const noexcept {
    return stats_observer_->stats();
  }
  /// Bounded audit trail (ring buffer of config.audit_log_capacity).
  [[nodiscard]] const std::deque<DecisionRecord>& audit_log() const noexcept {
    return audit_observer_->records();
  }
  /// Audit records discarded to stay within the retention bound.
  [[nodiscard]] std::uint64_t audit_dropped() const noexcept {
    return audit_observer_->dropped();
  }

  // ---- pipeline access (tests, tuning) -------------------------------------

  [[nodiscard]] QueryPlanner& planner() noexcept { return *pipeline_.planner; }
  [[nodiscard]] ResponseCollector& collector() noexcept {
    return *pipeline_.collector;
  }
  [[nodiscard]] DecisionEngine& decision_engine() noexcept {
    return *pipeline_.engine;
  }
  [[nodiscard]] const DecisionEngine& decision_engine() const noexcept {
    return *pipeline_.engine;
  }
  [[nodiscard]] LruDecisionCache* decision_cache() noexcept {
    return pipeline_.cache.get();
  }
  [[nodiscard]] InstallStrategy& installer() noexcept {
    return *pipeline_.installer;
  }

  // ---- AdmissionEnv --------------------------------------------------------

  [[nodiscard]] openflow::Topology& topology() noexcept override {
    return *topology_;
  }
  [[nodiscard]] const std::unordered_set<sim::NodeId>& domain()
      const noexcept override {
    return domain_;
  }
  [[nodiscard]] const HostInfo* find_host(net::Ipv4Address ip) const override;
  [[nodiscard]] const ControllerConfig& config() const noexcept override {
    return config_;
  }
  [[nodiscard]] sim::Simulator& simulator() noexcept override {
    return topology_->simulator();
  }
  std::uint64_t allocate_cookie(const net::FiveTuple& flow) override;

 protected:
  /// Install boot rules on a freshly adopted switch (ident++ intercepts).
  virtual void on_switch_adopted(openflow::Switch& sw) { (void)sw; }

  /// First shot at a packet-in (after the compromised check).  Return true
  /// when fully handled — ident++ claims its TCP-783 control traffic here.
  virtual bool handle_special_packet(const openflow::PacketIn& msg,
                                     const net::FiveTuple& flow) {
    (void)msg;
    (void)flow;
    return false;
  }

  /// Deliver one planned query; returns false when the target cannot be
  /// reached (unknown host, no daemon transport).  Baselines never plan
  /// queries, so the default never fires.
  virtual bool send_query(const net::FiveTuple& flow,
                          const QueryTarget& target) {
    (void)flow;
    (void)target;
    return false;
  }

  /// Admission for an ordinary (non-special) packet-in.
  void handle_new_flow(const openflow::PacketIn& msg,
                       const net::FiveTuple& flow);

  /// If both sides of `ctx` are in, proxy-fill any side that never
  /// answered and dispatch it as a batch of one; returns false (and does
  /// nothing) while a side is still awaited.  A context whose decision is
  /// already in flight counts as dispatched.
  bool decide_if_ready(AdmissionContext& ctx);

  template <typename Fn>
  void notify(Fn&& fn) {
    for (const auto& observer : observers_) fn(*observer);
  }

 private:
  /// Did this controller allocate `cookie`?  Namespacing (the top 16 bits
  /// carry config.cookie_namespace) lets sharded domains share switch
  /// tables yet revoke only their own entries.
  [[nodiscard]] bool owns_cookie(std::uint64_t cookie) const noexcept;
  /// Commit a shard-lane verdict on the global lane.  If a control-plane
  /// change (revocation / policy swap) happened since dispatch, the stale
  /// verdict is discarded and the flow re-decides under the current
  /// engine — never a stale cover or cache entry.
  void commit_decision(AdmissionContext& ctx, AdmissionDecision decision,
                       std::uint64_t dispatch_epoch);
  /// Does any domain switch still hold an entry with this cookie?
  [[nodiscard]] bool cookie_live(std::uint64_t cookie) const;
  /// Drop cookie-map entries whose last flow-table entry is gone.
  void prune_installed_flows();
  void replay_cached(const openflow::PacketIn& msg, const net::FiveTuple& flow,
                     const AdmissionDecision& cached);
  /// Batch-decide every pending flow whose deadline has passed.
  void sweep_expired();
  /// The one dispatch of fresh decisions: DecisionEngine::decide_many over
  /// `batch` (a ready flow alone, or a deadline sweep's expired flows),
  /// then finalize.  With a shard decision lane configured, evaluation
  /// runs on that lane and the verdicts commit back on the global lane at
  /// the same virtual instant (commit_decision) — one shard-lane event
  /// per batch.
  void dispatch_decisions(std::vector<AdmissionContext*> batch);
  // -- robustness (DESIGN.md §14) -------------------------------------------
  /// Re-issue `ctx`'s unanswered queries with exponential backoff + seeded
  /// jitter.  Returns true when a retry went out (the context keeps
  /// waiting); false when the retry budget is spent or nothing re-sendable
  /// remains (the caller proceeds to the timeout decision).
  bool retry_queries(AdmissionContext& ctx);
  /// Order-independent jitter for `ctx`'s current retry: a pure hash of
  /// (flow, attempt, config.retry_jitter_seed), so sharding and worker
  /// count never change the draw.
  [[nodiscard]] sim::SimTime retry_jitter_for(
      const AdmissionContext& ctx) const;
  /// Remember `ctx`'s first packet-in and schedule a re-admission probe
  /// (bounded by config.max_readmission_probes).
  void schedule_readmission_probe(AdmissionContext& ctx);
  /// Re-enter admission for a degraded flow: lift its fail-closed cover
  /// and replay the remembered packet-in through handle_new_flow, so the
  /// re-decision flows through the normal dispatch/commit/control-epoch
  /// machinery.
  void probe_readmission(const net::FiveTuple& flow);
  /// Remove this controller's installed entries for exactly `flow`
  /// (targeted, no control-epoch bump).
  std::size_t remove_flow_entries(const net::FiveTuple& flow);
  void finalize(AdmissionContext& ctx, const AdmissionDecision& decision);
  /// Turn a verdict into flow-table state and release/drop the buffered
  /// packets — shared by fresh decisions (finalize) and cache replays.
  void apply_decision(AdmissionContext& ctx, const AdmissionDecision& decision);
  void release_buffered(AdmissionContext& ctx, bool allowed);

  openflow::Topology* topology_;
  AdmissionPipeline pipeline_;
  ControllerConfig config_;
  std::unordered_set<sim::NodeId> domain_;
  std::unordered_map<net::Ipv4Address, HostInfo> hosts_;
  std::unordered_map<std::uint64_t, net::FiveTuple> installed_flows_;
  /// Degraded flows awaiting re-admission (DESIGN.md §14): the first
  /// buffered packet-in is kept so a probe can re-enter admission once the
  /// daemon may have recovered.  Entries die on a full-information
  /// decision; a flow whose probe budget is spent keeps its entry so later
  /// degraded verdicts do not restart the probe train.
  struct DegradedFlow {
    openflow::PacketIn first_msg;
    std::uint32_t probes_scheduled = 0;
  };
  std::unordered_map<net::FiveTuple, DegradedFlow> degraded_;
  std::vector<std::unique_ptr<AdmissionObserver>> observers_;
  StatsObserver* stats_observer_ = nullptr;   // owned via observers_
  AuditLogObserver* audit_observer_ = nullptr;  // owned via observers_
  std::uint64_t next_cookie_ = 1;
  /// Bumped by revoke_all / revoke_if / replace_engine; shard-lane
  /// decisions dispatched under an older epoch are discarded at commit
  /// and re-decided (commit_decision).
  std::uint64_t control_epoch_ = 0;
  sim::SimTime last_scheduled_sweep_ = -1;  ///< dedupes per-tick sweeps
  bool compromised_ = false;
};

}  // namespace identxx::ctrl
