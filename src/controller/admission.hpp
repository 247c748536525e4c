#pragma once

// The AdmissionPipeline: flow admission decomposed into pluggable stages.
//
// The paper's core loop (Figure 1: packet-in -> query daemons -> collect
// responses -> evaluate PF policy -> install path) used to live fused
// inside one monolithic controller, with the baseline controllers
// re-implementing the same adopt/register/install skeleton behind a
// second, incompatible interface.  This header splits the loop into five
// stage contracts (DESIGN.md, "AdmissionPipeline stage contract"):
//
//   QueryPlanner      — which endpoints to ask about a new flow, and with
//                       which spoofed source address (§3.2); the src-only
//                       ablation and the baselines' "ask nobody" live here.
//   ResponseCollector — pending-flow state: buffered packet-ins, arrived
//                       responses, proxy answers (§4 incremental benefit)
//                       and decision deadlines.
//   DecisionEngine    — renders the verdict.  PF+=2 evaluation for ident++
//                       and Ethane (the latter simply has no responses to
//                       look at), ACL first-match for the vanilla firewall,
//                       allow-everything for the distributed firewall.  Every
//                       verdict goes through decide_many(): one context
//                       per ready flow, a whole batch per deadline sweep.
//   LruDecisionCache  — optional TTL/LRU memo of verdicts so repeat
//                       packet-ins skip the daemon round trip (§6 ablation).
//   InstallStrategy   — turns a verdict into flow-table state: full-path vs
//                       ingress-only entries, drop-entry placement.
//
// Cross-cutting observation goes through AdmissionObserver, which subsumes
// the audit log, ControllerStats and DecisionRecord emission.  A pipeline
// is just the bundle of stages; AdmissionController (see
// admission_controller.hpp) drives it.

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "identxx/dict.hpp"
#include "identxx/wire.hpp"
#include "openflow/switch.hpp"
#include "openflow/topology.hpp"
#include "pf/eval.hpp"

namespace identxx::crypto {
class SchnorrVerifier;
}

namespace identxx::ctrl {

/// Tuning knobs; defaults mirror the paper's implied design.  The ablation
/// flags correspond to DESIGN.md §6.
struct ControllerConfig {
  std::string name = "controller";
  /// How long to wait for daemon responses before deciding with whatever
  /// information arrived.
  sim::SimTime query_timeout = 50 * sim::kMillisecond;
  /// Robustness knobs (DESIGN.md §14).  Retries beyond the initial query
  /// round: on a deadline with a side still unanswered, re-issue that
  /// side's query up to this many times with exponential backoff
  /// (query_timeout << attempt) before deciding.  0 = legacy single-shot.
  std::uint32_t max_query_retries = 0;
  /// Upper bound on the seeded jitter added to each retry deadline.  The
  /// jitter is a pure hash of (flow, attempt, retry_jitter_seed), so it is
  /// identical at any shard count.  0 = no jitter.
  sim::SimTime retry_jitter = 0;
  std::uint64_t retry_jitter_seed = 0;
  /// Graceful degradation: when > 0 and retries exhaust with a queried
  /// side still silent, install a fail-closed drop cover with THIS hard
  /// timeout (tagged degraded, never cached) instead of the legacy
  /// partial-information full-TTL verdict, and schedule a re-admission
  /// probe so the flow is re-decided with full information once the
  /// daemon recovers.  0 = legacy behaviour.
  sim::SimTime degraded_cover_ttl = 0;
  sim::SimTime readmission_probe_delay = 100 * sim::kMillisecond;
  std::uint32_t max_readmission_probes = 3;
  /// Timeouts stamped on installed flow entries (0 = none).
  sim::SimTime flow_idle_timeout = 60 * sim::kSecond;
  sim::SimTime flow_hard_timeout = 0;
  /// Install entries on every switch along the path (Figure 1 step 4)
  /// versus only at the ingress switch (each later switch re-asks).
  bool install_full_path = true;
  /// Cache negative decisions as drop entries at the ingress switch.
  bool install_drop_entries = true;
  /// Query both ends (§2) or only the source.
  bool query_both_ends = true;
  /// Controller-level decision cache TTL.  When caching is active, repeat
  /// packet-ins for an already-decided flow (e.g. from later switches when
  /// install_full_path is off, or after an idle-timeout race) are answered
  /// without re-querying the daemons.  Caching is enabled when this or
  /// decision_cache_capacity is nonzero.  ttl = 0 means entries NEVER age
  /// out: with a capacity that is a pure LRU bound, without one (an
  /// unbounded LruDecisionCache constructed directly) the cache only
  /// shrinks through invalidation.  It never means "bypass" —
  /// a cache that expires everything instantly would count insertions and
  /// misses while silently disabling the §6 ablation it exists for.
  /// Revocation, policy swaps and the shard control epoch invalidate
  /// cached verdicts regardless of remaining TTL.
  sim::SimTime decision_cache_ttl = 0;
  /// Bound on cached decisions (0 = unbounded).  With a bound the cache
  /// evicts least-recently-used entries; either way it is an
  /// LruDecisionCache.
  std::size_t decision_cache_capacity = 0;
  /// Priority for installed per-flow entries; ident++ intercept rules are
  /// installed at kInterceptPriority and must stay on top.
  std::uint16_t flow_priority = 100;
  static constexpr std::uint16_t kInterceptPriority = 1000;
  /// Aggregated rule cache: when a decision's matched policy rule
  /// constrains only switch-visible fields (proto, ports, CIDRs), install
  /// ONE wildcard/prefix entry covering the whole rule instead of a
  /// per-flow exact entry (AggregatingInstallStrategy).  Off by default:
  /// aggregated flows bypass the controller entirely, so per-flow audit
  /// records and daemon queries are traded for table compactness.
  bool aggregate_installs = false;
  /// Bound on retained audit-log records (ring buffer: oldest records
  /// drop first, counted in AuditLogObserver::dropped()).  0 keeps only
  /// the latest record; there is no unbounded setting.  The default is
  /// high enough that bounded behaviour is invisible in normal runs.
  static constexpr std::size_t kDefaultAuditLogCapacity = 1 << 20;
  std::size_t audit_log_capacity = kDefaultAuditLogCapacity;
  /// Sharded-domain wiring (sharded_controller.hpp, DESIGN.md §10).  When
  /// decision_lane is a shard lane (nonzero), the DecisionEngine runs on
  /// that lane and the resulting verdict commits back on the global lane
  /// at the same virtual instant, so sharding never changes simulated
  /// timings.
  sim::LaneId decision_lane = sim::kGlobalLane;
  /// Cookie namespace tag (top 16 bits of every allocated cookie).  Zero
  /// for classic standalone controllers; domain i of a sharded controller
  /// uses i + 1, so domains sharing switch tables revoke only their own
  /// entries.
  std::uint16_t cookie_namespace = 0;
  /// Injected determinism mutation (model-checker self-test, DESIGN.md
  /// §13): commit shard-lane verdicts without the control-epoch
  /// re-decision, so a revoke/set_policy landing between dispatch and
  /// commit leaves the stale verdict in force.  Never set in production
  /// configurations.
  bool fault_skip_epoch_redecide = false;
};

/// One line of the audit log ("log and audit the delegates' actions", §1).
struct DecisionRecord {
  sim::SimTime time = 0;
  net::FiveTuple flow;
  bool allowed = false;
  bool timed_out = false;        ///< decided without both responses
  bool degraded = false;         ///< fail-closed cover, retries exhausted
  bool logged = false;           ///< matched rule carried PF's `log` modifier
  std::string rule;              ///< to_string of the matched rule, or "default"
  std::string src_user;          ///< @src[userID] if provided
  std::string src_app;           ///< @src[name] if provided
  std::string dst_user;          ///< @dst[userID] if provided
  sim::SimTime setup_latency = 0;  ///< first packet-in -> decision

  [[nodiscard]] bool operator==(const DecisionRecord&) const = default;
};

/// Canonical total order for merging per-domain audit logs: time first,
/// then the flow identity and verdict fields, so a merged log is
/// identical whatever the shard count that produced it.
[[nodiscard]] bool audit_record_before(const DecisionRecord& a,
                                       const DecisionRecord& b) noexcept;

struct ControllerStats {
  std::uint64_t packet_ins = 0;
  std::uint64_t flows_seen = 0;
  std::uint64_t flows_allowed = 0;
  std::uint64_t flows_blocked = 0;
  std::uint64_t queries_sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t query_timeouts = 0;
  std::uint64_t entries_installed = 0;
  std::uint64_t buffered_packets_released = 0;
  std::uint64_t ident_transit_forwarded = 0;
  std::uint64_t responses_augmented = 0;
  std::uint64_t queries_proxied = 0;
  std::uint64_t flows_expired = 0;
  std::uint64_t flows_logged = 0;      ///< decisions from `log` rules
  std::uint64_t decision_cache_hits = 0;
  std::uint64_t query_retries = 0;       ///< re-issued queries (§14)
  std::uint64_t duplicate_responses = 0; ///< deduped daemon responses
  std::uint64_t degraded_verdicts = 0;   ///< fail-closed degraded covers
  /// Response-memo sightings retired early because the memo was full
  /// (RecentKeys::kMaxSightings); a §5 flood signal, printed nowhere.
  std::uint64_t dedupe_memo_evictions = 0;

  [[nodiscard]] bool operator==(const ControllerStats&) const = default;

  /// Field-wise sum — aggregating a sharded controller's per-domain stats.
  void accumulate(const ControllerStats& other) noexcept;
};

/// Where a registered host lives (IP -> node/attachment/MAC).
struct HostInfo {
  sim::NodeId node = sim::kInvalidNode;
  net::MacAddress mac;
};

/// What a stage may see of the controller driving it.  Implemented by
/// AdmissionController; narrow on purpose so stages stay composable and
/// testable without a full controller behind them.
class AdmissionEnv {
 public:
  virtual ~AdmissionEnv() = default;
  [[nodiscard]] virtual openflow::Topology& topology() noexcept = 0;
  [[nodiscard]] virtual const std::unordered_set<sim::NodeId>& domain()
      const noexcept = 0;
  [[nodiscard]] virtual const HostInfo* find_host(net::Ipv4Address ip) const = 0;
  [[nodiscard]] virtual const ControllerConfig& config() const noexcept = 0;
  [[nodiscard]] virtual sim::Simulator& simulator() noexcept = 0;
  /// Allocate a flow-entry cookie and register it against `flow` for
  /// usage accounting (flow_usage()) and expiry attribution.
  virtual std::uint64_t allocate_cookie(const net::FiveTuple& flow) = 0;
};

/// One daemon to ask about a flow.  `spoof_src` is stamped as the query
/// packet's source address — §3.2: the flow's other endpoint, so the
/// daemon resolves the right socket.  (Defined before AdmissionContext so
/// pending flows can remember their plan for retries, DESIGN.md §14.)
struct QueryTarget {
  net::Ipv4Address target;
  net::Ipv4Address spoof_src;
  bool is_source_side = false;  ///< answer fills @src (else @dst)
};

struct QueryPlan {
  std::vector<QueryTarget> targets;  ///< empty = decide immediately
};

/// Everything collected about one flow between its first packet-in and the
/// decision (replaces the old controller-private PendingFlow).
struct AdmissionContext {
  net::FiveTuple flow;
  std::vector<openflow::PacketIn> buffered;
  /// The parsed answers, moved in by ResponseCollector::accept_response.
  /// The ResponseDicts a decision reads borrow them, so a dict must not
  /// outlive this context (DESIGN.md §2.1).
  std::optional<proto::Response> src_response;
  std::optional<proto::Response> dst_response;
  /// The query plan that opened this context, kept so deadline retries can
  /// re-issue exactly the unanswered sides (DESIGN.md §14).
  std::vector<QueryTarget> targets;
  std::uint32_t retries_used = 0;
  sim::SimTime first_seen = 0;
  sim::SimTime deadline = 0;       ///< 0 = no deadline armed
  std::uint64_t generation = 0;    ///< set by arm_deadline; guards sweeps
  bool awaiting_src = false;
  bool awaiting_dst = false;
  /// Set (before the engine runs) when the decision fires at the query
  /// deadline rather than on complete responses; engines may consult it.
  bool timed_out = false;
  /// A sharded domain has dispatched this context's decision to its shard
  /// lane; the verdict commits on the global lane at the same virtual
  /// instant.  Guards against double decisions (e.g. a response arriving
  /// in the same wave as the deadline sweep).
  bool decision_in_flight = false;
};

/// A DecisionEngine's verdict, decoupled from pf::Verdict so non-PF
/// engines (ACL, allow-all, test fakes) speak the same language.
struct AdmissionDecision {
  bool allowed = false;
  bool keep_state = false;  ///< also admit the reverse direction
  bool logged = false;      ///< matched rule carried the `log` modifier
  /// Fail-closed degraded verdict (DESIGN.md §14): retries exhausted with a
  /// queried side silent.  Installed as a short-TTL drop cover, never
  /// cached, and followed by a re-admission probe.
  bool degraded = false;
  std::string rule = "default";  ///< matched rule rendering, for the audit log
  /// Rule-level cover: non-empty when the matched rule's scope is
  /// expressible as a small set of wildcard/prefix FlowMatches AND no
  /// other rule can decide a covered flow differently — i.e. caching the
  /// whole rule in a switch is sound.  A single-valued rule covers with
  /// one entry; contiguous port ranges decompose into prefix-masked port
  /// entries (at most kMaxCoverEntries).  Consumed by
  /// AggregatingInstallStrategy; engines that cannot prove soundness
  /// leave it empty.
  static constexpr std::size_t kMaxCoverEntries = 8;
  std::vector<openflow::FlowMatch> covers;
};

// ---------------------------------------------------------------------------
// Stage 1: QueryPlanner
// ---------------------------------------------------------------------------

// QueryTarget/QueryPlan are declared above AdmissionContext (pending flows
// keep their plan for deadline retries).

class QueryPlanner {
 public:
  virtual ~QueryPlanner() = default;
  virtual QueryPlan plan(const net::FiveTuple& flow, AdmissionEnv& env) = 0;
};

/// ident++ planning: query the source, and the destination unless the
/// src-only ablation (config.query_both_ends = false) is active.
class EndpointQueryPlanner : public QueryPlanner {
 public:
  QueryPlan plan(const net::FiveTuple& flow, AdmissionEnv& env) override;
};

/// Baseline planning: ask nobody, decide from network primitives alone.
class NoQueryPlanner : public QueryPlanner {
 public:
  QueryPlan plan(const net::FiveTuple&, AdmissionEnv&) override { return {}; }
};

// ---------------------------------------------------------------------------
// Stage 2: ResponseCollector
// ---------------------------------------------------------------------------

/// Pending-flow bookkeeping: one AdmissionContext per undecided flow,
/// response matching, proxy answers and decision deadlines.  Contexts are
/// stable in memory until erase().
class ResponseCollector {
 public:
  struct BeginResult {
    AdmissionContext* context = nullptr;
    bool inserted = false;  ///< false: decision already in flight
  };

  /// Start (or join) the pending entry for `flow`; `msg` is buffered either
  /// way.
  BeginResult begin(const net::FiveTuple& flow, const openflow::PacketIn& msg,
                    sim::SimTime now);

  [[nodiscard]] AdmissionContext* find(const net::FiveTuple& flow);

  /// Match an on-the-wire response to a pending flow: the responder may be
  /// the flow's source or its destination.  Fills the matching slot by
  /// moving `response` into it and returns the context, or nullptr when no
  /// pending flow matches (a response transiting this domain).  A response
  /// for a slot that is already filled (a duplicated channel delivery, or
  /// a retry's answer crossing the original) is NOT applied — first answer
  /// wins — and is flagged through `duplicate` when the caller asks
  /// (DESIGN.md §14).  `response` is moved from only when it fills a slot.
  AdmissionContext* accept_response(net::Ipv4Address responder,
                                    net::Ipv4Address peer,
                                    proto::Response& response,
                                    bool* duplicate = nullptr);

  /// Both sides answered (or were never asked)?
  [[nodiscard]] static bool ready(const AdmissionContext& ctx) noexcept {
    return (!ctx.awaiting_src || ctx.src_response) &&
           (!ctx.awaiting_dst || ctx.dst_response);
  }

  // -- proxy answers (§4 incremental benefit) -------------------------------

  /// Answer queries for `ip` on the host's behalf (host without a daemon).
  void set_proxy(net::Ipv4Address ip, proto::Section section);

  /// Fill sides that were never queried from configured proxy sections.
  /// Called right after planning; the destination side is only proxied when
  /// the deployment queries both ends.  Returns sections filled.
  std::size_t fill_proxies_at_begin(AdmissionContext& ctx,
                                    bool query_both_ends);

  /// Late fill-in at decision time for any side that never answered
  /// (queried-but-timed-out included).  Returns sections filled.
  std::size_t fill_proxies_at_decide(AdmissionContext& ctx);

  // -- deadlines ------------------------------------------------------------

  /// Record `ctx`'s decision deadline.  First-round deadlines arrive in
  /// order (constant timeout), so insertion is an O(1) append; a retry's
  /// backed-off deadline may land out of order and is placed by a sorted
  /// insert, keeping expiry pops O(expired), not O(pending).
  void arm_deadline(AdmissionContext& ctx, sim::SimTime deadline);

  /// Pending contexts whose deadline has passed, oldest first.  Consumes
  /// the matching queue entries.
  [[nodiscard]] std::vector<AdmissionContext*> expired(sim::SimTime now);

  void erase(const net::FiveTuple& flow);

  [[nodiscard]] std::size_t pending_count() const noexcept {
    return pending_.size();
  }

 private:
  [[nodiscard]] bool fill_proxy(AdmissionContext& ctx, bool source_side);

  struct Deadline {
    sim::SimTime at = 0;
    std::uint64_t generation = 0;
    net::FiveTuple flow;
  };

  std::unordered_map<net::FiveTuple, AdmissionContext> pending_;
  std::unordered_map<net::Ipv4Address, proto::Section> proxies_;
  std::deque<Deadline> deadlines_;  ///< non-decreasing in `at`
  std::uint64_t generation_counter_ = 0;
};

// ---------------------------------------------------------------------------
// Stage 3: DecisionEngine
// ---------------------------------------------------------------------------

class DecisionEngine {
 public:
  virtual ~DecisionEngine() = default;

  /// Decide one context.  The controller calls it directly only to
  /// re-decide a verdict whose control epoch went stale between dispatch
  /// and commit.
  virtual AdmissionDecision decide(const AdmissionContext& ctx) = 0;

  /// The controller's decision entry point: one context when a flow's
  /// responses are in, every expired context when a query deadline fires
  /// (a packet-in storm), so engines can amortize evaluation — duplicate
  /// flows in one batch are evaluated once.  The default just loops
  /// decide().
  virtual std::vector<AdmissionDecision> decide_many(
      const std::vector<const AdmissionContext*>& batch);
};

/// PF+=2 evaluation (§3.3).  Drives both the ident++ controller and the
/// Ethane baseline: Ethane simply never has responses, so @src/@dst stay
/// empty and only network primitives plus the @flow extension match.
/// Fails closed (block) on PolicyError — administrator configuration
/// errors must not admit traffic.
class PolicyDecisionEngine : public DecisionEngine {
 public:
  explicit PolicyDecisionEngine(pf::Ruleset ruleset);
  /// `honor_keep_state = false` strips `keep state` from verdicts (the
  /// Ethane baseline: reverse traffic re-decides on its own packet-in).
  PolicyDecisionEngine(pf::Ruleset ruleset, pf::FunctionRegistry registry,
                       bool honor_keep_state = true);

  /// One flow through pf::PolicyEngine::evaluate, failing closed (block)
  /// on PolicyError.
  AdmissionDecision decide(const AdmissionContext& ctx) override;
  /// decide() on each distinct 5-tuple of the batch, in order; repeat
  /// packet-ins of one flow share its decision (DESIGN.md §11).  A
  /// PolicyError blocks only the flow that hit it.
  std::vector<AdmissionDecision> decide_many(
      const std::vector<const AdmissionContext*>& batch) override;

  [[nodiscard]] const pf::PolicyEngine& policy_engine() const noexcept {
    return *engine_;
  }

  /// The precomputed rule covers for rule index `i` (tests/inspection):
  /// non-empty iff caching rule `i` as that set of wildcard/prefix-masked
  /// entries is sound.  Port ranges decompose into several entries.
  [[nodiscard]] const std::vector<openflow::FlowMatch>& rule_cover(
      std::size_t i) const {
    return covers_.at(i);
  }

  /// The Schnorr verifier behind the policy's `verify` builtin (per-key
  /// tables + bounded memo); nullptr for registries without it.  Keys
  /// embedded in the policy's dicts are registered at engine construction.
  [[nodiscard]] crypto::SchnorrVerifier* verifier() const noexcept;

 private:
  [[nodiscard]] pf::FlowContext make_flow_context(
      const AdmissionContext& ctx) const;
  [[nodiscard]] AdmissionDecision to_decision(const pf::Verdict& verdict) const;

  std::unique_ptr<pf::PolicyEngine> engine_;
  bool honor_keep_state_ = true;
  /// Per-rule aggregation covers, computed once from the ruleset.
  std::vector<std::vector<openflow::FlowMatch>> covers_;
  /// Per-rule audit renderings (pf::to_string), made once from the ruleset.
  std::vector<std::string> rule_texts_;
};

/// Classic firewall rule: first-match ACL over network primitives.
struct AclRule {
  net::Cidr src{net::Ipv4Address{}, 0};  // 0.0.0.0/0 = any
  net::Cidr dst{net::Ipv4Address{}, 0};
  std::optional<net::IpProto> proto;
  std::uint16_t dst_port_low = 0;  // 0..65535 = any
  std::uint16_t dst_port_high = 65535;
  bool allow = false;
};

/// Stateful 5-tuple packet filter: ordered first-match ACL, with the
/// reverse direction of an allowed flow admitted from the state table.
class AclDecisionEngine : public DecisionEngine {
 public:
  explicit AclDecisionEngine(bool default_allow) : default_allow_(default_allow) {}

  void add_rule(AclRule rule) { acl_.push_back(rule); }

  /// First matching rule decides; `default_allow` otherwise.
  [[nodiscard]] bool evaluate_acl(const net::FiveTuple& flow) const;

  AdmissionDecision decide(const AdmissionContext& ctx) override;

 private:
  std::vector<AclRule> acl_;
  bool default_allow_;
  std::unordered_set<net::FiveTuple> allowed_flows_;  // state table
};

/// Distributed firewall [9]: the network forwards everything; enforcement
/// happens in the end-hosts' ingress filters.
class AllowAllDecisionEngine : public DecisionEngine {
 public:
  AdmissionDecision decide(const AdmissionContext&) override {
    AdmissionDecision decision;
    decision.allowed = true;
    decision.rule = "pass (end-host enforced)";
    return decision;
  }
};

// ---------------------------------------------------------------------------
// Stage 3b: LruDecisionCache
// ---------------------------------------------------------------------------

/// LRU decision cache with optional capacity and TTL.  capacity = 0 means
/// unbounded; ttl = 0 means entries never age out (see
/// ControllerConfig::decision_cache_ttl) — with neither, the cache only
/// shrinks through invalidate_if/clear.  Lookup refreshes recency.
class LruDecisionCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t expirations = 0;   ///< entries dropped because TTL passed
    std::uint64_t evictions = 0;     ///< entries dropped for capacity
    std::uint64_t invalidations = 0; ///< entries dropped by invalidate_if/clear
  };

  LruDecisionCache(std::size_t capacity, sim::SimTime ttl);

  std::optional<AdmissionDecision> lookup(const net::FiveTuple& flow,
                                          sim::SimTime now);
  void store(const net::FiveTuple& flow, const AdmissionDecision& decision,
             sim::SimTime now);

  /// Drop cached decisions whose flow matches `pred`; returns entries
  /// dropped.  Revocation MUST call this: a revoked flow silently
  /// re-admitted from cache would defeat revoke_if entirely.
  std::size_t invalidate_if(
      const std::function<bool(const net::FiveTuple&)>& pred);
  void clear();
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// 0 = unbounded.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    net::FiveTuple flow;
    AdmissionDecision decision;
    sim::SimTime expires = 0;  ///< 0 = no TTL
  };
  using Order = std::list<Entry>;

  std::size_t capacity_;
  sim::SimTime ttl_;
  Order order_;  ///< front = most recently used
  std::unordered_map<net::FiveTuple, Order::iterator> entries_;
  Stats stats_;
};

// ---------------------------------------------------------------------------
// Stage 4: InstallStrategy
// ---------------------------------------------------------------------------

class InstallStrategy {
 public:
  virtual ~InstallStrategy() = default;

  /// Install entries admitting `ctx.flow`; `decision` carries the
  /// optional rule-level cover.  Returns entries installed.
  virtual std::size_t install_allow(AdmissionEnv& env,
                                    const AdmissionContext& ctx,
                                    const AdmissionDecision& decision) = 0;

  /// Install entries discarding `ctx.flow`; returns entries installed.
  virtual std::size_t install_drop(AdmissionEnv& env,
                                   const AdmissionContext& ctx,
                                   const AdmissionDecision& decision) = 0;
};

/// Figure 1 step 4 placement: exact-match entries along the flow's path —
/// every domain switch, or only the first (ingress-only ablation); drop
/// entries at the ingress switch when config.install_drop_entries is set.
class PathInstallStrategy : public InstallStrategy {
 public:
  std::size_t install_allow(AdmissionEnv& env, const AdmissionContext& ctx,
                            const AdmissionDecision& decision) override;
  std::size_t install_drop(AdmissionEnv& env, const AdmissionContext& ctx,
                           const AdmissionDecision& decision) override;

 protected:
  /// The shared Figure-1-step-4 walk: install allow entries along
  /// ctx.flow's domain path.  With `fixed_match` set (aggregation), that
  /// match is installed verbatim and hops already carrying an identical
  /// live entry are skipped; otherwise each hop gets a per-flow exact
  /// entry (in_port wildcarded at the host-facing ingress).  The cookie
  /// is allocated lazily on the first actual install.
  static std::size_t install_along_path(AdmissionEnv& env,
                                        const AdmissionContext& ctx,
                                        const openflow::FlowMatch* fixed_match);

  /// Shared drop placement: one entry with `match` at the flow's ingress
  /// switch, honouring config.install_drop_entries.  With `dedupe`, an
  /// identical live entry suppresses the install.  Degraded verdicts get
  /// the short config.degraded_cover_ttl hard timeout instead of the
  /// full-TTL stamps (DESIGN.md §14).
  static std::size_t install_drop_at_ingress(AdmissionEnv& env,
                                             const AdmissionContext& ctx,
                                             const AdmissionDecision& decision,
                                             const openflow::FlowMatch& match,
                                             bool dedupe);
};

/// The aggregated rule cache (§3.1 scaled up, SRMCA-style forwarding-state
/// aggregation): when the decision carries rule-level covers, install that
/// small set of wildcard/prefix entries caching the whole rule instead of
/// a per-flow exact entry, so a port scan / flash crowd covered by one
/// rule costs a handful of table entries and one controller round trip
/// total.  Single-valued rules cover with one entry; a contiguous port
/// range decomposes into at most kMaxCoverEntries prefix-masked port
/// entries.  Allow entries are narrowed to the flow's destination host
/// (/32) because the output port is destination-determined; drop entries
/// cache the rule's full scope at the ingress switch.  Decisions without
/// covers fall back to the exact per-flow placement.
///
/// Multipath (DESIGN.md §12): a cover is installed along the triggering
/// flow's ECMP-selected path, end to end, so every later flow the cover
/// captures rides that path's entries to the destination — covered flows
/// are pinned to the cover's install path rather than their own hash
/// pick.  Delivery stays sound (the install path reaches the /32
/// destination from every one of its switches) and verdicts are
/// unaffected (path choice is invisible to the policy).
class AggregatingInstallStrategy : public PathInstallStrategy {
 public:
  std::size_t install_allow(AdmissionEnv& env, const AdmissionContext& ctx,
                            const AdmissionDecision& decision) override;
  std::size_t install_drop(AdmissionEnv& env, const AdmissionContext& ctx,
                           const AdmissionDecision& decision) override;

  /// Entry installed as a rule cover (wildcards beyond the in_port bit
  /// PathInstallStrategy sometimes uses, or a sub-/32 prefix)?  Used by
  /// revocation/policy-reload to flush aggregates specifically.
  [[nodiscard]] static bool is_aggregate_entry(
      const openflow::FlowEntry& entry) noexcept;
};

// ---------------------------------------------------------------------------
// Observation
// ---------------------------------------------------------------------------

/// Cross-cutting hook into every pipeline event.  Subsumes the audit log,
/// ControllerStats and DecisionRecord emission; attach additional
/// observers for tracing, metrics export, anomaly detection.
class AdmissionObserver {
 public:
  virtual ~AdmissionObserver() = default;

  virtual void on_packet_in(const openflow::PacketIn&) {}
  virtual void on_flow_seen(const net::FiveTuple&) {}
  virtual void on_query_sent(const net::FiveTuple&, net::Ipv4Address) {}
  virtual void on_response_received(net::Ipv4Address /*responder*/) {}
  virtual void on_query_timeout(const net::FiveTuple&) {}
  virtual void on_query_retry(const net::FiveTuple&, net::Ipv4Address) {}
  virtual void on_duplicate_response(net::Ipv4Address /*responder*/) {}
  virtual void on_dedupe_memo_full() {}
  virtual void on_query_proxied(const net::FiveTuple&) {}
  virtual void on_cache_hit(const net::FiveTuple&, const AdmissionDecision&) {}
  virtual void on_decision(const DecisionRecord&, const AdmissionDecision&) {}
  virtual void on_entries_installed(std::size_t /*count*/) {}
  virtual void on_packets_released(std::size_t /*count*/) {}
  virtual void on_flow_expired(std::uint64_t /*cookie*/) {}
  virtual void on_transit_forwarded(const net::FiveTuple&) {}
  virtual void on_response_augmented(const net::FiveTuple&) {}
};

/// Populates ControllerStats from pipeline events.
class StatsObserver : public AdmissionObserver {
 public:
  [[nodiscard]] const ControllerStats& stats() const noexcept { return stats_; }

  void on_packet_in(const openflow::PacketIn&) override { ++stats_.packet_ins; }
  void on_flow_seen(const net::FiveTuple&) override { ++stats_.flows_seen; }
  void on_query_sent(const net::FiveTuple&, net::Ipv4Address) override {
    ++stats_.queries_sent;
  }
  void on_response_received(net::Ipv4Address) override {
    ++stats_.responses_received;
  }
  void on_query_timeout(const net::FiveTuple&) override {
    ++stats_.query_timeouts;
  }
  void on_query_retry(const net::FiveTuple&, net::Ipv4Address) override {
    ++stats_.query_retries;
  }
  void on_duplicate_response(net::Ipv4Address) override {
    ++stats_.duplicate_responses;
  }
  void on_dedupe_memo_full() override { ++stats_.dedupe_memo_evictions; }
  void on_query_proxied(const net::FiveTuple&) override {
    ++stats_.queries_proxied;
  }
  void on_cache_hit(const net::FiveTuple&, const AdmissionDecision&) override {
    ++stats_.decision_cache_hits;
  }
  void on_decision(const DecisionRecord& record,
                   const AdmissionDecision&) override {
    if (record.allowed) {
      ++stats_.flows_allowed;
    } else {
      ++stats_.flows_blocked;
    }
    if (record.logged) ++stats_.flows_logged;
    if (record.degraded) ++stats_.degraded_verdicts;
  }
  void on_entries_installed(std::size_t count) override {
    stats_.entries_installed += count;
  }
  void on_packets_released(std::size_t count) override {
    stats_.buffered_packets_released += count;
  }
  void on_flow_expired(std::uint64_t) override { ++stats_.flows_expired; }
  void on_transit_forwarded(const net::FiveTuple&) override {
    ++stats_.ident_transit_forwarded;
  }
  void on_response_augmented(const net::FiveTuple&) override {
    ++stats_.responses_augmented;
  }

 private:
  ControllerStats stats_;
};

/// Appends a DecisionRecord per decision ("log and audit", §1).  Retention
/// is bounded (ring-buffer semantics): beyond `capacity` records the
/// oldest drop first and are counted in dropped() — the seed grew without
/// bound under sustained traffic.
class AuditLogObserver : public AdmissionObserver {
 public:
  explicit AuditLogObserver(
      std::size_t capacity = ControllerConfig::kDefaultAuditLogCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  [[nodiscard]] const std::deque<DecisionRecord>& records() const noexcept {
    return records_;
  }
  /// Records retained.  A requested capacity of 0 is clamped to 1 (the
  /// latest record): retention is always bounded.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Records discarded to stay within capacity.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  void on_decision(const DecisionRecord& record,
                   const AdmissionDecision&) override {
    if (records_.size() >= capacity_) {
      records_.pop_front();
      ++dropped_;
    }
    records_.push_back(record);
  }

 private:
  std::size_t capacity_;
  std::deque<DecisionRecord> records_;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// A bundle of admission stages.  The named factories below are the three
/// baselines and ident++ expressed as configurations of the same API; any
/// stage can be swapped afterwards (or built from scratch) for new
/// controller flavours.
struct AdmissionPipeline {
  std::unique_ptr<QueryPlanner> planner;
  std::unique_ptr<ResponseCollector> collector;
  std::unique_ptr<DecisionEngine> engine;
  std::unique_ptr<LruDecisionCache> cache;  ///< nullptr = no decision caching
  std::unique_ptr<InstallStrategy> installer;

  /// Fill any unset stage with its default (EndpointQueryPlanner,
  /// ResponseCollector, PathInstallStrategy; engine stays required).
  AdmissionPipeline& finish(const ControllerConfig& config);

  /// The paper's controller: query endpoints, evaluate PF+=2, install the
  /// path.  (Cache creation happens in finish(), from the controller's
  /// config.)
  static AdmissionPipeline identxx(pf::Ruleset ruleset,
                                   pf::FunctionRegistry registry);
  /// Ethane-style [5]: PF+=2 with no end-host information.
  static AdmissionPipeline ethane(pf::Ruleset ruleset);
  /// Classic stateful 5-tuple packet filter.
  static AdmissionPipeline vanilla(bool default_allow);
  /// Distributed firewall [9]: network admits all, hosts enforce.
  static AdmissionPipeline distributed();
};

}  // namespace identxx::ctrl
