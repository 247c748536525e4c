#include "controller/admission.hpp"

#include <algorithm>
#include <span>
#include <tuple>

#include "crypto/verifier.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace identxx::ctrl {

// ---------------------------------------------------------------- planner

QueryPlan EndpointQueryPlanner::plan(const net::FiveTuple& flow,
                                     AdmissionEnv& env) {
  // Figure 1 step 3: query both ends of the flow, each with the other
  // endpoint spoofed as the query's source (§3.2).
  QueryPlan plan;
  plan.targets.push_back(QueryTarget{flow.src_ip, flow.dst_ip, true});
  if (env.config().query_both_ends) {
    plan.targets.push_back(QueryTarget{flow.dst_ip, flow.src_ip, false});
  }
  return plan;
}

// ---------------------------------------------------------------- collector

ResponseCollector::BeginResult ResponseCollector::begin(
    const net::FiveTuple& flow, const openflow::PacketIn& msg,
    sim::SimTime now) {
  const auto [it, inserted] = pending_.try_emplace(flow);
  AdmissionContext& ctx = it->second;
  ctx.buffered.push_back(msg);
  if (inserted) {
    ctx.flow = flow;
    ctx.first_seen = now;
  }
  return BeginResult{&ctx, inserted};
}

AdmissionContext* ResponseCollector::find(const net::FiveTuple& flow) {
  const auto it = pending_.find(flow);
  return it == pending_.end() ? nullptr : &it->second;
}

AdmissionContext* ResponseCollector::accept_response(
    net::Ipv4Address responder, net::Ipv4Address peer,
    proto::Response& response, bool* duplicate) {
  if (duplicate != nullptr) *duplicate = false;
  // Responder was the flow source?
  const net::FiveTuple as_src{responder, peer, response.proto,
                              response.src_port, response.dst_port};
  if (const auto it = pending_.find(as_src); it != pending_.end()) {
    if (it->second.src_response) {
      // First answer wins: a duplicated delivery (or a retry's answer
      // crossing the original) must not rewrite identity mid-decision.
      if (duplicate != nullptr) *duplicate = true;
    } else {
      it->second.src_response = std::move(response);
    }
    return &it->second;
  }
  // Responder was the flow destination?
  const net::FiveTuple as_dst{peer, responder, response.proto,
                              response.src_port, response.dst_port};
  if (const auto it = pending_.find(as_dst); it != pending_.end()) {
    if (it->second.dst_response) {
      if (duplicate != nullptr) *duplicate = true;
    } else {
      it->second.dst_response = std::move(response);
    }
    return &it->second;
  }
  return nullptr;
}

void ResponseCollector::set_proxy(net::Ipv4Address ip, proto::Section section) {
  proxies_[ip] = std::move(section);
}

bool ResponseCollector::fill_proxy(AdmissionContext& ctx, bool source_side) {
  std::optional<proto::Response>& slot =
      source_side ? ctx.src_response : ctx.dst_response;
  if (slot) return false;
  const auto proxy =
      proxies_.find(source_side ? ctx.flow.src_ip : ctx.flow.dst_ip);
  if (proxy == proxies_.end()) return false;
  proto::Response response;
  response.proto = ctx.flow.proto;
  response.src_port = ctx.flow.src_port;
  response.dst_port = ctx.flow.dst_port;
  response.append_section(proxy->second);
  slot = std::move(response);
  return true;
}

std::size_t ResponseCollector::fill_proxies_at_begin(AdmissionContext& ctx,
                                                     bool query_both_ends) {
  // Hosts we cannot query may have proxy answers configured (§4
  // incremental benefit).
  std::size_t filled = 0;
  if (!ctx.awaiting_src && fill_proxy(ctx, true)) ++filled;
  if (!ctx.awaiting_dst && query_both_ends && fill_proxy(ctx, false)) ++filled;
  return filled;
}

std::size_t ResponseCollector::fill_proxies_at_decide(AdmissionContext& ctx) {
  std::size_t filled = 0;
  if (fill_proxy(ctx, true)) ++filled;
  if (fill_proxy(ctx, false)) ++filled;
  return filled;
}

void ResponseCollector::arm_deadline(AdmissionContext& ctx,
                                     sim::SimTime deadline) {
  ctx.deadline = deadline;
  ctx.generation = ++generation_counter_;
  Deadline entry{deadline, ctx.generation, ctx.flow};
  if (deadlines_.empty() || deadlines_.back().at <= deadline) {
    // First-round deadlines (constant timeout) always land here: O(1).
    deadlines_.push_back(std::move(entry));
    return;
  }
  // A retry's backed-off deadline can undercut pending first-round ones;
  // keep the queue sorted so expired() stays a front-pop.
  const auto pos = std::upper_bound(
      deadlines_.begin(), deadlines_.end(), deadline,
      [](sim::SimTime at, const Deadline& d) { return at < d.at; });
  deadlines_.insert(pos, std::move(entry));
}

std::vector<AdmissionContext*> ResponseCollector::expired(sim::SimTime now) {
  std::vector<AdmissionContext*> out;
  while (!deadlines_.empty() && deadlines_.front().at <= now) {
    const Deadline deadline = deadlines_.front();
    deadlines_.pop_front();
    AdmissionContext* ctx = find(deadline.flow);
    // The generation (globally unique per arm) skips flows decided in the
    // meantime and re-created pending entries for the same 5-tuple — even
    // ones re-armed at the very same timestamp, which a deadline-only
    // check would hand out twice.
    if (ctx == nullptr || ctx->generation != deadline.generation) continue;
    out.push_back(ctx);
  }
  return out;
}

void ResponseCollector::erase(const net::FiveTuple& flow) {
  pending_.erase(flow);
}

// ---------------------------------------------------------------- covers

namespace {

// Aggregation soundness analysis.  A rule R may be cached in the switches
// as one wildcard/prefix entry iff every flow the entry matches would get
// R's verdict from the full policy.  With last-match-wins + `quick`
// semantics that holds exactly when:
//   * R's own scope is expressible as a FlowMatch: endpoints are `any` or
//     a single CIDR (no negation, no tables/lists), ports single-valued,
//     and there are no `with` predicates (those depend on end-host
//     responses a switch cannot see);
//   * R carries no `keep state` (reverse admission is flow-specific) and
//     no `log` (covered flows bypass the controller, so a log rule would
//     silently stop producing audit records);
//   * no *earlier* `quick` rule and no *later* rule overlapping R's scope
//     can produce a different outcome.  Earlier non-quick rules are
//     always overridden by R (last match wins) and need no check.
// Overlap tests are conservative: anything unanalyzable (negated
// endpoints, unknown tables) counts as overlapping.

/// Conservative field box of one rule, for pairwise overlap tests.
struct RuleScope {
  bool analyzable = false;
  std::optional<net::IpProto> proto;
  std::vector<net::Cidr> src, dst;  ///< empty = any
  std::uint16_t src_lo = 0, src_hi = 65535;
  std::uint16_t dst_lo = 0, dst_hi = 65535;
};

[[nodiscard]] bool cidrs_overlap(const net::Cidr& a, const net::Cidr& b) {
  return a.prefix_length() <= b.prefix_length() ? a.contains(b.network())
                                                : b.contains(a.network());
}

[[nodiscard]] bool cidr_sets_overlap(const std::vector<net::Cidr>& a,
                                     const std::vector<net::Cidr>& b) {
  if (a.empty() || b.empty()) return true;  // `any` overlaps everything
  for (const net::Cidr& ca : a) {
    for (const net::Cidr& cb : b) {
      if (cidrs_overlap(ca, cb)) return true;
    }
  }
  return false;
}

/// Resolve an endpoint's host spec into CIDRs; false when unanalyzable.
[[nodiscard]] bool resolve_host(const pf::HostSpec& host,
                                const pf::Ruleset& ruleset,
                                std::vector<net::Cidr>& out) {
  struct Visitor {
    const pf::Ruleset& ruleset;
    std::vector<net::Cidr>& out;
    bool operator()(const pf::AnyHost&) const { return true; }
    bool operator()(const pf::CidrHost& h) const {
      out.push_back(h.cidr);
      return true;
    }
    bool operator()(const pf::TableHost& h) const {
      const auto it = ruleset.tables.find(h.table);
      if (it == ruleset.tables.end()) return false;
      out.insert(out.end(), it->second.begin(), it->second.end());
      return true;
    }
    bool operator()(const pf::ListHost& h) const {
      for (const auto& item : h.items) {
        if (const auto* cidr = std::get_if<net::Cidr>(&item)) {
          out.push_back(*cidr);
        } else if (!(*this)(pf::TableHost{std::get<std::string>(item)})) {
          return false;
        }
      }
      return true;
    }
  };
  return std::visit(Visitor{ruleset, out}, host);
}

[[nodiscard]] RuleScope scope_of(const pf::Rule& rule,
                                 const pf::Ruleset& ruleset) {
  RuleScope scope;
  if (rule.from.negated || rule.to.negated) return scope;  // unanalyzable
  if (!resolve_host(rule.from.host, ruleset, scope.src)) return scope;
  if (!resolve_host(rule.to.host, ruleset, scope.dst)) return scope;
  scope.proto = rule.proto;
  if (rule.from.port) {
    scope.src_lo = rule.from.port->low;
    scope.src_hi = rule.from.port->high;
  }
  if (rule.to.port) {
    scope.dst_lo = rule.to.port->low;
    scope.dst_hi = rule.to.port->high;
  }
  scope.analyzable = true;
  return scope;
}

/// Could any single flow match both scopes?  Conservative: true unless a
/// field provably separates them.  `with` predicates only narrow a rule,
/// so they never make this answer wrong.
[[nodiscard]] bool scopes_overlap(const RuleScope& a, const RuleScope& b) {
  if (!a.analyzable || !b.analyzable) return true;
  if (a.proto && b.proto && *a.proto != *b.proto) return false;
  if (a.src_hi < b.src_lo || b.src_hi < a.src_lo) return false;
  if (a.dst_hi < b.dst_lo || b.dst_hi < a.dst_lo) return false;
  if (!cidr_sets_overlap(a.src, b.src)) return false;
  if (!cidr_sets_overlap(a.dst, b.dst)) return false;
  return true;
}

/// Same datapath outcome for every flow, so an "overlapping" rule is
/// harmless: identical action, no reverse-direction state, no logging.
[[nodiscard]] bool outcome_equivalent(const pf::Rule& a, const pf::Rule& b) {
  return a.action == b.action && !a.keep_state && !b.keep_state && !a.log &&
         !b.log;
}

/// One aligned power-of-two block of a port range: all ports with
/// (port & mask) == value.
struct PortBlock {
  std::uint16_t value = 0;
  std::uint16_t mask = 0xffff;
};

/// Greedy decomposition of the contiguous range [lo, hi] into maximal
/// aligned power-of-two blocks — the port analogue of splitting an IP
/// range into CIDRs.  At most 30 blocks for an arbitrary range; common
/// admin ranges (8000:8007, 1024:2047) need one or two.
[[nodiscard]] std::vector<PortBlock> port_range_blocks(std::uint16_t lo,
                                                       std::uint16_t hi) {
  std::vector<PortBlock> out;
  std::uint32_t cur = lo;
  while (cur <= hi) {
    std::uint32_t size = 1;
    while (size < 0x10000u) {
      const std::uint32_t next = size * 2;
      if ((cur & (next - 1)) != 0) break;          // alignment
      if (cur + next - 1 > hi) break;              // fit
      size = next;
    }
    out.push_back(PortBlock{static_cast<std::uint16_t>(cur),
                            static_cast<std::uint16_t>(~(size - 1))});
    cur += size;
  }
  return out;
}

/// Prepare one endpoint's resolved CIDR list for cover generation: a /0
/// member makes the whole side unconstrained (empty list = any), exact
/// duplicates collapse, and CIDRs already contained in a wider member are
/// dropped — { 10.0.0.0/24, 10.0.0.0/25 } needs one entry, not two.
void normalize_cover_cidrs(std::vector<net::Cidr>& cidrs) {
  for (const net::Cidr& cidr : cidrs) {
    if (cidr.prefix_length() == 0) {
      cidrs.clear();
      return;
    }
  }
  std::vector<net::Cidr> kept;
  kept.reserve(cidrs.size());
  for (const net::Cidr& candidate : cidrs) {
    bool redundant = false;
    for (const net::Cidr& other : cidrs) {
      if (other == candidate) continue;
      // Strictly wider `other` absorbs candidate; equal-width duplicates
      // keep only their first occurrence (covered by the == dedupe below).
      if (other.prefix_length() < candidate.prefix_length() &&
          other.contains(candidate.network())) {
        redundant = true;
        break;
      }
    }
    if (!redundant &&
        std::find(kept.begin(), kept.end(), candidate) == kept.end()) {
      kept.push_back(candidate);
    }
  }
  cidrs = std::move(kept);
}

[[nodiscard]] std::vector<openflow::FlowMatch> cover_for(
    std::size_t index, const pf::Ruleset& ruleset,
    const std::vector<RuleScope>& scopes) {
  const pf::Rule& rule = ruleset.rules[index];
  if (rule.keep_state || rule.log || !rule.withs.empty()) return {};
  if (rule.from.negated || rule.to.negated) return {};
  // Scope must fit a small set of FlowMatches: each endpoint must resolve
  // to an explicit CIDR list (any / single CIDR / table / brace list);
  // ports may be single values or contiguous ranges (each range becomes a
  // set of prefix-masked port blocks).  Multi-CIDR hosts contribute one
  // prefix cover per CIDR — the IP analogue of the port-range block
  // decomposition — with the whole cross product capped at
  // kMaxCoverEntries.
  std::vector<net::Cidr> src_cidrs;
  std::vector<net::Cidr> dst_cidrs;
  if (!resolve_host(rule.from.host, ruleset, src_cidrs)) return {};
  if (!resolve_host(rule.to.host, ruleset, dst_cidrs)) return {};
  // A table/list that resolved to nothing matches no flow; an "any"-wide
  // cover for it would capture traffic the rule never decides.  (Such a
  // rule never matches, so no decision carries its cover anyway.)
  const bool src_any = std::holds_alternative<pf::AnyHost>(rule.from.host);
  const bool dst_any = std::holds_alternative<pf::AnyHost>(rule.to.host);
  if ((src_cidrs.empty() && !src_any) || (dst_cidrs.empty() && !dst_any)) {
    return {};
  }
  normalize_cover_cidrs(src_cidrs);
  normalize_cover_cidrs(dst_cidrs);

  const RuleScope& scope = scopes[index];
  for (std::size_t j = 0; j < ruleset.rules.size(); ++j) {
    if (j == index) continue;
    const pf::Rule& other = ruleset.rules[j];
    // Earlier rules only pre-empt R via `quick`; later rules win by
    // matching last.  Non-quick earlier rules are always overridden.
    const bool can_override = j > index || other.quick;
    if (!can_override) continue;
    if (outcome_equivalent(rule, other)) continue;
    if (scopes_overlap(scope, scopes[j])) return {};
  }

  using openflow::Wildcard;
  openflow::FlowMatch base;  // starts all-wildcard
  if (rule.proto) {
    base.wildcards = without(base.wildcards, Wildcard::kProto);
    base.proto = *rule.proto;
  }
  // Each side contributes its CIDR set and its port-block set; the cover
  // is the cross product.  An empty CIDR list / {{0, 0xffff-wildcard}}
  // block stands in for an unconstrained side.
  std::vector<PortBlock> src_blocks{PortBlock{}};
  std::vector<PortBlock> dst_blocks{PortBlock{}};
  bool src_constrained = false;
  bool dst_constrained = false;
  if (rule.from.port && !(rule.from.port->low == 0 &&
                          rule.from.port->high == 65535)) {
    src_blocks = port_range_blocks(rule.from.port->low, rule.from.port->high);
    src_constrained = true;
  }
  if (rule.to.port && !(rule.to.port->low == 0 &&
                        rule.to.port->high == 65535)) {
    dst_blocks = port_range_blocks(rule.to.port->low, rule.to.port->high);
    dst_constrained = true;
  }
  const std::size_t total = std::max<std::size_t>(src_cidrs.size(), 1) *
                            std::max<std::size_t>(dst_cidrs.size(), 1) *
                            src_blocks.size() * dst_blocks.size();
  if (total > AdmissionDecision::kMaxCoverEntries) {
    return {};  // awkward range / wide host list: per-flow installs win
  }

  // Iterate "unconstrained" as a single null CIDR so the loop shape stays
  // one cross product.
  std::vector<const net::Cidr*> src_iter{nullptr};
  std::vector<const net::Cidr*> dst_iter{nullptr};
  if (!src_cidrs.empty()) {
    src_iter.assign(src_cidrs.size(), nullptr);
    for (std::size_t i = 0; i < src_cidrs.size(); ++i) src_iter[i] = &src_cidrs[i];
  }
  if (!dst_cidrs.empty()) {
    dst_iter.assign(dst_cidrs.size(), nullptr);
    for (std::size_t i = 0; i < dst_cidrs.size(); ++i) dst_iter[i] = &dst_cidrs[i];
  }

  std::vector<openflow::FlowMatch> covers;
  covers.reserve(total);
  for (const net::Cidr* src_cidr : src_iter) {
    for (const net::Cidr* dst_cidr : dst_iter) {
      openflow::FlowMatch ip_base = base;
      if (src_cidr != nullptr) {
        ip_base.wildcards = without(ip_base.wildcards, Wildcard::kSrcIp);
        ip_base.src_ip = src_cidr->network();
        ip_base.src_ip_prefix = src_cidr->prefix_length();
      }
      if (dst_cidr != nullptr) {
        ip_base.wildcards = without(ip_base.wildcards, Wildcard::kDstIp);
        ip_base.dst_ip = dst_cidr->network();
        ip_base.dst_ip_prefix = dst_cidr->prefix_length();
      }
      for (const PortBlock& src : src_blocks) {
        for (const PortBlock& dst : dst_blocks) {
          openflow::FlowMatch match = ip_base;
          if (src_constrained) {
            match.wildcards = without(match.wildcards, Wildcard::kSrcPort);
            match.src_port = src.value;
            match.src_port_mask = src.mask;
          }
          if (dst_constrained) {
            match.wildcards = without(match.wildcards, Wildcard::kDstPort);
            match.dst_port = dst.value;
            match.dst_port_mask = dst.mask;
          }
          covers.push_back(match);
        }
      }
    }
  }
  return covers;
}

[[nodiscard]] std::vector<std::vector<openflow::FlowMatch>> compute_covers(
    const pf::Ruleset& ruleset) {
  // Resolve every rule's field box once (table resolution copies CIDR
  // vectors); the pairwise overlap loop below then stays cheap.
  std::vector<RuleScope> scopes;
  scopes.reserve(ruleset.rules.size());
  for (const pf::Rule& rule : ruleset.rules) {
    scopes.push_back(scope_of(rule, ruleset));
  }
  std::vector<std::vector<openflow::FlowMatch>> covers;
  covers.reserve(ruleset.rules.size());
  for (std::size_t i = 0; i < ruleset.rules.size(); ++i) {
    covers.push_back(cover_for(i, ruleset, scopes));
  }
  return covers;
}

}  // namespace

// ---------------------------------------------------------------- records

void ControllerStats::accumulate(const ControllerStats& other) noexcept {
  packet_ins += other.packet_ins;
  flows_seen += other.flows_seen;
  flows_allowed += other.flows_allowed;
  flows_blocked += other.flows_blocked;
  queries_sent += other.queries_sent;
  responses_received += other.responses_received;
  query_timeouts += other.query_timeouts;
  entries_installed += other.entries_installed;
  buffered_packets_released += other.buffered_packets_released;
  ident_transit_forwarded += other.ident_transit_forwarded;
  responses_augmented += other.responses_augmented;
  queries_proxied += other.queries_proxied;
  flows_expired += other.flows_expired;
  flows_logged += other.flows_logged;
  decision_cache_hits += other.decision_cache_hits;
  query_retries += other.query_retries;
  duplicate_responses += other.duplicate_responses;
  degraded_verdicts += other.degraded_verdicts;
  dedupe_memo_evictions += other.dedupe_memo_evictions;
}

bool audit_record_before(const DecisionRecord& a,
                         const DecisionRecord& b) noexcept {
  const auto key = [](const DecisionRecord& r) {
    return std::tie(r.time, r.flow.src_ip, r.flow.dst_ip, r.flow.proto,
                    r.flow.src_port, r.flow.dst_port, r.allowed, r.rule,
                    r.src_user, r.dst_user, r.src_app);
  };
  return key(a) < key(b);
}

// ---------------------------------------------------------------- engines

std::vector<AdmissionDecision> DecisionEngine::decide_many(
    const std::vector<const AdmissionContext*>& batch) {
  std::vector<AdmissionDecision> out;
  out.reserve(batch.size());
  for (const AdmissionContext* ctx : batch) out.push_back(decide(*ctx));
  return out;
}

PolicyDecisionEngine::PolicyDecisionEngine(pf::Ruleset ruleset)
    : PolicyDecisionEngine(std::move(ruleset),
                           pf::FunctionRegistry::with_builtins()) {}

PolicyDecisionEngine::PolicyDecisionEngine(pf::Ruleset ruleset,
                                           pf::FunctionRegistry registry,
                                           bool honor_keep_state)
    : engine_(std::make_unique<pf::PolicyEngine>(std::move(ruleset),
                                                 std::move(registry))),
      honor_keep_state_(honor_keep_state),
      covers_(compute_covers(engine_->ruleset())) {
  rule_texts_.reserve(engine_->ruleset().rules.size());
  for (const pf::Rule& rule : engine_->ruleset().rules) {
    rule_texts_.push_back(pf::to_string(rule));
  }
  // Public keys embedded in the policy (dict values, e.g. @pubkeys[...])
  // are long-lived — register each with the verifier now so its comb table
  // is built once, here, instead of lazily on the flow-setup hot path.
  // Registration costs ~1250 EC ops and ~73 KB per key, so only policies
  // that can actually verify signatures (a verify() predicate, or
  // allowed() whose delegated rules may call verify) pay it; anything
  // else registers nothing.
  const auto& verifier = engine_->registry().verifier();
  bool verifies = false;
  for (const pf::Rule& rule : engine_->ruleset().rules) {
    for (const pf::FuncCall& call : rule.withs) {
      if (call.name == "verify" || call.name == "allowed") {
        verifies = true;
        break;
      }
    }
    if (verifies) break;
  }
  if (verifier && verifies) {
    for (const auto& [dict_name, entries] : engine_->ruleset().dicts) {
      for (const auto& [key_name, value] : entries) {
        if (const auto key = crypto::PublicKey::from_hex(value)) {
          verifier->register_key(*key);
        }
      }
    }
  }
}

crypto::SchnorrVerifier* PolicyDecisionEngine::verifier() const noexcept {
  return engine_->registry().verifier().get();
}

pf::FlowContext PolicyDecisionEngine::make_flow_context(
    const AdmissionContext& ctx) const {
  pf::FlowContext flow_ctx;
  flow_ctx.flow = ctx.flow;
  if (ctx.src_response) flow_ctx.src = proto::ResponseDict(*ctx.src_response);
  if (ctx.dst_response) flow_ctx.dst = proto::ResponseDict(*ctx.dst_response);
  if (!ctx.buffered.empty()) {
    flow_ctx.openflow =
        ctx.buffered.front().packet.ten_tuple(ctx.buffered.front().in_port);
  }
  return flow_ctx;
}

AdmissionDecision PolicyDecisionEngine::to_decision(
    const pf::Verdict& verdict) const {
  AdmissionDecision decision;
  decision.allowed = verdict.allowed();
  decision.keep_state = honor_keep_state_ && verdict.keep_state;
  decision.logged = verdict.log;
  if (verdict.rule == nullptr) return decision;  // rule stays "default"
  const auto& rules = engine_->ruleset().rules;
  if (!rules.empty() && verdict.rule >= rules.data() &&
      verdict.rule < rules.data() + rules.size()) {
    // A rule of the ruleset: its rendering and aggregation covers were
    // precomputed.
    const auto i = static_cast<std::size_t>(verdict.rule - rules.data());
    decision.rule = rule_texts_[i];
    decision.covers = covers_[i];
  } else {
    decision.rule = pf::to_string(*verdict.rule);
  }
  return decision;
}

AdmissionDecision PolicyDecisionEngine::decide(const AdmissionContext& ctx) {
  const pf::FlowContext flow_ctx = make_flow_context(ctx);
  try {
    return to_decision(engine_->evaluate(flow_ctx));
  } catch (const PolicyError& e) {
    // Administrator configuration error: fail closed.
    IDXX_LOG(kError, "controller")
        << "policy error, blocking flow: " << e.what();
    pf::Verdict blocked;
    blocked.action = pf::RuleAction::kBlock;
    return to_decision(blocked);
  }
}

std::vector<AdmissionDecision> PolicyDecisionEngine::decide_many(
    const std::vector<const AdmissionContext*>& batch) {
  if (batch.size() == 1) return {decide(*batch.front())};  // a ready flow
  // Repeat packet-ins for the same undecided flow land in one batch when a
  // shared deadline fires; decide each distinct 5-tuple once, in order.
  std::vector<AdmissionDecision> out;
  out.reserve(batch.size());
  std::unordered_map<net::FiveTuple, std::size_t> first;  // -> index in out
  for (const AdmissionContext* ctx : batch) {
    const auto [it, inserted] = first.try_emplace(ctx->flow, out.size());
    out.push_back(inserted ? decide(*ctx) : out[it->second]);
  }
  return out;
}

bool AclDecisionEngine::evaluate_acl(const net::FiveTuple& flow) const {
  for (const AclRule& rule : acl_) {
    if (!rule.src.contains(flow.src_ip)) continue;
    if (!rule.dst.contains(flow.dst_ip)) continue;
    if (rule.proto && *rule.proto != flow.proto) continue;
    if (flow.dst_port < rule.dst_port_low || flow.dst_port > rule.dst_port_high)
      continue;
    return rule.allow;
  }
  return default_allow_;
}

AdmissionDecision AclDecisionEngine::decide(const AdmissionContext& ctx) {
  AdmissionDecision decision;
  // Stateful: the reverse of an allowed flow is allowed.
  if (allowed_flows_.contains(ctx.flow.reversed())) {
    decision.allowed = true;
    decision.rule = "state";
    return decision;
  }
  decision.allowed = evaluate_acl(ctx.flow);
  decision.rule = decision.allowed ? "acl pass" : "acl block";
  if (decision.allowed) allowed_flows_.insert(ctx.flow);
  return decision;
}

// ---------------------------------------------------------------- caches

LruDecisionCache::LruDecisionCache(std::size_t capacity, sim::SimTime ttl)
    : capacity_(capacity), ttl_(ttl) {}

std::optional<AdmissionDecision> LruDecisionCache::lookup(
    const net::FiveTuple& flow, sim::SimTime now) {
  const auto it = entries_.find(flow);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second->expires > 0 && now >= it->second->expires) {
    order_.erase(it->second);
    entries_.erase(it);
    ++stats_.expirations;
    ++stats_.misses;
    return std::nullopt;
  }
  order_.splice(order_.begin(), order_, it->second);  // refresh recency
  ++stats_.hits;
  return it->second->decision;
}

void LruDecisionCache::store(const net::FiveTuple& flow,
                             const AdmissionDecision& decision,
                             sim::SimTime now) {
  const sim::SimTime expires = ttl_ > 0 ? now + ttl_ : 0;
  if (const auto it = entries_.find(flow); it != entries_.end()) {
    it->second->decision = decision;
    it->second->expires = expires;
    order_.splice(order_.begin(), order_, it->second);
    ++stats_.insertions;
    return;
  }
  if (capacity_ > 0 && entries_.size() >= capacity_) {
    entries_.erase(order_.back().flow);
    order_.pop_back();
    ++stats_.evictions;
  }
  order_.push_front(Entry{flow, decision, expires});
  entries_[flow] = order_.begin();
  ++stats_.insertions;
}

std::size_t LruDecisionCache::invalidate_if(
    const std::function<bool(const net::FiveTuple&)>& pred) {
  std::size_t removed = 0;
  for (auto it = order_.begin(); it != order_.end();) {
    if (pred(it->flow)) {
      entries_.erase(it->flow);
      it = order_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  stats_.invalidations += removed;
  return removed;
}

void LruDecisionCache::clear() {
  stats_.invalidations += entries_.size();
  entries_.clear();
  order_.clear();
}

// ---------------------------------------------------------------- install

std::size_t PathInstallStrategy::install_along_path(
    AdmissionEnv& env, const AdmissionContext& ctx,
    const openflow::FlowMatch* fixed_match) {
  const HostInfo* src = env.find_host(ctx.flow.src_ip);
  const HostInfo* dst = env.find_host(ctx.flow.dst_ip);
  if (src == nullptr || dst == nullptr) return 0;
  // Seeded ECMP (DESIGN.md §12): the flow's deterministic pick from the
  // equal-cost path set.  Entries — including aggregate covers — are
  // installed along this one path end to end, so any flow they capture is
  // delivered over it even if its own hash would have chosen a sibling
  // path (covered flows are pinned to the cover's install path; verdict
  // soundness is untouched because path choice never affects the policy).
  const auto hops =
      env.topology().path_for_flow(src->node, dst->node, ctx.flow);
  if (!hops) return 0;

  const ControllerConfig& config = env.config();

  // Per-flow template 10-tuple: MACs from the buffered packet when
  // available so the installed entries exactly match the flow's packets.
  net::TenTuple tuple;
  if (fixed_match == nullptr) {
    if (!ctx.buffered.empty()) {
      tuple = ctx.buffered.front().packet.ten_tuple(0);
    } else {
      tuple.src_mac = src->mac;
      tuple.dst_mac = net::MacAddress{0xffffffffffffULL};
    }
    tuple.src_ip = ctx.flow.src_ip;
    tuple.dst_ip = ctx.flow.dst_ip;
    tuple.proto = ctx.flow.proto;
    tuple.src_port = ctx.flow.src_port;
    tuple.dst_port = ctx.flow.dst_port;
  }

  std::uint64_t cookie = 0;
  std::size_t installed = 0;
  bool first_domain_hop = true;
  for (const openflow::Hop& hop : *hops) {
    if (!env.domain().contains(hop.switch_id)) continue;
    if (!config.install_full_path && !first_domain_hop) break;
    first_domain_hop = false;
    openflow::FlowMatch match;
    if (fixed_match != nullptr) {
      match = *fixed_match;
    } else {
      tuple.in_port = hop.in_port;
      match = openflow::FlowMatch::exact(tuple);
      if (hop.in_port == 0) match.wildcards = openflow::Wildcard::kInPort;
    }
    openflow::Switch& sw = env.topology().switch_at(hop.switch_id);
    if (fixed_match != nullptr &&
        sw.table().find(match, config.flow_priority,
                        env.simulator().now()) != nullptr) {
      continue;  // the rule is already cached here: ≤1 entry per cover
    }
    if (cookie == 0) cookie = env.allocate_cookie(ctx.flow);
    openflow::FlowEntry entry;
    entry.match = match;
    entry.priority = config.flow_priority;
    entry.action = openflow::OutputAction{{hop.out_port}};
    entry.idle_timeout = config.flow_idle_timeout;
    entry.hard_timeout = config.flow_hard_timeout;
    entry.cookie = cookie;
    sw.install_flow(std::move(entry));
    ++installed;
  }
  return installed;
}

std::size_t PathInstallStrategy::install_allow(AdmissionEnv& env,
                                               const AdmissionContext& ctx,
                                               const AdmissionDecision&) {
  return install_along_path(env, ctx, nullptr);
}

std::size_t PathInstallStrategy::install_drop_at_ingress(
    AdmissionEnv& env, const AdmissionContext& ctx,
    const AdmissionDecision& decision, const openflow::FlowMatch& match,
    bool dedupe) {
  if (!env.config().install_drop_entries) return 0;
  if (ctx.buffered.empty()) return 0;
  const openflow::PacketIn& msg = ctx.buffered.front();
  if (!env.domain().contains(msg.switch_id)) return 0;
  openflow::Switch& sw = env.topology().switch_at(msg.switch_id);
  if (dedupe && sw.table().find(match, env.config().flow_priority,
                                env.simulator().now()) != nullptr) {
    return 0;
  }
  openflow::FlowEntry entry;
  entry.match = match;
  entry.priority = env.config().flow_priority;
  entry.action = openflow::DropAction{};
  if (decision.degraded) {
    // Fail-closed degraded cover (DESIGN.md §14): short hard TTL, no idle
    // refresh, so the flow re-enters admission soon after the cover ages
    // out even if the re-admission probe budget is spent.
    entry.idle_timeout = 0;
    entry.hard_timeout = env.config().degraded_cover_ttl;
  } else {
    entry.idle_timeout = env.config().flow_idle_timeout;
    entry.hard_timeout = env.config().flow_hard_timeout;
  }
  entry.cookie = env.allocate_cookie(ctx.flow);
  sw.install_flow(std::move(entry));
  return 1;
}

std::size_t PathInstallStrategy::install_drop(AdmissionEnv& env,
                                              const AdmissionContext& ctx,
                                              const AdmissionDecision& decision) {
  if (ctx.buffered.empty()) return 0;
  const openflow::PacketIn& msg = ctx.buffered.front();
  return install_drop_at_ingress(
      env, ctx, decision,
      openflow::FlowMatch::exact(msg.packet.ten_tuple(msg.in_port)),
      /*dedupe=*/false);
}

std::size_t AggregatingInstallStrategy::install_allow(
    AdmissionEnv& env, const AdmissionContext& ctx,
    const AdmissionDecision& decision) {
  if (decision.covers.empty()) {
    return PathInstallStrategy::install_allow(env, ctx, decision);
  }
  // Narrow each cover to this flow's destination host: the output action
  // is destination-determined, so the installed entries must not capture
  // traffic for other destinations.  Everything else (source addresses,
  // source ports, port blocks, in_port, MACs) stays aggregated.
  std::size_t installed = 0;
  for (const openflow::FlowMatch& cover : decision.covers) {
    openflow::FlowMatch match = cover;
    match.wildcards = without(match.wildcards, openflow::Wildcard::kDstIp);
    match.dst_ip = ctx.flow.dst_ip;
    match.dst_ip_prefix = 32;
    installed += install_along_path(env, ctx, &match);
  }
  return installed;
}

std::size_t AggregatingInstallStrategy::install_drop(
    AdmissionEnv& env, const AdmissionContext& ctx,
    const AdmissionDecision& decision) {
  if (decision.covers.empty()) {
    return PathInstallStrategy::install_drop(env, ctx, decision);
  }
  // Drops have no output port, so the rule's full scope caches as-is.
  std::size_t installed = 0;
  for (const openflow::FlowMatch& cover : decision.covers) {
    installed +=
        install_drop_at_ingress(env, ctx, decision, cover, /*dedupe=*/true);
  }
  return installed;
}

bool AggregatingInstallStrategy::is_aggregate_entry(
    const openflow::FlowEntry& entry) noexcept {
  using openflow::Wildcard;
  const Wildcard beyond_in_port =
      without(entry.match.wildcards, Wildcard::kInPort);
  if (beyond_in_port != Wildcard::kNone) return true;
  return entry.match.src_ip_prefix < 32 || entry.match.dst_ip_prefix < 32 ||
         entry.match.src_port_mask != 0xffff ||
         entry.match.dst_port_mask != 0xffff;
}

// ---------------------------------------------------------------- pipeline

AdmissionPipeline& AdmissionPipeline::finish(const ControllerConfig& config) {
  if (!planner) planner = std::make_unique<EndpointQueryPlanner>();
  if (!collector) collector = std::make_unique<ResponseCollector>();
  if (!installer) {
    if (config.aggregate_installs) {
      installer = std::make_unique<AggregatingInstallStrategy>();
    } else {
      installer = std::make_unique<PathInstallStrategy>();
    }
  }
  // Caching activates when either knob is set: a capacity alone means a
  // pure LRU bound (entries never age out), a TTL alone an unbounded
  // time-based cache.
  if (!cache &&
      (config.decision_cache_capacity > 0 || config.decision_cache_ttl > 0)) {
    cache = std::make_unique<LruDecisionCache>(config.decision_cache_capacity,
                                               config.decision_cache_ttl);
  }
  return *this;
}

// The factories only pick stages; defaulting the rest (and cache creation
// from the config) happens in AdmissionController's constructor, which
// calls finish() with the controller's actual config.

AdmissionPipeline AdmissionPipeline::identxx(pf::Ruleset ruleset,
                                             pf::FunctionRegistry registry) {
  AdmissionPipeline pipeline;
  pipeline.engine = std::make_unique<PolicyDecisionEngine>(std::move(ruleset),
                                                           std::move(registry));
  return pipeline;
}

AdmissionPipeline AdmissionPipeline::ethane(pf::Ruleset ruleset) {
  AdmissionPipeline pipeline;
  pipeline.planner = std::make_unique<NoQueryPlanner>();
  // Seed-baseline parity: Ethane takes only pass/block from the verdict;
  // `keep state` never installs reverse entries (the reverse direction
  // re-decides on its own packet-in).
  pipeline.engine = std::make_unique<PolicyDecisionEngine>(
      std::move(ruleset), pf::FunctionRegistry::with_builtins(),
      /*honor_keep_state=*/false);
  return pipeline;
}

AdmissionPipeline AdmissionPipeline::vanilla(bool default_allow) {
  AdmissionPipeline pipeline;
  pipeline.planner = std::make_unique<NoQueryPlanner>();
  pipeline.engine = std::make_unique<AclDecisionEngine>(default_allow);
  return pipeline;
}

AdmissionPipeline AdmissionPipeline::distributed() {
  AdmissionPipeline pipeline;
  pipeline.planner = std::make_unique<NoQueryPlanner>();
  pipeline.engine = std::make_unique<AllowAllDecisionEngine>();
  return pipeline;
}

}  // namespace identxx::ctrl
