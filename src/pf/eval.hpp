#pragma once

// PF+=2 evaluation (§3.3).
//
// A PolicyEngine holds a parsed ruleset plus a function registry and
// renders pass/block verdicts for flows.  Rules are scanned top-down; the
// *last* matching rule wins unless a matching rule carries `quick`, which
// short-circuits immediately (vanilla PF semantics).  When nothing matches
// the verdict defaults to pass, also as in PF — which is why every example
// policy in the paper opens with `block all`.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "identxx/dict.hpp"
#include "net/flow.hpp"
#include "pf/ast.hpp"
#include "pf/functions.hpp"

namespace identxx::pf {

/// Everything a policy can look at for one flow decision.
struct FlowContext {
  net::FiveTuple flow;
  proto::ResponseDict src;  ///< @src — parsed source-endpoint response
  proto::ResponseDict dst;  ///< @dst — parsed destination-endpoint response
  /// OpenFlow-level context for the @flow extension dictionary (§2 allows
  /// policies over ingress port / MAC addresses in an OpenFlow network).
  std::optional<net::TenTuple> openflow;
};

struct Verdict {
  RuleAction action = RuleAction::kPass;
  bool keep_state = false;
  bool quick = false;
  bool log = false;  ///< matched rule carried the `log` modifier
  /// Matched rule (owned by the engine's ruleset); nullptr for the default.
  const Rule* rule = nullptr;

  [[nodiscard]] bool allowed() const noexcept {
    return action == RuleAction::kPass;
  }
};

struct EngineStats {
  std::uint64_t evaluations = 0;
  std::uint64_t rules_scanned = 0;
  std::uint64_t functions_called = 0;
  std::uint64_t delegated_rule_evals = 0;  ///< rules run inside allowed()
  /// Rule visits the compiled evaluator elided by static prefilters.  Per
  /// flow (DESIGN.md §11), evaluate() (ref) and evaluate_compiled() satisfy
  ///   ref.rules_scanned == compiled.rules_scanned + compiled.prefilter_skips
  ///   ref.functions_called == compiled.functions_called
  /// These are *work* counters, so they hold for evaluations that
  /// complete: one aborted by PolicyError keeps the work it did before
  /// the throw.
  std::uint64_t prefilter_skips = 0;
};

class PolicyEngine {
 public:
  /// Takes ownership of `ruleset`; uses the builtin function registry
  /// unless a custom one is supplied.
  explicit PolicyEngine(Ruleset ruleset);
  PolicyEngine(Ruleset ruleset, FunctionRegistry registry);

  // The compiled ruleset (and every Verdict::rule) points into ruleset_;
  // copying would alias the copy onto the original's rules.  Moves are
  // fine: vector/map storage survives a move.
  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;
  PolicyEngine(PolicyEngine&&) = default;
  PolicyEngine& operator=(PolicyEngine&&) = default;

  /// Decide `ctx` by interpreting the ruleset: the reference evaluator
  /// that evaluate_compiled is checked against (the controller decides
  /// through evaluate_compiled).  Throws PolicyError for unknown
  /// functions/tables (admin configuration errors); never throws for
  /// malformed *delegated* content, which simply fails to match.
  [[nodiscard]] Verdict evaluate(const FlowContext& ctx) const;

  /// Decide `ctx` through the compiled ruleset (DESIGN.md §11).  The
  /// verdict — action, modifiers and matched-rule pointer — is identical
  /// to evaluate()'s; per-rule static prefilters (proto / CIDR /
  /// resolved-table / port-range checks), compiled once, skip the rules
  /// the flow can never match without visiting them.  Throws PolicyError
  /// exactly where evaluate() would (unknown function/table/dict reached
  /// by the flow).
  [[nodiscard]] Verdict evaluate_compiled(const FlowContext& ctx) const;

  [[nodiscard]] const Ruleset& ruleset() const noexcept { return ruleset_; }
  [[nodiscard]] const FunctionRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

 private:
  /// One compiled endpoint: host spec resolved to a flat CIDR list so the
  /// compiled path never walks tables.  `dynamic` marks specs that cannot be
  /// resolved statically (a table missing from the ruleset); those fall
  /// back to the interpreted matcher, preserving PolicyError parity.
  struct CompiledEndpoint {
    bool any = true;        ///< no host constraint (before negation)
    bool negated = false;
    bool dynamic = false;
    std::vector<net::Cidr> cidrs;
    bool has_port = false;
    std::uint16_t port_lo = 0;
    std::uint16_t port_hi = 65535;
  };
  /// One compiled `with` call.  `fn` is resolved at compile time but may
  /// be null — evaluate() only throws for an unknown function when a flow
  /// actually reaches the call, and the compiled path must match that.
  struct CompiledCall {
    const FuncCall* call = nullptr;
    const PolicyFunction* fn = nullptr;
  };
  struct CompiledRule {
    const Rule* rule = nullptr;
    std::optional<net::IpProto> proto;
    CompiledEndpoint from, to;
    std::vector<CompiledCall> withs;
  };

  void compile();
  /// Can `flow` pass `rule`'s static prefilters?
  [[nodiscard]] static bool static_candidate(
      const CompiledRule& rule, const net::FiveTuple& flow) noexcept;
  /// Does a candidate rule match (dynamic endpoints, then the `with`
  /// calls)?
  [[nodiscard]] bool compiled_rule_matches(const CompiledRule& rule,
                                           const EvalContext& eval) const;
  /// Static counterpart of EvalContext::endpoint_matches for compiled
  /// endpoints (never throws; only valid when !dynamic).
  [[nodiscard]] static bool static_endpoint_matches(
      const CompiledEndpoint& endpoint, net::Ipv4Address addr,
      std::uint16_t port) noexcept;

  Ruleset ruleset_;
  FunctionRegistry registry_;
  std::vector<CompiledRule> compiled_;
  mutable EngineStats stats_;
};

/// Evaluation context handed to policy functions.  Exposes expression
/// evaluation and (for `allowed`) recursive rule evaluation.
class EvalContext {
 public:
  static constexpr int kMaxDelegationDepth = 4;

  EvalContext(const FlowContext& flow_ctx, const Ruleset& ruleset,
              const FunctionRegistry& registry, EngineStats& stats,
              int depth = 0)
      : flow_ctx_(flow_ctx),
        ruleset_(ruleset),
        registry_(registry),
        stats_(stats),
        depth_(depth) {}

  [[nodiscard]] const FlowContext& flow() const noexcept { return flow_ctx_; }
  [[nodiscard]] const Ruleset& ruleset() const noexcept { return ruleset_; }
  [[nodiscard]] const FunctionRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] int depth() const noexcept { return depth_; }
  [[nodiscard]] EngineStats& stats() const noexcept { return stats_; }

  /// Evaluate an expression to a Value (Undefined when a dictionary key is
  /// absent).  Throws PolicyError for an unknown dictionary.
  [[nodiscard]] Value eval_expr(const Expr& expr) const;

  /// Evaluate `rules` with last-match-wins semantics against this context.
  [[nodiscard]] Verdict eval_rules(const std::vector<Rule>& rules) const;

  /// Does `rule` match the flow (endpoints + all with-predicates)?
  [[nodiscard]] bool rule_matches(const Rule& rule) const;

  /// Interpreted endpoint match (host spec + negation + port).  Public so
  /// the compiled evaluator can fall back to it for endpoints it could not
  /// compile (unknown tables throw PolicyError exactly as evaluate() does).
  [[nodiscard]] bool endpoint_matches(const Endpoint& endpoint,
                                      net::Ipv4Address addr,
                                      std::uint16_t port) const;

 private:
  [[nodiscard]] bool host_matches(const HostSpec& host,
                                  net::Ipv4Address addr) const;
  [[nodiscard]] Value lookup_dict(const DictIndexExpr& index) const;

  const FlowContext& flow_ctx_;
  const Ruleset& ruleset_;
  const FunctionRegistry& registry_;
  EngineStats& stats_;
  int depth_;
};

/// Is `key` a valid `@flow[...]` key?  Covers the 5-tuple keys (always
/// available) and the OpenFlow-only keys (Undefined when the evaluation
/// context carries no TenTuple).  The parser rejects anything else at
/// policy-load time — a typo like `@flow[srcport]` used to silently never
/// match.
[[nodiscard]] bool is_flow_key(std::string_view key) noexcept;

}  // namespace identxx::pf
