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
};

class PolicyEngine {
 public:
  /// Takes ownership of `ruleset`; uses the builtin function registry
  /// unless a custom one is supplied.
  explicit PolicyEngine(Ruleset ruleset);
  PolicyEngine(Ruleset ruleset, FunctionRegistry registry);

  // Every Verdict::rule points into ruleset_; copying would alias the
  // copy's verdicts onto the original's rules.  Moves are fine:
  // vector/map storage survives a move.
  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;
  PolicyEngine(PolicyEngine&&) = default;
  PolicyEngine& operator=(PolicyEngine&&) = default;

  /// Decide `ctx` by scanning the ruleset top-down.  The controller, the
  /// tests and pfeval all decide through here.  Throws PolicyError for
  /// unknown functions/tables (admin configuration errors) when the scan
  /// reaches them; never throws for malformed *delegated* content, which
  /// simply fails to match.
  [[nodiscard]] Verdict evaluate(const FlowContext& ctx) const;

  [[nodiscard]] const Ruleset& ruleset() const noexcept { return ruleset_; }
  [[nodiscard]] const FunctionRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

 private:
  Ruleset ruleset_;
  FunctionRegistry registry_;
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

 private:
  /// Host spec + negation + port.  Throws PolicyError for an unknown table.
  [[nodiscard]] bool endpoint_matches(const Endpoint& endpoint,
                                      net::Ipv4Address addr,
                                      std::uint16_t port) const;
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
