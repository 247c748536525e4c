#include "pf/eval.hpp"

#include "util/error.hpp"

namespace identxx::pf {

PolicyEngine::PolicyEngine(Ruleset ruleset)
    : PolicyEngine(std::move(ruleset), FunctionRegistry::with_builtins()) {}

PolicyEngine::PolicyEngine(Ruleset ruleset, FunctionRegistry registry)
    : ruleset_(std::move(ruleset)), registry_(std::move(registry)) {
  compile();
}

Verdict PolicyEngine::evaluate(const FlowContext& ctx) const {
  ++stats_.evaluations;
  const EvalContext eval(ctx, ruleset_, registry_, stats_);
  return eval.eval_rules(ruleset_.rules);
}

// ----------------------------------------------------------- compilation
//
// The compiled evaluator (DESIGN.md §11) decides a flow with the same
// verdict as evaluate() while visiting fewer rules.  Each rule's proto /
// host / port constraints are compiled once into flat CIDR lists (tables
// resolved up front), and each flow probes them in rule order: a rule the
// flow can never match is skipped without being visited.  Rules that
// cannot be compiled (a table the ruleset does not define) stay "dynamic"
// and run through the interpreted matcher, so PolicyError surfaces exactly
// where evaluate() would throw it.

void PolicyEngine::compile() {
  const auto compile_endpoint = [this](const Endpoint& endpoint) {
    CompiledEndpoint out;
    out.negated = endpoint.negated;
    if (endpoint.port) {
      out.has_port = true;
      out.port_lo = endpoint.port->low;
      out.port_hi = endpoint.port->high;
    }
    // Resolve the host spec to a flat CIDR list.  Any reference to a table
    // the ruleset does not define makes the endpoint dynamic: evaluate()
    // throws PolicyError when (and only when) a flow's scan visits that
    // spec, and only the interpreted path reproduces that.
    const auto add_table = [&](const std::string& name) {
      const auto it = ruleset_.tables.find(name);
      if (it == ruleset_.tables.end()) {
        out.dynamic = true;
        return;
      }
      out.cidrs.insert(out.cidrs.end(), it->second.begin(), it->second.end());
    };
    struct Visitor {
      CompiledEndpoint& out;
      const decltype(add_table)& table;
      void operator()(const AnyHost&) const { out.any = true; }
      void operator()(const CidrHost& h) const {
        out.any = false;
        out.cidrs.push_back(h.cidr);
      }
      void operator()(const TableHost& h) const {
        out.any = false;
        table(h.table);
      }
      void operator()(const ListHost& h) const {
        out.any = false;
        for (const auto& item : h.items) {
          if (const auto* cidr = std::get_if<net::Cidr>(&item)) {
            out.cidrs.push_back(*cidr);
          } else {
            table(std::get<std::string>(item));
          }
        }
      }
    };
    std::visit(Visitor{out, add_table}, endpoint.host);
    return out;
  };

  compiled_.reserve(ruleset_.rules.size());
  for (const Rule& rule : ruleset_.rules) {
    CompiledRule compiled;
    compiled.rule = &rule;
    compiled.proto = rule.proto;
    compiled.from = compile_endpoint(rule.from);
    compiled.to = compile_endpoint(rule.to);
    compiled.withs.reserve(rule.withs.size());
    for (const FuncCall& call : rule.withs) {
      // fn may be null: evaluate() only reports an unknown function when a
      // flow actually reaches the call, so the compiled path defers the
      // error to the same point.
      compiled.withs.push_back(CompiledCall{&call, registry_.find(call.name)});
    }
    compiled_.push_back(std::move(compiled));
  }
}

bool PolicyEngine::static_endpoint_matches(const CompiledEndpoint& endpoint,
                                           net::Ipv4Address addr,
                                           std::uint16_t port) noexcept {
  bool host_ok = endpoint.any;
  if (!host_ok) {
    for (const net::Cidr& cidr : endpoint.cidrs) {
      if (cidr.contains(addr)) {
        host_ok = true;
        break;
      }
    }
  }
  if (endpoint.negated) host_ok = !host_ok;
  if (!host_ok) return false;
  if (endpoint.has_port && (port < endpoint.port_lo || port > endpoint.port_hi)) {
    return false;
  }
  return true;
}

bool PolicyEngine::static_candidate(const CompiledRule& rule,
                                    const net::FiveTuple& flow) noexcept {
  // evaluate()'s order is proto, from, to; a static mismatch at any point
  // before the first dynamic spec proves it returns false there without
  // visiting the (possibly throwing) remainder.
  if (rule.proto && *rule.proto != flow.proto) return false;
  if (rule.from.dynamic) return true;
  if (!static_endpoint_matches(rule.from, flow.src_ip, flow.src_port)) {
    return false;
  }
  return rule.to.dynamic ||
         static_endpoint_matches(rule.to, flow.dst_ip, flow.dst_port);
}

Verdict PolicyEngine::evaluate_compiled(const FlowContext& ctx) const {
  ++stats_.evaluations;
  const EvalContext eval(ctx, ruleset_, registry_, stats_);
  Verdict verdict;
  std::size_t visited = 0;
  std::size_t reference_visited = compiled_.size();  // quick break overwrites
  // Visit candidate rule `index`; true when a matching quick rule ends the
  // scan.
  const auto visit = [&](std::uint32_t index) {
    ++visited;
    ++stats_.rules_scanned;
    const CompiledRule& rule = compiled_[index];
    if (!compiled_rule_matches(rule, eval)) return false;
    verdict.action = rule.rule->action;
    verdict.keep_state = rule.rule->keep_state;
    verdict.quick = rule.rule->quick;
    verdict.log = rule.rule->log;
    verdict.rule = rule.rule;
    if (!rule.rule->quick) return false;
    reference_visited = index + 1;
    return true;
  };
  for (std::uint32_t index = 0; index < compiled_.size(); ++index) {
    if (static_candidate(compiled_[index], ctx.flow) && visit(index)) break;
  }
  stats_.prefilter_skips += reference_visited - visited;
  return verdict;
}

bool PolicyEngine::compiled_rule_matches(const CompiledRule& rule,
                                         const EvalContext& eval) const {
  const net::FiveTuple& flow = eval.flow().flow;
  // Dynamic endpoints re-run the interpreted matcher in evaluate()'s order
  // (from, then to) so unknown-table PolicyErrors surface identically.
  if (rule.from.dynamic &&
      !eval.endpoint_matches(rule.rule->from, flow.src_ip, flow.src_port)) {
    return false;
  }
  if (rule.to.dynamic &&
      !eval.endpoint_matches(rule.rule->to, flow.dst_ip, flow.dst_port)) {
    return false;
  }
  if (rule.from.dynamic && !rule.to.dynamic &&
      !static_endpoint_matches(rule.to, flow.dst_ip, flow.dst_port)) {
    return false;
  }

  for (const CompiledCall& cc : rule.withs) {
    if (cc.fn == nullptr) {
      throw PolicyError("unknown policy function '" + cc.call->name +
                        "' (line " + std::to_string(cc.call->line) + ")");
    }
    std::vector<Value> args;
    args.reserve(cc.call->args.size());
    for (const Expr& expr : cc.call->args) {
      args.push_back(eval.eval_expr(expr));
    }
    ++stats_.functions_called;
    if (!(*cc.fn)(eval, *cc.call, args)) return false;
  }
  return true;
}

Verdict EvalContext::eval_rules(const std::vector<Rule>& rules) const {
  Verdict verdict;  // default: pass, no rule
  for (const Rule& rule : rules) {
    if (depth_ > 0) {
      ++stats_.delegated_rule_evals;
    } else {
      ++stats_.rules_scanned;
    }
    if (!rule_matches(rule)) continue;
    verdict.action = rule.action;
    verdict.keep_state = rule.keep_state;
    verdict.quick = rule.quick;
    verdict.log = rule.log;
    verdict.rule = &rule;
    if (rule.quick) break;  // quick forces this rule's execution (§3.3)
  }
  return verdict;
}

bool EvalContext::rule_matches(const Rule& rule) const {
  if (rule.proto && *rule.proto != flow_ctx_.flow.proto) return false;
  if (!endpoint_matches(rule.from, flow_ctx_.flow.src_ip,
                        flow_ctx_.flow.src_port)) {
    return false;
  }
  if (!endpoint_matches(rule.to, flow_ctx_.flow.dst_ip,
                        flow_ctx_.flow.dst_port)) {
    return false;
  }
  for (const FuncCall& call : rule.withs) {
    const PolicyFunction* fn = registry_.find(call.name);
    if (fn == nullptr) {
      throw PolicyError("unknown policy function '" + call.name + "' (line " +
                        std::to_string(call.line) + ")");
    }
    std::vector<Value> args;
    args.reserve(call.args.size());
    for (const Expr& expr : call.args) {
      args.push_back(eval_expr(expr));
    }
    ++stats_.functions_called;
    if (!(*fn)(*this, call, args)) return false;
  }
  return true;
}

bool EvalContext::endpoint_matches(const Endpoint& endpoint,
                                   net::Ipv4Address addr,
                                   std::uint16_t port) const {
  bool host_ok = host_matches(endpoint.host, addr);
  if (endpoint.negated) host_ok = !host_ok;
  if (!host_ok) return false;
  if (endpoint.port && !endpoint.port->contains(port)) return false;
  return true;
}

bool EvalContext::host_matches(const HostSpec& host,
                               net::Ipv4Address addr) const {
  struct Visitor {
    const EvalContext& ctx;
    net::Ipv4Address addr;

    bool operator()(const AnyHost&) const { return true; }
    bool operator()(const TableHost& h) const {
      const auto it = ctx.ruleset_.tables.find(h.table);
      if (it == ctx.ruleset_.tables.end()) {
        throw PolicyError("unknown table <" + h.table + ">");
      }
      for (const net::Cidr& cidr : it->second) {
        if (cidr.contains(addr)) return true;
      }
      return false;
    }
    bool operator()(const CidrHost& h) const { return h.cidr.contains(addr); }
    bool operator()(const ListHost& h) const {
      for (const auto& item : h.items) {
        if (const auto* cidr = std::get_if<net::Cidr>(&item)) {
          if (cidr->contains(addr)) return true;
        } else {
          const auto& table = std::get<std::string>(item);
          if ((*this)(TableHost{table})) return true;
        }
      }
      return false;
    }
  };
  return std::visit(Visitor{*this, addr}, host);
}

Value EvalContext::eval_expr(const Expr& expr) const {
  struct Visitor {
    const EvalContext& ctx;

    Value operator()(const DictIndexExpr& e) const { return ctx.lookup_dict(e); }
    Value operator()(const LiteralExpr& e) const { return e.value; }
    Value operator()(const ListExpr& e) const { return e.items; }
  };
  return std::visit(Visitor{*this}, expr);
}

Value EvalContext::lookup_dict(const DictIndexExpr& index) const {
  // Reserved dictionaries: @src / @dst from the ident++ responses.
  if (index.dict == "src" || index.dict == "dst") {
    const proto::ResponseDict& dict =
        index.dict == "src" ? flow_ctx_.src : flow_ctx_.dst;
    if (index.star) {
      // *@src[key]: concatenation across all sections (§3.3).
      const std::string joined = dict.concatenated(index.key);
      if (joined.empty() && !dict.contains(index.key)) return Undefined{};
      return joined;
    }
    const auto value = dict.latest(index.key);
    if (!value) return Undefined{};
    return std::string(*value);
  }
  // @flow extension: network-level facts about the flow itself.
  if (index.dict == "flow") {
    const net::FiveTuple& flow = flow_ctx_.flow;
    if (index.key == "src_ip") return flow.src_ip.to_string();
    if (index.key == "dst_ip") return flow.dst_ip.to_string();
    if (index.key == "proto") return net::to_string(flow.proto);
    if (index.key == "src_port") return std::to_string(flow.src_port);
    if (index.key == "dst_port") return std::to_string(flow.dst_port);
    if (flow_ctx_.openflow) {
      const net::TenTuple& of = *flow_ctx_.openflow;
      if (index.key == "in_port") return std::to_string(of.in_port);
      if (index.key == "src_mac") return of.src_mac.to_string();
      if (index.key == "dst_mac") return of.dst_mac.to_string();
      if (index.key == "vlan") return std::to_string(of.vlan_id);
      if (index.key == "ether_type") return std::to_string(of.ether_type);
    }
    return Undefined{};
  }
  // User-defined dictionaries (dict <pubkeys> { ... }, Fig 5/7).
  const auto dict_it = ruleset_.dicts.find(index.dict);
  if (dict_it == ruleset_.dicts.end()) {
    throw PolicyError("unknown dictionary '@" + index.dict + "'");
  }
  const auto value_it = dict_it->second.find(index.key);
  if (value_it == dict_it->second.end()) return Undefined{};
  return value_it->second;
}

bool is_flow_key(std::string_view key) noexcept {
  // Must stay in sync with lookup_dict's @flow branch above: the first
  // five are always available, the rest are OpenFlow-only (Undefined when
  // the context carries no TenTuple).
  return key == "src_ip" || key == "dst_ip" || key == "proto" ||
         key == "src_port" || key == "dst_port" || key == "in_port" ||
         key == "src_mac" || key == "dst_mac" || key == "vlan" ||
         key == "ether_type";
}

}  // namespace identxx::pf
