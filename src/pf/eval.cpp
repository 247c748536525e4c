#include "pf/eval.hpp"

#include "util/error.hpp"

namespace identxx::pf {

PolicyEngine::PolicyEngine(Ruleset ruleset)
    : PolicyEngine(std::move(ruleset), FunctionRegistry::with_builtins()) {}

PolicyEngine::PolicyEngine(Ruleset ruleset, FunctionRegistry registry)
    : ruleset_(std::move(ruleset)), registry_(std::move(registry)) {}

Verdict PolicyEngine::evaluate(const FlowContext& ctx) const {
  ++stats_.evaluations;
  const EvalContext eval(ctx, ruleset_, registry_, stats_);
  return eval.eval_rules(ruleset_.rules);
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
  // The keys lookup_dict's @flow branch above defines: the first five are
  // always available, the rest are OpenFlow-only (Undefined when the
  // context carries no TenTuple).  Eval.FlowDictExtension holds the two
  // lists together.
  return key == "src_ip" || key == "dst_ip" || key == "proto" ||
         key == "src_port" || key == "dst_port" || key == "in_port" ||
         key == "src_mac" || key == "dst_mac" || key == "vlan" ||
         key == "ether_type";
}

}  // namespace identxx::pf
