// B2: PF+=2 policy evaluation scaling — rule-count sweeps with and without
// `with` predicates, the `quick` short-circuit ablation (DESIGN.md §6),
// table-membership costs, signature-guarded evaluation as the controller
// runs it, and the delegated-rules (`allowed`) path.

#include <benchmark/benchmark.h>

#include "crypto/schnorr.hpp"
#include "identxx/daemon_config.hpp"
#include "pf/eval.hpp"
#include "pf/parser.hpp"

namespace {

using namespace identxx;

pf::FlowContext make_ctx(const char* app = "skype", const char* version = "210") {
  proto::Response r;
  proto::Section s;
  s.add("name", app);
  s.add("version", version);
  s.add("userID", "alice");
  s.add("groupID", "users");
  r.append_section(s);
  pf::FlowContext ctx;
  ctx.flow.src_ip = *net::Ipv4Address::parse("192.168.0.10");
  ctx.flow.dst_ip = *net::Ipv4Address::parse("192.168.0.11");
  ctx.flow.src_port = 40000;
  ctx.flow.dst_port = 80;
  ctx.src = proto::ResponseDict(r);
  ctx.dst = proto::ResponseDict(r);
  return ctx;
}

/// N rules over network primitives only (what Ethane/vanilla can express).
std::string primitive_rules(std::int64_t n) {
  std::string policy = "block all\n";
  for (std::int64_t i = 0; i < n; ++i) {
    policy += "pass from 10." + std::to_string(i % 256) + ".0.0/16 to any port " +
              std::to_string(1000 + i % 60000) + "\n";
  }
  return policy;
}

/// N rules each with two `with` predicates over @src.
std::string with_rules(std::int64_t n) {
  std::string policy = "block all\n";
  for (std::int64_t i = 0; i < n; ++i) {
    policy += "pass all with eq(@src[name], app-" + std::to_string(i) +
              ") with gte(@src[version], " + std::to_string(i % 400) + ")\n";
  }
  return policy;
}

void BM_ParseRules(benchmark::State& state) {
  const std::string policy = with_rules(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pf::parse(policy, "bench"));
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParseRules)->Arg(10)->Arg(100)->Arg(1000);

void BM_EvalPrimitiveRules(benchmark::State& state) {
  const pf::PolicyEngine engine(pf::parse(primitive_rules(state.range(0))));
  const pf::FlowContext ctx = make_ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(ctx));
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EvalPrimitiveRules)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EvalWithRules(benchmark::State& state) {
  const pf::PolicyEngine engine(pf::parse(with_rules(state.range(0))));
  const pf::FlowContext ctx = make_ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(ctx));
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EvalWithRules)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

/// Ablation: a matching `quick` rule near the top versus last-match scan of
/// the whole ruleset (DESIGN.md §6).
void BM_QuickShortCircuit(benchmark::State& state) {
  std::string policy = "block all\npass quick all with eq(@src[name], skype)\n";
  policy += with_rules(state.range(0));
  const pf::PolicyEngine engine(pf::parse(policy));
  const pf::FlowContext ctx = make_ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(ctx));
  }
}
BENCHMARK(BM_QuickShortCircuit)->Arg(1000)->Arg(10000);

void BM_NoQuickFullScan(benchmark::State& state) {
  std::string policy = "block all\npass all with eq(@src[name], skype)\n";
  policy += with_rules(state.range(0));
  const pf::PolicyEngine engine(pf::parse(policy));
  const pf::FlowContext ctx = make_ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(ctx));
  }
}
BENCHMARK(BM_NoQuickFullScan)->Arg(1000)->Arg(10000);

void BM_TableMembership(benchmark::State& state) {
  // One rule over a table with N entries.
  std::string policy = "table <lan> { ";
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    policy += std::to_string(10 + i % 200) + "." + std::to_string(i % 256) +
              ".0.0/16 ";
  }
  policy += "}\nblock all\npass from <lan> to any\n";
  const pf::PolicyEngine engine(pf::parse(policy));
  const pf::FlowContext ctx = make_ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(ctx));
  }
  state.counters["table_entries"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_TableMembership)->Arg(16)->Arg(256)->Arg(4096);

// ------------------------------------------------- signature-guarded eval
//
// pf::PolicyEngine::evaluate, the controller's evaluator (DESIGN.md §11),
// one flow per iteration.  The policy carries rule spread the flows never
// match plus a signature-guarded rule; each flow carries its own
// attestation, answered from the verifier memo after the first pass over
// the pool.

struct EvalBenchFixture {
  static constexpr int kFlows = 64;

  pf::PolicyEngine engine;
  std::vector<pf::FlowContext> flows;

  static std::string policy(const std::string& pubkey_hex) {
    std::string out =
        "table <lan> { 10.0.0.0/8 }\n"
        "dict <pubkeys> { vendor : " + pubkey_hex + " }\n"
        "block all\n";
    // Rule spread over ports the benchmark flows never hit: every flow
    // visits all of them.
    for (int i = 0; i < 24; ++i) {
      out += "pass from 172.16." + std::to_string(i) + ".0/24 to any port " +
             std::to_string(2000 + i) + "\n";
    }
    out +=
        "pass from <lan> to any port 80 "
        "with verify(@src[sig], @pubkeys[vendor], @src[name], @src[version]) "
        "with gte(@src[version], 100)\n";
    return out;
  }

  static proto::Response attestation(const crypto::PrivateKey& key, int i) {
    const std::string name = "app-" + std::to_string(i);
    const std::string version = "210";
    proto::Response r;
    proto::Section s;
    s.add("name", name);
    s.add("version", version);
    s.add("sig", key.sign(proto::signed_message({name, version})).to_hex());
    r.append_section(s);
    return r;
  }

  explicit EvalBenchFixture(const crypto::PrivateKey& key)
      : engine(pf::parse(policy(key.public_key().to_hex()), "bench")) {
    flows.reserve(kFlows);
    for (int i = 0; i < kFlows; ++i) {
      pf::FlowContext ctx;
      ctx.flow.src_ip = *net::Ipv4Address::parse("10.0.0.10");
      ctx.flow.dst_ip = *net::Ipv4Address::parse("10.0.2.1");
      ctx.flow.proto = net::IpProto::kTcp;
      ctx.flow.src_port = static_cast<std::uint16_t>(30000 + i);
      ctx.flow.dst_port = 80;
      ctx.src = proto::ResponseDict(attestation(key, i));
      flows.push_back(std::move(ctx));
    }
  }
};

// Named when the controller ran a second, compiled evaluator; the name
// stays so snapshots keep comparing it.
void BM_PolicyEvalReference(benchmark::State& state) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("bench");
  EvalBenchFixture fx(key);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.engine.evaluate(fx.flows[i++ % fx.flows.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyEvalReference);

void BM_DelegatedAllowed(benchmark::State& state) {
  // The allowed() path re-parses and evaluates delegated rules per call —
  // the per-flow price of delegation without signature checking.
  proto::Response r;
  proto::Section s;
  s.add("name", "research-app");
  std::string requirements = "block all";
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    requirements += " pass all with eq(@src[name], research-app)";
  }
  s.add("requirements", requirements);
  r.append_section(s);
  pf::FlowContext ctx = make_ctx();
  ctx.src = proto::ResponseDict(r);
  const pf::PolicyEngine engine(
      pf::parse("block all\npass all with allowed(@src[requirements])\n"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.evaluate(ctx));
  }
  state.counters["delegated_rules"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_DelegatedAllowed)->Arg(1)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
