// Compiled PF evaluation (DESIGN.md §11): evaluate_compiled must be
// observationally identical to the reference evaluate() — same verdicts,
// same matched-rule pointers, PolicyError at the same places — while
// skipping the rules its static prefilters rule out.  The centerpiece is a
// randomized differential sweep against the reference over every generated
// flow; targeted tests pin down the edges (quick, negation, unknown
// tables/functions, OpenFlow-only keys).

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "crypto/schnorr.hpp"
#include "identxx/daemon_config.hpp"
#include "pf/eval.hpp"
#include "pf/parser.hpp"
#include "util/error.hpp"

namespace identxx::pf {
namespace {

net::FiveTuple flow(const char* src, const char* dst, std::uint16_t dport = 80,
                    std::uint16_t sport = 40000,
                    net::IpProto proto = net::IpProto::kTcp) {
  return net::FiveTuple{*net::Ipv4Address::parse(src),
                        *net::Ipv4Address::parse(dst), proto, sport, dport};
}

struct StatsDelta {
  std::uint64_t evaluations = 0;
  std::uint64_t rules_scanned = 0;
  std::uint64_t functions_called = 0;
  std::uint64_t prefilter_skips = 0;
};

StatsDelta delta(const EngineStats& after, const EngineStats& before) {
  return StatsDelta{after.evaluations - before.evaluations,
                    after.rules_scanned - before.rules_scanned,
                    after.functions_called - before.functions_called,
                    after.prefilter_skips - before.prefilter_skips};
}

/// Each flow through evaluate() and then evaluate_compiled() on the SAME
/// engine (so matched-rule pointers are comparable), asserting verdict
/// identity and the per-flow stats invariants.  A PolicyError from either
/// evaluator fails the test; PolicyError parity has its own targeted cases
/// below.
void expect_compiled_matches_reference(const PolicyEngine& engine,
                                       const std::vector<FlowContext>& flows,
                                       const char* label) {
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const EngineStats s0 = engine.stats();
    const Verdict reference = engine.evaluate(flows[i]);
    const EngineStats s1 = engine.stats();
    const Verdict compiled = engine.evaluate_compiled(flows[i]);
    const EngineStats s2 = engine.stats();

    EXPECT_EQ(reference.action, compiled.action) << label << " flow " << i;
    EXPECT_EQ(reference.keep_state, compiled.keep_state)
        << label << " flow " << i;
    EXPECT_EQ(reference.quick, compiled.quick) << label << " flow " << i;
    EXPECT_EQ(reference.log, compiled.log) << label << " flow " << i;
    EXPECT_EQ(reference.rule, compiled.rule)
        << label << " flow " << i << ": matched-rule pointer diverged";

    const StatsDelta dr = delta(s1, s0);
    const StatsDelta dc = delta(s2, s1);
    EXPECT_EQ(dr.evaluations, 1u) << label << " flow " << i;
    EXPECT_EQ(dc.evaluations, 1u) << label << " flow " << i;
    // Every rule visit the reference makes is either made by the compiled
    // path or provably elided by a static prefilter; both call the same
    // functions.
    EXPECT_EQ(dr.rules_scanned, dc.rules_scanned + dc.prefilter_skips)
        << label << " flow " << i;
    EXPECT_EQ(dr.functions_called, dc.functions_called)
        << label << " flow " << i;
    EXPECT_EQ(dr.prefilter_skips, 0u) << label << " flow " << i;
  }
}

// ------------------------------------------------------------ differential

/// Randomized policy over a fixed vocabulary of tables, dicts, ports and
/// predicates — quick/negation/tables/lists/withs all in play.
std::string random_policy(std::mt19937_64& rng, const std::string& key_hex) {
  auto pick = [&rng](std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng() % options.size()));
    return std::string(*it);
  };
  auto chance = [&rng](int percent) {
    return static_cast<int>(rng() % 100) < percent;
  };

  std::string policy =
      "table <lan> { 10.0.0.0/8 192.168.1.0/24 }\n"
      "table <dmz> { 172.16.0.0/12 }\n"
      "dict <pubkeys> { vendor : " + key_hex + " }\n"
      "dict <limits> { maxver : 300 }\n"
      "apps = \"{ curl ssh skype }\"\n"
      "block all\n";
  const std::size_t rules = 4 + rng() % 16;
  for (std::size_t i = 0; i < rules; ++i) {
    std::string rule = chance(50) ? "pass" : "block";
    if (chance(15)) rule += " quick";
    if (chance(10)) rule += " log";
    const std::string host = pick({"any", "10.0.0.0/8", "192.168.1.0/24",
                                   "<lan>", "<dmz>", "{ 10.0.1.0/24 <dmz> }"});
    rule += " from ";
    if (chance(15) && host != "any") rule += "!";
    rule += host;
    if (chance(40)) rule += " port " + pick({"80", "443", "1024:2047", "8000:8007"});
    rule += " to " + pick({"any", "10.0.2.0/24", "<lan>"});
    if (chance(40)) rule += " port " + pick({"80", "22", "8080"});
    if (chance(30)) rule += " proto " + pick({"tcp", "udp"});
    const std::size_t withs = rng() % 3;
    for (std::size_t w = 0; w < withs; ++w) {
      switch (rng() % 6) {
        case 0:
          rule += " with " + pick({"eq", "gt", "lt", "gte", "lte"}) +
                  "(@src[version], " + std::to_string(100 + rng() % 300) + ")";
          break;
        case 1:
          rule += " with member(@src[name], $apps)";
          break;
        case 2:
          rule += " with includes(*@src[tags], " + pick({"trusted", "lab"}) + ")";
          break;
        case 3:
          rule += " with lte(@src[version], @limits[maxver])";
          break;
        case 4:
          rule += " with verify(@src[sig], @pubkeys[vendor], @src[name], "
                  "@src[version])";
          break;
        default:
          rule += " with allowed(@src[requirements])";
          break;
      }
    }
    if (chance(10)) rule += " keep state";
    policy += rule + "\n";
  }
  return policy;
}

proto::Response make_response(const crypto::PrivateKey& key,
                              const std::string& name,
                              const std::string& version,
                              const std::string& tags) {
  proto::Response r;
  proto::Section s;
  s.add("name", name);
  s.add("version", version);
  s.add("tags", tags);
  s.add("sig", key.sign(proto::signed_message({name, version})).to_hex());
  s.add("requirements", "block all pass from 10.0.0.0/8 to any");
  r.append_section(s);
  return r;
}

TEST(BatchDifferential, RandomRulesetsAndBatchesMatchSerialOracle) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_seed("batch-test");
  const std::string key_hex = key.public_key().to_hex();
  // A small pool of shared attestations (verifier memo hits) plus per-flow
  // variants.
  const std::vector<proto::Response> shared = {
      make_response(key, "curl", "210", "trusted,prod"),
      make_response(key, "skype", "150", "lab"),
  };
  const char* ips[] = {"10.0.0.5",    "10.0.1.9",   "10.0.2.7",
                       "192.168.1.4", "172.16.3.2", "8.8.8.8"};
  const std::uint16_t ports[] = {80, 443, 22, 8080, 1025, 8004, 40000};

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL);
    const std::string policy = random_policy(rng, key_hex);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + policy);
    const PolicyEngine engine(parse(policy, "diff"));

    std::vector<FlowContext> contexts;
    const std::size_t count = 8 + rng() % 48;
    for (std::size_t i = 0; i < count; ++i) {
      FlowContext ctx;
      ctx.flow = flow(ips[rng() % 6], ips[rng() % 6], ports[rng() % 7],
                      ports[rng() % 7],
                      (rng() % 3) ? net::IpProto::kTcp : net::IpProto::kUdp);
      const std::size_t r = rng() % 4;
      if (r < 2) {
        ctx.src = proto::ResponseDict(shared[r]);  // shared attestation
      } else if (r == 2) {
        ctx.src = proto::ResponseDict(
            make_response(key, "nc", std::to_string(100 + i), ""));
      }  // r == 3: no response at all
      if (rng() % 2) ctx.dst = proto::ResponseDict(shared[0]);
      if (rng() % 4 == 0) {
        net::TenTuple of;
        of.in_port = static_cast<std::uint16_t>(1 + rng() % 4);
        ctx.openflow = of;
      }
      // Duplicate some contexts outright: a deadline sweep routinely
      // carries repeat packet-ins of the same flow.
      contexts.push_back(ctx);
      if (rng() % 5 == 0) contexts.push_back(ctx);
    }
    expect_compiled_matches_reference(engine, contexts, "differential");
  }
}

// ---------------------------------------------------------------- targeted

TEST(BatchEval, QuickAndLastMatchParity) {
  const PolicyEngine engine(parse(
      "block all\n"
      "pass from 10.0.0.0/8 to any port 80\n"
      "block quick from 10.0.0.0/16 to any\n"
      "pass from 10.0.0.0/8 to any\n",
      "test"));
  std::vector<FlowContext> flows;
  for (const char* src : {"10.0.0.1", "10.1.0.1", "9.9.9.9", "10.0.0.1"}) {
    FlowContext ctx;
    ctx.flow = flow(src, "10.0.2.2");
    flows.push_back(ctx);
  }
  expect_compiled_matches_reference(engine, flows, "quick");
}

TEST(BatchEval, NegatedAndListEndpointsParity) {
  const PolicyEngine engine(parse(
      "table <lan> { 10.0.0.0/8 }\n"
      "block all\n"
      "pass from !<lan> to any port 80\n"
      "block from { 10.0.1.0/24 <lan> } to any port 22\n"
      "pass from !8.8.8.0/24 to any port 22\n",
      "test"));
  std::vector<FlowContext> flows;
  for (const char* src : {"10.0.0.1", "8.8.8.8", "1.2.3.4"}) {
    for (std::uint16_t port : {std::uint16_t{80}, std::uint16_t{22}}) {
      FlowContext ctx;
      ctx.flow = flow(src, "10.0.2.2", port);
      flows.push_back(ctx);
    }
  }
  expect_compiled_matches_reference(engine, flows, "negation");
}

TEST(BatchEval, UnknownTableThrowsExactlyLikeSerial) {
  // <nosuch> parses fine; evaluate() throws PolicyError only when a flow's
  // scan actually visits the endpoint.  The compiled path must not throw
  // at construction and must throw at evaluation time.
  const PolicyEngine engine(parse(
      "block all\npass from <nosuch> to any\n", "test"));
  FlowContext ctx;
  ctx.flow = flow("10.0.0.1", "10.0.2.2");
  EXPECT_THROW((void)engine.evaluate(ctx), PolicyError);
  EXPECT_THROW((void)engine.evaluate_compiled(ctx), PolicyError);
}

TEST(BatchEval, UnknownFunctionThrowsOnlyWhenReached) {
  const PolicyEngine engine(parse(
      "block all\npass from 10.0.0.0/8 to any with nosuch(x)\n", "test"));
  // A flow the prefilter excludes never reaches the call — no throw,
  // matching evaluate() (endpoint mismatch short-circuits before the
  // withs).
  FlowContext miss;
  miss.flow = flow("9.9.9.9", "10.0.2.2");
  EXPECT_NO_THROW({ EXPECT_FALSE(engine.evaluate(miss).allowed()); });
  EXPECT_NO_THROW(
      { EXPECT_FALSE(engine.evaluate_compiled(miss).allowed()); });
  // A flow that matches the endpoints reaches the call and throws, in
  // both evaluators.
  FlowContext hit;
  hit.flow = flow("10.0.0.1", "10.0.2.2");
  EXPECT_THROW((void)engine.evaluate(hit), PolicyError);
  EXPECT_THROW((void)engine.evaluate_compiled(hit), PolicyError);
}

TEST(BatchEval, OpenFlowOnlyKeysStayUndefinedWithoutTenTuple) {
  const PolicyEngine engine(parse(
      "block all\npass all with eq(@flow[in_port], 3)\n", "test"));
  FlowContext without;
  without.flow = flow("10.0.0.1", "10.0.2.2");
  FlowContext with = without;
  net::TenTuple of;
  of.in_port = 3;
  with.openflow = of;
  EXPECT_FALSE(engine.evaluate_compiled(without).allowed());  // Undefined
  EXPECT_TRUE(engine.evaluate_compiled(with).allowed());
  expect_compiled_matches_reference(engine, {without, with},
                                    "openflow-only keys");
}

}  // namespace
}  // namespace identxx::pf
