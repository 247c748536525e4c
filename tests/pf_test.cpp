// Tests for PF+=2 (§3.3): lexer, parser, evaluation semantics
// (last-match-wins, quick, tables, dicts, macros), the predefined function
// library, and the paper's own policy listings parsed verbatim.

#include <gtest/gtest.h>

#include "crypto/schnorr.hpp"
#include "identxx/daemon_config.hpp"
#include "pf/eval.hpp"
#include "pf/lexer.hpp"
#include "pf/parser.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace identxx::pf {
namespace {

// ---------------------------------------------------------------- helpers

net::FiveTuple flow(const char* src, const char* dst, std::uint16_t dport = 80,
                    std::uint16_t sport = 40000,
                    net::IpProto proto = net::IpProto::kTcp) {
  return net::FiveTuple{*net::Ipv4Address::parse(src),
                        *net::Ipv4Address::parse(dst), proto, sport, dport};
}

proto::ResponseDict dict_of(
    std::initializer_list<std::pair<const char*, const char*>> pairs) {
  proto::Response r;
  proto::Section s;
  for (const auto& [k, v] : pairs) s.add(k, v);
  r.append_section(s);
  return proto::ResponseDict(r);
}

Verdict run_policy(std::string_view policy, const FlowContext& ctx) {
  const PolicyEngine engine(parse(policy, "test"));
  return engine.evaluate(ctx);
}

// ---------------------------------------------------------------- lexer

TEST(Lexer, TokenKinds) {
  const auto tokens =
      lex("pass from <lan> with eq(@src[userID], $user) !{ } \"str\" : = *@dst[k]");
  std::vector<TokenKind> kinds;
  for (const auto& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kWord, TokenKind::kWord, TokenKind::kTableRef,
                       TokenKind::kWord, TokenKind::kWord, TokenKind::kLParen,
                       TokenKind::kDictIndex, TokenKind::kComma,
                       TokenKind::kMacroRef, TokenKind::kRParen,
                       TokenKind::kBang, TokenKind::kLBrace, TokenKind::kRBrace,
                       TokenKind::kString, TokenKind::kColon, TokenKind::kEquals,
                       TokenKind::kDictIndex, TokenKind::kEnd}));
}

TEST(Lexer, DictIndexFields) {
  const auto tokens = lex("*@src[os-patch]");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "src");
  EXPECT_EQ(tokens[0].key, "os-patch");
  EXPECT_TRUE(tokens[0].star);
}

TEST(Lexer, CommentsAndContinuationsAreWhitespace) {
  const auto tokens = lex("pass \\\n  all # trailing comment\nblock");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_TRUE(tokens[0].is_word("pass"));
  EXPECT_TRUE(tokens[1].is_word("all"));
  EXPECT_TRUE(tokens[2].is_word("block"));
}

TEST(Lexer, LineNumbersTracked) {
  const auto tokens = lex("pass\nblock\npass");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[1].line, 2u);
  EXPECT_EQ(tokens[2].line, 3u);
}

TEST(Lexer, Errors) {
  EXPECT_THROW((void)lex("\"unterminated"), ParseError);
  EXPECT_THROW((void)lex("<unterminated"), ParseError);
  EXPECT_THROW((void)lex("@nobracket "), ParseError);
  EXPECT_THROW((void)lex("@dict[unclosed"), ParseError);
  EXPECT_THROW((void)lex("* alone"), ParseError);
  EXPECT_THROW((void)lex("$"), ParseError);
  EXPECT_THROW((void)lex("^"), ParseError);
}

// ---------------------------------------------------------------- parser

TEST(Parser, MinimalRules) {
  const Ruleset rs = parse("block all\npass all\n");
  ASSERT_EQ(rs.rules.size(), 2u);
  EXPECT_EQ(rs.rules[0].action, RuleAction::kBlock);
  EXPECT_EQ(rs.rules[1].action, RuleAction::kPass);
}

TEST(Parser, TableDefinitionAndComposition) {
  // Fig 2: table <int_hosts> { <lan> <server> }.
  const Ruleset rs = parse(
      "table <server> { 192.168.1.1 }\n"
      "table <lan> { 192.168.0.0/24 }\n"
      "table <int_hosts> { <lan> <server> }\n");
  ASSERT_TRUE(rs.tables.contains("int_hosts"));
  const auto& t = rs.tables.at("int_hosts");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_TRUE(t[0].contains(*net::Ipv4Address::parse("192.168.0.55")));
  EXPECT_TRUE(t[1].contains(*net::Ipv4Address::parse("192.168.1.1")));
}

TEST(Parser, TableForwardReferenceFails) {
  EXPECT_THROW((void)parse("table <a> { <b> }\ntable <b> { 1.1.1.1 }\n"),
               ParseError);
}

TEST(Parser, DictDefinition) {
  const Ruleset rs = parse(
      "dict <pubkeys> { \\\n research : abc123 \\\n admin : def456 \\\n }\n");
  ASSERT_TRUE(rs.dicts.contains("pubkeys"));
  EXPECT_EQ(rs.dicts.at("pubkeys").at("research"), "abc123");
  EXPECT_EQ(rs.dicts.at("pubkeys").at("admin"), "def456");
}

TEST(Parser, MacroDefinitionAndListLookup) {
  // Fig 2: allowed = "{ http ssh }".
  const Ruleset rs = parse("allowed = \"{ http ssh }\"\n");
  const auto list = rs.named_list("allowed");
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(*list, (std::vector<std::string>{"http", "ssh"}));
  EXPECT_FALSE(rs.named_list("nope").has_value());
}

TEST(Parser, MacroExpansionInRule) {
  const Ruleset rs = parse(
      "srv = 192.168.1.1\n"
      "pass from any to $srv\n");
  ASSERT_EQ(rs.rules.size(), 1u);
  const auto* host = std::get_if<CidrHost>(&rs.rules[0].to.host);
  ASSERT_NE(host, nullptr);
  EXPECT_TRUE(host->cidr.contains(*net::Ipv4Address::parse("192.168.1.1")));
}

TEST(Parser, UndefinedMacroFails) {
  EXPECT_THROW((void)parse("pass from any to $nope\n"), ParseError);
}

TEST(Parser, EndpointVariants) {
  const Ruleset rs = parse(
      "table <lan> { 10.0.0.0/8 }\n"
      "pass from <lan> to !<lan>\n"
      "pass from 1.2.3.4 to { 5.6.7.8 10.0.0.0/24 <lan> }\n"
      "pass from any port 1000:2000 to any port http\n");
  ASSERT_EQ(rs.rules.size(), 3u);
  EXPECT_TRUE(rs.rules[0].to.negated);
  const auto* list = std::get_if<ListHost>(&rs.rules[1].to.host);
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->items.size(), 3u);
  ASSERT_TRUE(rs.rules[2].from.port.has_value());
  EXPECT_EQ(rs.rules[2].from.port->low, 1000);
  EXPECT_EQ(rs.rules[2].from.port->high, 2000);
  EXPECT_EQ(rs.rules[2].to.port->low, 80);
}

TEST(Parser, QuickAndKeepState) {
  const Ruleset rs = parse("block quick from any to any\npass all keep state\n");
  EXPECT_TRUE(rs.rules[0].quick);
  EXPECT_FALSE(rs.rules[0].keep_state);
  EXPECT_TRUE(rs.rules[1].keep_state);
}

TEST(Parser, WithFunctionCalls) {
  const Ruleset rs = parse(
      "pass all with eq(@src[name], skype) with member(@src[groupID], users)\n");
  ASSERT_EQ(rs.rules[0].withs.size(), 2u);
  EXPECT_EQ(rs.rules[0].withs[0].name, "eq");
  ASSERT_EQ(rs.rules[0].withs[0].args.size(), 2u);
  const auto* idx = std::get_if<DictIndexExpr>(&rs.rules[0].withs[0].args[0]);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->dict, "src");
  EXPECT_EQ(idx->key, "name");
}

TEST(Parser, NamedPorts) {
  EXPECT_EQ(named_port("http"), 80);
  EXPECT_EQ(named_port("HTTPS"), 443);
  EXPECT_EQ(named_port("identxx"), 783);
  EXPECT_EQ(named_port("unknown-service"), 0);
}

TEST(Parser, SyntaxErrors) {
  EXPECT_THROW((void)parse("pass from"), ParseError);
  EXPECT_THROW((void)parse("pass from 300.1.1.1"), ParseError);
  EXPECT_THROW((void)parse("pass all with eq(@src[a]"), ParseError);
  EXPECT_THROW((void)parse("pass all keep"), ParseError);
  EXPECT_THROW((void)parse("table <t> 1.1.1.1 }"), ParseError);
  EXPECT_THROW((void)parse("pass from any port bogusport"), ParseError);
  EXPECT_THROW((void)parse("frobnicate all"), ParseError);
}

TEST(Parser, RulesRecordSourceLabel) {
  const Ruleset rs = parse("pass all\n", "50-skype.control");
  EXPECT_EQ(rs.rules[0].source_label, "50-skype.control");
}

// ---------------------------------------------------------------- eval core

TEST(Eval, DefaultIsPassLikePf) {
  FlowContext ctx;
  ctx.flow = flow("10.0.0.1", "10.0.0.2");
  const Verdict v = run_policy("", ctx);
  EXPECT_TRUE(v.allowed());
  EXPECT_EQ(v.rule, nullptr);
}

TEST(Eval, LastMatchWins) {
  FlowContext ctx;
  ctx.flow = flow("10.0.0.1", "10.0.0.2");
  EXPECT_FALSE(run_policy("pass all\nblock all\n", ctx).allowed());
  EXPECT_TRUE(run_policy("block all\npass all\n", ctx).allowed());
}

TEST(Eval, QuickShortCircuits) {
  FlowContext ctx;
  ctx.flow = flow("10.0.0.1", "10.0.0.2");
  // quick pass wins although a block follows.
  EXPECT_TRUE(run_policy("pass quick all\nblock all\n", ctx).allowed());
}

TEST(Eval, EndpointDirectionality) {
  FlowContext ctx;
  ctx.flow = flow("10.0.0.1", "192.168.1.1", 22);
  EXPECT_TRUE(
      run_policy("block all\npass from 10.0.0.0/24 to 192.168.1.1\n", ctx)
          .allowed());
  // Reversed direction does not match.
  ctx.flow = flow("192.168.1.1", "10.0.0.1", 22);
  EXPECT_FALSE(
      run_policy("block all\npass from 10.0.0.0/24 to 192.168.1.1\n", ctx)
          .allowed());
}

TEST(Eval, PortPredicates) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2", 443);
  EXPECT_TRUE(
      run_policy("block all\npass from any to any port https\n", ctx).allowed());
  EXPECT_FALSE(
      run_policy("block all\npass from any to any port http\n", ctx).allowed());
  EXPECT_TRUE(
      run_policy("block all\npass from any to any port 400:500\n", ctx)
          .allowed());
}

TEST(Eval, NegatedEndpoint) {
  FlowContext ctx;
  ctx.flow = flow("10.0.0.1", "8.8.8.8");
  // Outbound to non-LAN passes.
  const char* policy =
      "table <lan> { 10.0.0.0/8 }\nblock all\npass from <lan> to !<lan>\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
  ctx.flow = flow("10.0.0.1", "10.0.0.2");
  EXPECT_FALSE(run_policy(policy, ctx).allowed());
}

TEST(Eval, UnknownTableThrowsPolicyError) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  EXPECT_THROW((void)run_policy("pass from <nope> to any\n", ctx), PolicyError);
}

TEST(Eval, UnknownFunctionThrowsPolicyError) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  EXPECT_THROW((void)run_policy("pass all with frob(@src[a], b)\n", ctx),
               PolicyError);
  // The error surfaces only when the scan reaches the call: a flow whose
  // endpoints miss the rule never looks the function up, and the rules
  // before it decide.
  const char* policy = "block all\npass from 10.0.0.0/8 to any with frob(x)\n";
  EXPECT_NO_THROW({ EXPECT_FALSE(run_policy(policy, ctx).allowed()); });
  ctx.flow = flow("10.0.0.1", "2.2.2.2");
  EXPECT_THROW((void)run_policy(policy, ctx), PolicyError);
}

TEST(Eval, VerdictIdentifiesMatchedRule) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  const PolicyEngine engine(parse("block all\npass all\n", "t"));
  const Verdict v = engine.evaluate(ctx);
  ASSERT_NE(v.rule, nullptr);
  EXPECT_EQ(v.rule->action, RuleAction::kPass);
  EXPECT_EQ(engine.stats().evaluations, 1u);
  EXPECT_EQ(engine.stats().rules_scanned, 2u);
}

// ---------------------------------------------------------------- with/dicts

TEST(Eval, WithOverSrcDict) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"name", "skype"}});
  EXPECT_TRUE(
      run_policy("block all\npass all with eq(@src[name], skype)\n", ctx)
          .allowed());
  EXPECT_FALSE(
      run_policy("block all\npass all with eq(@src[name], firefox)\n", ctx)
          .allowed());
}

TEST(Eval, MissingKeyNeverMatches) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  // No @src info at all: with-predicates are false, so the pass rule does
  // not match and the block-all stands.
  EXPECT_FALSE(
      run_policy("block all\npass all with eq(@src[name], skype)\n", ctx)
          .allowed());
}

TEST(Eval, MultipleWithsAreConjunction) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"name", "skype"}, {"version", "210"}});
  const char* policy =
      "block all\n"
      "pass all with eq(@src[name], skype) with gte(@src[version], 200)\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
  ctx.src = dict_of({{"name", "skype"}, {"version", "190"}});
  EXPECT_FALSE(run_policy(policy, ctx).allowed());
}

TEST(Eval, LatestSectionWinsInPolicy) {
  proto::Response r;
  proto::Section s1, s2;
  s1.add("name", "skype");
  s2.add("name", "not-skype");
  r.append_section(s1);
  r.append_section(s2);
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = proto::ResponseDict(r);
  EXPECT_FALSE(
      run_policy("block all\npass all with eq(@src[name], skype)\n", ctx)
          .allowed());
}

TEST(Eval, StarConcatenationAcrossSections) {
  proto::Response r;
  proto::Section s1, s2;
  s1.add("network", "branchA");
  s2.add("network", "branchB");
  r.append_section(s1);
  r.append_section(s2);
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = proto::ResponseDict(r);
  // The endorsement chain must be exactly branchA,branchB (§3.3).
  EXPECT_TRUE(run_policy(
                  "block all\n"
                  "pass all with eq(*@src[network], \"branchA,branchB\")\n",
                  ctx)
                  .allowed());
  EXPECT_FALSE(run_policy("block all\n"
                          "pass all with eq(*@src[network], \"branchA\")\n",
                          ctx)
                   .allowed());
}

TEST(Eval, UserDictLookup) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"rule-maker", "Secur"}});
  const char* policy =
      "dict <companies> { Secur : trusted }\n"
      "block all\n"
      "pass all with eq(@companies[Secur], trusted)\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
}

TEST(Eval, UnknownUserDictThrows) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  EXPECT_THROW(
      (void)run_policy("pass all with eq(@nosuch[k], v)\n", ctx), PolicyError);
}

TEST(Eval, FlowDictExtension) {
  // The parser accepts the keys is_flow_key names, and the evaluator must
  // define every one of them: the 5-tuple keys always, the OpenFlow-only
  // keys only when the context carries a TenTuple.  Dropping a key from
  // either side, or moving one between the two groups, fails here.
  struct FlowKeyCase {
    const char* key;
    const char* value;  ///< its value in `with` below
    bool five_tuple;    ///< defined without a TenTuple too
  };
  const FlowKeyCase cases[] = {
      {"src_ip", "1.1.1.1", true},
      {"dst_ip", "2.2.2.2", true},
      {"proto", "tcp", true},
      {"src_port", "40000", true},
      {"dst_port", "80", true},
      {"in_port", "3", false},
      {"src_mac", "02:00:00:00:00:07", false},
      {"dst_mac", "02:00:00:00:00:09", false},
      {"vlan", "12", false},
      {"ether_type", "2048", false},
  };
  FlowContext without;
  without.flow = flow("1.1.1.1", "2.2.2.2", 80, 40000);
  FlowContext with = without;
  net::TenTuple of;
  of.in_port = 3;
  of.src_mac = net::MacAddress::for_node(7);
  of.dst_mac = net::MacAddress::for_node(9);
  of.vlan_id = 12;
  with.openflow = of;

  const Ruleset no_rules;
  const FunctionRegistry registry = FunctionRegistry::with_builtins();
  EngineStats stats;
  const auto lookup = [&](const FlowContext& ctx, const char* key) {
    const EvalContext eval(ctx, no_rules, registry, stats);
    return eval.eval_expr(Expr{DictIndexExpr{"flow", key, false}});
  };
  for (const FlowKeyCase& c : cases) {
    SCOPED_TRACE(c.key);
    EXPECT_TRUE(is_flow_key(c.key));
    EXPECT_EQ(lookup(with, c.key), Value{std::string(c.value)});
    EXPECT_EQ(is_undefined(lookup(without, c.key)), !c.five_tuple);
    const std::string policy = std::string("block all\npass all with eq(@flow[") +
                               c.key + "], \"" + c.value + "\")\n";
    EXPECT_TRUE(run_policy(policy, with).allowed());
    EXPECT_EQ(run_policy(policy, without).allowed(), c.five_tuple);
  }
  for (const char* key : {"srcport", "vlan_id", "eth_type", ""}) {
    SCOPED_TRACE(key);
    EXPECT_FALSE(is_flow_key(key));
    EXPECT_TRUE(is_undefined(lookup(with, key)));
  }
}

TEST(Eval, UnknownFlowKeyRejectedAtParseTime) {
  // @flow has a closed key set; a typo used to return Undefined and make
  // the rule silently unmatchable.  Now it is a load-time error carrying
  // the offending line.
  try {
    (void)parse("block all\npass all with eq(@flow[srcport], 1)\n", "test");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("srcport"), std::string::npos);
  }
}

TEST(Eval, OpenFlowOnlyFlowKeysUndefinedWithoutTenTuple) {
  // Valid OpenFlow-only keys still parse, and evaluate to Undefined (rule
  // does not match) when the decision context carries no TenTuple.
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  EXPECT_FALSE(
      run_policy("block all\npass all with eq(@flow[in_port], 3)\n", ctx)
          .allowed());
  EXPECT_FALSE(
      run_policy("block all\npass all with eq(@flow[vlan], 0)\n", ctx)
          .allowed());
}

TEST(Eval, DelegatedRulesWithBadFlowKeyFailClosed) {
  // Delegated rules are untrusted input: a bad @flow key inside an
  // allowed() payload must make the predicate false, not throw.
  proto::Response r;
  proto::Section s;
  s.add("requirements", "pass all with eq(@flow[srcport], 1)");
  r.append_section(s);
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = proto::ResponseDict(r);
  EXPECT_FALSE(
      run_policy("block all\npass all with allowed(@src[requirements])\n", ctx)
          .allowed());
}

// ---------------------------------------------------------------- functions

struct ComparisonCase {
  const char* fn;
  const char* lhs;
  const char* rhs;
  bool expected;
};

class ComparisonTest : public ::testing::TestWithParam<ComparisonCase> {};

TEST_P(ComparisonTest, NumericAndStringSemantics) {
  const auto& [fn, lhs, rhs, expected] = GetParam();
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"v", lhs}});
  const std::string policy = std::string("block all\npass all with ") + fn +
                             "(@src[v], " + rhs + ")\n";
  EXPECT_EQ(run_policy(policy, ctx).allowed(), expected)
      << fn << "(" << lhs << ", " << rhs << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Comparisons, ComparisonTest,
    ::testing::Values(
        ComparisonCase{"eq", "skype", "skype", true},
        ComparisonCase{"eq", "skype", "Skype", false},
        ComparisonCase{"eq", "200", "200", true},
        ComparisonCase{"lt", "190", "200", true},
        ComparisonCase{"lt", "200", "200", false},
        // Numeric compare, not lexicographic: 9 < 10.
        ComparisonCase{"lt", "9", "10", true},
        ComparisonCase{"gt", "210", "200", true},
        ComparisonCase{"gt", "200", "210", false},
        ComparisonCase{"gte", "200", "200", true},
        ComparisonCase{"gte", "199", "200", false},
        ComparisonCase{"lte", "200", "200", true},
        ComparisonCase{"lte", "201", "200", false},
        // String ordering when not numeric.
        ComparisonCase{"lt", "alpha", "beta", true},
        ComparisonCase{"gt", "beta", "alpha", true},
        // Mixed numeric/non-numeric operands have no coherent order: the
        // old lexicographic fallback made gt("10", "9 ") false but
        // lt("10", "9 ") true (both order-dependent and wrong).  Mixed
        // comparisons now fail the predicate in every direction.
        ComparisonCase{"gt", "10", "\"9 \"", false},
        ComparisonCase{"lt", "10", "\"9 \"", false},
        ComparisonCase{"gte", "10", "\"9 \"", false},
        ComparisonCase{"lte", "10", "\"9 \"", false},
        ComparisonCase{"eq", "10", "\"9 \"", false},
        ComparisonCase{"gt", "9 ", "10", false},
        ComparisonCase{"lt", "9 ", "10", false},
        ComparisonCase{"gt", "alpha", "1", false},
        ComparisonCase{"lt", "alpha", "1", false},
        ComparisonCase{"eq", "alpha", "1", false}));

TEST(Functions, MemberWithBraceList) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"name", "ssh"}});
  EXPECT_TRUE(run_policy(
                  "block all\npass all with member(@src[name], { http ssh })\n",
                  ctx)
                  .allowed());
  ctx.src = dict_of({{"name", "telnet"}});
  EXPECT_FALSE(run_policy(
                   "block all\npass all with member(@src[name], { http ssh })\n",
                   ctx)
                   .allowed());
}

TEST(Functions, MemberWithMacroList) {
  // Fig 2: member(@src[name], $allowed) where allowed = "{ http ssh }".
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"name", "http"}});
  const char* policy =
      "allowed = \"{ http ssh }\"\n"
      "block all\n"
      "pass all with member(@src[name], $allowed)\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
}

TEST(Functions, MemberWithNamedList) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"groupID", "users"}});
  // Bare word list name resolved via macros.
  const char* policy =
      "groups = \"{ users admins }\"\n"
      "block all\n"
      "pass all with member(@src[groupID], groups)\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
}

TEST(Functions, MemberBareWordIsSingletonList) {
  // Fig 5: member(@src[groupID], research) with no `research` list defined.
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"groupID", "research"}});
  EXPECT_TRUE(
      run_policy("block all\npass all with member(@src[groupID], research)\n",
                 ctx)
          .allowed());
}

TEST(Functions, IncludesSplitsValueList) {
  // Fig 8: includes(@dst[os-patch], MS08-067).
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.dst = dict_of({{"os-patch", "MS07-067 MS08-067,MS09-001"}});
  EXPECT_TRUE(run_policy(
                  "block all\npass all with includes(@dst[os-patch], MS08-067)\n",
                  ctx)
                  .allowed());
  EXPECT_FALSE(
      run_policy("block all\npass all with includes(@dst[os-patch], MS10-000)\n",
                 ctx)
          .allowed());
}

TEST(Functions, ArityErrors) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"a", "1"}});
  EXPECT_THROW((void)run_policy("pass all with eq(@src[a])\n", ctx),
               PolicyError);
  EXPECT_THROW((void)run_policy("pass all with verify(@src[a], b)\n", ctx),
               PolicyError);
}

// ---------------------------------------------------------------- allowed()

TEST(Functions, AllowedEvaluatesDelegatedRules) {
  // Fig 4 semantics: requirements from the response gate the flow.
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of(
      {{"name", "research-app"},
       {"requirements",
        "block all pass all with eq(@src[name], research-app)"}});
  EXPECT_TRUE(
      run_policy("block all\npass all with allowed(@src[requirements])\n", ctx)
          .allowed());
  // An app whose own requirements do not admit this flow is blocked.
  ctx.src = dict_of({{"name", "other-app"},
                     {"requirements",
                      "block all pass all with eq(@src[name], research-app)"}});
  EXPECT_FALSE(
      run_policy("block all\npass all with allowed(@src[requirements])\n", ctx)
          .allowed());
}

TEST(Functions, AllowedFalseOnMissingOrEmpty) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  EXPECT_FALSE(
      run_policy("block all\npass all with allowed(@src[requirements])\n", ctx)
          .allowed());
}

TEST(Functions, AllowedFalseOnUnparseableRules) {
  // Delegated garbage must not crash the admin policy (untrusted input).
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"requirements", "pass from ((((("}});
  EXPECT_FALSE(
      run_policy("block all\npass all with allowed(@src[requirements])\n", ctx)
          .allowed());
}

TEST(Functions, AllowedSeesAdminTables) {
  FlowContext ctx;
  ctx.flow = flow("10.0.0.1", "8.8.8.8");
  ctx.src = dict_of({{"requirements", "block all pass from <lan> to any"}});
  const char* policy =
      "table <lan> { 10.0.0.0/8 }\n"
      "block all\n"
      "pass all with allowed(@src[requirements])\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
}

TEST(Functions, AllowedDelegatedLastMatchSemantics) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2", 443);
  ctx.src = dict_of({{"requirements",
                      "pass all block from any to any port https"}});
  EXPECT_FALSE(
      run_policy("block all\npass all with allowed(@src[requirements])\n", ctx)
          .allowed());
}

TEST(Functions, AllowedRecursionDepthBounded) {
  // requirements that call allowed() on themselves terminate (depth limit).
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of(
      {{"requirements", "pass all with allowed(@src[requirements])"}});
  EXPECT_FALSE(
      run_policy("block all\npass all with allowed(@src[requirements])\n", ctx)
          .allowed());
}

// ---------------------------------------------------------------- verify()

TEST(Functions, VerifyAcceptsValidSignature) {
  const crypto::PrivateKey researcher = crypto::PrivateKey::from_seed("res");
  const std::string exe_hash = "abcdef0123456789";
  const std::string app_name = "research-app";
  const std::string requirements =
      "block all pass all with eq(@src[name], research-app)";
  const crypto::Signature sig = researcher.sign(
      proto::signed_message({exe_hash, app_name, requirements}));

  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.dst = dict_of({{"exe-hash", exe_hash.c_str()},
                     {"app-name", app_name.c_str()},
                     {"requirements", requirements.c_str()},
                     {"req-sig", sig.to_hex().c_str()}});
  const std::string policy =
      "dict <pubkeys> { research : " + researcher.public_key().to_hex() +
      " }\n"
      "block all\n"
      "pass all with verify(@dst[req-sig], @pubkeys[research], "
      "@dst[exe-hash], @dst[app-name], @dst[requirements])\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
}

TEST(Functions, VerifyRejectsTamperedRequirements) {
  const crypto::PrivateKey researcher = crypto::PrivateKey::from_seed("res");
  const crypto::Signature sig = researcher.sign(
      proto::signed_message({"hash", "app", "original rules"}));

  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.dst = dict_of({{"exe-hash", "hash"},
                     {"app-name", "app"},
                     {"requirements", "tampered rules"},
                     {"req-sig", sig.to_hex().c_str()}});
  const std::string policy =
      "dict <pubkeys> { research : " + researcher.public_key().to_hex() +
      " }\n"
      "block all\n"
      "pass all with verify(@dst[req-sig], @pubkeys[research], "
      "@dst[exe-hash], @dst[app-name], @dst[requirements])\n";
  EXPECT_FALSE(run_policy(policy, ctx).allowed());
}

TEST(Functions, VerifyRejectsWrongKey) {
  const crypto::PrivateKey alice = crypto::PrivateKey::from_seed("alice");
  const crypto::PrivateKey mallory = crypto::PrivateKey::from_seed("mallory");
  const crypto::Signature sig =
      mallory.sign(proto::signed_message({"h", "a", "r"}));
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.dst = dict_of({{"exe-hash", "h"},
                     {"app-name", "a"},
                     {"requirements", "r"},
                     {"req-sig", sig.to_hex().c_str()}});
  const std::string policy = "dict <pubkeys> { research : " +
                             alice.public_key().to_hex() +
                             " }\n"
                             "block all\n"
                             "pass all with verify(@dst[req-sig], "
                             "@pubkeys[research], @dst[exe-hash], "
                             "@dst[app-name], @dst[requirements])\n";
  EXPECT_FALSE(run_policy(policy, ctx).allowed());
}

TEST(Functions, VerifyFalseOnGarbageSignature) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.dst = dict_of({{"req-sig", "nothex!"}, {"data", "x"}});
  const std::string policy =
      "dict <pubkeys> { k : deadbeef }\n"
      "block all\n"
      "pass all with verify(@dst[req-sig], @pubkeys[k], @dst[data])\n";
  EXPECT_FALSE(run_policy(policy, ctx).allowed());
}

// ---------------------------------------------------------------- registry

TEST(Registry, UserDefinedFunction) {
  // §3.3: "Functions are user-definable and new functions can be added."
  Ruleset rs = parse("block all\npass all with always_yes()\n");
  FunctionRegistry registry = FunctionRegistry::with_builtins();
  registry.register_function(
      "always_yes",
      [](const EvalContext&, const FuncCall&, const std::vector<Value>&) {
        return true;
      });
  const PolicyEngine engine(std::move(rs), std::move(registry));
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  EXPECT_TRUE(engine.evaluate(ctx).allowed());
}

TEST(Registry, BuiltinsPresent) {
  const FunctionRegistry registry = FunctionRegistry::with_builtins();
  for (const char* name :
       {"eq", "gt", "lt", "gte", "lte", "member", "includes", "allowed",
        "verify"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.find("nope"), nullptr);
}

// ---------------------------------------------------------------- figures

/// Figure 2, all three .control files concatenated in alphabetical order
/// (00-local-header, 50-skype, 99-local-footer) exactly as printed.
constexpr char kFig2Policy[] = R"(
table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }
allowed = "{ http ssh }" # a macro of apps

# default deny
block all

# allow connections outbound
pass from <int_hosts> \
  to !<int_hosts> \
  keep state

# allow all traffic from approved apps
pass from <int_hosts> \
  to <int_hosts> \
  with member(@src[name], $allowed) \
  keep state

table <skype_update> { 123.123.123.0/24 }

# skype to skype allowed
pass all \
  with eq(@src[name], skype) \
  with eq(@dst[name], skype)

# skype update feature
pass from any \
  to <skype_update> port 80 \
  with eq(@src[name], skype) \
  keep state

# no really old versions of skype
block all \
  with eq(@src[name], skype) \
  with lt(@src[version], 200)

# no skype to server
block from any \
  to <server> \
  with eq(@src[name], skype)
)";

struct Fig2Case {
  const char* description;
  const char* src_ip;
  const char* dst_ip;
  std::uint16_t dst_port;
  const char* src_app;
  const char* src_version;
  const char* dst_app;
  bool expected;
};

class Fig2Policy : public ::testing::TestWithParam<Fig2Case> {};

TEST_P(Fig2Policy, Matrix) {
  const auto& c = GetParam();
  FlowContext ctx;
  ctx.flow = flow(c.src_ip, c.dst_ip, c.dst_port);
  if (c.src_app != nullptr) {
    ctx.src = dict_of({{"name", c.src_app}, {"version", c.src_version}});
  }
  if (c.dst_app != nullptr) {
    ctx.dst = dict_of({{"name", c.dst_app}});
  }
  EXPECT_EQ(run_policy(kFig2Policy, ctx).allowed(), c.expected)
      << c.description;
}

INSTANTIATE_TEST_SUITE_P(
    PaperSkypeScenario, Fig2Policy,
    ::testing::Values(
        Fig2Case{"outbound web allowed", "192.168.0.10", "8.8.8.8", 80,
                 "firefox", "3", nullptr, true},
        Fig2Case{"internal http app allowed", "192.168.0.10", "192.168.0.11",
                 8080, "http", "1", nullptr, true},
        Fig2Case{"internal unapproved app blocked", "192.168.0.10",
                 "192.168.0.11", 8080, "dropbox", "1", nullptr, false},
        Fig2Case{"skype-to-skype allowed", "192.168.0.10", "192.168.0.11",
                 5555, "skype", "210", "skype", true},
        Fig2Case{"skype to non-skype blocked", "192.168.0.10", "192.168.0.11",
                 5555, "skype", "210", "web", false},
        Fig2Case{"skype update allowed", "192.168.0.10", "123.123.123.5", 80,
                 "skype", "210", nullptr, true},
        Fig2Case{"old skype blocked even to update", "192.168.0.10",
                 "123.123.123.5", 80, "skype", "190", nullptr, false},
        Fig2Case{"old skype-to-skype blocked", "192.168.0.10", "192.168.0.11",
                 5555, "skype", "190", "skype", false},
        Fig2Case{"skype to server blocked", "192.168.0.10", "192.168.1.1",
                 5555, "skype", "210", "skype", false},
        Fig2Case{"no info internal blocked", "192.168.0.10", "192.168.0.11",
                 8080, nullptr, nullptr, nullptr, false},
        Fig2Case{"inbound from internet blocked", "8.8.8.8", "192.168.0.10",
                 80, "anything", "1", nullptr, false}));

/// Figure 8: user- and application-specific rule (Conficker mitigation).
constexpr char kFig8Policy[] = R"(
table <lan> { 192.168.0.0/24 }
# default block everything
block all
# only allow ``system'' users in the LAN
pass from <lan> \
  with eq(@src[userID], system) \
  to <lan> \
  with eq(@dst[userID], system) \
  with eq(@dst[name], Server) \
  with includes(@dst[os-patch], MS08-067)
)";

TEST(Fig8Policy, PatchedServerReachableBySystemUser) {
  FlowContext ctx;
  ctx.flow = flow("192.168.0.10", "192.168.0.20", 445);
  ctx.src = dict_of({{"userID", "system"}});
  ctx.dst = dict_of({{"userID", "system"},
                     {"name", "Server"},
                     {"os-patch", "MS08-067"}});
  EXPECT_TRUE(run_policy(kFig8Policy, ctx).allowed());
}

TEST(Fig8Policy, UnpatchedServerBlocked) {
  FlowContext ctx;
  ctx.flow = flow("192.168.0.10", "192.168.0.20", 445);
  ctx.src = dict_of({{"userID", "system"}});
  ctx.dst = dict_of(
      {{"userID", "system"}, {"name", "Server"}, {"os-patch", "MS07-001"}});
  EXPECT_FALSE(run_policy(kFig8Policy, ctx).allowed());
}

TEST(Fig8Policy, NonSystemUserBlocked) {
  FlowContext ctx;
  ctx.flow = flow("192.168.0.10", "192.168.0.20", 445);
  ctx.src = dict_of({{"userID", "conficker"}});
  ctx.dst = dict_of(
      {{"userID", "system"}, {"name", "Server"}, {"os-patch", "MS08-067"}});
  EXPECT_FALSE(run_policy(kFig8Policy, ctx).allowed());
}

TEST(Fig8Policy, InternetAtLargeBlocked) {
  FlowContext ctx;
  ctx.flow = flow("8.8.8.8", "192.168.0.20", 445);
  ctx.src = dict_of({{"userID", "system"}});
  ctx.dst = dict_of(
      {{"userID", "system"}, {"name", "Server"}, {"os-patch", "MS08-067"}});
  EXPECT_FALSE(run_policy(kFig8Policy, ctx).allowed());
}

// ---------------------------------------------------------------- log/proto

TEST(LogModifier, ParsedAndPropagatedToVerdict) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  const PolicyEngine engine(parse("block log all\npass log quick all\n"));
  const Verdict v = engine.evaluate(ctx);
  EXPECT_TRUE(v.allowed());
  EXPECT_TRUE(v.log);
  EXPECT_TRUE(v.quick);
  // Order of modifiers does not matter.
  const Ruleset rs = parse("pass quick log all\n");
  EXPECT_TRUE(rs.rules[0].log);
  EXPECT_TRUE(rs.rules[0].quick);
}

TEST(LogModifier, NonLogRuleLeavesFlagClear) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  EXPECT_FALSE(run_policy("pass all\n", ctx).log);
}

TEST(ProtoClause, FiltersByProtocol) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2", 53, 40000, net::IpProto::kUdp);
  EXPECT_TRUE(
      run_policy("block all\npass proto udp from any to any\n", ctx).allowed());
  EXPECT_FALSE(
      run_policy("block all\npass proto tcp from any to any\n", ctx).allowed());
  ctx.flow.proto = net::IpProto::kTcp;
  EXPECT_TRUE(
      run_policy("block all\npass proto tcp from any to any\n", ctx).allowed());
}

TEST(ProtoClause, RejectsUnknownProtocol) {
  EXPECT_THROW((void)parse("pass proto sctp all\n"), ParseError);
}

TEST(Eval, InlineHostListWithTableRefs) {
  // Figure-2-style inline lists mixing addresses and table references,
  // resolved at evaluation time.
  FlowContext ctx;
  ctx.flow = flow("192.168.0.5", "10.9.9.9");
  const char* policy =
      "table <lan> { 192.168.0.0/24 }\n"
      "block all\n"
      "pass from { 172.16.0.1 <lan> } to any\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
  ctx.flow = flow("172.16.0.1", "10.9.9.9");
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
  ctx.flow = flow("8.8.8.8", "10.9.9.9");
  EXPECT_FALSE(run_policy(policy, ctx).allowed());
}

TEST(Eval, InlineListUnknownTableThrows) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  EXPECT_THROW((void)run_policy("pass from { <ghost> } to any\n", ctx),
               PolicyError);
}

TEST(ParserFuzz, RandomTokenSoupNeverCrashes) {
  // The parser must reject arbitrary token sequences with ParseError (or
  // accept them), never crash or hang — it consumes delegated rules from
  // untrusted ident++ responses.
  util::SplitMix64 rng(424242);
  const char* vocab[] = {"pass",  "block", "from",  "to",    "with", "quick",
                         "log",   "all",   "any",   "port",  "keep", "state",
                         "table", "dict",  "{",     "}",     "(",    ")",
                         ",",     ":",     "=",     "!",     "80",   "http",
                         "10.0.0.1", "<t>", "@src[k]", "$m",  "\"s\"", "proto"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string source;
    const std::size_t len = 1 + rng.next_below(25);
    for (std::size_t i = 0; i < len; ++i) {
      source += vocab[rng.next_below(std::size(vocab))];
      source += ' ';
    }
    try {
      (void)parse(source, "fuzz");
    } catch (const ParseError&) {
      // expected for most inputs
    }
  }
  SUCCEED();
}

TEST(ProtoClause, CombinesWithOtherClauses) {
  FlowContext ctx;
  ctx.flow = flow("10.0.0.1", "10.0.0.2", 53, 40000, net::IpProto::kUdp);
  ctx.src = dict_of({{"name", "resolver"}});
  const char* policy =
      "block all\n"
      "pass proto udp from 10.0.0.0/8 to any port dns \\\n"
      "  with eq(@src[name], resolver)\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
  ctx.flow.proto = net::IpProto::kTcp;
  EXPECT_FALSE(run_policy(policy, ctx).allowed());
}

// ---------------------------------------------------------------- edges

TEST(ParserEdge, HostlessPortEndpoint) {
  // PF allows `from port 80` with no host term.
  const Ruleset rs = parse("pass from port 80 to any\n");
  ASSERT_EQ(rs.rules.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<AnyHost>(rs.rules[0].from.host));
  ASSERT_TRUE(rs.rules[0].from.port.has_value());
  EXPECT_EQ(rs.rules[0].from.port->low, 80);

  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2", 443, 80);
  EXPECT_TRUE(run_policy("block all\npass from port 80 to any\n", ctx).allowed());
  ctx.flow.src_port = 81;
  EXPECT_FALSE(run_policy("block all\npass from port 80 to any\n", ctx).allowed());
}

TEST(ParserEdge, MacroInExpressionPosition) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"name", "skype"}});
  const char* policy =
      "target = skype\n"
      "block all\n"
      "pass all with eq(@src[name], $target)\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
}

TEST(ParserEdge, MacroInPortPosition) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2", 8443);
  const char* policy =
      "svcport = 8443\n"
      "block all\n"
      "pass from any to any port $svcport\n";
  EXPECT_TRUE(run_policy(policy, ctx).allowed());
}

TEST(ParserEdge, EqOnListsComparesJoinedForm) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"tags", "a,b"}});
  EXPECT_TRUE(
      run_policy("block all\npass all with eq(@src[tags], { a b })\n", ctx)
          .allowed());
}

TEST(ParserEdge, RuleToStringMentionsSourceAndLine) {
  const Ruleset rs = parse("block all\n", "99-footer.control");
  const std::string text = to_string(rs.rules[0]);
  EXPECT_NE(text.find("block"), std::string::npos);
  EXPECT_NE(text.find("99-footer.control"), std::string::npos);
}

TEST(EvalEdge, EmptyDelegationDepthZeroStillEvaluatesTopLevel) {
  // An engine whose ruleset contains delegated-looking rules evaluates them
  // the same as any rules at depth 0; stats separate the two.
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"requirements", "block all pass all"}});
  const PolicyEngine engine(
      parse("block all\npass all with allowed(@src[requirements])\n"));
  EXPECT_TRUE(engine.evaluate(ctx).allowed());
  EXPECT_GT(engine.stats().delegated_rule_evals, 0u);
  EXPECT_GT(engine.stats().rules_scanned, 0u);
}

TEST(EvalEdge, StatsAccumulateAcrossEvaluations) {
  FlowContext ctx;
  ctx.flow = flow("1.1.1.1", "2.2.2.2");
  ctx.src = dict_of({{"name", "x"}});
  const PolicyEngine engine(
      parse("block all\npass all with eq(@src[name], x)\n"));
  for (int i = 0; i < 5; ++i) (void)engine.evaluate(ctx);
  EXPECT_EQ(engine.stats().evaluations, 5u);
  EXPECT_EQ(engine.stats().functions_called, 5u);
}

}  // namespace
}  // namespace identxx::pf
