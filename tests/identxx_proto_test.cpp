// Unit tests for the ident++ protocol: wire format (§3.2), response
// dictionaries (§3.3 latest-wins / *-concatenation), daemon configuration
// files (Fig 3/4/6) and the daemon's answer assembly (§3.5).

#include <gtest/gtest.h>

#include "identxx/daemon.hpp"
#include "identxx/daemon_config.hpp"
#include "identxx/dict.hpp"
#include "identxx/keys.hpp"
#include "identxx/wire.hpp"
#include "util/error.hpp"

namespace identxx::proto {
namespace {

// ---------------------------------------------------------------- Query

TEST(Query, SerializeMatchesPaperFormat) {
  Query q;
  q.proto = net::IpProto::kTcp;
  q.src_port = 40000;
  q.dst_port = 80;
  q.keys = {"userID", "name"};
  EXPECT_EQ(q.serialize(), "tcp 40000 80\nuserID\nname\n");
}

TEST(Query, ParseRoundTrip) {
  Query q;
  q.proto = net::IpProto::kUdp;
  q.src_port = 1;
  q.dst_port = 65535;
  q.keys = {"exe-hash", "requirements", "req-sig"};
  EXPECT_EQ(Query::parse(q.serialize()), q);
}

TEST(Query, ParseAcceptsNumericProto) {
  const Query q = Query::parse("6 1000 80\nuserID\n");
  EXPECT_EQ(q.proto, net::IpProto::kTcp);
}

TEST(Query, ParseSkipsBlankLines) {
  const Query q = Query::parse("tcp 1 2\n\nuserID\n\n");
  ASSERT_EQ(q.keys.size(), 1u);
  EXPECT_EQ(q.keys[0], "userID");
}

TEST(Query, ParseRejectsMalformed) {
  EXPECT_THROW((void)Query::parse(""), ParseError);
  EXPECT_THROW((void)Query::parse("tcp 1\n"), ParseError);          // 2 fields
  EXPECT_THROW((void)Query::parse("tcp 1 2 3\n"), ParseError);      // 4 fields
  EXPECT_THROW((void)Query::parse("bogus 1 2\n"), ParseError);      // bad proto
  EXPECT_THROW((void)Query::parse("tcp 99999 2\n"), ParseError);    // port
  EXPECT_THROW((void)Query::parse("tcp 1 2\nkey: val\n"), ParseError);  // ':'
}

// ---------------------------------------------------------------- Response

TEST(Response, SerializeSectionsWithEmptyLines) {
  Response r;
  r.proto = net::IpProto::kTcp;
  r.src_port = 5;
  r.dst_port = 6;
  Section s1;
  s1.add("userID", "alice");
  s1.add("name", "skype");
  Section s2;
  s2.add("network", "branchB");
  r.append_section(s1);
  r.append_section(s2);
  EXPECT_EQ(r.serialize(),
            "tcp 5 6\nuserID: alice\nname: skype\n\nnetwork: branchB\n");
}

TEST(Response, ParseRoundTrip) {
  Response r;
  r.proto = net::IpProto::kTcp;
  r.src_port = 1000;
  r.dst_port = 80;
  Section s1;
  s1.add("userID", "bob");
  s1.add("version", "210");
  Section s2;
  s2.add("userID", "overridden");
  r.append_section(s1);
  r.append_section(s2);
  EXPECT_EQ(Response::parse(r.serialize()), r);
}

TEST(Response, ParseToleratesMultipleBlankLines) {
  const Response r = Response::parse("tcp 1 2\na: 1\n\n\n\nb: 2\n");
  ASSERT_EQ(r.sections.size(), 2u);
  EXPECT_EQ(*r.sections[1].find("b"), "2");
}

TEST(Response, ValuesMayContainColons) {
  const Response r = Response::parse("tcp 1 2\nnote: a:b:c\n");
  EXPECT_EQ(*r.sections[0].find("note"), "a:b:c");
}

TEST(Response, EmptySectionsAreDropped) {
  Response r;
  r.append_section(Section{});
  EXPECT_TRUE(r.sections.empty());
}

TEST(Response, ParseRejectsMalformed) {
  EXPECT_THROW((void)Response::parse(""), ParseError);
  EXPECT_THROW((void)Response::parse("tcp 1 2\nno-colon-line\n"), ParseError);
  EXPECT_THROW((void)Response::parse("tcp 1 2\n: empty-key\n"), ParseError);
}

TEST(Response, ParseReservesLinearlyInTheLineCount) {
  // Many one-pair sections: each section's reservation is bounded by its
  // own lines, so the pairs reserved over the whole message never exceed
  // the lines it has (a reservation from all lines left would be
  // quadratic).
  std::string text = "tcp 1 2\n";
  constexpr std::size_t kSections = 2000;
  for (std::size_t i = 0; i < kSections; ++i) text += "a:\n\n";
  const Response r = Response::parse(text);
  ASSERT_EQ(r.sections.size(), kSections);
  std::size_t reserved = 0;
  for (const auto& section : r.sections) reserved += section.pairs.capacity();
  EXPECT_LE(reserved, 2 * kSections + 1);
  EXPECT_LE(r.sections.capacity(), 2 * kSections + 1);
}

TEST(Response, SectionFindReturnsLastInSection) {
  Section s;
  s.add("k", "first");
  s.add("k", "second");
  EXPECT_EQ(*s.find("k"), "second");
  EXPECT_EQ(s.find("missing"), nullptr);
}

TEST(Wire, IdentTrafficDetection) {
  net::FiveTuple to_daemon;
  to_daemon.proto = net::IpProto::kTcp;
  to_daemon.dst_port = kIdentPort;
  EXPECT_TRUE(is_ident_traffic(to_daemon));
  net::FiveTuple from_daemon;
  from_daemon.proto = net::IpProto::kTcp;
  from_daemon.src_port = kIdentPort;
  EXPECT_TRUE(is_ident_traffic(from_daemon));
  net::FiveTuple web;
  web.proto = net::IpProto::kTcp;
  web.dst_port = 80;
  EXPECT_FALSE(is_ident_traffic(web));
  net::FiveTuple udp783;
  udp783.proto = net::IpProto::kUdp;
  udp783.dst_port = kIdentPort;
  EXPECT_FALSE(is_ident_traffic(udp783));
}

// ---------------------------------------------------------------- dict

TEST(ResponseDict, LatestWinsAcrossSections) {
  // §3.3: "indexing the dictionaries will give the latest value added".
  Response r;
  Section s1;
  s1.add("userID", "alice");
  Section s2;
  s2.add("userID", "mallory-says-bob");
  r.append_section(s1);
  r.append_section(s2);
  const ResponseDict dict(r);
  EXPECT_EQ(*dict.latest("userID"), "mallory-says-bob");
}

TEST(ResponseDict, StarConcatenatesAllSections) {
  // §3.3: *@src[key] returns the concatenation of values in all sections.
  Response r;
  Section s1, s2, s3;
  s1.add("network", "branchA");
  s2.add("network", "backbone");
  s3.add("network", "branchB");
  r.append_section(s1);
  r.append_section(s2);
  r.append_section(s3);
  const ResponseDict dict(r);
  EXPECT_EQ(dict.concatenated("network"), "branchA,backbone,branchB");
  EXPECT_EQ(dict.all("network").size(), 3u);
}

TEST(ResponseDict, MissingKey) {
  const Response empty;
  const ResponseDict dict(empty);
  EXPECT_FALSE(dict.latest("nope").has_value());
  EXPECT_FALSE(dict.contains("nope"));
  EXPECT_EQ(dict.concatenated("nope"), "");
}

TEST(ResponseDict, WithinSectionLastPairWins) {
  Response r;
  Section s;
  s.add("k", "v1");
  s.add("k", "v2");
  r.append_section(s);
  const ResponseDict dict(r);
  EXPECT_EQ(*dict.latest("k"), "v2");
}

// ---------------------------------------------------------------- config

constexpr char kSkypeConfig[] = R"(# Fig 3: skype daemon configuration
@app /usr/bin/skype {
name : skype
version : 210
vendor : skype.com
type : voip
requirements : \
pass from any port http \
with eq(@src[name], skype) \
pass from any port https \
with eq(@src[name], skype)
req-sig : 21oirw3eda
}
)";

TEST(DaemonConfig, ParsesFig3Shape) {
  const DaemonConfig config = DaemonConfig::parse(kSkypeConfig);
  ASSERT_EQ(config.apps.size(), 1u);
  const AppConfig& app = config.apps[0];
  EXPECT_EQ(app.exe_path, "/usr/bin/skype");
  EXPECT_EQ(*app.find("name"), "skype");
  EXPECT_EQ(*app.find("version"), "210");
  EXPECT_EQ(*app.find("req-sig"), "21oirw3eda");
  // Continuations collapse into one logical line.
  EXPECT_EQ(*app.find("requirements"),
            "pass from any port http with eq(@src[name], skype) "
            "pass from any port https with eq(@src[name], skype)");
}

TEST(DaemonConfig, GlobalBlock) {
  const DaemonConfig config = DaemonConfig::parse(
      "@global {\nos-patch : MS08-067 MS09-001\n}\n");
  ASSERT_EQ(config.global_pairs.size(), 1u);
  EXPECT_EQ(config.global_pairs[0].first, "os-patch");
  EXPECT_EQ(config.global_pairs[0].second, "MS08-067 MS09-001");
}

TEST(DaemonConfig, MultipleAppBlocks) {
  const DaemonConfig config = DaemonConfig::parse(
      "@app /usr/bin/a {\nname : a\n}\n@app /usr/bin/b {\nname : b\n}\n");
  EXPECT_EQ(config.apps.size(), 2u);
  EXPECT_NE(config.find_app("/usr/bin/a"), nullptr);
  EXPECT_NE(config.find_app("/usr/bin/b"), nullptr);
  EXPECT_EQ(config.find_app("/usr/bin/c"), nullptr);
}

TEST(DaemonConfig, CommentsIgnoredEverywhere) {
  const DaemonConfig config = DaemonConfig::parse(
      "# header comment\n@app /bin/x { # trailing\n# inner comment\n"
      "name : x\n}\n");
  ASSERT_EQ(config.apps.size(), 1u);
  EXPECT_EQ(*config.apps[0].find("name"), "x");
}

TEST(DaemonConfig, MergeAppendsBoth) {
  DaemonConfig a = DaemonConfig::parse("@app /bin/x {\nname : x\n}\n");
  DaemonConfig b = DaemonConfig::parse(
      "@app /bin/x {\nextra : 1\n}\n@global {\ng : 2\n}\n");
  a.merge(std::move(b));
  EXPECT_EQ(a.find_apps("/bin/x").size(), 2u);
  EXPECT_EQ(a.global_pairs.size(), 1u);
}

TEST(DaemonConfig, ParseErrors) {
  EXPECT_THROW((void)DaemonConfig::parse("name : x\n"), ParseError);
  EXPECT_THROW((void)DaemonConfig::parse("@app {\n}\n"), ParseError);
  EXPECT_THROW((void)DaemonConfig::parse("@app /bin/x {\nno-colon\n}\n"),
               ParseError);
  EXPECT_THROW((void)DaemonConfig::parse("@app /bin/x {\nname : x\n"),
               ParseError);  // unterminated
  EXPECT_THROW((void)DaemonConfig::parse("}\n"), ParseError);
  EXPECT_THROW((void)DaemonConfig::parse("@global x {\n}\n"), ParseError);
}

TEST(DaemonConfig, SignedMessageJoinsWithNewlines) {
  EXPECT_EQ(signed_message({"hash", "name", "rules"}), "hash\nname\nrules");
  EXPECT_EQ(signed_message({}), "");
}

// ---------------------------------------------------------------- daemon

/// Scripted resolver for daemon unit tests.
class FakeResolver : public FlowResolver {
 public:
  std::optional<FlowOwner> resolve(const net::FiveTuple& flow,
                                   bool as_destination) const override {
    if (as_destination && dst_owner) {
      (void)flow;
      return dst_owner;
    }
    if (!as_destination && src_owner) return src_owner;
    return std::nullopt;
  }
  std::optional<FlowOwner> src_owner;
  std::optional<FlowOwner> dst_owner;
};

Query make_query(std::uint16_t sport = 40000, std::uint16_t dport = 80) {
  Query q;
  q.proto = net::IpProto::kTcp;
  q.src_port = sport;
  q.dst_port = dport;
  q.keys = {"userID", "name"};
  return q;
}

const net::Ipv4Address kHostIp = *net::Ipv4Address::parse("10.0.0.1");
const net::Ipv4Address kPeerIp = *net::Ipv4Address::parse("10.0.0.2");

TEST(Daemon, AnswersWithSystemFacts) {
  FakeResolver resolver;
  FlowOwner owner;
  owner.user_id = "alice";
  owner.group_id = "users";
  owner.pid = 1234;
  owner.exe_path = "/usr/bin/skype";
  owner.exe_hash = "deadbeef";
  resolver.src_owner = owner;

  Daemon daemon(&resolver);
  const Response r = daemon.answer(make_query(), kPeerIp, kHostIp);
  const ResponseDict dict(r);
  EXPECT_EQ(*dict.latest(keys::kUserId), "alice");
  EXPECT_EQ(*dict.latest(keys::kGroupId), "users");
  EXPECT_EQ(*dict.latest(keys::kPid), "1234");
  EXPECT_EQ(*dict.latest(keys::kExeHash), "deadbeef");
  EXPECT_EQ(daemon.stats().queries_answered, 1u);
}

TEST(Daemon, IncludesAppConfigPairs) {
  FakeResolver resolver;
  FlowOwner owner;
  owner.user_id = "alice";
  owner.exe_path = "/usr/bin/skype";
  resolver.src_owner = owner;

  Daemon daemon(&resolver);
  daemon.add_config(ConfigTrust::kSystem, DaemonConfig::parse(kSkypeConfig));
  const Response r = daemon.answer(make_query(), kPeerIp, kHostIp);
  const ResponseDict dict(r);
  EXPECT_EQ(*dict.latest(keys::kName), "skype");
  EXPECT_EQ(*dict.latest(keys::kAppName), "skype");  // alias
  EXPECT_EQ(*dict.latest(keys::kVersion), "210");
  EXPECT_TRUE(dict.contains(keys::kRequirements));
}

TEST(Daemon, UserConfigLandsInLaterSection) {
  FakeResolver resolver;
  FlowOwner owner;
  owner.user_id = "alice";
  owner.exe_path = "/usr/bin/research-app";
  resolver.src_owner = owner;

  Daemon daemon(&resolver);
  daemon.add_config(ConfigTrust::kSystem,
                    DaemonConfig::parse("@app /usr/bin/research-app {\n"
                                        "name : research-app\n}\n"));
  daemon.add_config(ConfigTrust::kUser,
                    DaemonConfig::parse("@app /usr/bin/research-app {\n"
                                        "requirements : block all\n}\n"));
  const Response r = daemon.answer(make_query(), kPeerIp, kHostIp);
  ASSERT_GE(r.sections.size(), 2u);
  // System facts first, user config in a later section.
  EXPECT_NE(r.sections[0].find(keys::kName), nullptr);
  EXPECT_EQ(r.sections[0].find(keys::kRequirements), nullptr);
  EXPECT_NE(r.sections[1].find(keys::kRequirements), nullptr);
}

TEST(Daemon, DynamicPairsInFinalSection) {
  FakeResolver resolver;
  FlowOwner owner;
  owner.user_id = "alice";
  owner.exe_path = "/usr/bin/browser";
  owner.dynamic_pairs = {{"user-click", "true"}};
  resolver.src_owner = owner;

  Daemon daemon(&resolver);
  const Response r = daemon.answer(make_query(), kPeerIp, kHostIp);
  const ResponseDict dict(r);
  EXPECT_EQ(*dict.latest("user-click"), "true");
  EXPECT_NE(r.sections.back().find("user-click"), nullptr);
}

TEST(Daemon, HostFactsIncluded) {
  FakeResolver resolver;
  FlowOwner owner;
  owner.user_id = "system";
  owner.exe_path = "/windows/system32/services.exe";
  resolver.dst_owner = owner;

  Daemon daemon(&resolver);
  daemon.add_host_fact(keys::kOsPatch, "MS08-067");
  const Response r = daemon.answer(make_query(40000, 445), kPeerIp, kHostIp);
  const ResponseDict dict(r);
  EXPECT_EQ(*dict.latest(keys::kOsPatch), "MS08-067");
}

TEST(Daemon, UnknownFlowAnswersNoUser) {
  FakeResolver resolver;  // resolves nothing
  Daemon daemon(&resolver);
  const Response r = daemon.answer(make_query(), kPeerIp, kHostIp);
  const ResponseDict dict(r);
  EXPECT_EQ(*dict.latest("error"), "NO-USER");
  EXPECT_EQ(daemon.stats().queries_unresolved, 1u);
}

// ------------------------------------------------- RFC-1413 compatibility

TEST(DaemonClassic, AnswersClassicIdentQuery) {
  FakeResolver resolver;
  FlowOwner owner;
  owner.user_id = "jnaous";
  owner.exe_path = "/usr/bin/ssh";
  resolver.src_owner = owner;
  Daemon daemon(&resolver);
  // RFC 1413: "<port-on-answering-host> , <port-on-asking-host>".
  const auto reply = daemon.answer_classic("6193, 23", kPeerIp, kHostIp);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "6193, 23 : USERID : UNIX : jnaous");
  EXPECT_EQ(daemon.stats().classic_queries, 1u);
}

TEST(DaemonClassic, NoUserError) {
  FakeResolver resolver;  // resolves nothing
  Daemon daemon(&resolver);
  const auto reply = daemon.answer_classic("6193 , 23", kPeerIp, kHostIp);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "6193, 23 : ERROR : NO-USER");
}

TEST(DaemonClassic, IdentxxQueriesAreNotClassic) {
  FakeResolver resolver;
  Daemon daemon(&resolver);
  EXPECT_FALSE(daemon.answer_classic("tcp 40000 80\nuserID\n", kPeerIp, kHostIp)
                   .has_value());
  EXPECT_FALSE(daemon.answer_classic("", kPeerIp, kHostIp).has_value());
  EXPECT_FALSE(daemon.answer_classic("abc, def", kPeerIp, kHostIp).has_value());
  EXPECT_FALSE(daemon.answer_classic("0, 80", kPeerIp, kHostIp).has_value());
  EXPECT_FALSE(
      daemon.answer_classic("99999, 80", kPeerIp, kHostIp).has_value());
}

TEST(Daemon, EchoesFlowPortsInResponse) {
  FakeResolver resolver;
  FlowOwner owner;
  owner.user_id = "alice";
  owner.exe_path = "/bin/x";
  resolver.src_owner = owner;
  Daemon daemon(&resolver);
  const Response r = daemon.answer(make_query(1234, 5678), kPeerIp, kHostIp);
  EXPECT_EQ(r.src_port, 1234);
  EXPECT_EQ(r.dst_port, 5678);
  EXPECT_EQ(r.proto, net::IpProto::kTcp);
}

}  // namespace
}  // namespace identxx::proto
