// Seeded, structure-aware mutation fuzzer for the ident++ wire codec
// (ROADMAP item 7, the ident++ half).  Daemon-shaped queries and responses
// are mutated the way a broken or hostile daemon would garble them:
// dropped, duplicated, split and joined lines, CR/LF, stray ':',
// whitespace, empty sections, long values, and bad port and protocol
// tokens.  Invariants:
//   - nothing crashes or throws anything but ParseError;
//   - the one-pass parser accepts and rejects exactly what the reference
//     line-splitting parser (wire_reference.hpp) does, with identical
//     results;
//   - parse -> serialize -> parse is a fixpoint, and serialize writes the
//     reference's bytes;
//   - a parsed response reserves no more pairs than its text has lines;
//   - a malformed response fed to an IdentxxController never admits the
//     flow it claims to answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/network.hpp"
#include "identxx/dict.hpp"
#include "identxx/keys.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "wire_reference.hpp"

namespace identxx::proto {
namespace {

constexpr std::uint64_t kSeed = 0x1de7'7a11;
constexpr int kCodecCases = 4000;  // per message kind
constexpr int kControllerCases = 150;

/// `text` with control bytes escaped, for failure messages.
std::string printable(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20 ||
               static_cast<unsigned char>(c) >= 0x7f) {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[static_cast<unsigned char>(c) >> 4];
      out += kHex[static_cast<unsigned char>(c) & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

/// The parse result, or nullopt on ParseError (any other exception fails
/// the test).
template <class Parse>
auto try_parse(Parse parse, std::string_view text)
    -> std::optional<decltype(parse(text))> {
  try {
    return parse(text);
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------- corpus

std::string exe_hash(char fill) { return std::string(64, fill); }

Query controller_query(std::uint16_t sport, std::uint16_t dport) {
  Query q;
  q.src_port = sport;
  q.dst_port = dport;
  q.keys = {keys::kUserId, keys::kGroupId, keys::kName,
            keys::kVersion, keys::kExeHash, keys::kRequirements,
            keys::kReqSig, keys::kRuleMaker, keys::kOsPatch};
  return q;
}

/// A daemon's answer for a userID/groupID policy: one section.
Response identity_response(std::uint16_t sport, std::uint16_t dport) {
  Response r;
  r.src_port = sport;
  r.dst_port = dport;
  Section system;
  system.add(keys::kUserId, "alice");
  system.add(keys::kGroupId, "staff");
  system.add(keys::kPid, "100");
  system.add(keys::kExeHash, exe_hash('a'));
  r.append_section(std::move(system));
  return r;
}

/// A daemon's answer for a signed application: system facts, then the
/// user-configured app pairs with long requirements and signature values.
Response attest_response(std::uint16_t sport, std::uint16_t dport) {
  Response r = identity_response(sport, dport);
  Section user;
  user.add(keys::kName, "app7");
  user.add(keys::kAppName, "app7");
  user.add(keys::kRequirements, "pass from any to any port 80");
  user.add(keys::kReqSig, std::string(128, 'f'));
  r.append_section(std::move(user));
  return r;
}

std::vector<std::string> query_corpus() {
  Query udp;
  udp.proto = net::IpProto::kUdp;
  udp.src_port = 5353;
  udp.dst_port = 53;
  udp.keys = {keys::kName};
  Query bare;
  bare.src_port = 1;
  bare.dst_port = 65535;
  return {controller_query(40000, 80).serialize(), udp.serialize(),
          bare.serialize()};
}

std::vector<std::string> response_corpus() {
  Response augmented = attest_response(40001, 22);
  Section network;
  network.add(keys::kNetwork, "branchA");
  augmented.append_section(std::move(network));
  Response error;
  error.proto = net::IpProto::kUdp;
  error.src_port = 5353;
  error.dst_port = 53;
  Section no_user;
  no_user.add("error", "NO-USER");
  error.append_section(std::move(no_user));
  return {identity_response(40000, 80).serialize(),
          attest_response(40000, 80).serialize(), augmented.serialize(),
          error.serialize()};
}

// ---------------------------------------------------------------- mutator

/// Structure-aware mutations over a message's lines.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// One to four mutations of `text`.  Every draw is its own statement, so
  /// a seed mutates the same way under any compiler.
  std::string mutate(std::string_view text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
      if (i == text.size() || text[i] == '\n') {
        lines.emplace_back(text.substr(start, i - start));
        start = i + 1;
      }
    }
    // A trailing '\n' leaves an empty last piece; joining restores it.
    const int rounds = 1 + static_cast<int>(below(4));
    bool truncate = false;
    for (int r = 0; r < rounds; ++r) mutate_once(lines, truncate);
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i > 0) out += '\n';
      out += lines[i];
    }
    if (truncate && !out.empty()) out.resize(below(out.size()));
    return out;
  }

 private:
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_.next_below(n));
  }
  std::string& pick_line(std::vector<std::string>& lines) {
    return lines[below(lines.size())];
  }
  /// Replace whitespace-separated token `index` of `line` (or append one).
  static void replace_token(std::string& line, std::size_t index,
                            std::string_view token) {
    std::size_t i = 0;
    for (std::size_t t = 0;; ++t) {
      while (i < line.size() && line[i] == ' ') ++i;
      const std::size_t start = i;
      while (i < line.size() && line[i] != ' ') ++i;
      if (t == index || start == line.size()) {
        line.replace(start, i - start, token);
        return;
      }
    }
  }

  void mutate_once(std::vector<std::string>& lines, bool& truncate) {
    static constexpr std::string_view kWhitespace[] = {" ", "\t", "  ", "\r",
                                                       " \t "};
    static constexpr std::string_view kBadPorts[] = {
        "65536", "-1", "", "99999999999999999999", "0x50", "8o", "+80",
        "080", "0", "65535", "1 2", ":"};
    static constexpr std::string_view kProtos[] = {
        "TCP", "Udp", "6", "17", "1", "256", "proto-47", "", "icmp",
        "47", "xyz", "tcp:", "255", "-6"};
    if (lines.empty()) lines.emplace_back();
    switch (below(14)) {
      case 0:  // drop a line
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(
                                        below(lines.size())));
        break;
      case 1: {  // duplicate a line
        const std::size_t i = below(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     lines[i]);
        break;
      }
      case 2: {  // split a line
        const std::size_t i = below(lines.size());
        const std::size_t at = below(lines[i].size() + 1);
        std::string rest = lines[i].substr(at);
        lines[i].resize(at);
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i + 1),
                     std::move(rest));
        break;
      }
      case 3:  // CRLF line endings, on one line or all of them
        if (below(2) == 0) {
          pick_line(lines) += '\r';
        } else {
          for (auto& line : lines) line += '\r';
        }
        break;
      case 4: {  // stray ':'
        std::string& line = pick_line(lines);
        line.insert(below(line.size() + 1), 1, ':');
        break;
      }
      case 5: {  // whitespace anywhere in a line
        std::string& line = pick_line(lines);
        const std::size_t at = below(line.size() + 1);
        line.insert(at, kWhitespace[below(std::size(kWhitespace))]);
        break;
      }
      case 6: {  // an empty section (or several blank lines)
        const std::size_t at = below(lines.size() + 1);
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     below(2) == 0 ? std::string() : std::string(" \r"));
        break;
      }
      case 7: {  // a long value
        std::string& line = pick_line(lines);
        const std::size_t length = 16 + below(600);
        line.append(length, static_cast<char>('a' + below(26)));
        break;
      }
      case 8: {  // a bad port token
        const std::size_t index = 1 + below(2);
        replace_token(lines.front(), index,
                      kBadPorts[below(std::size(kBadPorts))]);
        break;
      }
      case 9:  // a bad (or odd but valid) protocol token
        replace_token(lines.front(), 0, kProtos[below(std::size(kProtos))]);
        break;
      case 10: {  // one arbitrary byte
        std::string& line = pick_line(lines);
        if (line.empty()) break;
        static constexpr char kBytes[] = {'\0', ':', '\n', '\r', ' ', '\x7f',
                                          '\xff', '#', '=', '\\'};
        const std::size_t at = below(line.size());
        line[at] = kBytes[below(std::size(kBytes))];
        break;
      }
      case 11:  // truncated message
        truncate = true;
        break;
      case 12: {  // two lines swapped
        const std::size_t a = below(lines.size());
        const std::size_t b = below(lines.size());
        std::swap(lines[a], lines[b]);
        break;
      }
      default: {  // two lines joined
        if (lines.size() < 2) break;
        const std::size_t i = below(lines.size() - 1);
        lines[i] += lines[i + 1];
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i + 1));
        break;
      }
    }
  }

  util::SplitMix64 rng_;
};

/// Lines in `text`, counting an unterminated last one.
std::size_t line_count(std::string_view text) {
  return static_cast<std::size_t>(
             std::count(text.begin(), text.end(), '\n')) + 1;
}

bool named_proto(net::IpProto proto) {
  return proto == net::IpProto::kTcp || proto == net::IpProto::kUdp ||
         proto == net::IpProto::kIcmp;
}

// ---------------------------------------------------------------- codec

TEST(WireFuzz, QueryParserMatchesReferenceAndRoundTrips) {
  Mutator mutator(kSeed);
  const auto corpus = query_corpus();
  int accepted = 0;
  for (int n = 0; n < kCodecCases; ++n) {
    const std::string text =
        mutator.mutate(corpus[static_cast<std::size_t>(n) % corpus.size()]);
    const auto got = try_parse(Query::parse, text);
    const auto want = try_parse(reference::parse_query, text);
    ASSERT_EQ(got.has_value(), want.has_value())
        << "case " << n << ": " << printable(text);
    if (!got) continue;
    ++accepted;
    ASSERT_EQ(*got, *want) << "case " << n << ": " << printable(text);
    const std::string wire = got->serialize();
    if (named_proto(got->proto)) {
      ASSERT_EQ(wire, reference::serialize_query(*got)) << "case " << n;
    }
    const auto again = try_parse(Query::parse, wire);
    ASSERT_TRUE(again.has_value()) << "case " << n << ": " << printable(wire);
    ASSERT_EQ(*again, *got) << "case " << n << ": " << printable(wire);
    ASSERT_EQ(again->serialize(), wire) << "case " << n;
  }
  // The mutations must exercise both outcomes.
  EXPECT_GT(accepted, kCodecCases / 10);
  EXPECT_LT(accepted, kCodecCases * 9 / 10);
}

TEST(WireFuzz, ResponseParserMatchesReferenceAndRoundTrips) {
  Mutator mutator(kSeed + 1);
  const auto corpus = response_corpus();
  int accepted = 0;
  for (int n = 0; n < kCodecCases; ++n) {
    const std::string text =
        mutator.mutate(corpus[static_cast<std::size_t>(n) % corpus.size()]);
    const auto got = try_parse(Response::parse, text);
    const auto want = try_parse(reference::parse_response, text);
    ASSERT_EQ(got.has_value(), want.has_value())
        << "case " << n << ": " << printable(text);
    if (!got) continue;
    ++accepted;
    ASSERT_EQ(*got, *want) << "case " << n << ": " << printable(text);
    // Reservations stay linear in the text: no more pairs than lines.
    std::size_t reserved = 0;
    for (const auto& section : got->sections) {
      reserved += section.pairs.capacity();
    }
    ASSERT_LE(reserved, line_count(text)) << "case " << n;
    const std::string wire = got->serialize();
    if (named_proto(got->proto)) {
      ASSERT_EQ(wire, reference::serialize_response(*got)) << "case " << n;
    }
    const auto again = try_parse(Response::parse, wire);
    ASSERT_TRUE(again.has_value()) << "case " << n << ": " << printable(wire);
    ASSERT_EQ(*again, *got) << "case " << n << ": " << printable(wire);
    ASSERT_EQ(again->serialize(), wire) << "case " << n;
  }
  EXPECT_GT(accepted, kCodecCases / 10);
  EXPECT_LT(accepted, kCodecCases * 9 / 10);
}

TEST(WireFuzz, EveryProtocolTokenRoundTrips) {
  // Protocols without a name travel as decimal, which parses back.
  for (unsigned p = 0; p <= 255; ++p) {
    const auto proto = static_cast<net::IpProto>(p);
    Query query;
    query.proto = proto;
    const auto again = try_parse(Query::parse, query.serialize());
    ASSERT_TRUE(again.has_value()) << printable(query.serialize());
    EXPECT_EQ(again->proto, proto);
  }
}

// ---------------------------------------------------------------- controller

constexpr char kAliceOnly[] =
    "block all\n"
    "pass from any to any port 80 with eq(@src[userID], alice)\n";

/// Feed `text` to a controller as the source daemon's answer about a
/// pending flow (the source host's real daemon is off), and report whether
/// the flow was admitted.
bool admitted_with_source_answer(const std::string& text) {
  core::Network net;
  const auto s1 = net.add_switch("s1");
  auto& client = net.add_host("client", "10.0.0.1");
  auto& server = net.add_host("server", "10.0.0.2");
  net.link(client, s1);
  net.link(server, s1);
  auto& controller = net.install_controller(kAliceOnly);
  client.add_user("alice", "staff");
  server.add_user("www", "daemons");
  const int pid = client.launch("alice", "/usr/bin/curl");
  server.listen(server.launch("www", "/usr/sbin/httpd"), 80);
  client.set_daemon_enabled(false);

  const auto handle = net.start_flow(client, pid, "10.0.0.2", 80);
  // The corpus answers name the host's first ephemeral port.
  EXPECT_EQ(handle.flow.src_port, 40000);
  net.run(1 * sim::kMillisecond);  // the queries are out
  const net::FiveTuple answer{client.ip(), server.ip(), net::IpProto::kTcp,
                              kIdentPort, 20000};
  client.send_flow_packet(answer, text,
                          net::TcpFlags::kPsh | net::TcpFlags::kAck);
  net.run();
  EXPECT_EQ(controller.stats().flows_seen, 1u);
  return net.flow_delivered(handle);
}

TEST(WireFuzz, MalformedSourceAnswerNeverAdmits) {
  // Every dropped answer logs a warning; keep the run quiet.
  util::Logger& logger = util::Logger::instance();
  const util::LogLevel level = logger.level();
  logger.set_level(util::LogLevel::kError);
  // The unmutated answer admits: the harness reaches the allow path.
  const std::string base = identity_response(40000, 80).serialize();
  ASSERT_TRUE(admitted_with_source_answer(base));

  Mutator mutator(kSeed + 2);
  int malformed = 0;
  for (int n = 0; n < kControllerCases; ++n) {
    const std::string text = mutator.mutate(base);
    const auto parsed = try_parse(reference::parse_response, text);
    const bool admitted = admitted_with_source_answer(text);
    if (!parsed) {
      ++malformed;
      EXPECT_FALSE(admitted) << "case " << n << ": " << printable(text);
      continue;
    }
    // A well-formed answer admits only if it names alice as the user.
    if (admitted) {
      const ResponseDict dict(*parsed);
      EXPECT_EQ(dict.latest(keys::kUserId), "alice")
          << "case " << n << ": " << printable(text);
    }
  }
  EXPECT_GT(malformed, kControllerCases / 10);
  logger.set_level(level);
}

}  // namespace
}  // namespace identxx::proto
