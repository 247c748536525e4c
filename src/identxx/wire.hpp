#pragma once

// ident++ wire format (§3.2).
//
// Query packet payload:
//     <PROTO> <SRC PORT> <DST PORT>
//     <key 0>
//     <key 1>
//     ...
//
// Response packet payload:
//     <PROTO> <SRC PORT> <DST PORT>
//     <key 0>: <value 0>
//     ...
//     <empty line>
//     <key n>: <value n>
//     ...
//
// Sections are separated by empty lines; each section groups the key-value
// pairs from one source (daemon system config, user config, the application,
// or a controller on the path augmenting the response).  The flow's IP
// addresses travel in the IP header of the carrying packet, not the payload.
//
// Values are single-line; config-file backslash continuations are collapsed
// before serialization.  ident++ daemons listen on TCP port 783.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/flow.hpp"

namespace identxx::proto {

/// TCP port the ident++ daemon listens on (paper §2).
constexpr std::uint16_t kIdentPort = 783;

/// A query for additional information about a flow.  `keys` are hints; the
/// daemon may answer with additional unsolicited pairs (§3.2).
struct Query {
  net::IpProto proto = net::IpProto::kTcp;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::vector<std::string> keys;

  [[nodiscard]] bool operator==(const Query&) const noexcept = default;

  /// The wire text, written into one buffer sized up front.
  [[nodiscard]] std::string serialize() const;

  /// One pass over `text`; `keys` is reserved once from its line count.
  /// Throws ParseError on malformed input.
  [[nodiscard]] static Query parse(std::string_view text);
};

/// One section of a response: ordered key-value pairs from a single source.
struct Section {
  std::vector<std::pair<std::string, std::string>> pairs;

  [[nodiscard]] bool operator==(const Section&) const noexcept = default;
  [[nodiscard]] bool empty() const noexcept { return pairs.empty(); }

  void add(std::string key, std::string value) {
    pairs.emplace_back(std::move(key), std::move(value));
  }

  /// Last value for `key` within this section, if present.
  [[nodiscard]] const std::string* find(std::string_view key) const noexcept;
};

struct Response {
  net::IpProto proto = net::IpProto::kTcp;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::vector<Section> sections;

  [[nodiscard]] bool operator==(const Response&) const noexcept = default;

  /// Append a non-empty section (a controller augmenting the response adds
  /// an empty line followed by its pairs, §2).
  void append_section(Section section);

  /// The wire text, written into one buffer sized up front.
  [[nodiscard]] std::string serialize() const;

  /// One pass over `text`.  `sections` is reserved once from the line
  /// count and each section's pairs once from that section's own lines, so
  /// the reservations stay linear in the text and the only other
  /// allocations are keys and values too long for the small-string buffer.
  /// Throws ParseError on malformed input.
  [[nodiscard]] static Response parse(std::string_view text);
};

/// Parse a proto token (name or decimal).  Throws ParseError.
[[nodiscard]] net::IpProto parse_proto_token(std::string_view token);

/// Is this packet (by its ports) ident++ protocol traffic?
[[nodiscard]] bool is_ident_traffic(const net::FiveTuple& flow) noexcept;

}  // namespace identxx::proto
