#pragma once

// Reference ident++ wire codec for differential tests: the line-splitting
// parser and the concatenating serializer that src/identxx/wire.cpp
// replaced with its one-pass parser and pre-sized serializer.  The bodies
// are kept as they were (util::split_lines, util::split_ws, owned copies
// of every pair); only the names changed.  tests/wire_fuzz_test.cpp checks
// that both codecs accept, reject and produce exactly the same things.

#include <string>
#include <string_view>

#include "identxx/wire.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace identxx::proto::reference {

/// Parse the shared first line "<PROTO> <SRC PORT> <DST PORT>".
struct FirstLine {
  net::IpProto proto;
  std::uint16_t src_port;
  std::uint16_t dst_port;
};

inline FirstLine parse_first_line(std::string_view line) {
  const auto fields = util::split_ws(line);
  if (fields.size() != 3) {
    throw ParseError("ident++ first line must be '<proto> <sport> <dport>'", 1);
  }
  const net::IpProto proto = parse_proto_token(fields[0]);
  const auto sport = util::parse_u64(fields[1]);
  const auto dport = util::parse_u64(fields[2]);
  if (!sport || *sport > 65535 || !dport || *dport > 65535) {
    throw ParseError("ident++ first line has invalid port", 1);
  }
  return FirstLine{proto, static_cast<std::uint16_t>(*sport),
                   static_cast<std::uint16_t>(*dport)};
}

/// The old token writer: protocols other than tcp/udp/icmp came out as
/// "proto-N", which no parser reads back (the codec now writes decimal).
inline std::string proto_token(net::IpProto proto) {
  return net::to_string(proto);
}

inline std::string serialize_query(const Query& query) {
  std::string out = proto_token(query.proto) + " " +
                    std::to_string(query.src_port) + " " +
                    std::to_string(query.dst_port) + "\n";
  for (const auto& key : query.keys) {
    out += key;
    out += '\n';
  }
  return out;
}

inline Query parse_query(std::string_view text) {
  const auto lines = util::split_lines(text);
  if (lines.empty()) throw ParseError("empty ident++ query");
  Query query;
  const FirstLine first = parse_first_line(lines[0]);
  query.proto = first.proto;
  query.src_port = first.src_port;
  query.dst_port = first.dst_port;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto key = util::trim(lines[i]);
    if (key.empty()) continue;
    if (key.find(':') != std::string_view::npos) {
      throw ParseError("query keys must not contain ':'", i + 1);
    }
    query.keys.emplace_back(key);
  }
  return query;
}

inline std::string serialize_response(const Response& response) {
  std::string out = proto_token(response.proto) + " " +
                    std::to_string(response.src_port) + " " +
                    std::to_string(response.dst_port) + "\n";
  bool first = true;
  for (const auto& section : response.sections) {
    if (!first) out += '\n';  // empty line between sections
    first = false;
    for (const auto& [key, value] : section.pairs) {
      out += key;
      out += ": ";
      out += value;
      out += '\n';
    }
  }
  return out;
}

inline Response parse_response(std::string_view text) {
  const auto lines = util::split_lines(text);
  if (lines.empty()) throw ParseError("empty ident++ response");
  Response response;
  const FirstLine first = parse_first_line(lines[0]);
  response.proto = first.proto;
  response.src_port = first.src_port;
  response.dst_port = first.dst_port;

  Section current;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto line = util::trim_right(lines[i]);
    if (line.empty()) {
      // Section boundary (possibly several blank lines in a row).
      response.append_section(std::move(current));
      current = Section{};
      continue;
    }
    const auto [key_part, value_part] = util::split_once(line, ':');
    if (!value_part) {
      throw ParseError("response line missing ':'", i + 1);
    }
    const auto key = util::trim(key_part);
    if (key.empty()) throw ParseError("response line with empty key", i + 1);
    current.add(std::string(key), std::string(util::trim(*value_part)));
  }
  response.append_section(std::move(current));
  return response;
}

}  // namespace identxx::proto::reference
