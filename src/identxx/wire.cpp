#include "identxx/wire.hpp"

#include <algorithm>
#include <array>
#include <charconv>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace identxx::proto {

namespace {

/// Walks a payload one line at a time, splitting where util::split_lines
/// does: at each '\n', with the final line unterminated or absent.  Callers
/// trim, so a CR before the LF needs no special case.  The newline count
/// taken up front sizes the parsers' vectors; the walk itself is the one
/// parsing pass.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) noexcept
      : rest_(text),
        lines_(static_cast<std::size_t>(
                   std::count(text.begin(), text.end(), '\n')) +
               (!text.empty() && text.back() != '\n' ? 1 : 0)) {}

  /// The next line, or false once the text is used up.
  bool next(std::string_view& line) noexcept {
    if (rest_.empty()) return false;
    const std::size_t end = rest_.find('\n');
    if (end == std::string_view::npos) {
      line = rest_;
      rest_ = {};
    } else {
      line = rest_.substr(0, end);
      rest_.remove_prefix(end + 1);
    }
    ++number_;
    return true;
  }

  /// 1-based number of the line next() returned last.
  [[nodiscard]] std::size_t number() const noexcept { return number_; }

  /// Lines next() has yet to return: a bound on the pairs or keys left.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return lines_ - number_;
  }

  /// Lines next() returns before the next blank one (a line that trims to
  /// empty), without consuming them: a bound on a section's pairs left.
  [[nodiscard]] std::size_t remaining_before_blank() const noexcept {
    std::size_t count = 0;
    std::string_view rest = rest_;
    while (!rest.empty()) {
      const std::size_t end = rest.find('\n');
      const std::string_view line =
          end == std::string_view::npos ? rest : rest.substr(0, end);
      if (util::trim_right(line).empty()) break;
      ++count;
      rest.remove_prefix(end == std::string_view::npos ? rest.size()
                                                       : end + 1);
    }
    return count;
  }

 private:
  std::string_view rest_;
  std::size_t lines_;  ///< lines next() returns in all
  std::size_t number_ = 0;
};

/// The shared first line "<PROTO> <SRC PORT> <DST PORT>".
struct FirstLine {
  net::IpProto proto;
  std::uint16_t src_port;
  std::uint16_t dst_port;
};

FirstLine parse_first_line(std::string_view line) {
  std::array<std::string_view, 3> fields;
  std::size_t count = 0;
  std::size_t i = 0;
  for (;;) {
    while (i < line.size() && util::is_space(line[i])) ++i;
    if (i == line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && !util::is_space(line[i])) ++i;
    if (count == fields.size()) {
      count = fields.size() + 1;  // too many: report below
      break;
    }
    fields[count++] = line.substr(start, i - start);
  }
  if (count != fields.size()) {
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

/// The proto token's name, or empty for a protocol written in decimal.
std::string_view proto_name(net::IpProto proto) noexcept {
  switch (proto) {
    case net::IpProto::kIcmp: return "icmp";
    case net::IpProto::kTcp:  return "tcp";
    case net::IpProto::kUdp:  return "udp";
  }
  return {};
}

/// The first line with its newline, rendered on the stack so a serializer
/// can size its buffer before writing.  The protocol is written as
/// parse_proto_token reads it: "tcp", "udp", "icmp", or decimal.
class FirstLineText {
 public:
  FirstLineText(net::IpProto proto, std::uint16_t src_port,
                std::uint16_t dst_port) noexcept {
    char* out = buf_.data();
    char* const end = buf_.data() + buf_.size();
    if (const std::string_view name = proto_name(proto); !name.empty()) {
      out = std::copy(name.begin(), name.end(), out);
    } else {
      out = std::to_chars(out, end, static_cast<unsigned>(proto)).ptr;
    }
    *out++ = ' ';
    out = std::to_chars(out, end, src_port).ptr;
    *out++ = ' ';
    out = std::to_chars(out, end, dst_port).ptr;
    *out++ = '\n';
    size_ = static_cast<std::size_t>(out - buf_.data());
  }

  [[nodiscard]] std::string_view view() const noexcept {
    return {buf_.data(), size_};
  }

 private:
  std::array<char, 24> buf_{};  // "icmp 65535 65535\n" is 17
  std::size_t size_ = 0;
};

}  // namespace

net::IpProto parse_proto_token(std::string_view token) {
  if (util::iequals(token, "tcp")) return net::IpProto::kTcp;
  if (util::iequals(token, "udp")) return net::IpProto::kUdp;
  if (util::iequals(token, "icmp")) return net::IpProto::kIcmp;
  const auto number = util::parse_u64(token);
  if (number && *number <= 255) return static_cast<net::IpProto>(*number);
  throw ParseError("unknown protocol token '" + std::string(token) + "'", 1);
}

bool is_ident_traffic(const net::FiveTuple& flow) noexcept {
  return flow.proto == net::IpProto::kTcp &&
         (flow.dst_port == kIdentPort || flow.src_port == kIdentPort);
}

// ---------------------------------------------------------------- Query

std::string Query::serialize() const {
  const FirstLineText first(proto, src_port, dst_port);
  std::size_t size = first.view().size();
  for (const auto& key : keys) size += key.size() + 1;
  std::string out;
  out.reserve(size);
  out.append(first.view());
  for (const auto& key : keys) {
    out.append(key);
    out.push_back('\n');
  }
  return out;
}

Query Query::parse(std::string_view text) {
  if (text.empty()) throw ParseError("empty ident++ query");
  LineCursor lines(text);
  std::string_view line;
  lines.next(line);
  const FirstLine first = parse_first_line(line);
  Query query;
  query.proto = first.proto;
  query.src_port = first.src_port;
  query.dst_port = first.dst_port;
  if (lines.remaining() > 0) query.keys.reserve(lines.remaining());
  while (lines.next(line)) {
    const auto key = util::trim(line);
    if (key.empty()) continue;
    if (key.find(':') != std::string_view::npos) {
      throw ParseError("query keys must not contain ':'", lines.number());
    }
    query.keys.emplace_back(key);
  }
  return query;
}

// ---------------------------------------------------------------- Section

const std::string* Section::find(std::string_view key) const noexcept {
  const std::string* found = nullptr;
  for (const auto& [k, v] : pairs) {
    if (k == key) found = &v;
  }
  return found;
}

// ---------------------------------------------------------------- Response

void Response::append_section(Section section) {
  if (!section.empty()) sections.push_back(std::move(section));
}

std::string Response::serialize() const {
  const FirstLineText first(proto, src_port, dst_port);
  std::size_t size = first.view().size();
  if (!sections.empty()) size += sections.size() - 1;  // blank separators
  for (const auto& section : sections) {
    for (const auto& [key, value] : section.pairs) {
      size += key.size() + value.size() + 3;  // ": " and '\n'
    }
  }
  std::string out;
  out.reserve(size);
  out.append(first.view());
  bool first_section = true;
  for (const auto& section : sections) {
    if (!first_section) out.push_back('\n');  // empty line between sections
    first_section = false;
    for (const auto& [key, value] : section.pairs) {
      out.append(key);
      out.append(": ");
      out.append(value);
      out.push_back('\n');
    }
  }
  return out;
}

Response Response::parse(std::string_view text) {
  if (text.empty()) throw ParseError("empty ident++ response");
  LineCursor lines(text);
  std::string_view line;
  lines.next(line);
  const FirstLine first = parse_first_line(line);
  Response response;
  response.proto = first.proto;
  response.src_port = first.src_port;
  response.dst_port = first.dst_port;

  // Each section but the last spends a blank line besides its pairs.
  const std::size_t bound = lines.remaining();
  if (bound > 0) response.sections.reserve((bound + 1) / 2);
  Section current;
  while (lines.next(line)) {
    line = util::trim_right(line);
    if (line.empty()) {
      // Section boundary (possibly several blank lines in a row).
      response.append_section(std::move(current));
      current = Section{};
      continue;
    }
    const auto [key_part, value_part] = util::split_once(line, ':');
    if (!value_part) {
      throw ParseError("response line missing ':'", lines.number());
    }
    const auto key = util::trim(key_part);
    if (key.empty()) {
      throw ParseError("response line with empty key", lines.number());
    }
    // This line and the section's lines left bound its pairs: one
    // reservation, summing to at most the line count over all sections.
    if (current.pairs.empty()) {
      current.pairs.reserve(lines.remaining_before_blank() + 1);
    }
    current.pairs.emplace_back(key, util::trim(*value_part));
  }
  response.append_section(std::move(current));
  return response;
}

}  // namespace identxx::proto
