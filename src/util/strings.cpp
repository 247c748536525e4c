#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <limits>

namespace identxx::util {

std::string_view trim(std::string_view s) noexcept {
  return trim_right(trim_left(s));
}

std::string_view trim_left(std::string_view s) noexcept {
  std::size_t i = 0;
  while (i < s.size() && is_space(s[i])) ++i;
  return s.substr(i);
}

std::string_view trim_right(std::string_view s) noexcept {
  std::size_t n = s.size();
  while (n > 0 && is_space(s[n - 1])) --n;
  return s.substr(0, n);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::pair<std::string_view, std::optional<std::string_view>> split_once(
    std::string_view s, char sep) noexcept {
  const std::size_t pos = s.find(sep);
  if (pos == std::string_view::npos) return {s, std::nullopt};
  return {s.substr(0, pos), s.substr(pos + 1)};
}

std::vector<std::string_view> split_lines(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') {
      std::size_t end = i;
      if (end > start && s[end - 1] == '\r') --end;
      out.push_back(s.substr(start, end - start));
      start = i + 1;
    }
  }
  if (start < s.size()) {
    std::string_view last = s.substr(start);
    if (!last.empty() && last.back() == '\r') last.remove_suffix(1);
    out.push_back(last);
  }
  return out;
}

namespace {

template <typename Part>
std::string join_impl(const std::vector<Part>& parts, std::string_view sep) {
  std::string out;
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size() + sep.size();
  out.reserve(total);
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    out.append(p);
    first = false;
  }
  return out;
}

}  // namespace

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

std::string join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  return join_impl(parts, sep);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::int64_t> parse_i64(std::string_view s) noexcept {
  if (s.empty()) return std::nullopt;
  bool negative = false;
  if (s.front() == '-' || s.front() == '+') {
    negative = s.front() == '-';
    s.remove_prefix(1);
  }
  const auto magnitude = parse_u64(s);
  if (!magnitude) return std::nullopt;
  if (negative) {
    // |INT64_MIN| == 2^63.
    if (*magnitude > static_cast<std::uint64_t>(
                         std::numeric_limits<std::int64_t>::max()) +
                         1) {
      return std::nullopt;
    }
    return static_cast<std::int64_t>(0) - static_cast<std::int64_t>(*magnitude - 1) - 1;
  }
  if (*magnitude >
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(*magnitude);
}

bool all_digits(std::string_view s) noexcept {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

}  // namespace identxx::util
