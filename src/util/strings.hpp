#pragma once

// Small string toolkit shared by the parsers (PF+=2, ident++ wire format,
// daemon configuration).  All functions are pure and allocation-conscious:
// views in, owned strings out only where the caller needs ownership.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace identxx::util {

/// The whitespace every helper here trims and splits on: space, tab, CR, LF.
[[nodiscard]] constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/// Remove leading and trailing whitespace (space, tab, CR, LF).
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Remove leading whitespace only.
[[nodiscard]] std::string_view trim_left(std::string_view s) noexcept;

/// Remove trailing whitespace only.
[[nodiscard]] std::string_view trim_right(std::string_view s) noexcept;

/// Split `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Split `s` on runs of whitespace, dropping empty fields.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Split into at most two parts at the first occurrence of `sep`.
/// Returns {s, nullopt} when `sep` is absent.
[[nodiscard]] std::pair<std::string_view, std::optional<std::string_view>>
split_once(std::string_view s, char sep) noexcept;

/// Split `s` into lines.  Accepts "\n" and "\r\n" terminators; the final
/// line need not be terminated.
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view s);

/// Join `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);
[[nodiscard]] std::string join(const std::vector<std::string_view>& parts,
                               std::string_view sep);

/// ASCII-only case conversion.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Case-insensitive ASCII comparison.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// Parse an unsigned decimal integer; rejects empty input, signs, overflow
/// and trailing garbage.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept;

/// Parse a signed decimal integer.
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s) noexcept;

/// True when every character satisfies isdigit.
[[nodiscard]] bool all_digits(std::string_view s) noexcept;

/// Replace every occurrence of `from` in `s` with `to`.
[[nodiscard]] std::string replace_all(std::string_view s, std::string_view from,
                                      std::string_view to);

}  // namespace identxx::util
