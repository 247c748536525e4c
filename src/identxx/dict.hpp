#pragma once

// Response dictionaries (§3.3).
//
// PF+=2 parses ident++ responses into @src and @dst dictionaries.  Keys may
// repeat across sections (each controller on the path may append a section);
// plain indexing returns the value from the *latest* section — "the most
// trusted (though not necessarily the most trustworthy) because a controller
// can overwrite or modify any responses that it sees".  The *@src[key] form
// concatenates the values from all sections in order, which lets a policy
// check that a chain of endorsements was followed or that a value changed
// between networks.
//
// A ResponseDict borrows: it reads the Response it was built over, which
// the caller keeps alive for as long as the dict is used (the controller's
// AdmissionContext owns the responses its decision reads).  Building one
// copies nothing.

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "identxx/wire.hpp"

namespace identxx::proto {

class ResponseDict {
 public:
  /// The dict of no response: every lookup misses.
  ResponseDict() = default;
  /// A view of `response`, which must outlive the dict.
  explicit ResponseDict(const Response& response) noexcept
      : sections_(response.sections) {}
  ResponseDict(const Response&&) = delete;  // would dangle

  /// @dict[key]: value from the latest section that defines `key`.
  [[nodiscard]] std::optional<std::string_view> latest(
      std::string_view key) const noexcept;

  /// *@dict[key]: values from every section that defines `key`, in section
  /// order, joined with ",".
  [[nodiscard]] std::string concatenated(std::string_view key) const;

  /// All values for `key` in section order.
  [[nodiscard]] std::vector<std::string_view> all(std::string_view key) const;

  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return latest(key).has_value();
  }

  [[nodiscard]] std::size_t section_count() const noexcept {
    return sections_.size();
  }

  [[nodiscard]] bool empty() const noexcept { return sections_.empty(); }

 private:
  std::span<const Section> sections_;
};

}  // namespace identxx::proto
