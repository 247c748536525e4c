#include "identxx/dict.hpp"

namespace identxx::proto {

std::optional<std::string_view> ResponseDict::latest(
    std::string_view key) const noexcept {
  const std::string* found = nullptr;
  for (const auto& section : sections_) {
    if (const std::string* v = section.find(key)) found = v;
  }
  if (found == nullptr) return std::nullopt;
  return std::string_view(*found);
}

std::string ResponseDict::concatenated(std::string_view key) const {
  std::string out;
  for (const auto& section : sections_) {
    if (const std::string* v = section.find(key)) {
      if (!out.empty()) out += ',';
      out += *v;
    }
  }
  return out;
}

std::vector<std::string_view> ResponseDict::all(std::string_view key) const {
  std::vector<std::string_view> out;
  for (const auto& section : sections_) {
    if (const std::string* v = section.find(key)) out.emplace_back(*v);
  }
  return out;
}

}  // namespace identxx::proto
