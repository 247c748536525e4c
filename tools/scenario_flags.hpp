#pragma once

// The scenario flags identxx_sim and identxx_mc share, parsed in one place
// so both tools accept the same spellings and values.  Their meanings are
// documented at the top of identxx_sim.cpp.  `--seed` and `--shards` mean
// different things in the two tools and stay with each.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string_view>

#include "core/scenario.hpp"
#include "util/strings.hpp"

namespace identxx::tools {

enum class FlagParse {
  kNotShared,  ///< argv[i] is not a shared scenario flag
  kParsed,     ///< applied; `i` now indexes the flag's last argument
  kInvalid,    ///< missing or malformed value: print usage, exit 1
};

/// Try argv[i] as a shared scenario flag and apply it to `options`.
inline FlagParse parse_scenario_flag(int argc, char** argv, int& i,
                                     core::ScenarioOptions& options) {
  const std::string_view flag = argv[i];
  if (flag == "--src-only") {
    options.config.query_both_ends = false;
    return FlagParse::kParsed;
  }
  static constexpr std::string_view kValued[] = {
      "--traffic",         "--k-paths",        "--link-bw",
      "--queue-depth",     "--chan-loss",      "--chan-dup",
      "--chan-delay-us",   "--max-retries",    "--retry-jitter-us",
      "--degraded-ttl-us", "--probe-delay-us"};
  if (std::find(std::begin(kValued), std::end(kValued), flag) ==
      std::end(kValued)) {
    return FlagParse::kNotShared;
  }
  if (i + 1 >= argc) return FlagParse::kInvalid;
  const char* value = argv[++i];

  if (flag == "--traffic") {
    options.traffic = value;
    return FlagParse::kParsed;
  }
  if (flag == "--chan-loss" || flag == "--chan-dup") {
    double& p = flag == "--chan-loss" ? options.chan_loss : options.chan_dup;
    char* end = nullptr;
    p = std::strtod(value, &end);
    const bool bad = end == value || *end != '\0' || p < 0.0 || p > 1.0;
    return bad ? FlagParse::kInvalid : FlagParse::kParsed;
  }
  // The rest take a non-negative integer: a count or whole microseconds.
  const auto n = util::parse_u64(value);
  if (!n) return FlagParse::kInvalid;
  const auto micros = [&n] {
    return static_cast<sim::SimTime>(*n) * sim::kMicrosecond;
  };
  if (flag == "--k-paths") {
    if (*n == 0) return FlagParse::kInvalid;
    options.k_paths = static_cast<std::uint32_t>(*n);
  } else if (flag == "--link-bw") {
    options.link_bandwidth_bps = *n * 1'000'000ULL;
  } else if (flag == "--queue-depth") {
    options.queue_depth = static_cast<std::uint32_t>(*n);
  } else if (flag == "--chan-delay-us") {
    options.chan_delay = micros();
  } else if (flag == "--max-retries") {
    options.config.max_query_retries = static_cast<std::uint32_t>(*n);
  } else if (flag == "--retry-jitter-us") {
    options.config.retry_jitter = micros();
  } else if (flag == "--degraded-ttl-us") {
    options.config.degraded_cover_ttl = micros();
  } else if (flag == "--probe-delay-us") {
    options.config.readmission_probe_delay = micros();
  }
  return FlagParse::kParsed;
}

}  // namespace identxx::tools
