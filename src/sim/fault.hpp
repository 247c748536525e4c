#pragma once

// Seeded control-plane fault model (DESIGN.md §14): per-channel loss, delay
// and duplication driven by a private SplitMix64 stream derived from the
// scenario seed and the channel's name.  Draws happen where the message is
// emitted — always on the simulator's global lane — so a faulted run stays
// bit-identical at any shard count, and the model checker can
// replay it schedule by schedule.

#include <cstdint>
#include <string_view>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace identxx::sim {

/// Fault parameters for one control channel (switch ↔ controller).
struct ChannelFaultSpec {
  double loss = 0.0;  ///< P(message silently dropped)
  double dup = 0.0;   ///< P(message delivered twice)
  /// Maximum extra one-way latency; each delivery draws uniformly from
  /// [0, delay] in nanoseconds.  Drawing per message (rather than adding a
  /// fixed shift) models jitter — messages reorder — and keeps delayed
  /// deliveries off exact collision instants with unrelated events, whose
  /// relative order is the one thing that may differ across shard counts.
  SimTime delay = 0;

  [[nodiscard]] bool active() const noexcept {
    return loss > 0.0 || dup > 0.0 || delay > 0;
  }
};

/// What the channel actually did to the messages it carried.
struct ChannelFaultStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;

  bool operator==(const ChannelFaultStats&) const = default;
};

/// FNV-1a, used instead of std::hash so fault streams are stable across
/// standard libraries (seeds feed golden tests and CI reproduction).
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Derives the per-channel RNG seed.  Mixing the channel name through the
/// SplitMix64 finalizer keeps streams independent per switch and invariant
/// to the order channels are configured in.
[[nodiscard]] constexpr std::uint64_t fault_stream_seed(
    std::uint64_t scenario_seed, std::string_view channel) noexcept {
  util::SplitMix64 derive(scenario_seed ^ 0x94d049bb133111ebULL ^
                          fnv1a64(channel));
  return derive.next();
}

/// One faulted control channel: spec + private RNG stream + counters.
/// Every message draws the loss Bernoulli, the duplication Bernoulli and
/// (when the spec enables delay) the delay value in a fixed order, whatever
/// the outcome, so the stream position depends only on how many messages
/// were offered — never on earlier fault decisions.
class FaultChannel {
 public:
  FaultChannel(const ChannelFaultSpec& spec, std::uint64_t seed) noexcept
      : spec_(spec), rng_(seed) {}

  struct Draw {
    bool dropped = false;
    bool duplicated = false;
    SimTime delay = 0;
  };

  [[nodiscard]] Draw draw() noexcept {
    Draw d;
    d.dropped = rng_.next_bool(spec_.loss);
    d.duplicated = rng_.next_bool(spec_.dup);
    if (spec_.delay > 0) {
      // Drawn whenever the spec enables delay — like the Bernoullis, the
      // stream position depends only on the spec and the message count.
      d.delay = static_cast<SimTime>(
          rng_.next_below(static_cast<std::uint64_t>(spec_.delay) + 1));
    }
    return d;
  }

  [[nodiscard]] const ChannelFaultSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] ChannelFaultStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ChannelFaultStats& stats() const noexcept {
    return stats_;
  }

 private:
  ChannelFaultSpec spec_;
  util::SplitMix64 rng_;
  ChannelFaultStats stats_;
};

}  // namespace identxx::sim
