#pragma once

// Pluggable traffic-model library (DESIGN.md §12).
//
// The paper's evaluation drives one hand-rolled packet per flow; this
// library generates the load shapes the congestion experiments need on
// top of the same deterministic simulator:
//
//   * single — the historical one-SYN-per-flow behaviour (default)
//   * cbr    — constant bit rate: fixed packet count at a fixed rate
//   * onoff  — CBR gated by an on/off duty cycle (flash-crowd bursts)
//   * pareto — heavy-tailed flow size drawn from a bounded Pareto
//              (elephant/mice mixes), emitted at a fixed rate
//   * aimd   — closed loop: a windowed sender that observes deliveries at
//              the destination and halves its window on detected loss,
//              increasing additively otherwise (TCP-flavoured backoff)
//
// Every generator is a chain of simulator events on the global lane, so
// emissions are bit-identical at any shard count.  All randomness
// (the Pareto size draw) comes from a caller-provided SplitMix64 seed.
//
// Specs parse from compact text — "cbr,packets=64,rate=20000" — used
// verbatim by the scenario `traffic` directive and identxx_sim --traffic.

#include <cstdint>
#include <string>
#include <string_view>

#include "host/host.hpp"
#include "net/flow.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace identxx::net::traffic {

enum class Model { kSingle, kCbr, kOnOff, kPareto, kAimd };

[[nodiscard]] std::string to_string(Model model);

/// One flow's traffic shape.  Defaults reproduce the idealized behaviour:
/// Model::kSingle sends nothing beyond the flow's connect-time SYN.
struct TrafficSpec {
  Model model = Model::kSingle;
  /// Total payload packets including the connect-time SYN (the per-flow
  /// draw for kPareto, which ignores this field).
  std::uint64_t packets = 1;
  std::uint64_t rate_pps = 10'000;  ///< emission rate while sending
  std::uint32_t payload_bytes = 512;
  sim::SimTime start_delay = 0;  ///< pause between SYN and paced emission
  // on-off duty cycle
  sim::SimTime on_time = 200 * sim::kMicrosecond;
  sim::SimTime off_time = 200 * sim::kMicrosecond;
  // bounded Pareto flow-size mix
  double pareto_shape = 1.5;
  double pareto_mean = 32.0;  ///< mean flow size in packets
  // closed-loop AIMD
  double aimd_window = 2.0;  ///< initial window, packets per control epoch
  sim::SimTime aimd_rtt = 1 * sim::kMillisecond;  ///< control epoch length

  /// Parse "model[,key=value...]" — keys: packets, rate, payload,
  /// start_us, on_us, off_us, shape, mean, window, rtt_us.  Throws
  /// identxx::Error on unknown models/keys or unparsable values.
  [[nodiscard]] static TrafficSpec parse(std::string_view text);
};

struct FlowDriverStats {
  std::uint64_t packets_sent = 0;  ///< includes the connect-time SYN
  std::uint64_t packets_acked = 0;  ///< kAimd: deliveries observed at dst
  std::uint64_t loss_events = 0;    ///< kAimd: window halvings
  double final_window = 0.0;        ///< kAimd: window when sending finished
};

/// Drives one flow's packet emissions according to a TrafficSpec.  The
/// flow's first packet (the SYN from Network::start_flow) must already be
/// sent; start() schedules the remainder.  The driver must outlive the
/// simulation run.
class FlowDriver {
 public:
  FlowDriver(sim::Simulator& sim, host::Host& src, const host::Host& dst,
             net::FiveTuple flow, TrafficSpec spec, std::uint64_t seed);

  /// Schedule this flow's emissions, starting at the current simulated
  /// time plus spec.start_delay.  Call at most once, outside event
  /// execution (events chain on the global lane).
  void start();

  [[nodiscard]] const net::FiveTuple& flow() const noexcept { return flow_; }
  [[nodiscard]] const TrafficSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t total_packets() const noexcept { return total_; }
  [[nodiscard]] const FlowDriverStats& stats() const noexcept { return stats_; }

 private:
  void emit_one();
  /// cbr/onoff/pareto: emit, then schedule the next emission (skipping
  /// off-phase windows for kOnOff).
  void schedule_paced();
  /// kAimd control epoch: account ACKs, adapt the window, pace one
  /// window's worth of packets over the epoch.
  void run_aimd_epoch();

  sim::Simulator& sim_;
  host::Host& src_;
  const host::Host& dst_;
  net::FiveTuple flow_;
  TrafficSpec spec_;
  util::SplitMix64 rng_;
  std::string payload_;

  std::uint64_t total_ = 1;    ///< packets to send overall (incl. SYN)
  std::uint64_t planned_ = 1;  ///< packets sent or already scheduled
  sim::SimTime start_time_ = 0;
  sim::SimTime next_offset_ = 0;  ///< paced models: next emission offset
  // AIMD state: deliveries are checked two epochs in arrears so queueing
  // delay is not misread as loss.
  double cwnd_ = 1.0;
  std::uint64_t expected_lag1_ = 0;
  std::uint64_t expected_lag2_ = 0;
  std::uint64_t lost_seen_ = 0;
  std::uint32_t epoch_ = 0;

  FlowDriverStats stats_;
};

}  // namespace identxx::net::traffic
