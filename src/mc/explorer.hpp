#pragma once

// mc::Explorer — a determinism model checker for the sharded simulator
// (DESIGN.md §13).
//
// The checked claim (DESIGN.md §10) is that a scenario's observable result
// is bit-identical however the per-wave shard-lane work is ordered: shard
// lanes only communicate through the staged global-lane commit protocol,
// and the canonical merge makes the committed event sequence independent
// of the order the lanes actually ran.  The explorer treats the per-wave
// lane execution order as the nondeterminism alphabet: it drives the
// scenario through a sim::ScheduleController, systematically permutes the
// order at each multi-lane wave ("choice point"), and checks every
// schedule's ScenarioResult for equivalent_to-equality with the canonical
// schedule plus the scenario's own `expect` directives.
//
// Modes:
//   * kExhaustive — every permutation at every choice point (product DFS).
//   * kDpor      — sleep-set-style pruning: two lanes in a wave commute
//     unless their access footprints (same switch, cookie namespace,
//     control epoch, or path-cache epoch, at least one write — see
//     sim::LaneAccess) conflict; only one representative per Mazurkiewicz
//     trace-equivalence class of the permutations is executed.
//   * kRandom    — a bounded number of uniformly random schedules, for
//     configurations whose exhaustive product is too large.
//
// On divergence the explorer greedily minimizes the failing schedule
// (dropping trailing choices, reverting individual waves to canonical
// order) and reports the shortest prefix that still reproduces it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/schedule.hpp"

namespace identxx::mc {

/// One wave's dictated lane execution order.
struct WaveChoice {
  sim::SimTime when = 0;
  std::vector<sim::LaneId> order;
};

/// A reproducible failure: the minimized schedule prefix (canonical order
/// resumes after the last entry) and which check it violated.
struct Divergence {
  std::vector<WaveChoice> schedule;
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

enum class Mode { kExhaustive, kDpor, kRandom };

struct ExplorerOptions {
  /// Base scenario options.  `shards` must be >= 1 (the classic inline
  /// controller has no shard lanes to reorder).
  core::ScenarioOptions scenario;
  Mode mode = Mode::kDpor;
  /// Branch only at the first `max_depth` waves of each schedule; later
  /// waves follow canonical order.
  std::uint32_t max_depth = 32;
  /// Hard budget on scenario executions (minimization runs included).
  std::uint64_t max_schedules = 50'000;
  /// kRandom: how many random schedules to sample, and the sampling seed.
  std::uint64_t random_schedules = 200;
  std::uint64_t seed = 1;
};

struct Report {
  std::uint64_t schedules_explored = 0;  ///< scenario executions performed
  std::uint64_t choice_points = 0;       ///< branching waves, canonical run
  std::uint64_t schedules_pruned = 0;    ///< permutations skipped as commuting
  bool budget_exhausted = false;         ///< hit max_schedules before done
  std::optional<Divergence> divergence;

  [[nodiscard]] bool ok() const noexcept { return !divergence.has_value(); }
  [[nodiscard]] std::string summary() const;
};

class Explorer {
 public:
  /// `scenario` must outlive the explorer.
  Explorer(const core::Scenario& scenario, ExplorerOptions options);

  /// Explore and check; safe to call once per Explorer.
  [[nodiscard]] Report run();

 private:
  const core::Scenario* scenario_;
  ExplorerOptions options_;
};

}  // namespace identxx::mc
