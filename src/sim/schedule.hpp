#pragma once

// Schedule-controller hook for the multi-queue simulator (DESIGN.md §13).
//
// The wave loop in Simulator::run_wave normally executes the shard-lane
// phase serially in canonical ascending-lane order.  A ScheduleController
// lets a model checker dictate the *modeled arrival order* of the
// shard-lane batches instead: the per-wave lane execution order is
// whatever plan_wave returns, while the staged cross-lane merge stays
// canonical (ascending lane order) — exactly the commutativity obligation
// the deterministic-merge spec places on shard code.  If shard lanes only communicate through
// the staged global-lane commit protocol, every execution order yields a
// bit-identical ScenarioResult; a divergence is an ordering bug.
//
// The controller also observes logical-resource accesses (on_access) so a
// DPOR-style explorer can build commutativity footprints: two lane batches
// in the same wave are independent unless they touched the same switch,
// cookie namespace, control epoch, or path-cache epoch, with at least one
// side writing.

#include <cstdint>
#include <vector>

namespace identxx::sim {

using LaneId = std::uint32_t;
using SimTime = std::int64_t;

/// One logical-resource access, reported by instrumentation points in the
/// controller / switch / topology layers via sim::note_access.
struct LaneAccess {
  enum class Kind : std::uint8_t {
    kSwitch,           ///< flow-table / queue state of one switch (id = node)
    kCookieNamespace,  ///< a domain's cookie allocation space (id = namespace)
    kControlEpoch,     ///< a domain's control epoch (id = namespace)
    kPathEpoch,        ///< the topology path-cache epoch (id = topology)
  };
  Kind kind = Kind::kSwitch;
  std::uint64_t id = 0;
  bool write = false;

  [[nodiscard]] bool conflicts_with(const LaneAccess& other) const noexcept {
    return kind == other.kind && id == other.id && (write || other.write);
  }
};

/// Dictates per-wave shard-lane execution order and observes accesses.
/// Attach with Simulator::set_schedule_controller; the simulator then runs
/// every shard phase serially under the controller's direction.
class ScheduleController {
 public:
  virtual ~ScheduleController() = default;

  /// Called once per wave with the active shard lanes in canonical
  /// ascending order.  Permute `order` in place to dictate the modeled
  /// arrival order; leaving it untouched reproduces the canonical run
  /// bit-for-bit.
  virtual void plan_wave(SimTime when, std::vector<LaneId>& order) = 0;

  /// Called for every instrumented logical-resource access while the
  /// controller is attached.  `origin` is the shard lane the access is
  /// attributed to: the executing lane during the shard phase, or — for
  /// global-lane work such as staged decision commits — the lane whose
  /// execution scheduled it (propagated transitively).
  virtual void on_access(LaneId origin, const LaneAccess& access) = 0;
};

/// Report a logical-resource access from instrumented code.  No-op unless
/// the thread is currently executing a simulator event and that simulator
/// has a ScheduleController attached, so the hooks cost one thread-local
/// load on production paths.
void note_access(const LaneAccess& access) noexcept;

}  // namespace identxx::sim
