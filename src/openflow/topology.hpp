#pragma once

// Network topology: owns the simulator, tracks which nodes are switches,
// where hosts attach, and computes forwarding paths (BFS over the switch
// fabric) so the controller can install entries along the whole path
// preemptively (Figure 1 step 4).
//
// Multipath (DESIGN.md §12): with set_multipath(k, seed), each (src,dst)
// pair memoizes a *set* of up to k equal-cost shortest paths instead of a
// single hop list, and path_for_flow() picks one deterministically by
// hashing the flow 5-tuple with the seed — ECMP without per-flow state.
// k == 1 reproduces the historical single-BFS-path behaviour exactly.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/flow.hpp"
#include "openflow/switch.hpp"
#include "sim/simulator.hpp"

namespace identxx::openflow {

/// One forwarding step: the packet enters `switch_id` on `in_port` and
/// leaves on `out_port`.
struct Hop {
  sim::NodeId switch_id = sim::kInvalidNode;
  sim::PortId out_port = 0;
  sim::PortId in_port = 0;
  [[nodiscard]] bool operator==(const Hop&) const noexcept = default;
};

/// The equal-cost shortest paths between one (src,dst) pair, in a
/// deterministic enumeration order (adjacency insertion order).  Empty
/// means unreachable; a reachable pair always has paths[0] available as
/// the single-path answer.
struct PathSet {
  std::vector<std::vector<Hop>> paths;
  [[nodiscard]] bool empty() const noexcept { return paths.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return paths.size(); }
};

/// Accounting for the (src,dst)-keyed memo in front of the BFS in
/// Topology::path — admissions hammer the same attachment pairs, so the
/// controller should not recompute the fabric walk per flow.  One cache
/// entry now holds the whole equal-cost path set; hits/misses/invalidations
/// count per path-set lookup.  ecmp_selections[i] counts how many
/// path_for_flow() queries selected path index i.
struct PathCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< BFS runs stored into the cache
  std::uint64_t invalidations = 0;  ///< cache flushes (topology changed)
  std::vector<std::uint64_t> ecmp_selections;
  [[nodiscard]] bool operator==(const PathCacheStats&) const = default;
};

class Topology {
 public:
  Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const noexcept { return sim_; }

  /// Add a switch; returns its node id.
  sim::NodeId add_switch(std::unique_ptr<Switch> sw);

  /// Add a non-switch node (host).  Returns its node id.
  sim::NodeId add_host(std::unique_ptr<sim::Node> host);

  /// Wire two nodes with auto-allocated ports; returns {port_a, port_b}.
  /// `bandwidth_bps` feeds the link's serialization-delay model (0
  /// disables it; see sim::LinkEnd).
  std::pair<sim::PortId, sim::PortId> link(
      sim::NodeId a, sim::NodeId b,
      sim::SimTime latency = 10 * sim::kMicrosecond,
      std::uint64_t bandwidth_bps = sim::kDefaultBandwidthBps);

  [[nodiscard]] bool is_switch(sim::NodeId id) const noexcept {
    return switches_.contains(id);
  }

  /// The Switch object for a switch node id; throws SimError otherwise.
  [[nodiscard]] Switch& switch_at(sim::NodeId id);

  /// All switch node ids, in creation order.
  [[nodiscard]] const std::vector<sim::NodeId>& switch_ids() const noexcept {
    return switch_order_;
  }

  /// Where a host is attached: (switch id, switch port), if wired to one.
  [[nodiscard]] std::optional<Hop> attachment(sim::NodeId host) const;

  // -- paths ---------------------------------------------------------------

  /// Enable k-shortest/ECMP path sets: up to `k_paths` equal-cost shortest
  /// paths are enumerated per (src,dst) pair and path_for_flow() selects
  /// among them by seeded flow hash.  k_paths == 1 (the default) keeps the
  /// historical single-BFS-path behaviour bit-for-bit.  Flushes the path
  /// caches; call while the simulation is quiescent.
  void set_multipath(std::uint32_t k_paths, std::uint64_t seed = 0);
  [[nodiscard]] std::uint32_t k_paths() const noexcept { return k_paths_; }

  /// Hop list forwarding a packet from `src_host` to `dst_host`: one entry
  /// per switch, ending with the hop whose out_port faces `dst_host`.
  /// nullopt when no path exists.  Under multipath this is the path set's
  /// first path — the stable choice for flow-agnostic traffic (control
  /// messages, diagnostics).  Results are memoized per (src,dst) pair;
  /// `link()` (the only topology mutation) flushes the memo.
  [[nodiscard]] std::optional<std::vector<Hop>> path(sim::NodeId src_host,
                                                     sim::NodeId dst_host) const;

  /// The full equal-cost path set for (src,dst); empty set when
  /// unreachable.  Memoized like path().
  [[nodiscard]] PathSet path_set(sim::NodeId src_host,
                                 sim::NodeId dst_host) const;

  /// Deterministic seeded ECMP: the path `flow` takes from `src_host` to
  /// `dst_host`, selected from the equal-cost set by hashing the 5-tuple
  /// with the multipath seed.  The same flow always selects the same path
  /// (until the topology changes); with k_paths == 1 this is exactly
  /// path().  nullopt when unreachable.
  [[nodiscard]] std::optional<std::vector<Hop>> path_for_flow(
      sim::NodeId src_host, sim::NodeId dst_host,
      const net::FiveTuple& flow) const;

  /// Neighbours of a node: (local port, peer id) pairs.
  [[nodiscard]] const std::vector<std::pair<sim::PortId, sim::NodeId>>&
  neighbours(sim::NodeId id) const;

  // -- path cache -----------------------------------------------------------

  [[nodiscard]] const PathCacheStats& path_cache_stats() const noexcept {
    return path_cache_stats_;
  }
  [[nodiscard]] std::size_t path_cache_size() const noexcept {
    return path_cache_.size();
  }
  /// Ablation / benchmarking knob: disabling drops the cache and makes
  /// every path() call run the BFS.
  void set_path_cache_enabled(bool enabled) noexcept;

 private:
  [[nodiscard]] std::optional<std::vector<Hop>> compute_path(
      sim::NodeId src_host, sim::NodeId dst_host) const;
  [[nodiscard]] PathSet compute_path_set(sim::NodeId src_host,
                                         sim::NodeId dst_host) const;
  /// The memoized set for (src,dst) (computed into scratch_set_ when the
  /// cache is disabled).
  [[nodiscard]] const PathSet& cached_path_set(sim::NodeId src_host,
                                               sim::NodeId dst_host) const;
  /// ECMP selection index for `flow` within a set of `set_size` paths.
  [[nodiscard]] std::size_t select_path_index(const net::FiveTuple& flow,
                                              std::size_t set_size) const;
  /// First port on `from` wired to `to`; kInvalidNode-safe helper for the
  /// equal-cost DAG walk.
  [[nodiscard]] sim::PortId port_toward(sim::NodeId from, sim::NodeId to) const;
  void invalidate_paths() noexcept;

  /// Process-unique instance id: the resource a path-epoch LaneAccess
  /// names for schedule exploration (DESIGN.md §13).
  const std::uint64_t topology_id_;

  sim::Simulator sim_;
  std::unordered_map<sim::NodeId, Switch*> switches_;
  std::vector<sim::NodeId> switch_order_;
  std::unordered_map<sim::NodeId, std::vector<std::pair<sim::PortId, sim::NodeId>>>
      adjacency_;
  std::unordered_map<sim::NodeId, sim::PortId> next_port_;

  std::uint32_t k_paths_ = 1;
  std::uint64_t ecmp_seed_ = 0;

  // Memoized path-set results keyed by (src << 32) | dst.  Mutable: the
  // cache is an implementation detail of the logically-const query.
  mutable std::unordered_map<std::uint64_t, PathSet> path_cache_;
  mutable PathCacheStats path_cache_stats_;
  // Uncached fallback slot so cached_path_set can hand out a reference
  // when the cache is disabled.
  mutable PathSet scratch_set_;
  bool path_cache_enabled_ = true;
};

}  // namespace identxx::openflow
