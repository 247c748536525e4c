#include "openflow/topology.hpp"

#include <algorithm>
#include <atomic>
#include <deque>

#include "sim/schedule.hpp"
#include "util/rng.hpp"

namespace identxx::openflow {

namespace {

std::atomic<std::uint64_t> g_next_topology_id{1};

}  // namespace

Topology::Topology()
    : topology_id_(g_next_topology_id.fetch_add(1, std::memory_order_relaxed)) {}

sim::NodeId Topology::add_switch(std::unique_ptr<Switch> sw) {
  Switch* raw = sw.get();
  const sim::NodeId id = sim_.add_node(std::move(sw));
  switches_[id] = raw;
  switch_order_.push_back(id);
  next_port_[id] = 1;
  return id;
}

sim::NodeId Topology::add_host(std::unique_ptr<sim::Node> host) {
  const sim::NodeId id = sim_.add_node(std::move(host));
  next_port_[id] = 1;
  return id;
}

std::pair<sim::PortId, sim::PortId> Topology::link(sim::NodeId a, sim::NodeId b,
                                                   sim::SimTime latency,
                                                   std::uint64_t bandwidth_bps) {
  invalidate_paths();  // adjacency changes below
  const sim::PortId port_a = next_port_.at(a)++;
  const sim::PortId port_b = next_port_.at(b)++;
  sim_.connect(a, port_a, b, port_b, latency, bandwidth_bps);
  adjacency_[a].emplace_back(port_a, b);
  adjacency_[b].emplace_back(port_b, a);
  if (const auto it = switches_.find(a); it != switches_.end()) {
    it->second->register_port(port_a);
  }
  if (const auto it = switches_.find(b); it != switches_.end()) {
    it->second->register_port(port_b);
  }
  return {port_a, port_b};
}

Switch& Topology::switch_at(sim::NodeId id) {
  const auto it = switches_.find(id);
  if (it == switches_.end()) throw SimError("switch_at: not a switch");
  return *it->second;
}

std::optional<Hop> Topology::attachment(sim::NodeId host) const {
  const auto it = adjacency_.find(host);
  if (it == adjacency_.end()) return std::nullopt;
  for (const auto& [port, peer] : it->second) {
    if (is_switch(peer)) {
      // Find the peer's port facing us.
      for (const auto& [peer_port, peer_peer] : adjacency_.at(peer)) {
        if (peer_peer == host) return Hop{peer, peer_port};
      }
    }
  }
  return std::nullopt;
}

void Topology::set_multipath(std::uint32_t k_paths, std::uint64_t seed) {
  k_paths_ = k_paths == 0 ? 1 : k_paths;
  ecmp_seed_ = seed;
  invalidate_paths();
}

void Topology::invalidate_paths() noexcept {
  sim::note_access(
      {sim::LaneAccess::Kind::kPathEpoch, topology_id_, /*write=*/true});
  if (path_cache_.empty()) return;
  path_cache_.clear();
  ++path_cache_stats_.invalidations;
}

void Topology::set_path_cache_enabled(bool enabled) noexcept {
  path_cache_enabled_ = enabled;
  if (!enabled) path_cache_.clear();
}

const PathSet& Topology::cached_path_set(sim::NodeId src_host,
                                         sim::NodeId dst_host) const {
  sim::note_access(
      {sim::LaneAccess::Kind::kPathEpoch, topology_id_, /*write=*/false});
  if (!path_cache_enabled_) {
    scratch_set_ = compute_path_set(src_host, dst_host);
    return scratch_set_;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src_host) << 32) | dst_host;
  if (const auto it = path_cache_.find(key); it != path_cache_.end()) {
    ++path_cache_stats_.hits;
    return it->second;
  }
  ++path_cache_stats_.misses;
  return path_cache_.emplace(key, compute_path_set(src_host, dst_host))
      .first->second;
}

std::optional<std::vector<Hop>> Topology::path(sim::NodeId src_host,
                                               sim::NodeId dst_host) const {
  const PathSet& set = cached_path_set(src_host, dst_host);
  if (set.empty()) return std::nullopt;
  return set.paths.front();
}

PathSet Topology::path_set(sim::NodeId src_host, sim::NodeId dst_host) const {
  return cached_path_set(src_host, dst_host);
}

std::size_t Topology::select_path_index(const net::FiveTuple& flow,
                                        std::size_t set_size) const {
  if (set_size <= 1) return 0;
  // Fold the 5-tuple into the seed through two SplitMix64 rounds; every
  // field participates so reversed/sibling flows hash independently.
  util::SplitMix64 mix(ecmp_seed_ ^
                       ((static_cast<std::uint64_t>(flow.src_ip.value()) << 32) |
                        flow.dst_ip.value()));
  const std::uint64_t salt =
      mix.next() ^ ((static_cast<std::uint64_t>(flow.src_port) << 32) |
                    (static_cast<std::uint64_t>(flow.dst_port) << 8) |
                    static_cast<std::uint64_t>(flow.proto));
  return static_cast<std::size_t>(
      util::SplitMix64(salt).next_below(set_size));
}

std::optional<std::vector<Hop>> Topology::path_for_flow(
    sim::NodeId src_host, sim::NodeId dst_host,
    const net::FiveTuple& flow) const {
  const PathSet& set = cached_path_set(src_host, dst_host);
  if (set.empty()) return std::nullopt;
  const std::size_t index = select_path_index(flow, set.size());
  auto& histogram = path_cache_stats_.ecmp_selections;
  if (histogram.size() <= index) histogram.resize(index + 1, 0);
  ++histogram[index];
  return set.paths[index];
}

PathSet Topology::compute_path_set(sim::NodeId src_host,
                                   sim::NodeId dst_host) const {
  PathSet set;
  if (k_paths_ <= 1) {
    // Single-path mode: delegate to the historical BFS so hop lists (and
    // therefore installed entries, event timings, everything downstream)
    // are bit-identical to the pre-multipath implementation.
    if (auto single = compute_path(src_host, dst_host)) {
      set.paths.push_back(std::move(*single));
    }
    return set;
  }
  if (src_host == dst_host) {
    set.paths.emplace_back();
    return set;
  }
  // Pass 1: BFS distances over the forwarding graph.  Hosts other than
  // the source are reachable but do not forward — same rule as
  // compute_path.
  std::unordered_map<sim::NodeId, std::uint32_t> dist;
  std::deque<sim::NodeId> frontier{src_host};
  dist[src_host] = 0;
  while (!frontier.empty()) {
    const sim::NodeId current = frontier.front();
    frontier.pop_front();
    if (current != src_host && !is_switch(current)) continue;
    const auto it = adjacency_.find(current);
    if (it == adjacency_.end()) continue;
    for (const auto& [port, peer] : it->second) {
      if (dist.contains(peer)) continue;
      dist[peer] = dist[current] + 1;
      frontier.push_back(peer);
    }
  }
  const auto dst_it = dist.find(dst_host);
  if (dst_it == dist.end()) return set;
  // Pass 2: enumerate up to k_paths_ shortest paths by DFS over the
  // equal-cost DAG (edges u->v with dist[v] == dist[u]+1), expanding
  // neighbours in adjacency insertion order — a deterministic function of
  // link() call order, identical on every run.
  std::vector<sim::NodeId> node_path{src_host};
  const auto emit = [&]() {
    std::vector<Hop> hops;
    for (std::size_t i = 1; i + 1 < node_path.size(); ++i) {
      const sim::NodeId sw = node_path[i];
      if (!is_switch(sw)) continue;
      Hop hop{sw, port_toward(sw, node_path[i + 1]),
              port_toward(sw, node_path[i - 1])};
      hops.push_back(hop);
    }
    set.paths.push_back(std::move(hops));
  };
  const std::function<void(sim::NodeId)> dfs = [&](sim::NodeId current) {
    if (set.paths.size() >= k_paths_) return;
    if (current == dst_host) {
      emit();
      return;
    }
    if (current != src_host && !is_switch(current)) return;
    const auto it = adjacency_.find(current);
    if (it == adjacency_.end()) return;
    for (const auto& [port, peer] : it->second) {
      const auto d = dist.find(peer);
      if (d == dist.end() || d->second != dist.at(current) + 1) continue;
      node_path.push_back(peer);
      dfs(peer);
      node_path.pop_back();
      if (set.paths.size() >= k_paths_) return;
    }
  };
  dfs(src_host);
  return set;
}

sim::PortId Topology::port_toward(sim::NodeId from, sim::NodeId to) const {
  const auto it = adjacency_.find(from);
  if (it == adjacency_.end()) return 0;
  for (const auto& [port, peer] : it->second) {
    if (peer == to) return port;
  }
  return 0;
}

std::optional<std::vector<Hop>> Topology::compute_path(
    sim::NodeId src_host, sim::NodeId dst_host) const {
  if (src_host == dst_host) return std::vector<Hop>{};
  // BFS from src_host; only switches forward traffic.
  std::unordered_map<sim::NodeId, std::pair<sim::NodeId, sim::PortId>> parent;
  std::deque<sim::NodeId> frontier{src_host};
  parent[src_host] = {sim::kInvalidNode, 0};
  bool found = false;
  while (!frontier.empty() && !found) {
    const sim::NodeId current = frontier.front();
    frontier.pop_front();
    // Hosts other than the source do not forward.
    if (current != src_host && !is_switch(current)) continue;
    const auto it = adjacency_.find(current);
    if (it == adjacency_.end()) continue;
    for (const auto& [port, peer] : it->second) {
      if (parent.contains(peer)) continue;
      parent[peer] = {current, port};
      if (peer == dst_host) {
        found = true;
        break;
      }
      frontier.push_back(peer);
    }
  }
  if (!found) return std::nullopt;
  // Walk back from dst_host, collecting (switch, in_port, out_port) hops.
  std::vector<Hop> hops;
  sim::NodeId walk = dst_host;
  while (true) {
    const auto [prev, port] = parent.at(walk);
    if (prev == sim::kInvalidNode) break;
    if (is_switch(prev)) {
      Hop hop{prev, port, 0};
      // The ingress port on `prev` faces its own parent (if any).
      const auto [grandparent, gp_port] = parent.at(prev);
      if (grandparent != sim::kInvalidNode) {
        for (const auto& [local_port, peer] : adjacency_.at(prev)) {
          if (peer == grandparent) {
            hop.in_port = local_port;
            break;
          }
        }
      }
      hops.push_back(hop);
    }
    walk = prev;
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

const std::vector<std::pair<sim::PortId, sim::NodeId>>& Topology::neighbours(
    sim::NodeId id) const {
  static const std::vector<std::pair<sim::PortId, sim::NodeId>> kEmpty;
  const auto it = adjacency_.find(id);
  return it == adjacency_.end() ? kEmpty : it->second;
}

}  // namespace identxx::openflow
