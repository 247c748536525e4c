#pragma once

// The ident++ controller's short-window response memos (DESIGN.md §14):
// which responses it consumed or augmented less than a window ago.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/flow.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"

namespace identxx::ctrl {

/// Keys seen less than `window` ago: an open-addressed map from key to
/// its latest sighting plus a ring-buffer FIFO of (time, key) sightings.
/// Each insert pops the expired sightings off the front, so memory tracks
/// the keys inside the window and every sighting is retired once, in O(1)
/// amortised — no sweep over the whole map.  A re-inserted key is retired
/// by its own later sighting.  Virtual time never runs backwards.
///
/// Both structures grow on demand and allocate nothing once they hold a
/// window's worth of sightings.  At most kMaxSightings sightings are kept
/// (paper §5: a flooding host must not grow controller memory): inserting
/// into a full memo first retires its oldest sighting early.
class RecentKeys {
 public:
  /// A flow-oriented 5-tuple plus one more word (carrying-packet ports or
  /// a responder address, depending on the memo).
  struct Key {
    std::uint32_t src_ip = 0;
    std::uint32_t dst_ip = 0;
    std::uint32_t word = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint8_t proto = 0;

    [[nodiscard]] static Key of(const net::FiveTuple& flow,
                                std::uint32_t word) noexcept {
      return Key{flow.src_ip.value(), flow.dst_ip.value(), word, flow.src_port,
                 flow.dst_port, static_cast<std::uint8_t>(flow.proto)};
    }
    [[nodiscard]] bool operator==(const Key&) const noexcept = default;
  };

  /// Ample for the §5 flood bound: perfbench's identity workload keeps
  /// ~6000 sightings inside one window.
  static constexpr std::size_t kMaxSightings = std::size_t{1} << 16;

  explicit RecentKeys(sim::SimTime window) noexcept : window_(window) {}

  [[nodiscard]] bool contains(const Key& key, sim::SimTime now) const noexcept {
    const auto i = latest_.find(key, Latest::hash(key));
    return i != Latest::npos && now - latest_.value_at(i) < window_;
  }

  /// Record a sighting of `key` at `now`.  Returns true when the memo was
  /// full and its oldest sighting was retired early to make room.
  bool insert(const Key& key, sim::SimTime now) {
    while (count_ > 0 && now - ring_[head_].when >= window_) retire_oldest();
    const bool full = count_ == kMaxSightings;
    if (full) retire_oldest();
    if (count_ == ring_.size()) grow_ring();
    const std::uint32_t h = Latest::hash(key);
    ring_[(head_ + count_) & (ring_.size() - 1)] = Sighting{now, key, h};
    ++count_;
    if (const auto i = latest_.find(key, h); i != Latest::npos) {
      latest_.value_at(i) = now;
    } else {
      latest_.insert(key, h, now);
    }
    return full;
  }

  /// Distinct keys held (some may already be outside the window).
  [[nodiscard]] std::size_t size() const noexcept { return latest_.size(); }

 private:
  struct KeyHash {
    std::uint64_t operator()(const Key& k) const noexcept {
      const std::uint64_t ips = (std::uint64_t{k.src_ip} << 32) | k.dst_ip;
      const std::uint64_t rest = (std::uint64_t{k.word} << 32) |
                                 (std::uint64_t{k.src_port} << 16) | k.dst_port;
      return util::hash_words(ips, rest ^ (std::uint64_t{k.proto} << 56));
    }
  };
  using Latest = util::FlatMap<Key, sim::SimTime, KeyHash>;

  struct Sighting {
    sim::SimTime when = 0;
    Key key;
    std::uint32_t hash = 0;  ///< Latest::hash(key)
  };

  /// Pop the front sighting; drop its key unless sighted again since.
  void retire_oldest() noexcept {
    const Sighting& oldest = ring_[head_];
    if (const auto i = latest_.find(oldest.key, oldest.hash);
        i != Latest::npos && latest_.value_at(i) == oldest.when) {
      latest_.erase_at(i);
    }
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }

  /// Double the ring (a power of two, up to kMaxSightings), unrolling it
  /// so the oldest sighting lands at index 0.
  void grow_ring() {
    std::vector<Sighting> grown(ring_.empty() ? 16 : ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(grown);
    head_ = 0;
  }

  sim::SimTime window_;
  Latest latest_;
  std::vector<Sighting> ring_;
  std::size_t head_ = 0;   ///< oldest sighting
  std::size_t count_ = 0;  ///< sightings held
};

}  // namespace identxx::ctrl
