#pragma once

// Open-addressed hash map for the per-flow tables on the admission hot
// path: the switch flow table's indices and cookie refcounts, and the
// controller's response-dedupe memo (DESIGN.md §8.1, §14).
//
// Linear probing over one power-of-two array of cells, with
// backward-shift deletion (no tombstones, so probe runs never silt up
// under churn).  The array grows by doubling once it is half full and
// never shrinks, and an empty map owns no storage: a table that has
// reached its working size inserts and erases without allocating.
//
// Every cell stores its key's 32-bit hash.  Probes compare it before the
// key, growth rehashes without calling the hasher, and callers hash a key
// once per operation (hash()) and pass that value to find, insert and
// erase.  The hasher must mix well into its low 32 bits, which pick the
// home cell (hash_words below does).  Keys and values must be trivially
// copyable.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace identxx::util {

/// Hash of two 64-bit words for a FlatMap hasher: their full 128-bit
/// product folded to 64 bits (wyhash's mixing step, with its constants
/// xored in so neither factor is zero for ordinary inputs), so every
/// input bit reaches the low bits a probe mask keeps.  Chain calls for
/// wider keys.
[[nodiscard]] constexpr std::uint64_t hash_words(std::uint64_t a,
                                                 std::uint64_t b) noexcept {
  __extension__ typedef unsigned __int128 u128_t;
  const u128_t product = static_cast<u128_t>(a ^ 0xa0761d6478bd642fULL) *
                         (b ^ 0xe7037ed1a0b428dbULL);
  return static_cast<std::uint64_t>(product) ^
         static_cast<std::uint64_t>(product >> 64);
}

template <class Key, class Value, class Hasher>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<Key> &&
                std::is_trivially_copyable_v<Value>);

 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The hash every other member takes; never 0 (0 marks an empty cell).
  [[nodiscard]] static std::uint32_t hash(const Key& key) noexcept {
    const auto h = static_cast<std::uint32_t>(Hasher{}(key));
    return h == 0 ? 1 : h;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Cell index holding `key` (hashed to `h`), or npos.  Valid until the
  /// next insert or erase.
  [[nodiscard]] std::size_t find(const Key& key, std::uint32_t h) const noexcept {
    if (size_ == 0) return npos;
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Cell& cell = cells_[i];
      if (cell.hash == 0) return npos;
      if (cell.hash == h && cell.key == key) return i;
    }
  }

  [[nodiscard]] Value& value_at(std::size_t i) noexcept { return cells_[i].value; }
  [[nodiscard]] const Value& value_at(std::size_t i) const noexcept {
    return cells_[i].value;
  }

  /// Add `key` (hashed to `h`), which must be absent.
  void insert(const Key& key, std::uint32_t h, const Value& value) {
    if ((size_ + 1) * 2 > cells_.size()) grow();
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = h & mask;
    while (cells_[i].hash != 0) i = (i + 1) & mask;
    cells_[i] = Cell{h, key, value};
    ++size_;
  }

  /// Remove the entry at cell `i` (from find): later cells of its probe
  /// run that may legally sit earlier shift back into the hole.
  void erase_at(std::size_t i) noexcept {
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t j = (i + 1) & mask; cells_[j].hash != 0; j = (j + 1) & mask) {
      const std::size_t home = cells_[j].hash & mask;
      // Cell j may fill the hole unless its home lies in (i, j].
      if (((j - home) & mask) >= ((j - i) & mask)) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i].hash = 0;
    --size_;
  }

  /// Remove every entry, keeping the storage.
  void clear() noexcept {
    for (Cell& cell : cells_) cell.hash = 0;
    size_ = 0;
  }

 private:
  struct Cell {
    std::uint32_t hash = 0;  ///< 0 = empty
    Key key{};
    Value value{};
  };

  void grow() {
    std::vector<Cell> old(cells_.empty() ? 16 : cells_.size() * 2);
    old.swap(cells_);
    const std::size_t mask = cells_.size() - 1;
    for (const Cell& cell : old) {
      if (cell.hash == 0) continue;
      std::size_t i = cell.hash & mask;
      while (cells_[i].hash != 0) i = (i + 1) & mask;
      cells_[i] = cell;
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
};

}  // namespace identxx::util
