#pragma once

/// \file scratch.hpp
/// Epoch-stamped scratch arenas: O(1) logical clears via version stamps.
///
/// Per-component recursions (the triangle data plane, the decomposition
/// driver) want a handful of ambient-sized maps per work item -- membership
/// flags, ambient->local renumberings -- but allocating or zeroing O(n)
/// storage per cluster turns a linear data plane into a quadratic driver.
/// A StampedMap keeps one backing slab alive across work items and "clears"
/// it by bumping a 64-bit epoch: a key is present iff its stamp equals the
/// current epoch, so begin_epoch() is O(1) whenever the domain fits the
/// retained capacity.  Growth -- the only O(n) event -- is counted, so
/// regression tests can pin the steady state to zero per-item allocations.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xd::util {

/// Growth/reuse accounting for a scratch structure (regression-test hook).
struct ScratchStats {
  std::uint64_t grown = 0;   ///< epochs that had to (re)allocate the slab
  std::uint64_t reused = 0;  ///< epochs served from retained storage
};

/// Dense-keyed map over [0, n) with O(1) logical clear.  The 64-bit epoch
/// cannot wrap in practice, so stale stamps never read as current.
template <typename T>
class StampedMap {
 public:
  /// Starts a new epoch over key domain [0, n): every key reads as absent.
  /// O(1) unless the domain outgrew the retained slab (then O(n), once per
  /// high-water mark).
  void begin_epoch(std::size_t n) {
    ++epoch_;
    if (n > values_.size()) {
      values_.resize(n);
      stamps_.assign(n, 0);  // epoch_ >= 1, so stamp 0 is never current
      ++stats_.grown;
    } else {
      ++stats_.reused;
    }
  }

  [[nodiscard]] bool contains(std::size_t i) const {
    return stamps_[i] == epoch_;
  }

  void put(std::size_t i, const T& v) {
    values_[i] = v;
    stamps_[i] = epoch_;
  }

  /// Value at a key the caller knows is present this epoch.
  [[nodiscard]] const T& at(std::size_t i) const { return values_[i]; }
  [[nodiscard]] T& at(std::size_t i) { return values_[i]; }

  /// Mutable value at key i, inserting a value-initialized T first if the
  /// key is absent this epoch.  This is what lets cursor-like state (queue
  /// head/tail offsets, counters) live in a stamped slab: mutate in place,
  /// O(1) logical clear at the next begin_epoch.
  [[nodiscard]] T& ref(std::size_t i) {
    if (stamps_[i] != epoch_) {
      values_[i] = T{};
      stamps_[i] = epoch_;
    }
    return values_[i];
  }

  [[nodiscard]] const ScratchStats& stats() const { return stats_; }

 private:
  std::vector<T> values_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t epoch_ = 0;
  ScratchStats stats_;
};

}  // namespace xd::util
