// perfbench/core/reference.hpp — the independent answer key.
//
// Computed from the generated stream with a radix sort and hash maps only
// (no gbx/hier code): entries and distinct coordinates after every batch
// prefix, the multiplicity of every probed coordinate after every batch
// prefix, and optionally the final (coordinate, count) list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/gen.hpp"

namespace pb {

class Reference {
 public:
  /// `want_final` also keeps the sorted final (key, count) list, where
  /// key = row * ncols + col; it costs 16 bytes per distinct coordinate.
  Reference(const Stream& s, const std::vector<std::vector<Coord>>& probes,
            bool want_final);

  std::size_t batches() const { return entries_.size() - 1; }
  /// Entries (= Σ of the value-1 entries) in the first `prefix` batches.
  std::uint64_t entries(std::size_t prefix) const { return entries_[prefix]; }
  /// Distinct coordinates in the first `prefix` batches.
  std::uint64_t distinct(std::size_t prefix) const {
    return distinct_[prefix];
  }
  /// Multiplicity of probe `i` of probe set `set` in the first `prefix`
  /// batches (0 for an absent coordinate).
  std::uint64_t multiplicity(std::size_t set, std::size_t i,
                             std::size_t prefix) const;

  std::uint64_t key(std::uint64_t row, std::uint64_t col) const {
    return row * ncols_ + col;
  }
  /// Sorted (key, count) of the whole stream; empty unless want_final.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& final_counts()
      const {
    return final_;
  }

 private:
  std::uint64_t ncols_ = 0;
  std::vector<std::uint64_t> entries_;   ///< [prefix]
  std::vector<std::uint64_t> distinct_;  ///< [prefix]
  /// probe_slot_[set][i] indexes counts_; counts_[slot] is cumulative
  /// per prefix.
  std::vector<std::vector<std::size_t>> probe_slot_;
  std::vector<std::vector<std::uint32_t>> counts_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> final_;
};

}  // namespace pb
