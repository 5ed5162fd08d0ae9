// perfbench/core/checks.hpp — property checks on what the program answered.
//
// Each check is a pure function of observed values and the Reference; it
// returns an empty string when the observation is right and a diagnostic
// otherwise. The workloads feed them the program's answers; the
// self-tests feed them corrupted observations to prove each one fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/reference.hpp"

namespace pb {

/// Two answers that must agree exactly.
std::string check_equal(const char* what, double got, double want);

/// Σ and nvals of a snapshot known to cover between `lo` and `hi`
/// batches (lo == hi when the prefix is exact).
std::string check_sum(const Reference& ref, std::size_t lo, std::size_t hi,
                      double sum, std::uint64_t nvals);

/// One probe answer (value 0 when absent) against the multiplicity of the
/// probed coordinate in the acknowledged (`lo`) and sent (`hi`) prefixes.
std::string check_probe(const Reference& ref, std::size_t set, std::size_t i,
                        std::size_t lo, std::size_t hi, bool present,
                        double value);

/// Σ and epoch of successive answers on one connection never decrease.
class Monotone {
 public:
  std::string step(double sum, std::uint64_t epoch);

 private:
  double sum_ = -std::numeric_limits<double>::infinity();
  std::uint64_t epoch_ = 0;
};

/// Cascade invariants after an update: every bounded level holds at most
/// its cut, and entries folded never grow from one level to the next.
/// `level_entries` has one entry per level; `cuts` and `folded` one per
/// bounded level.
std::string check_levels(const std::vector<std::uint64_t>& level_entries,
                         const std::vector<std::uint64_t>& cuts,
                         const std::vector<std::uint64_t>& folded);

/// A stitched Σ/nvals against the per-worker answers it is made of.
std::string check_stitched(
    double sum, std::uint64_t nvals,
    const std::vector<std::pair<double, std::uint64_t>>& per_worker);

/// Full content: (key, value) entries read out of one or more matrices
/// whose union must equal the reference's final counts. Entries with the
/// same key (from different lanes) are added.
std::string check_content(
    const Reference& ref,
    std::vector<std::pair<std::uint64_t, double>> entries);

/// Collects check results; keeps the first few diagnostics. One per
/// thread; merge() after the thread is joined.
class Checker {
 public:
  void add(const std::string& diagnostic);
  void merge(const Checker& other);
  bool ok() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t checks() const { return checks_; }
  const std::vector<std::string>& first() const { return first_; }

 private:
  std::uint64_t checks_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<std::string> first_;
};

}  // namespace pb
