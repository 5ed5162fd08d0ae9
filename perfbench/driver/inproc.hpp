// perfbench/driver/inproc.hpp — the in-process query interleave: one
// HierMatrix snapshot answers a probe set or a Σ query, and every answer
// is checked. kron17_inproc answers them on query threads, the ladder's
// HierMatrix rung on the ingest thread; both use these.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "driver/common.hpp"
#include "hier/hier_matrix.hpp"

namespace pb {

using Snapshot = hier::HierSnapshot<double>;

/// Span names of one in-process query's parts.
struct QuerySpans {
  const char* probe;
  const char* reduce;
  const char* nvals;
};

/// Answer probe set `set` from `snap`, which holds exactly the first
/// `prefix` batches, and check every answer. Returns the milliseconds
/// from `due` until the answers were in (before the checks).
inline double probe_snapshot(const Inputs& in, const Snapshot& snap,
                             std::size_t set, std::size_t prefix,
                             Clock::time_point due, const QuerySpans& spans,
                             Checker& check) {
  const auto& qs = in.probes[set];
  std::vector<std::optional<double>> vs(qs.size());
  {
    Span s(spans.probe, qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i)
      vs[i] = snap.extract_element(qs[i].row, qs[i].col);
  }
  const double ms = seconds_between(due, Clock::now()) * 1e3;
  for (std::size_t i = 0; i < qs.size(); ++i)
    check.add(check_probe(*in.ref, set, i, prefix, prefix,
                          vs[i].has_value(), vs[i].value_or(0)));
  return ms;
}

/// Σ Ai and nvals of `snap` (exactly the first `prefix` batches),
/// checked against the reference and, when `order` is given, for never
/// decreasing along the caller's sequence of snapshots. Returns the
/// milliseconds from `due` until both were in.
inline double sum_snapshot(const Inputs& in, const Snapshot& snap,
                           std::size_t prefix, Clock::time_point due,
                           const QuerySpans& spans, Checker& check,
                           Monotone* order = nullptr) {
  double sum = 0;
  std::uint64_t nvals = 0;
  {
    Span s(spans.reduce);
    sum = snap.reduce();
  }
  {
    Span s(spans.nvals);
    nvals = snap.nvals();
  }
  const double ms = seconds_between(due, Clock::now()) * 1e3;
  check.add(check_sum(*in.ref, prefix, prefix, sum, nvals));
  if (order) check.add(order->step(sum, snap.epoch()));
  return ms;
}

}  // namespace pb
