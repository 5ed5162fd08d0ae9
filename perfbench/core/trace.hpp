// perfbench/core/trace.hpp — in-memory spans around calls into the program.
//
// A Span records (name, id, parent id, start, end, items) when tracing is
// on and costs one branch when it is off. Spans are kept in memory and
// written out once, at the end of a traced run. The parent is the span
// open on the same thread when this one started (0 for none).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;  ///< entries, probes, ... the span worked on
};

/// Totals of every span with one name.
struct SpanTotals {
  double seconds = 0;
  std::vector<double> durations;  ///< seconds, in end order
};

namespace trace {

void enable(bool on);
bool enabled();
std::map<std::string, SpanTotals> totals();
/// Write every span as one JSON object per line; false on I/O failure.
bool write(const std::string& path);

}  // namespace trace

class Span {
 public:
  explicit Span(const char* name, std::uint64_t items = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
  std::uint64_t saved_current_ = 0;
  SpanRecord rec_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);

}  // namespace pb
