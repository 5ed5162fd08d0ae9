#include "core/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

namespace pb {

namespace {

struct Store {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> next_id{1};
  const Clock::time_point epoch = Clock::now();
  std::mutex mu;
  std::vector<SpanRecord> spans;  // guarded by mu
};

Store& store() {
  static Store s;
  return s;
}

thread_local std::uint64_t t_current = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              store().epoch)
      .count();
}

}  // namespace

namespace trace {

void enable(bool on) { store().on.store(on, std::memory_order_relaxed); }

bool enabled() { return store().on.load(std::memory_order_relaxed); }

std::map<std::string, SpanTotals> totals() {
  std::map<std::string, SpanTotals> out;
  std::lock_guard<std::mutex> lk(store().mu);
  for (const auto& r : store().spans) {
    auto& t = out[r.name];
    const double s = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    t.seconds += s;
    t.durations.push_back(s);
  }
  return out;
}

bool write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(store().mu);
  for (const auto& r : store().spans)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"items\":%llu}\n",
                 r.name, static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<unsigned long long>(r.items));
  return std::fclose(f) == 0;
}

}  // namespace trace

Span::Span(const char* name, std::uint64_t items) {
  if (!trace::enabled()) return;
  on_ = true;
  rec_.name = name;
  rec_.items = items;
  rec_.parent = t_current;
  rec_.id = store().next_id.fetch_add(1, std::memory_order_relaxed);
  saved_current_ = t_current;
  t_current = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = now_ns();
  t_current = saved_current_;
  std::lock_guard<std::mutex> lk(store().mu);
  store().spans.push_back(rec_);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace pb
