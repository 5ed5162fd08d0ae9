#include "core/checks.hpp"

#include <algorithm>
#include <sstream>

namespace pb {

namespace {

template <class... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << args);
  return os.str();
}

}  // namespace

std::string check_equal(const char* what, double got, double want) {
  if (got != want) return cat(what, ": ", got, " != ", want);
  return {};
}

std::string check_sum(const Reference& ref, std::size_t lo, std::size_t hi,
                      double sum, std::uint64_t nvals) {
  const double slo = static_cast<double>(ref.entries(lo));
  const double shi = static_cast<double>(ref.entries(hi));
  if (sum < slo || sum > shi)
    return cat("sum ", sum, " outside [", slo, ", ", shi, "] for batches [",
               lo, ", ", hi, "]");
  if (nvals < ref.distinct(lo) || nvals > ref.distinct(hi))
    return cat("nvals ", nvals, " outside [", ref.distinct(lo), ", ",
               ref.distinct(hi), "] for batches [", lo, ", ", hi, "]");
  return {};
}

std::string check_probe(const Reference& ref, std::size_t set, std::size_t i,
                        std::size_t lo, std::size_t hi, bool present,
                        double value) {
  const double v = present ? value : 0.0;
  const auto mlo = static_cast<double>(ref.multiplicity(set, i, lo));
  const auto mhi = static_cast<double>(ref.multiplicity(set, i, hi));
  if (present && value == 0.0)
    return cat("probe ", set, ".", i, " present with value 0");
  if (v < mlo || v > mhi)
    return cat("probe ", set, ".", i, " = ", v, " outside [", mlo, ", ", mhi,
               "] for batches [", lo, ", ", hi, "]");
  return {};
}

std::string Monotone::step(double sum, std::uint64_t epoch) {
  std::string d;
  if (sum < sum_) d = cat("sum decreased from ", sum_, " to ", sum);
  else if (epoch < epoch_)
    d = cat("epoch decreased from ", epoch_, " to ", epoch);
  sum_ = std::max(sum_, sum);
  epoch_ = std::max(epoch_, epoch);
  return d;
}

std::string check_levels(const std::vector<std::uint64_t>& level_entries,
                         const std::vector<std::uint64_t>& cuts,
                         const std::vector<std::uint64_t>& folded) {
  if (cuts.size() + 1 != level_entries.size() || folded.size() != cuts.size())
    return cat("level shape: ", level_entries.size(), " levels, ",
               cuts.size(), " cuts, ", folded.size(), " fold counters");
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    if (level_entries[i] > cuts[i])
      return cat("level ", i, " holds ", level_entries[i], " > cut ",
                 cuts[i]);
    if (i > 0 && folded[i] > folded[i - 1])
      return cat("level ", i, " folded ", folded[i], " > level ", i - 1,
                 " folded ", folded[i - 1]);
  }
  return {};
}

std::string check_stitched(
    double sum, std::uint64_t nvals,
    const std::vector<std::pair<double, std::uint64_t>>& per_worker) {
  double s = 0;
  std::uint64_t n = 0;
  for (const auto& [ws, wn] : per_worker) {
    s += ws;
    n += wn;
  }
  if (s != sum || n != nvals)
    return cat("stitched (", sum, ", ", nvals, ") != per-worker total (", s,
               ", ", n, ")");
  return {};
}

std::string check_content(
    const Reference& ref,
    std::vector<std::pair<std::uint64_t, double>> entries) {
  std::sort(entries.begin(), entries.end());
  std::vector<std::pair<std::uint64_t, double>> merged;
  for (const auto& e : entries) {
    if (!merged.empty() && merged.back().first == e.first)
      merged.back().second += e.second;
    else
      merged.push_back(e);
  }
  const auto& want = ref.final_counts();
  if (merged.size() != want.size())
    return cat("content has ", merged.size(), " coordinates, want ",
               want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    if (merged[k].first != want[k].first ||
        merged[k].second != static_cast<double>(want[k].second))
      return cat("content entry ", k, ": key ", merged[k].first, " = ",
                 merged[k].second, ", want key ", want[k].first, " = ",
                 want[k].second);
  }
  return {};
}

void Checker::add(const std::string& diagnostic) {
  ++checks_;
  if (diagnostic.empty()) return;
  ++failures_;
  if (first_.size() < 8) first_.push_back(diagnostic);
}

void Checker::merge(const Checker& other) {
  checks_ += other.checks_;
  failures_ += other.failures_;
  for (const auto& d : other.first_)
    if (first_.size() < 8) first_.push_back(d);
}

}  // namespace pb
