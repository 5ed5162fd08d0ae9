// perfbench self-tests: the generator, the reference and every check,
// proved with the benchmark's own code on tiny inputs (no program code,
// no stored output). Each check must pass on a faithful observation and
// fail on one made from a dropped batch, a duplicated batch, or a wrong
// expected value.
//
//   python3 perfbench/run.py --selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/checks.hpp"
#include "core/gen.hpp"
#include "core/reference.hpp"

namespace {

int g_failures = 0;
int g_checks = 0;

void expect(bool cond, const std::string& what) {
  ++g_checks;
  if (!cond) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool same(const pb::Stream& a, const pb::Stream& b) {
  if (a.nrows != b.nrows || a.batches.size() != b.batches.size()) return false;
  for (std::size_t k = 0; k < a.batches.size(); ++k) {
    if (a.batches[k].size() != b.batches[k].size()) return false;
    for (std::size_t i = 0; i < a.batches[k].size(); ++i)
      if (a.batches[k][i].row != b.batches[k][i].row ||
          a.batches[k][i].col != b.batches[k][i].col)
        return false;
  }
  return true;
}

/// Brute force: (key → count) of the first `prefix` batches.
std::map<std::uint64_t, std::uint64_t> counts(const pb::Stream& s,
                                              std::size_t prefix) {
  std::map<std::uint64_t, std::uint64_t> m;
  for (std::size_t b = 0; b < prefix && b < s.batches.size(); ++b)
    for (const auto& e : s.batches[b]) ++m[e.row * s.ncols + e.col];
  return m;
}

std::uint64_t total(const std::map<std::uint64_t, std::uint64_t>& m) {
  std::uint64_t n = 0;
  for (const auto& [k, c] : m) n += c;
  return n;
}

pb::Stream tiny_rmat(std::uint64_t seed) {
  pb::RmatParams p;
  p.scale = 4;
  p.batch_size = 30;
  p.batches = 6;
  return pb::rmat_stream(p, seed);
}

pb::Stream dropped(pb::Stream s, std::size_t b) {
  s.batches.erase(s.batches.begin() + static_cast<std::ptrdiff_t>(b));
  return s;
}

pb::Stream duplicated(pb::Stream s, std::size_t b) {
  s.batches.insert(s.batches.begin() + static_cast<std::ptrdiff_t>(b),
                   s.batches[b]);
  return s;
}

void test_generator() {
  expect(same(tiny_rmat(7), tiny_rmat(7)), "rmat: same seed, same stream");
  expect(!same(tiny_rmat(7), tiny_rmat(8)), "rmat: new seed, new stream");
  pb::HostPairParams hp;
  hp.bits = 5;
  hp.batch_size = 50;
  hp.batches = 4;
  expect(same(pb::hostpair_stream(hp, 3), pb::hostpair_stream(hp, 3)),
         "hostpair: same seed, same stream");
  expect(!same(pb::hostpair_stream(hp, 3), pb::hostpair_stream(hp, 4)),
         "hostpair: new seed, new stream");
  // Host ranks follow Zipf(alpha): the busiest host carries 1/H of the
  // endpoints (H = sum of r^-alpha) and the next one 2^-alpha of that.
  pb::HostPairParams zp;
  zp.batch_size = 100000;
  zp.batches = 2;
  std::map<std::uint32_t, double> hits;
  for (const auto& b : pb::hostpair_stream(zp, 5).batches)
    for (const auto& e : b) hits[e.row] += 1;
  std::vector<double> top;
  for (const auto& [h, n] : hits) top.push_back(n);
  std::sort(top.rbegin(), top.rend());
  double harmonic = 0;
  for (std::size_t r = 1; r <= (std::size_t{1} << zp.bits); ++r)
    harmonic += std::pow(static_cast<double>(r), -zp.alpha);
  const double draws = static_cast<double>(zp.batch_size * zp.batches);
  expect(std::fabs(top[0] / draws * harmonic - 1) < 0.03,
         "hostpair: busiest host share is 1/H");
  expect(std::fabs(top[1] / top[0] / std::pow(2.0, -zp.alpha) - 1) < 0.05,
         "hostpair: second host share is 2^-alpha of the first");
  const auto s = tiny_rmat(7);
  bool in_range = true;
  for (const auto& b : s.batches)
    for (const auto& e : b) in_range = in_range && e.row < 16 && e.col < 16;
  expect(in_range, "rmat: coordinates inside 2^scale");
  const auto p1 = pb::probe_sets(s, 3, 8, 11), p2 = pb::probe_sets(s, 3, 8, 11);
  bool probes_same = true;
  for (std::size_t k = 0; k < 3; ++k)
    for (std::size_t i = 0; i < 8; ++i)
      probes_same = probes_same && p1[k][i].row == p2[k][i].row &&
                    p1[k][i].col == p2[k][i].col;
  expect(probes_same, "probe sets: same seed, same probes");
  // The scramble is a bijection: every vertex id is reachable.
  pb::RmatParams p;
  p.scale = 3;
  p.batch_size = 4000;
  p.batches = 1;
  const auto wide = pb::rmat_stream(p, 5);
  std::vector<bool> seen(8, false);
  for (const auto& e : wide.batches[0]) seen[e.row] = true;
  bool all = true;
  for (bool v : seen) all = all && v;
  expect(all, "rmat: scrambled ids cover every vertex");
}

void test_reference() {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto s = tiny_rmat(seed);
    auto probes = pb::probe_sets(s, 4, 10, seed);
    probes[0].push_back(pb::Coord{15, 15});  // likely absent
    const pb::Reference ref(s, probes, true);
    for (std::size_t p = 0; p <= s.batches.size(); ++p) {
      const auto m = counts(s, p);
      expect(ref.entries(p) == total(m), "reference entries, prefix " +
                                             std::to_string(p));
      expect(ref.distinct(p) == m.size(), "reference distinct, prefix " +
                                              std::to_string(p));
      for (std::size_t k = 0; k < probes.size(); ++k)
        for (std::size_t i = 0; i < probes[k].size(); ++i) {
          const auto it = m.find(probes[k][i].row * s.ncols + probes[k][i].col);
          const std::uint64_t want = it == m.end() ? 0 : it->second;
          expect(ref.multiplicity(k, i, p) == want,
                 "reference multiplicity " + std::to_string(k) + "." +
                     std::to_string(i));
        }
    }
    const auto m = counts(s, s.batches.size());
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> want(m.begin(),
                                                                    m.end());
    expect(ref.final_counts() == want, "reference final counts");
  }
  // Probes of absent coordinates exist and read 0.
  pb::HostPairParams hp;
  hp.batches = 3;
  hp.batch_size = 200;
  const auto s = pb::hostpair_stream(hp, 9);
  const auto probes = pb::probe_sets(s, 2, 16, 9);
  const pb::Reference ref(s, probes, false);
  std::size_t absent = 0;
  for (std::size_t i = 0; i < 16; ++i)
    absent += ref.multiplicity(0, i, 3) == 0;
  expect(absent > 0, "probe sets include absent coordinates");
}

/// Contents of the first `prefix` batches as the program would report
/// them: (key, value) with value = multiplicity.
std::vector<std::pair<std::uint64_t, double>> observed(const pb::Stream& s,
                                                       std::size_t prefix) {
  std::vector<std::pair<std::uint64_t, double>> out;
  for (const auto& [k, c] : counts(s, prefix))
    out.emplace_back(k, static_cast<double>(c));
  return out;
}

void test_checks() {
  const auto s = tiny_rmat(21);
  const std::size_t nb = s.batches.size(), bad = 2;
  // Probe 0 of set 0 names an entry of the batch that will be dropped.
  std::vector<std::vector<pb::Coord>> probes = {{s.batches[bad][0]}};
  const pb::Reference ref(s, probes, true);
  const auto key = [&](const pb::Coord& c) { return c.row * s.ncols + c.col; };

  struct Variant {
    const char* name;
    pb::Stream stream;
  };
  const std::vector<Variant> corrupt = {{"dropped batch", dropped(s, bad)},
                                        {"duplicated batch", duplicated(s, bad)}};

  // check_sum: exact prefix, and a [lo, hi] window.
  {
    const auto m = counts(s, nb);
    expect(pb::check_sum(ref, nb, nb, static_cast<double>(total(m)), m.size())
               .empty(),
           "check_sum passes the faithful answer");
    expect(!pb::check_sum(ref, nb, nb, static_cast<double>(total(m)) + 1,
                          m.size())
                .empty(),
           "check_sum fails a wrong sum");
    expect(!pb::check_sum(ref, nb, nb, static_cast<double>(total(m)),
                          m.size() + 1)
                .empty(),
           "check_sum fails a wrong nvals");
    const auto mid = counts(s, 3);
    expect(pb::check_sum(ref, 2, 4, static_cast<double>(total(mid)),
                         mid.size())
               .empty(),
           "check_sum passes an answer inside the window");
    expect(!pb::check_sum(ref, 4, 5, static_cast<double>(total(mid)),
                          mid.size())
                .empty(),
           "check_sum fails an answer before the acknowledged prefix");
    for (const auto& v : corrupt) {
      const auto c = counts(v.stream, v.stream.batches.size());
      expect(!pb::check_sum(ref, nb, nb, static_cast<double>(total(c)),
                            c.size())
                  .empty(),
             std::string("check_sum fails a ") + v.name);
    }
  }
  // check_probe.
  {
    const auto m = counts(s, nb);
    const double want = static_cast<double>(m.at(key(probes[0][0])));
    expect(pb::check_probe(ref, 0, 0, nb, nb, true, want).empty(),
           "check_probe passes the faithful answer");
    expect(!pb::check_probe(ref, 0, 0, nb, nb, true, want + 1).empty(),
           "check_probe fails a wrong value");
    expect(!pb::check_probe(ref, 0, 0, nb, nb, false, 0).empty(),
           "check_probe fails a present coordinate reported absent");
    for (const auto& v : corrupt) {
      const auto c = counts(v.stream, v.stream.batches.size());
      const auto it = c.find(key(probes[0][0]));
      const bool present = it != c.end();
      expect(!pb::check_probe(ref, 0, 0, nb, nb, present,
                              present ? static_cast<double>(it->second) : 0)
                  .empty(),
             std::string("check_probe fails a ") + v.name);
    }
  }
  // Monotone.
  {
    pb::Monotone m;
    expect(m.step(5, 2).empty() && m.step(5, 2).empty() && m.step(7, 3).empty(),
           "monotone passes a non-decreasing series");
    expect(!m.step(6, 4).empty(), "monotone fails a decreasing sum");
    pb::Monotone e;
    e.step(1, 9);
    expect(!e.step(2, 8).empty(), "monotone fails a decreasing epoch");
  }
  // check_levels.
  {
    expect(pb::check_levels({10, 50, 300}, {16, 128}, {40, 20}).empty(),
           "check_levels passes a valid cascade");
    expect(!pb::check_levels({17, 50, 300}, {16, 128}, {40, 20}).empty(),
           "check_levels fails a level over its cut");
    expect(!pb::check_levels({10, 50, 300}, {16, 128}, {20, 40}).empty(),
           "check_levels fails folds growing up the hierarchy");
  }
  // check_stitched: two row-disjoint workers.
  {
    auto worker_totals = [&](const pb::Stream& st) {
      std::vector<std::pair<double, std::uint64_t>> w(2, {0.0, 0});
      for (const auto& [k, c] : counts(st, st.batches.size())) {
        auto& part = w[(k / st.ncols) % 2];
        part.first += static_cast<double>(c);
        ++part.second;
      }
      return w;
    };
    const auto m = counts(s, nb);
    const double sum = static_cast<double>(total(m));
    expect(pb::check_stitched(sum, m.size(), worker_totals(s)).empty(),
           "check_stitched passes the faithful answer");
    expect(!pb::check_stitched(sum + 1, m.size(), worker_totals(s)).empty(),
           "check_stitched fails a wrong stitched value");
    for (const auto& v : corrupt)
      expect(!pb::check_stitched(sum, m.size(), worker_totals(v.stream))
                  .empty(),
             std::string("check_stitched fails a worker with a ") + v.name);
  }
  // check_content.
  {
    expect(pb::check_content(ref, observed(s, nb)).empty(),
           "check_content passes the faithful contents");
    auto split = observed(s, nb);  // the same contents split over two lanes
    split.emplace_back(split.front().first, 0.0);
    expect(pb::check_content(ref, split).empty(),
           "check_content adds entries of one key from several lanes");
    auto wrong = observed(s, nb);
    wrong.back().second += 1;
    expect(!pb::check_content(ref, wrong).empty(),
           "check_content fails a wrong value");
    for (const auto& v : corrupt)
      expect(!pb::check_content(ref, observed(v.stream, v.stream.batches.size()))
                  .empty(),
             std::string("check_content fails a ") + v.name);
  }
  // check_equal.
  expect(pb::check_equal("x", 3, 3).empty() &&
             !pb::check_equal("x", 3, 4).empty(),
         "check_equal");
  // Checker counts and merges.
  {
    pb::Checker a, b;
    a.add("");
    b.add("boom");
    a.merge(b);
    expect(a.checks() == 2 && a.failures() == 1 && !a.ok() &&
               a.first().size() == 1,
           "checker counts and merges");
  }
}

}  // namespace

int main() {
  test_generator();
  test_reference();
  test_checks();
  std::printf("perfbench selftest: %d checks, %d failed\n", g_checks,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
