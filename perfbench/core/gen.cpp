#include "core/gen.hpp"

#include <algorithm>
#include <cmath>

namespace pb {

std::uint64_t Stream::entries() const {
  std::uint64_t n = 0;
  for (const auto& b : batches) n += b.size();
  return n;
}

namespace {

/// A bijection of the low `bits` bits, drawn from `rng`: odd multiplies
/// and xor-shifts, each invertible modulo 2^bits.
class Scramble {
 public:
  Scramble(int bits, Rng& rng)
      : mask_((std::uint64_t{1} << bits) - 1),
        shift_(static_cast<unsigned>(bits / 2 + 1)),
        m1_(rng.next() | 1),
        m2_(rng.next() | 1) {}

  std::uint32_t operator()(std::uint64_t x) const {
    x = (x * m1_) & mask_;
    x ^= x >> shift_;
    x = (x * m2_) & mask_;
    x ^= x >> shift_;
    return static_cast<std::uint32_t>(x);
  }

 private:
  std::uint64_t mask_;
  unsigned shift_;
  std::uint64_t m1_, m2_;
};

}  // namespace

Stream rmat_stream(const RmatParams& p, std::uint64_t seed) {
  Rng rng(seed ^ 0x52AD5EEDull);
  const Scramble perm(p.scale, rng);
  // Quadrant thresholds on a 32-bit draw: two levels per 64-bit number.
  const auto t = [](double x) {
    return static_cast<std::uint32_t>(x * 4294967296.0);
  };
  const std::uint32_t ta = t(p.a), tab = t(p.a + p.b),
                      tabc = t(p.a + p.b + p.c);
  Stream s;
  s.nrows = s.ncols = std::uint64_t{1} << p.scale;
  s.batches.resize(p.batches);
  for (auto& batch : s.batches) {
    batch.resize(p.batch_size);
    for (auto& e : batch) {
      std::uint64_t i = 0, j = 0, r = 0;
      for (int level = 0; level < p.scale; ++level) {
        if ((level & 1) == 0) r = rng.next();
        const auto u = static_cast<std::uint32_t>(r >> (32 * (level & 1)));
        // Quadrants A (0,0) | B (0,1) | C (1,0) | D (1,1), branch-free.
        i = (i << 1) | static_cast<std::uint64_t>(u >= tab);
        j = (j << 1) | static_cast<std::uint64_t>((u >= ta && u < tab) ||
                                                  u >= tabc);
      }
      e = Coord{perm(i), perm(j)};
    }
  }
  return s;
}

Stream hostpair_stream(const HostPairParams& p, std::uint64_t seed) {
  Rng rng(seed ^ 0x4057DA11ull);
  const Scramble perm(p.bits, rng);
  // Inverse-CDF sampling of the rank: the first cumulative weight above
  // a uniform draw over the total.
  const std::size_t hosts = std::size_t{1} << p.bits;
  std::vector<double> cdf(hosts);
  double total = 0;
  for (std::size_t r = 0; r < hosts; ++r)
    cdf[r] = total += std::pow(static_cast<double>(r + 1), -p.alpha);
  const auto host = [&] {
    const auto r = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), rng.uniform() * total) -
        cdf.begin());
    return perm(std::min(r, hosts - 1));
  };
  Stream s;
  s.nrows = s.ncols = std::uint64_t{1} << p.bits;
  s.batches.resize(p.batches);
  for (auto& batch : s.batches) {
    batch.resize(p.batch_size);
    for (auto& e : batch) {
      const std::uint32_t src = host();
      e = Coord{src, host()};
    }
  }
  return s;
}

std::vector<std::vector<Coord>> probe_sets(const Stream& s, std::size_t sets,
                                           std::size_t per_set,
                                           std::uint64_t seed) {
  Rng rng(seed ^ 0x9120BE5ull);
  std::vector<std::vector<Coord>> out(sets);
  for (auto& set : out) {
    set.reserve(per_set);
    for (std::size_t k = 0; k < per_set; ++k) {
      if (k < per_set / 2 && !s.batches.empty()) {
        const auto& b = s.batches[rng.below(s.batches.size())];
        set.push_back(b[rng.below(b.size())]);
      } else {
        set.push_back(Coord{static_cast<std::uint32_t>(rng.below(s.nrows)),
                            static_cast<std::uint32_t>(rng.below(s.ncols))});
      }
    }
  }
  return out;
}

}  // namespace pb
