// perfbench/core/gen.hpp — the benchmark's own input generator.
//
// Every workload's input is made here from the run's --seed, so the
// program under test only ever receives finished batches: a change to
// the program's own generators (src/gen/) cannot change what is
// measured. Nothing in this file includes a program header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

/// One streamed entry; its value is always 1.
struct Coord {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
};

using Batch = std::vector<Coord>;

struct Stream {
  std::uint64_t nrows = 0;
  std::uint64_t ncols = 0;
  std::vector<Batch> batches;

  std::uint64_t entries() const;
};

/// splitmix64: a tiny, well-mixed, seedable generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Graph500-style R-MAT edges on 2^scale vertices, vertex ids scrambled
/// by a seed-dependent bijection of the `scale` low bits.
struct RmatParams {
  int scale = 17;
  double a = 0.57, b = 0.19, c = 0.19;
  std::size_t batch_size = 100000;
  std::size_t batches = 1;
};
Stream rmat_stream(const RmatParams& p, std::uint64_t seed);

/// Host-pair traffic on a 2^bits x 2^bits matrix: the traffic model of
/// the paper's Section III power-law stream, as the repository's own
/// generator (src/gen/power_law.hpp) defines it, written again here.
/// Both endpoints of every entry are drawn independently from
/// Zipf(alpha) over 2^bits hosts (host rank r, from 1, has weight
/// r^-alpha), and ranks are scrambled onto host ids, the same map for
/// sources and destinations. Duplicates arise as in repeated traffic
/// between the same hosts.
struct HostPairParams {
  int bits = 12;
  double alpha = 1.3;
  std::size_t batch_size = 10000;
  std::size_t batches = 1;
};
Stream hostpair_stream(const HostPairParams& p, std::uint64_t seed);

/// `sets` probe sets of `per_set` coordinates each: the first half of a
/// set is drawn from entries of the stream (any batch, so a probe made
/// early may name an entry not streamed yet), the second half uniformly
/// over the whole matrix (almost always absent).
std::vector<std::vector<Coord>> probe_sets(const Stream& s, std::size_t sets,
                                           std::size_t per_set,
                                           std::uint64_t seed);

}  // namespace pb
