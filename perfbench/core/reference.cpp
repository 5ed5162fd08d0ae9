#include "core/reference.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

namespace pb {

namespace {

/// LSD radix sort of the low `bits` bits, 11 bits per pass.
void radix_sort(std::vector<std::uint64_t>& v, unsigned bits) {
  constexpr unsigned kDigit = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigit;
  std::vector<std::uint64_t> tmp(v.size());
  for (unsigned shift = 0; shift < bits; shift += kDigit) {
    std::vector<std::size_t> pos(kBuckets + 1, 0);
    for (const std::uint64_t x : v) ++pos[((x >> shift) & (kBuckets - 1)) + 1];
    for (std::size_t b = 0; b < kBuckets; ++b) pos[b + 1] += pos[b];
    for (const std::uint64_t x : v) tmp[pos[(x >> shift) & (kBuckets - 1)]++] = x;
    v.swap(tmp);
  }
}

}  // namespace

Reference::Reference(const Stream& s,
                     const std::vector<std::vector<Coord>>& probes,
                     bool want_final)
    : ncols_(s.ncols) {
  const std::size_t nb = s.batches.size();
  // Sort (key << batch_bits | batch): each key's run is in batch order,
  // so its first element names the batch that made it distinct.
  const unsigned batch_bits = static_cast<unsigned>(std::bit_width(nb));
  const unsigned key_bits =
      static_cast<unsigned>(std::bit_width(s.nrows * s.ncols - 1));
  if (key_bits + batch_bits > 64)
    throw std::invalid_argument("reference: key space too large");
  std::vector<std::uint64_t> tagged;
  tagged.reserve(s.entries());
  entries_.assign(nb + 1, 0);
  for (std::size_t b = 0; b < nb; ++b) {
    entries_[b + 1] = entries_[b] + s.batches[b].size();
    for (const auto& e : s.batches[b])
      tagged.push_back((key(e.row, e.col) << batch_bits) | b);
  }
  radix_sort(tagged, key_bits + batch_bits);

  const std::uint64_t batch_mask = (std::uint64_t{1} << batch_bits) - 1;
  std::vector<std::uint64_t> fresh(nb, 0);
  for (std::size_t k = 0; k < tagged.size();) {
    const std::uint64_t kk = tagged[k] >> batch_bits;
    ++fresh[tagged[k] & batch_mask];
    std::size_t end = k + 1;
    while (end < tagged.size() && (tagged[end] >> batch_bits) == kk) ++end;
    if (want_final) final_.emplace_back(kk, end - k);
    k = end;
  }
  distinct_.assign(nb + 1, 0);
  for (std::size_t b = 0; b < nb; ++b)
    distinct_[b + 1] = distinct_[b] + fresh[b];

  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  probe_slot_.resize(probes.size());
  for (std::size_t p = 0; p < probes.size(); ++p) {
    for (const auto& c : probes[p]) {
      const std::uint64_t kk = key(c.row, c.col);
      auto [it, fresh_key] = slot_of.emplace(kk, counts_.size());
      if (fresh_key) {
        std::vector<std::uint32_t> cum(nb + 1, 0);
        auto lo = std::lower_bound(tagged.begin(), tagged.end(),
                                   kk << batch_bits);
        for (; lo != tagged.end() && (*lo >> batch_bits) == kk; ++lo)
          ++cum[(*lo & batch_mask) + 1];
        for (std::size_t b = 0; b < nb; ++b) cum[b + 1] += cum[b];
        counts_.push_back(std::move(cum));
      }
      probe_slot_[p].push_back(it->second);
    }
  }
}

std::uint64_t Reference::multiplicity(std::size_t set, std::size_t i,
                                      std::size_t prefix) const {
  return counts_[probe_slot_[set][i]][prefix];
}

}  // namespace pb
