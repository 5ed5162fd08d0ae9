// router_query_mix: one client streams scale-17 R-MAT batches into a
// cluster::Router over single-lane worker stacks while a second
// connection probes and sums through the router (epoch-stitched reads).
#include <exception>
#include <string>

#include "driver/stacks.hpp"

namespace pb {

void router_query_mix_round(const Inputs& in, const RunConfig& cfg,
                            Outcome& out) {
  const std::size_t nb = in.batches.size();
  ClusterStack cs(in, in.lanes);
  net::Client writer, reader;
  dial(writer, cs.port());
  dial(reader, cs.port());
  const double secs = stream_with_queries(in, writer, reader, 0, cfg, out);
  if (secs > 0)
    out.ingest_rate.push_back(static_cast<double>(in.entries) / secs);

  try {
    const net::SumReply st = reader.query_sum();
    out.check.add(check_sum(*in.ref, nb, nb, st.sum, st.nvals));
    out.check.add(check_stitched(st.sum, st.nvals, cs.per_worker_sums()));
    writer.bye();
    reader.bye();
  } catch (const std::exception& e) {
    out.check.add(std::string("final stitched read: ") + e.what());
  }
  out.layer["cluster.stitched_freezes"] = static_cast<double>(
      cs.router().stats().stitched_freezes.load());
  double pinned = 0, evictions = 0;
  for (std::size_t w = 0; w < cs.size(); ++w) {
    const auto g = cs.worker(w).governor().stats();
    pinned += static_cast<double>(g.peak_pinned_bytes);
    evictions += static_cast<double>(g.evictions);
  }
  out.layer["governor.peak_pinned_bytes"] = pinned;
  out.layer["governor.evictions"] = evictions;
  cs.stop();
  out.state_bytes_per_entry.push_back(
      static_cast<double>(cs.memory_bytes()) /
      static_cast<double>(in.ref->distinct(nb)));
}

}  // namespace pb
