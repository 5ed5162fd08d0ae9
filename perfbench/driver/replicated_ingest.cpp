// replicated_ingest: one client streams small host-pair batches into a
// 2-lane IngestServer that ships every batch to an in-process replica;
// a second connection probes and sums the primary meanwhile.
#include <exception>
#include <string>

#include "driver/stacks.hpp"

namespace pb {

void replicated_ingest_round(const Inputs& in, const RunConfig& cfg,
                             Outcome& out) {
  const std::size_t nb = in.batches.size();
  ReplicatedStack rs(in, in.lanes, cfg.tmpdir);
  net::Client writer, reader;
  dial(writer, rs.port());
  dial(reader, rs.port());
  const double secs =
      stream_with_queries(in, writer, reader, in.lanes, cfg, out);
  if (secs > 0)
    out.ingest_rate.push_back(static_cast<double>(in.entries) / secs);

  double primary_sum = -1;
  try {
    const net::SumReply r = reader.query_sum();
    primary_sum = r.sum;
    out.check.add(check_sum(*in.ref, nb, nb, r.sum, r.nvals));
    writer.bye();
    reader.bye();
  } catch (const std::exception& e) {
    out.check.add(std::string("final primary read: ") + e.what());
  }
  const auto g = rs.primary().governor().stats();
  out.layer["governor.peak_pinned_bytes"] =
      static_cast<double>(g.peak_pinned_bytes);
  out.layer["governor.evictions"] = static_cast<double>(g.evictions);
  rs.stop();

  // The replica holds exactly what the primary acknowledged: the same
  // Σ, the same coordinates and values, and both match the reference.
  const auto& replica = rs.replica().array();
  double replica_sum = 0;
  for (std::size_t p = 0; p < replica.size(); ++p)
    replica_sum += replica.instance(p).freeze().reduce();
  out.check.add(check_equal("replica sum vs primary", replica_sum,
                            primary_sum));
  out.check.add(check_content(*in.ref, contents(replica, *in.ref)));
  out.check.add(
      check_content(*in.ref, contents(rs.primary().array(), *in.ref)));
  out.state_bytes_per_entry.push_back(
      static_cast<double>(rs.primary().memory_bytes() +
                          replica.memory_bytes()) /
      static_cast<double>(in.ref->distinct(nb)));
}

}  // namespace pb
