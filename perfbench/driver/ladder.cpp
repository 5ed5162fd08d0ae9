// The layer ladder: the workload's batches through each layer in turn,
// with no queries, so adjacent rungs differ by one layer:
//
//   gbx fold → HierMatrix → ParallelStream lanes → IngestServer over
//   loopback → + WAL shipping to a replica → cluster::Router over
//   single-lane workers
//
// Spans around the benchmark's calls into each layer give the rung's
// time; the layers' own counters (HierStats, LaneCounters, ServerStats,
// ScratchPool, RouterStats, GovernorStats) give its counts. The HierMatrix
// rung also answers the workload's probe and Σ interleave in-process, on
// the ingest thread, so the query's parts are timed one by one.
#include <algorithm>
#include <exception>
#include <string>

#include "driver/inproc.hpp"
#include "driver/stacks.hpp"
#include "gbx/matrix.hpp"
#include "gbx/scratch.hpp"
#include "hier/hier_matrix.hpp"

namespace pb {

namespace {

double ns_per_entry(const std::map<std::string, SpanTotals>& t,
                    const char* name, std::uint64_t entries) {
  auto it = t.find(name);
  return it == t.end() || entries == 0
             ? 0
             : it->second.seconds * 1e9 / static_cast<double>(entries);
}

double median_ms(const std::map<std::string, SpanTotals>& t,
                 const char* name) {
  auto it = t.find(name);
  return it == t.end() ? 0 : quantile(it->second.durations, 0.5) * 1e3;
}

double total_s(const std::map<std::string, SpanTotals>& t, const char* name) {
  auto it = t.find(name);
  return it == t.end() ? 0 : it->second.seconds;
}

void gbx_rung(const Inputs& in, Outcome& out) {
  auto& pool = gbx::ScratchPool::local();
  {  // warm the calling thread's scratch pool with one full batch
    gbx::Matrix<double> m(in.nrows, in.ncols);
    m.append(in.batches.front());
    m.materialize();
  }
  const std::uint64_t grows0 = pool.grow_count();
  for (const auto& b : in.batches) {
    gbx::Matrix<double> m(in.nrows, in.ncols);
    Span s("gbx.fold", b.size());
    m.append(b);
    m.materialize();
  }
  out.layer["gbx.scratch_grows"] =
      static_cast<double>(pool.grow_count() - grows0);
}

void hier_rung(const Inputs& in, Outcome& out) {
  const Interleave& il = in.interleave;
  const QuerySpans spans{"hier.probe", "hier.reduce", "hier.nvals"};
  hier::HierMatrix<double> h(in.nrows, in.ncols, in.cuts);
  std::size_t probe_round = 0;
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    {
      Span s("hier.update", in.batches[b].size());
      h.update(in.batches[b]);
    }
    const std::size_t p = b + 1;
    if (!il.probe_due(p) && !il.sum_due(p)) continue;
    const auto due = Clock::now();
    Snapshot snap;
    {
      Span s("hier.freeze");
      snap = h.freeze();
    }
    if (il.probe_due(p))
      probe_snapshot(in, snap, probe_round++ % in.probes.size(), p, due,
                     spans, out.check);
    if (il.sum_due(p)) sum_snapshot(in, snap, p, due, spans, out.check);
  }
  const auto& st = h.stats();
  for (std::size_t k = 0; k + 1 < h.num_levels(); ++k) {
    const std::string lv = "hier.level" + std::to_string(k);
    out.layer[lv + ".folds"] = static_cast<double>(st.level[k].folds);
    out.layer[lv + ".fold_ratio"] = st.fold_ratio(k);
  }
}

void lanes_rung(const Inputs& in, Outcome& out) {
  hier::InstanceArray<double> array(in.lanes, in.nrows, in.ncols, in.cuts);
  hier::ParallelStream<double> ps(array);
  ps.start();
  {
    Span s("hier.lanes", in.entries);
    for (std::size_t b = 0; b < in.batches.size(); ++b) {
      gbx::Tuples<double> copy = in.batches[b];
      Span sub("hier.lanes.submit", copy.size());
      ps.submit(b % in.lanes, std::move(copy));
    }
    ps.drain();
  }
  const auto report = ps.stop();
  double lo = 0, hi = 0;
  for (std::size_t p = 0; p < report.lane.size(); ++p) {
    const double busy = report.lane[p].busy_seconds;
    lo = p == 0 ? busy : std::min(lo, busy);
    hi = std::max(hi, busy);
  }
  out.layer["hier.lane_busy_skew"] = lo > 0 ? hi / lo : 0;
  double sum = 0;
  for (std::size_t p = 0; p < array.size(); ++p)
    sum += array.instance(p).freeze().reduce();
  out.check.add(check_equal("lanes sum", sum, static_cast<double>(in.entries)));
}

/// Stream every batch through `c` (pinned to lanes when pin_lanes > 0)
/// and flush, inside one span named `stream`.
void stream_through(const Inputs& in, net::Client& c, std::size_t pin_lanes,
                    const char* stream, const char* insert,
                    const char* flush) {
  Span s(stream, in.entries);
  for (std::size_t b = 0; b < in.batches.size(); ++b) {
    Span sub(insert, in.batches[b].size());
    c.insert(in.batches[b], pin_lanes ? b % pin_lanes : net::kAnyLane);
  }
  Span f(flush);
  c.flush();
}

/// A quiesced Σ query, repeated; each answer must be the reference's.
void quiesced_sums(const Inputs& in, net::Client& c, const char* span,
                   Outcome& out) {
  const std::size_t nb = in.batches.size();
  for (int k = 0; k < 5; ++k) {
    net::SumReply r;
    {
      Span s(span);
      r = c.query_sum();
    }
    out.check.add(check_sum(*in.ref, nb, nb, r.sum, r.nvals));
  }
}

void net_rung(const Inputs& in, Outcome& out) {
  ServerStack st(in, in.lanes);
  st.serve();
  net::Client c;
  dial(c, st.port());
  stream_through(in, c, in.lanes, "net.stream", "net.insert", "net.flush");
  quiesced_sums(in, c, "net.sum_quiesced", out);
  c.bye();
  out.layer["net.parks"] =
      static_cast<double>(st.server().stats().parks.load());
  if (!out.layer.count("governor.peak_pinned_bytes")) {
    const auto g = st.governor().stats();
    out.layer["governor.peak_pinned_bytes"] =
        static_cast<double>(g.peak_pinned_bytes);
    out.layer["governor.evictions"] = static_cast<double>(g.evictions);
  }
}

void repl_rung(const Inputs& in, const RunConfig& cfg, Outcome& out) {
  ReplicatedStack rs(in, in.lanes, cfg.tmpdir);
  net::Client c;
  dial(c, rs.port());
  stream_through(in, c, in.lanes, "repl.stream", "repl.insert",
                 "repl.durable_flush");
  quiesced_sums(in, c, "repl.sum_quiesced", out);
  c.bye();
  rs.stop();
  out.layer["repl.wal_bytes_per_entry"] =
      static_cast<double>(rs.wal_bytes()) / static_cast<double>(in.entries);
  const auto& replica = rs.replica().array();
  if (!in.ref->final_counts().empty()) {
    out.check.add(check_content(*in.ref, contents(replica, *in.ref)));
  } else {
    double sum = 0;
    for (std::size_t p = 0; p < replica.size(); ++p)
      sum += replica.instance(p).freeze().reduce();
    out.check.add(
        check_equal("replica sum", sum, static_cast<double>(in.entries)));
  }
}

void cluster_rung(const Inputs& in, Outcome& out) {
  ClusterStack cs(in, in.lanes);
  net::Client c;
  dial(c, cs.port());
  stream_through(in, c, 0, "cluster.stream", "cluster.insert",
                 "cluster.flush");
  quiesced_sums(in, c, "cluster.stitched_sum", out);
  c.bye();
  out.check.add(check_stitched(
      static_cast<double>(in.entries),
      in.ref->distinct(in.batches.size()), cs.per_worker_sums()));
  if (!out.layer.count("cluster.stitched_freezes"))
    out.layer["cluster.stitched_freezes"] = static_cast<double>(
        cs.router().stats().stitched_freezes.load());
}

}  // namespace

void run_ladder(const Inputs& in, const RunConfig& cfg, Outcome& out) {
  gbx_rung(in, out);
  hier_rung(in, out);
  lanes_rung(in, out);
  net_rung(in, out);
  repl_rung(in, cfg, out);
  cluster_rung(in, out);

  const auto t = trace::totals();
  const std::uint64_t n = in.entries;
  out.layer["gbx.fold_ns_per_entry"] = ns_per_entry(t, "gbx.fold", n);
  out.layer["hier.update_ns_per_entry"] = ns_per_entry(t, "hier.update", n);
  out.layer["hier.freeze_ms"] = median_ms(t, "hier.freeze");
  out.layer["hier.reduce_ms"] = median_ms(t, "hier.reduce");
  out.layer["hier.nvals_ms"] = median_ms(t, "hier.nvals");
  out.layer["hier.probe_ms"] = median_ms(t, "hier.probe");
  out.layer["hier.lanes_ns_per_entry"] = ns_per_entry(t, "hier.lanes", n);
  out.layer["hier.submit_blocked_s"] = total_s(t, "hier.lanes.submit");
  out.layer["net.server_ns_per_entry"] = ns_per_entry(t, "net.stream", n);
  out.layer["net.insert_blocked_s"] = total_s(t, "net.insert");
  out.layer["net.flush_ms"] = median_ms(t, "net.flush");
  out.layer["net.sum_quiesced_ms"] = median_ms(t, "net.sum_quiesced");
  out.layer["repl.replicated_ns_per_entry"] = ns_per_entry(t, "repl.stream", n);
  out.layer["repl.durable_flush_ms"] = median_ms(t, "repl.durable_flush");
  out.layer["cluster.router_ns_per_entry"] =
      ns_per_entry(t, "cluster.stream", n);
  out.layer["cluster.stitched_sum_ms"] = median_ms(t, "cluster.stitched_sum");
}

}  // namespace pb
