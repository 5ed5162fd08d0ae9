#include <atomic>
#include <exception>
#include <string>

#include "driver/stacks.hpp"

namespace pb {

namespace {

struct SocketJob {
  bool sum = false;
  std::size_t set = 0;
  Clock::time_point due;
};

/// The query connection's loop: one job at a time, latency from due.
void answer_queries(const Inputs& in, net::Client& reader,
                    JobQueue<SocketJob>& jobs,
                    const std::atomic<std::size_t>& acked,
                    const std::atomic<std::size_t>& sent, Outcome& local) {
  Monotone sums, epochs;
  while (auto job = jobs.pop()) {
    // Everything acknowledged before the query is sent must be visible;
    // nothing the writer had not begun to send by the reply may be.
    const std::size_t lo = acked.load(std::memory_order_acquire);
    net::ReplyProvenance prov;
    try {
      if (job->sum) {
        net::SumReply r;
        {
          Span s("workload.sum");
          r = reader.query_sum(&prov);
        }
        local.sum_ms.push_back(seconds_between(job->due, Clock::now()) * 1e3);
        const std::size_t hi = sent.load(std::memory_order_acquire);
        local.check.add(check_sum(*in.ref, lo, hi, r.sum, r.nvals));
        local.check.add(sums.step(r.sum, prov.snapshot_epoch));
      } else {
        const auto& qs = in.probes[job->set];
        std::vector<net::ElementReply> rs;
        {
          Span s("workload.probe", qs.size());
          rs = reader.query_elements(qs, &prov);
        }
        local.probe_ms.push_back(seconds_between(job->due, Clock::now()) *
                                 1e3);
        const std::size_t hi = sent.load(std::memory_order_acquire);
        if (rs.size() != qs.size()) {
          local.check.add("probe reply count " + std::to_string(rs.size()) +
                          " != " + std::to_string(qs.size()));
          continue;
        }
        for (std::size_t i = 0; i < qs.size(); ++i)
          local.check.add(check_probe(*in.ref, job->set, i, lo, hi,
                                      rs[i].present != 0, rs[i].value));
      }
      local.check.add(epochs.step(0, prov.snapshot_epoch));
    } catch (const std::exception& e) {
      local.error(std::string(job->sum ? "sum query: " : "probe query: ") +
                  e.what());
    }
  }
}

}  // namespace

double stream_with_queries(const Inputs& in, net::Client& writer,
                           net::Client& reader, std::size_t pin_lanes,
                           const RunConfig& cfg, Outcome& out) {
  const Interleave& il = in.interleave;
  const std::size_t nb = in.batches.size();
  std::atomic<std::size_t> acked{0}, sent{0};
  Outcome local;
  QueryThread<SocketJob> queries([&](JobQueue<SocketJob>& q) {
    answer_queries(in, reader, q, acked, sent, local);
  });

  std::size_t probe_round = 0, inserted = 0, barriers = 0;
  double seconds = 0;
  try {
    mark_first_batch(cfg, out);
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < nb; ++b) {
      sent.store(b + 1, std::memory_order_release);
      {
        Span s("workload.insert", in.batches[b].size());
        writer.insert(in.batches[b],
                      pin_lanes ? b % pin_lanes : net::kAnyLane);
      }
      ++inserted;
      const auto now = Clock::now();
      if (il.probe_due(b + 1))
        queries.push(SocketJob{false, probe_round++ % in.probes.size(), now});
      if (il.sum_due(b + 1)) queries.push(SocketJob{true, 0, now});
      if (il.flush_every && (b + 1) % il.flush_every == 0 && b + 1 < nb) {
        Span s("workload.flush");
        writer.flush();
        acked.store(b + 1, std::memory_order_release);
      }
    }
    {
      Span s("workload.flush");
      writer.flush();
    }
    seconds = seconds_between(t0, Clock::now());
    ++barriers;
    acked.store(nb, std::memory_order_release);
  } catch (const std::exception& e) {
    out.error(std::string("insert stream: ") + e.what());
  }
  queries.finish();

  // A round always attempts the same operations: every batch, every
  // query due by the interleave, and the final barrier. Whatever did not
  // complete failed.
  const std::size_t planned = il.planned(nb) + 1;
  out.attempted += planned;
  out.failed += planned - inserted - barriers - local.probe_ms.size() -
                local.sum_ms.size();
  merge_queries(local, out);
  return seconds;
}

std::vector<std::pair<std::uint64_t, double>> contents(
    const hier::InstanceArray<double>& lanes, const Reference& ref) {
  std::vector<std::pair<std::uint64_t, double>> out;
  for (std::size_t p = 0; p < lanes.size(); ++p)
    lanes.instance(p).freeze().to_matrix().for_each(
        [&](gbx::Index i, gbx::Index j, double v) {
          out.emplace_back(ref.key(i, j), v);
        });
  return out;
}

}  // namespace pb
