// kron17_inproc: the paper's single-instance shape. One HierMatrix takes
// scrambled scale-17 R-MAT batches on this thread; probe sets and Σ
// queries are answered from frozen snapshots on a query thread.
#include <exception>
#include <string>

#include "driver/inproc.hpp"

namespace pb {

namespace {

struct InprocJob {
  bool sum = false;
  std::size_t set = 0;
  std::size_t prefix = 0;  ///< batches the snapshot holds, exactly
  Clock::time_point due;
  Snapshot snap;
};

const QuerySpans kSpans{"workload.probe", "workload.reduce", "workload.nvals"};

void answer_queries(const Inputs& in, JobQueue<InprocJob>& jobs,
                    Outcome& local) {
  Monotone sums;
  while (auto job = jobs.pop()) {
    try {
      if (job->sum)
        local.sum_ms.push_back(sum_snapshot(in, job->snap, job->prefix,
                                            job->due, kSpans, local.check,
                                            &sums));
      else
        local.probe_ms.push_back(probe_snapshot(in, job->snap, job->set,
                                                job->prefix, job->due, kSpans,
                                                local.check));
    } catch (const std::exception& e) {
      local.error(std::string(job->sum ? "sum query: " : "probe query: ") +
                  e.what());
    }
  }
}

std::string level_invariants(const hier::HierMatrix<double>& h) {
  std::vector<std::uint64_t> entries, cuts, folded;
  for (std::size_t i = 0; i < h.num_levels(); ++i)
    entries.push_back(h.level_entries(i));
  for (std::size_t i = 0; i + 1 < h.num_levels(); ++i) {
    cuts.push_back(h.cut_policy().cut(i));
    folded.push_back(h.stats().level[i].entries_folded);
  }
  return check_levels(entries, cuts, folded);
}

}  // namespace

void kron17_inproc_round(const Inputs& in, const RunConfig& cfg,
                         Outcome& out) {
  const Interleave& il = in.interleave;
  const std::size_t nb = in.batches.size();
  hier::HierMatrix<double> h(in.nrows, in.ncols, in.cuts);
  // Probes and Σ queries each have their own thread, so a probe never
  // waits behind a Σ over the whole state.
  Outcome probe_out, sum_out;
  QueryThread<InprocJob> probes(
      [&](JobQueue<InprocJob>& q) { answer_queries(in, q, probe_out); });
  QueryThread<InprocJob> sums(
      [&](JobQueue<InprocJob>& q) { answer_queries(in, q, sum_out); });

  std::size_t probe_round = 0, updated = 0;
  try {
    mark_first_batch(cfg, out);
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < nb; ++b) {
      {
        Span s("workload.update", in.batches[b].size());
        h.update(in.batches[b]);
      }
      ++updated;
      out.check.add(level_invariants(h));
      const std::size_t p = b + 1;
      if (!il.probe_due(p) && !il.sum_due(p)) continue;
      const auto due = Clock::now();
      Snapshot snap;
      {
        Span s("workload.freeze");
        snap = h.freeze();
      }
      if (il.probe_due(p))
        probes.push(
            InprocJob{false, probe_round++ % in.probes.size(), p, due, snap});
      if (il.sum_due(p)) sums.push(InprocJob{true, 0, p, due, std::move(snap)});
    }
    out.ingest_rate.push_back(static_cast<double>(in.entries) /
                              seconds_between(t0, Clock::now()));
  } catch (const std::exception& e) {
    out.error(std::string("update stream: ") + e.what());
  }
  probes.finish();
  sums.finish();

  const std::size_t planned = il.planned(nb);
  out.attempted += planned;
  out.failed += planned - updated - probe_out.probe_ms.size() -
                sum_out.sum_ms.size();
  merge_queries(probe_out, out);
  merge_queries(sum_out, out);
  out.state_bytes_per_entry.push_back(
      static_cast<double>(h.memory_bytes()) /
      static_cast<double>(in.ref->distinct(nb)));
}

}  // namespace pb
