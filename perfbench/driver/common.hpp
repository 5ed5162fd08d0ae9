// perfbench/driver/common.hpp — what every workload of the driver shares.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checks.hpp"
#include "core/gen.hpp"
#include "core/reference.hpp"
#include "core/trace.hpp"
#include "gbx/coo.hpp"
#include "hier/cut_policy.hpp"
#include "net/protocol.hpp"

namespace pb {

/// The closed query interleave, tied to ingest progress rather than to
/// the clock: a probe set is due after every `probe_every` batches, a Σ
/// query after every `sum_every`, and a socket writer flushes after every
/// `flush_every` (0: only the final barrier).
struct Interleave {
  std::size_t probe_every = 1;
  std::size_t sum_every = 1;
  std::size_t flush_every = 0;

  bool probe_due(std::size_t prefix) const {
    return prefix % probe_every == 0;
  }
  bool sum_due(std::size_t prefix) const { return prefix % sum_every == 0; }
  /// Insert batches, probe sets and Σ queries planned for `batches`
  /// batches.
  std::size_t planned(std::size_t batches) const {
    return batches + batches / probe_every + batches / sum_every;
  }
};

/// One workload's generated inputs: the batches the program receives,
/// the probe sets, and the independent answer key.
struct Inputs {
  gbx::Index nrows = 0;
  gbx::Index ncols = 0;
  std::vector<gbx::Tuples<double>> batches;
  std::vector<std::vector<net::ElementQuery>> probes;
  std::unique_ptr<Reference> ref;
  Interleave interleave;
  /// Cuts 2^17, 2^20, 2^23: level 1 holds a 100,000-entry batch.
  hier::CutPolicy cuts = hier::CutPolicy::geometric(4, 1u << 17, 8);
  std::size_t lanes = 2;  ///< lanes / workers of the socket stacks
  std::uint64_t entries = 0;
};

struct RunConfig {
  double seconds = 1;
  Clock::time_point process_start;
  /// Input generation and reference time, left out of setup_s.
  double excluded_s = 0;
  /// Per-run scratch directory (WAL files); removed at exit.
  std::string tmpdir;
};

/// What one run measured, filled round by round.
struct Outcome {
  Checker check;
  std::uint64_t attempted = 0;  ///< whole rounds' planned operations
  std::uint64_t failed = 0;     ///< planned operations that did not complete
  std::vector<std::string> errors;  ///< first few failed operations
  std::size_t rounds = 0;
  Clock::time_point round_start;  ///< set before each round
  double setup_s = 0;
  std::vector<double> stack_ms;  ///< stack build time, one per round
  std::vector<double> ingest_rate;  ///< entries/s, one per round
  std::vector<double> probe_ms;     ///< one per probe set
  std::vector<double> sum_ms;       ///< one per Σ query
  std::vector<double> state_bytes_per_entry;  ///< one per round
  std::map<std::string, double> layer;  ///< per-layer metrics

  void error(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Called at a round's first timed batch: records the round's stack
/// build time, and setup_s in the first round.
void mark_first_batch(const RunConfig& cfg, Outcome& out);

/// Blocking FIFO handing query jobs from the ingest side to the query
/// thread; close() ends the consumer's loop once the queue is drained.
template <class Job>
class JobQueue {
 public:
  void push(Job job) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      q_.push_back(std::move(job));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  std::optional<Job> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return std::nullopt;
    Job j = std::move(q_.front());
    q_.pop_front();
    return j;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> q_;
  bool closed_ = false;
};

/// A thread answering the jobs pushed to its own queue, one at a time;
/// finish() (or destruction) closes the queue and joins the thread.
template <class Job>
class QueryThread {
 public:
  /// `answer(queue)` runs on the thread until the queue is closed and
  /// drained.
  template <class F>
  explicit QueryThread(F answer)
      : t_([this, answer]() mutable { answer(q_); }) {}
  ~QueryThread() { finish(); }
  QueryThread(const QueryThread&) = delete;
  QueryThread& operator=(const QueryThread&) = delete;

  void push(Job job) { q_.push(std::move(job)); }
  void finish() {
    q_.close();
    if (t_.joinable()) t_.join();
  }

 private:
  JobQueue<Job> q_;
  std::thread t_;  // after q_: the thread uses it
};

/// Fold what a query thread measured into the run's outcome.
void merge_queries(const Outcome& local, Outcome& out);

/// One round of each workload: a fresh stack, every batch, the due
/// queries, the round's checks.
void kron17_inproc_round(const Inputs& in, const RunConfig& cfg, Outcome& out);
void router_query_mix_round(const Inputs& in, const RunConfig& cfg,
                            Outcome& out);
void replicated_ingest_round(const Inputs& in, const RunConfig& cfg,
                             Outcome& out);
/// The layer ladder (traced runs only): the same batches through every
/// rung in turn, filling out.layer.
void run_ladder(const Inputs& in, const RunConfig& cfg, Outcome& out);

}  // namespace pb
