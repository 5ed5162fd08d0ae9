// cluster/router.hpp — N-primary router: one process front end over N
// worker IngestServer processes (Linux only).
//
// The router speaks the net/protocol.hpp frame protocol on BOTH sides:
// clients connect to it exactly as they would to a single IngestServer,
// and it holds one upstream net::Client connection per worker process.
// Inserts are fanned out by the shared row-hash partition
// (hier/partition.hpp — the same function ShardedHier uses), so a
// multi-process cluster places every coordinate on the worker that a
// single-process ShardedHier with the same part count would place it
// in. Workers are therefore row-DISJOINT, which is what makes stitched
// reads exact: an element probe has exactly one owner, nvals adds, and
// Σ Ai folds part-major in the canonical order.
//
// Concurrency design — one thread. The router is a handler of
// net::FrameService (net/frame_service.hpp): its single event-loop
// thread serves every client session, one frame per session per turn,
// and talks to the workers through blocking net::Client calls on that
// same thread.
//
//   * An insert splits its batch by part and forwards every non-empty
//     sub-batch before the loop dispatches anything else, so no
//     stitched query can observe half a client batch — the whole-batch
//     atomicity rule of ShardedHier::update, across processes, by
//     construction.
//
//   * Every query is an epoch-stitched distributed snapshot: drive a
//     flush barrier through every worker ("admitted" == "applied" on
//     every worker), collect one revision-2 provenance epoch per
//     worker, answer from that cut. The per-worker epoch vector travels
//     back to the client as the reply's provenance trailer, so a
//     stitched answer is auditable. A query waits behind at most one
//     in-flight insert frame of each other session.
//
//   * The trade-off of one thread: a worker that hangs stalls EVERY
//     router session until worker_recv_timeout_ms runs out, not only the
//     sessions that touch that worker. The worker is then marked dead.
//
//   * Partial failure is LOUD. Any worker I/O error (EPIPE after a
//     SIGKILL, recv timeout on a hang, EOF on a crash) marks that
//     worker dead; the triggering request gets kReplyError, every
//     later stitched query gets kReplyError, and inserts routed to the
//     dead worker close their session with kReplyError. The router
//     never answers from a subset of workers — no silent partial sums.
//
//   * Placement hints double as the redirect primitive: a client that
//     pins an explicit worker index on kInsert asserts its map; if the
//     current map disagrees (membership changed), the router replies
//     kReplyError naming the current version and the client re-fetches
//     kQueryMap. kAnyLane routes by hash and never redirects.
#pragma once

#ifdef __linux__

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/thread_annotations.hpp"
#include "cluster/partition_map.hpp"
#include "net/client.hpp"
#include "net/frame_service.hpp"
#include "net/protocol.hpp"

namespace cluster {

/// Monotone router counters (relaxed atomics; readable from any thread).
struct RouterStats : net::FrameStats {
  std::atomic<std::uint64_t> batches_routed{0};     ///< client batches split
  std::atomic<std::uint64_t> subbatches_forwarded{0};
  std::atomic<std::uint64_t> entries_routed{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> stitched_freezes{0};
  std::atomic<std::uint64_t> worker_failures{0};
  std::atomic<std::uint64_t> redirects{0};  ///< stale-map placement hints
};

class Router {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
    /// Matrix dimensions (insert validation happens HERE: a bad
    /// coordinate must never reach a worker, where the resulting
    /// kReplyError would poison the router's shared connection).
    gbx::Index nrows = 0;
    gbx::Index ncols = 0;
    /// Worker-side failure detection: a worker that stays silent this
    /// long mid-RPC is declared dead (→ loud errors, never a hang).
    int worker_recv_timeout_ms = 10000;
  };

  // No `opt = {}` default argument: GCC parses default arguments before
  // nested-class member initializers (same workaround as IngestServer).
  explicit Router(PartitionMap map) : Router(std::move(map), Options()) {}
  Router(PartitionMap map, Options opt)
      : service_(*this, stats_), map_(std::move(map)), opt_(opt) {
    GBX_CHECK_VALUE(opt_.nrows > 0 && opt_.ncols > 0,
                    "router needs matrix dimensions for insert validation");
  }

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  ~Router() {
    if (running()) stop();
  }

  /// Dial every worker, then bind, listen and spawn the loop.
  void start() {
    GBX_CHECK(!running(), "Router already started");
    {
      // The loop thread does not exist yet: this thread holds its role.
      gbx::ScopedThreadRole role(service_.loop_role);
      workers_.clear();
      net::Client::Options copt;
      copt.recv_timeout_ms = opt_.worker_recv_timeout_ms;
      // Workers may still be binding when the router dials them.
      copt.connect_attempts = kWorkerConnectAttempts;
      copt.connect_backoff_ms = kWorkerConnectBackoffMs;
      for (std::size_t w = 0; w < map_.parts(); ++w) {
        workers_.push_back(Worker{net::Client(copt), false});
        workers_.back().cli.connect(map_.worker(w).host, map_.worker(w).port);
      }
    }
    service_.start(opt_.port);
  }

  /// Join the loop, close every client socket (in-flight sessions see
  /// EOF), then say an orderly bye to every live worker.
  void stop() {
    service_.stop();
    // join() handed the loop thread's role to this thread.
    gbx::ScopedThreadRole role(service_.loop_role);
    for (auto& wk : workers_) {
      if (!wk.dead && wk.cli.connected()) {
        try {
          wk.cli.bye();
        } catch (const gbx::Error&) {
          // Teardown is best-effort; a worker that died first is fine.
        }
      }
      wk.cli.close();
    }
  }

  std::uint16_t port() const { return service_.port(); }
  bool running() const { return service_.running(); }
  const RouterStats& stats() const { return stats_; }
  const PartitionMap& map() const { return map_; }

 private:
  static constexpr int kWorkerConnectAttempts = 50;
  static constexpr int kWorkerConnectBackoffMs = 20;

  struct Worker {
    net::Client cli;
    bool dead = false;
  };

  struct Conn {
    std::vector<bool> used_workers;  ///< workers this session ever fed
  };
  using Service = net::FrameService<Router, Conn>;
  using Session = Service::Session;
  friend Service;

  // --- FrameService hooks (loop-thread entry points).

  void on_open(Session& s) {
    gbx::ScopedThreadRole role(service_.loop_role);
    s.state.used_workers.assign(workers_.size(), false);
  }

  net::FrameAction on_frame(Session& s, store::LogRecord& rec) {
    gbx::ScopedThreadRole role(service_.loop_role);
    return handle_frame(s, rec);
  }

  void on_turn_end(Session&) {}
  int on_pass() { return -1; }  // nothing periodic: wait for I/O

  // --- the stitched freeze.

  /// Open a stitched cut: a flush barrier through every worker, so
  /// "admitted" becomes "applied" everywhere before any epoch is read.
  /// No insert fan-out can be in flight — the loop thread is here. A
  /// dead worker throws during the barrier: the whole query fails
  /// loudly instead of stitching a subset.
  void stitch() GBX_REQUIRES(service_.loop_role) {
    stats_.stitched_freezes.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t w = 0; w < workers_.size(); ++w) worker_flush(w);
  }

  // --- worker I/O (blocking, on the loop thread).

  template <class F>
  decltype(auto) worker_call(std::size_t w, F&& f)
      GBX_REQUIRES(service_.loop_role) {
    Worker& wk = workers_[w];
    GBX_CHECK(!wk.dead, "worker " + std::to_string(w) + " (" +
                            map_.worker(w).host + ":" +
                            std::to_string(map_.worker(w).port) +
                            ") is dead; stitched reads are unavailable");
    try {
      return f(wk.cli);
    } catch (const gbx::Error&) {
      wk.dead = true;
      wk.cli.close();
      stats_.worker_failures.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }

  void worker_insert(std::size_t w, const gbx::Tuples<double>& sub)
      GBX_REQUIRES(service_.loop_role) {
    // Lane 0 on every worker: a cluster worker scales by process count,
    // and one lane per worker is what keeps its part bit-identical to
    // the corresponding ShardedHier shard (sub-batches apply in
    // forwarding order to one HierMatrix).
    worker_call(w, [&sub](net::Client& c) {
      c.insert(sub, 0);
      return 0;
    });
  }

  void worker_flush(std::size_t w) GBX_REQUIRES(service_.loop_role) {
    worker_call(w, [](net::Client& c) {
      c.flush();
      return 0;
    });
  }

  // --- frame dispatch. A gbx::Error from a worker call (the LOUD path)
  // reaches the service, which replies the diagnostic and closes the
  // session so no later one-way insert can be silently half-routed.

  net::FrameAction handle_frame(Session& s, store::LogRecord& rec)
      GBX_REQUIRES(service_.loop_role) {
    const net::MsgType type = net::tag_type(rec.epoch);
    const std::uint64_t arg = net::tag_arg(rec.epoch);
    const bool want_prov = type != net::MsgType::kInsert &&
                           (arg & net::kWantProvenance) != 0;
    switch (type) {
      case net::MsgType::kInsert:
        return handle_insert(s, arg, rec);
      case net::MsgType::kFlush:
        // Barrier over every worker this session ever fed: each worker's
        // own flush barrier covers the router's upstream session, which
        // includes everything forwarded on behalf of this client.
        for (std::size_t w = 0; w < s.state.used_workers.size(); ++w)
          if (s.state.used_workers[w]) worker_flush(w);
        service_.reply(s, type, "", 0);
        return net::FrameAction::kContinue;
      case net::MsgType::kQuerySum:
        handle_query_sum(s, want_prov);
        return net::FrameAction::kContinue;
      case net::MsgType::kQueryElements:
        return handle_query_elements(s, want_prov, rec);
      case net::MsgType::kQuerySummary:
        handle_query_summary(s, want_prov);
        return net::FrameAction::kContinue;
      case net::MsgType::kQueryRefresh:
        handle_query_refresh(s, want_prov);
        return net::FrameAction::kContinue;
      case net::MsgType::kQueryColumns:
        handle_query_columns(s, want_prov);
        return net::FrameAction::kContinue;
      case net::MsgType::kQueryMap: {
        net::MapReply r;
        r.version = map_.version();
        r.parts = map_.parts();
        r.nrows = opt_.nrows;
        r.ncols = opt_.ncols;
        service_.reply(s, type, &r, sizeof r);
        return net::FrameAction::kContinue;
      }
      case net::MsgType::kBye:
        service_.reply(s, type, "", 0);
        return net::FrameAction::kClose;
      default:
        return service_.reject(s, type, "unknown message type");
    }
  }

  net::FrameAction handle_insert(Session& s, std::uint64_t arg,
                                 store::LogRecord& rec)
      GBX_REQUIRES(service_.loop_role) {
    gbx::Tuples<double> batch;
    const std::string bad =
        net::decode_insert(rec.payload.data(), rec.payload.size(),
                           opt_.nrows, opt_.ncols, batch);
    if (!bad.empty()) return service_.reject(s, net::MsgType::kInsert, bad);
    const auto& entries = batch.entries();
    // An explicit placement hint is the client asserting its partition
    // map: every row must land on that worker under the CURRENT map,
    // otherwise the map changed under the client — redirect.
    if (arg != net::kAnyLane) {
      bool stale = arg >= map_.parts();
      for (const auto& e : entries)
        if (stale || map_.part_of(e.row) != arg) {
          stale = true;
          break;
        }
      if (stale) {
        stats_.redirects.fetch_add(1, std::memory_order_relaxed);
        service_.reply_error(s, net::MsgType::kInsert,
                             "stale partition map: placement hint " +
                                 std::to_string(arg) +
                                 " does not own this batch (current map "
                                 "version " +
                                 std::to_string(map_.version()) +
                                 "); re-fetch kQueryMap and reconnect");
        return net::FrameAction::kClose;
      }
    }

    // Split part-major — the same per-entry walk as ShardedHier::update,
    // preserving within-batch order inside every sub-batch.
    std::vector<gbx::Tuples<double>> parts(workers_.size());
    for (auto& p : parts) p.reserve(entries.size() / parts.size() * 9 / 8);
    for (const auto& e : entries)
      parts[map_.part_of(e.row)].push_back(e.row, e.col, e.val);

    // Whole-batch atomicity across processes: the loop forwards every
    // sub-batch before it dispatches any other frame.
    for (std::size_t w = 0; w < parts.size(); ++w) {
      if (parts[w].empty()) continue;
      worker_insert(w, parts[w]);  // throws on a dead worker → loud close
      s.state.used_workers[w] = true;
      stats_.subbatches_forwarded.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.batches_routed.fetch_add(1, std::memory_order_relaxed);
    stats_.entries_routed.fetch_add(entries.size(),
                                    std::memory_order_relaxed);
    return net::FrameAction::kContinue;
  }

  void handle_query_sum(Session& s, bool want_prov)
      GBX_REQUIRES(service_.loop_role) {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    net::SumReply r;
    std::vector<std::uint64_t> epochs(workers_.size(), 0);
    stitch();
    // Part-major fold in map order — the canonical SnapshotSet order,
    // so the stitched Σ is bit-identical to ShardedHier's reduce().
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      net::ReplyProvenance wp;
      net::SumReply wr = worker_call(
          w, [&wp](net::Client& c) { return c.query_sum(&wp); });
      r.sum += wr.sum;
      r.nvals += wr.nvals;  // row-disjoint workers: distinct counts add
      epochs[w] = wp.snapshot_epoch;
      r.epoch += wp.snapshot_epoch;  // Σ of part epochs, SnapshotSet's rule
    }
    reply_stitched(s, net::MsgType::kQuerySum, want_prov, &r, sizeof r,
                   std::move(epochs), r.epoch);
  }

  net::FrameAction handle_query_elements(Session& s, bool want_prov,
                                         store::LogRecord& rec)
      GBX_REQUIRES(service_.loop_role) {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    std::vector<net::ElementQuery> qs;
    if (!net::payload_as(rec.payload, qs))
      return service_.reject(s, net::MsgType::kQueryElements,
                             "element query payload is not a whole number "
                             "of {row, col} probes");
    for (const auto& q : qs)
      if (q.row >= opt_.nrows || q.col >= opt_.ncols)
        return service_.reject(s, net::MsgType::kQueryElements,
                               "element probe out of range");
    // Route each probe to its single owner (row-disjoint placement),
    // keeping reply order = probe order.
    std::vector<std::vector<net::ElementQuery>> per(workers_.size());
    std::vector<std::vector<std::size_t>> origin(workers_.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const std::size_t w = map_.part_of(qs[i].row);
      per[w].push_back(qs[i]);
      origin[w].push_back(i);
    }
    std::vector<net::ElementReply> rs(qs.size());
    std::vector<std::uint64_t> epochs(workers_.size(), 0);
    std::uint64_t cut_epoch = 0;
    stitch();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      net::ReplyProvenance wp;
      // Unprobed workers still contribute their epoch to the stitched
      // cut via an empty probe batch (a pin, no reads).
      auto wr = worker_call(w, [&](net::Client& c) {
        return c.query_elements(per[w], &wp);
      });
      for (std::size_t k = 0; k < wr.size(); ++k) rs[origin[w][k]] = wr[k];
      epochs[w] = wp.snapshot_epoch;
      cut_epoch += wp.snapshot_epoch;
    }
    reply_stitched(s, net::MsgType::kQueryElements, want_prov, rs.data(),
                   rs.size() * sizeof(net::ElementReply), std::move(epochs),
                   cut_epoch);
    return net::FrameAction::kContinue;
  }

  void handle_query_summary(Session& s, bool want_prov)
      GBX_REQUIRES(service_.loop_role) {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    net::SummaryReply r;
    std::vector<std::uint64_t> epochs(workers_.size(), 0);
    std::set<std::uint64_t> destinations;  // columns are NOT disjoint
    stitch();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      net::ReplyProvenance wp;
      net::SummaryReply wr = worker_call(
          w, [&wp](net::Client& c) { return c.query_summary(&wp); });
      // Row-disjoint stitches: links (distinct coords), sources
      // (distinct rows) and packets add; max_link is a per-coordinate
      // value, so max over workers is the global max.
      r.links += wr.links;
      r.packets += wr.packets;
      r.sources += wr.sources;
      if (wr.max_link > r.max_link) r.max_link = wr.max_link;
      // Destinations (distinct columns) need the actual sets.
      const auto cols =
          worker_call(w, [](net::Client& c) { return c.query_columns(); });
      destinations.insert(cols.begin(), cols.end());
      epochs[w] = wp.snapshot_epoch;
      r.epoch += wp.snapshot_epoch;
    }
    r.destinations = destinations.size();
    // Same formula as analytics::summarize — identical operands give an
    // identical quotient.
    if (r.links > 0) r.mean_link = r.packets / static_cast<double>(r.links);
    reply_stitched(s, net::MsgType::kQuerySummary, want_prov, &r, sizeof r,
                   std::move(epochs), r.epoch);
  }

  void handle_query_refresh(Session& s, bool want_prov)
      GBX_REQUIRES(service_.loop_role) {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    net::RefreshReply r;
    std::vector<std::uint64_t> epochs(workers_.size(), 0);
    stitch();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      net::RefreshReply wr =
          worker_call(w, [](net::Client& c) { return c.query_refresh(); });
      r.epoch += wr.epoch;
      r.full_recompute |= wr.full_recompute;
      r.added += wr.added;
      r.changed += wr.changed;
      // Caveat, documented in the README: per-worker triangle counts
      // only stitch when triangles are disabled (the worker default,
      // where every count is 0) — a triangle can span workers, so a
      // nonzero sum would undercount and we refuse to fake it.
      r.triangles += wr.triangles;
      r.sum += wr.sum;
      epochs[w] = wr.epoch;
    }
    reply_stitched(s, net::MsgType::kQueryRefresh, want_prov, &r, sizeof r,
                   std::move(epochs), r.epoch);
  }

  void handle_query_columns(Session& s, bool want_prov)
      GBX_REQUIRES(service_.loop_role) {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    std::set<std::uint64_t> cols;
    std::vector<std::uint64_t> epochs(workers_.size(), 0);
    std::uint64_t cut_epoch = 0;
    stitch();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      net::ReplyProvenance wp;
      const auto wc = worker_call(
          w, [&wp](net::Client& c) { return c.query_columns(&wp); });
      cols.insert(wc.begin(), wc.end());
      epochs[w] = wp.snapshot_epoch;
      cut_epoch += wp.snapshot_epoch;
    }
    std::vector<std::uint64_t> sorted(cols.begin(), cols.end());
    reply_stitched(s, net::MsgType::kQueryColumns, want_prov, sorted.data(),
                   sorted.size() * sizeof(std::uint64_t), std::move(epochs),
                   cut_epoch);
  }

  // --- client-side replies.

  void reply_stitched(Session& s, net::MsgType request, bool want_prov,
                      const void* payload, std::size_t size,
                      std::vector<std::uint64_t> epochs,
                      std::uint64_t cut_epoch)
      GBX_REQUIRES(service_.loop_role) {
    net::ReplyProvenance prov;
    prov.part_epochs = std::move(epochs);
    prov.snapshot_epoch = cut_epoch;
    prov.map_version = static_cast<std::uint32_t>(map_.version());
    service_.reply(s, request, payload, size, want_prov ? &prov : nullptr);
  }

  RouterStats stats_;
  Service service_;
  PartitionMap map_;
  Options opt_;
  std::vector<Worker> workers_ GBX_GUARDED_BY(service_.loop_role);
};

}  // namespace cluster

#endif  // __linux__
