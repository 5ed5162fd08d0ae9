// net/server.hpp — streaming ingest/query server (Linux only).
//
// Puts the streaming engine behind a socket: clients stream kInsert
// frames (net/protocol.hpp) into hier::ParallelStream lanes and issue
// query RPCs answered from hier::MemoryGovernor snapshot epochs —
// ingest never pauses for analysis, the paper's operating point.
//
// Sessions, framing, reply buffering and the corrupt-frame rules are
// net::FrameService's (net/frame_service.hpp); this is its handler:
//
//   * Each session gets a home lane round-robin at accept; kInsert
//     frames may override the lane per batch (the low 48 tag bits).
//
//   * Back-pressure maps lane queues onto socket reads. Inserts go
//     through ParallelStream::try_submit — never the blocking submit().
//     When a session's target lane is full, the batch is PARKED and the
//     session paused: the service stops reading that connection, TCP
//     flow control pushes back to that client's send(), and every other
//     session keeps streaming. The park is retried each loop pass.
//
//   * kFlush is the session barrier: acknowledged only when the session
//     has nothing parked and every lane it ever touched is idle
//     (lane_idle — queue empty, no batch mid-application), so a client
//     that flushes then queries observes its own writes. Pipelined
//     flushes are counted, and each one is acknowledged individually
//     when the barrier clears.
//
//   * Queries never block writers. kQuerySum / kQueryElements acquire a
//     governed snapshot (freeze waits at most one in-flight batch per
//     lane; workers keep folding throughout) and read through the
//     handle's pin — correct even if the governor evicts the epoch
//     mid-read. kQuerySummary / kQueryRefresh run the incremental
//     analytics engine (single-analyst discipline holds: only the event
//     loop calls refresh()).
//
//   * Malformed inserts (non-integral payloads, coordinates outside the
//     matrix dimensions, a lane out of range) earn one kReplyError, then
//     a close — never an exception into the engine.
//
// The stream/governor are the caller's; the server never starts them.
#pragma once

#ifdef __linux__

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analytics/incremental.hpp"
#include "gbx/coo.hpp"
#include "gbx/reduce.hpp"
#include "gbx/thread_annotations.hpp"
#include "hier/memory_governor.hpp"
#include "hier/parallel_stream.hpp"
#include "hier/snapshot_source.hpp"
#include "net/frame_service.hpp"
#include "net/protocol.hpp"

namespace net {

/// Monotone server counters (relaxed atomics; readable from any thread).
struct ServerStats : FrameStats {
  std::atomic<std::uint64_t> insert_frames{0};
  std::atomic<std::uint64_t> entries_ingested{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> parks{0};  ///< lane-full back-pressure events
};

/// Observer of every insert batch the server accepts, in acceptance
/// order — the primary half of WAL shipping (repl::PrimaryReplicator
/// implements it; the interface lives here so net never depends on
/// repl). Both methods run on the event-loop thread:
///   * on_batch() fires immediately after a lane accepts the batch, in
///     the single loop thread's total order — the sink's log order IS
///     the per-lane apply order, which is what makes a replica's replay
///     bit-exact.
///   * all_durable() gates the flush barrier: kFlush is only acked once
///     every batch the sink has seen is durably replicated, so an acked
///     batch can never be lost by a primary crash (acked ⊆ replicated).
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;
  virtual void on_batch(std::size_t lane, gbx::Tuples<double> batch) = 0;
  virtual bool all_durable() = 0;
};

class IngestServer {
 public:
  using Stream = hier::ParallelStream<double>;
  using Governor = hier::MemoryGovernor<Stream>;
  using Analytics = analytics::IncrementalEngine<Governor>;

  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
    /// Reply-backlog cap: once a session's unsent outbound bytes exceed
    /// this, the server stops reading that connection until the backlog
    /// drains below half the cap (see out_throttles). Bounds the memory
    /// a client can pin by pipelining queries without reading replies.
    std::size_t max_outbound_bytes = kMaxOutboundBytes;
    /// Analytics knobs for the refresh/summary RPCs. Triangle counting
    /// and PageRank are opt-in: they are superlinear in the snapshot
    /// and would stall the event loop on big graphs.
    analytics::IncrementalOptions analytics = default_analytics();
    /// Optional replication sink (primary-side WAL shipping). When set,
    /// every accepted insert batch is handed to the sink in acceptance
    /// order and flush acks additionally wait for all_durable(). Must
    /// outlive the server.
    ReplicationSink* replication = nullptr;

    static analytics::IncrementalOptions default_analytics() {
      analytics::IncrementalOptions a;
      a.enable_pagerank = false;
      a.enable_triangles = false;
      return a;
    }
  };

  // No `opt = {}` default argument: GCC parses default arguments before
  // the nested class's member initializers, rejecting the braced init.
  IngestServer(Stream& stream, Governor& governor)
      : IngestServer(stream, governor, Options()) {}

  IngestServer(Stream& stream, Governor& governor, Options opt)
      : service_(*this, stats_, opt.max_outbound_bytes),
        stream_(&stream),
        governor_(&governor),
        opt_(opt),
        analytics_(governor, opt.analytics),
        nrows_(stream.nrows()),
        ncols_(stream.ncols()) {}

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  ~IngestServer() {
    if (running()) stop();
  }

  /// Bind, listen, and spawn the event-loop thread. The stream must
  /// already be start()ed (inserts would otherwise bounce as kStopped).
  void start() { service_.start(opt_.port); }

  /// Wake the loop, join it, close every socket. In-flight sessions
  /// (parked batches, pending flushes) are dropped with an EOF.
  void stop() { service_.stop(); }

  /// Bound port (valid after start()).
  std::uint16_t port() const { return service_.port(); }
  bool running() const { return service_.running(); }
  const ServerStats& stats() const { return stats_; }

 private:
  struct Conn {
    std::size_t home_lane = 0;
    std::vector<bool> used_lanes;       ///< lanes this session ever fed
    std::uint64_t pending_flushes = 0;  ///< kFlush frames awaiting their ack
    bool parked = false;                ///< insert waiting for lane space
    std::size_t parked_lane = 0;
    gbx::Tuples<double> parked_batch;
  };
  using Service = FrameService<IngestServer, Conn>;
  using Session = Service::Session;
  friend Service;

  // --- FrameService hooks (loop-thread entry points).

  void on_open(Session& s) {
    gbx::ScopedThreadRole role(service_.loop_role);
    s.state.home_lane = next_lane_++ % stream_->instances();
    s.state.used_lanes.assign(stream_->instances(), false);
  }

  FrameAction on_frame(Session& s, store::LogRecord& rec) {
    gbx::ScopedThreadRole role(service_.loop_role);
    return handle_frame(s, rec);
  }

  void on_turn_end(Session&) {}

  /// Retry parks, settle flush barriers. Parked batches and pending
  /// flushes have no wake event of their own (lanes drain on worker
  /// threads), so poll them briskly.
  int on_pass() {
    gbx::ScopedThreadRole role(service_.loop_role);
    bool busy = false;
    for (auto& [fd, sp] : service_.sessions()) {
      Session& s = *sp;
      if (s.dead) continue;
      Conn& c = s.state;
      if (c.parked) {  // still full: stays parked, retried next pass
        const FrameAction next = admit(s, c.parked_lane, c.parked_batch);
        if (next == FrameAction::kContinue) service_.resume(s);
        if (next == FrameAction::kClose) service_.close(s);
      }
      if (c.pending_flushes > 0) check_flush(s);
      busy |= c.parked || c.pending_flushes > 0;
    }
    return busy ? 1 : 50;
  }

  // --- dispatch.

  FrameAction handle_frame(Session& s, store::LogRecord& rec)
      GBX_REQUIRES(service_.loop_role) {
    const MsgType type = tag_type(rec.epoch);
    const std::uint64_t arg = tag_arg(rec.epoch);
    const bool want_prov = (arg & kWantProvenance) != 0;
    switch (type) {
      case MsgType::kInsert:
        return handle_insert(s, arg, rec);
      case MsgType::kFlush:
        // A counter, not a flag: pipelined flushes each get their own
        // ack (a client blocking per-flush would otherwise hang).
        ++s.state.pending_flushes;
        s.held = true;
        check_flush(s);
        return FrameAction::kContinue;
      case MsgType::kQuerySum: {
        stats_.queries.fetch_add(1, std::memory_order_relaxed);
        // The unified snapshot-acquisition entry point (the governed
        // handle is "just another source" — hier/snapshot_source.hpp).
        auto handle = hier::acquire_snapshot(*governor_);
        auto img = handle.pin();
        SumReply r;
        r.sum = img.reduce();
        r.epoch = handle.epoch();
        r.nvals = img.nvals();
        reply(s, type, &r, sizeof r, want_prov, handle.epoch(),
              part_epochs(img));
        return FrameAction::kContinue;
      }
      case MsgType::kQueryElements: {
        stats_.queries.fetch_add(1, std::memory_order_relaxed);
        std::vector<ElementQuery> qs;
        if (!payload_as(rec.payload, qs))
          return service_.reject(s, type,
                                 "element query payload is not a whole "
                                 "number of {row, col} probes");
        auto handle = hier::acquire_snapshot(*governor_);
        auto img = handle.pin();  // one pin, batched probes
        std::vector<ElementReply> rs(qs.size());
        for (std::size_t i = 0; i < qs.size(); ++i) {
          if (auto v = img.extract_element(qs[i].row, qs[i].col)) {
            rs[i].present = 1;
            rs[i].value = *v;
          }
        }
        reply(s, type, rs.data(), rs.size() * sizeof(ElementReply), want_prov,
              handle.epoch(), part_epochs(img));
        return FrameAction::kContinue;
      }
      case MsgType::kQueryColumns: {
        stats_.queries.fetch_add(1, std::memory_order_relaxed);
        // Sorted distinct columns of Σ Ai: the destination set. Heavy
        // (materializes the snapshot) — exists so a router can stitch
        // exact destination counts across row-disjoint workers.
        auto handle = hier::acquire_snapshot(*governor_);
        auto img = handle.pin();
        const auto m = img.to_matrix();
        const auto colv = gbx::reduce_cols<gbx::PlusMonoid<double>>(m.view());
        const auto idx = colv.indices();
        static_assert(sizeof(gbx::Index) == sizeof(std::uint64_t));
        reply(s, type, idx.data(), idx.size() * sizeof(std::uint64_t),
              want_prov, handle.epoch(), part_epochs(img));
        return FrameAction::kContinue;
      }
      case MsgType::kQueryMap: {
        // Standalone server: version 0 (placement never changes),
        // parts = lane count.
        MapReply r;
        r.version = 0;
        r.parts = stream_->instances();
        r.nrows = nrows_;
        r.ncols = ncols_;
        service_.reply(s, type, &r, sizeof r);
        return FrameAction::kContinue;
      }
      case MsgType::kQuerySummary: {
        stats_.queries.fetch_add(1, std::memory_order_relaxed);
        analytics_.refresh();
        const auto& sum = analytics_.summary();
        SummaryReply r;
        r.epoch = analytics_.last_report().epoch;
        r.links = sum.links;
        r.packets = sum.packets;
        r.sources = sum.sources;
        r.destinations = sum.destinations;
        r.max_link = sum.max_link;
        r.mean_link = sum.mean_link;
        // The analytics engine answers from its own maintained image:
        // no per-part vector to report, just the epoch it describes.
        reply(s, type, &r, sizeof r, want_prov, r.epoch);
        return FrameAction::kContinue;
      }
      case MsgType::kQueryRefresh: {
        stats_.queries.fetch_add(1, std::memory_order_relaxed);
        const auto& rep = analytics_.refresh();
        RefreshReply r;
        r.epoch = rep.epoch;
        r.full_recompute = rep.full_recompute ? 1 : 0;
        r.added = rep.added;
        r.changed = rep.changed;
        r.triangles = analytics_.triangles();
        r.sum = gbx::reduce_scalar<gbx::PlusMonoid<double>>(analytics_.sum());
        reply(s, type, &r, sizeof r, want_prov, r.epoch);
        return FrameAction::kContinue;
      }
      case MsgType::kBye:
        service_.reply(s, type, "", 0);
        return FrameAction::kClose;
      default:
        return service_.reject(s, type, "unknown message type");
    }
  }

  FrameAction handle_insert(Session& s, std::uint64_t arg,
                            store::LogRecord& rec)
      GBX_REQUIRES(service_.loop_role) {
    std::size_t lane = s.state.home_lane;
    if (arg != kAnyLane) {
      if (arg >= stream_->instances())
        return service_.reject(s, MsgType::kInsert, "insert lane out of range");
      lane = static_cast<std::size_t>(arg);
    }
    gbx::Tuples<double> batch;
    const std::string bad = decode_insert(rec.payload.data(),
                                          rec.payload.size(), nrows_, ncols_,
                                          batch);
    if (!bad.empty()) return service_.reject(s, MsgType::kInsert, bad);
    return admit(s, lane, batch);
  }

  /// try_submit with park-on-full — the back-pressure pivot, and the one
  /// admit path of a fresh batch and a parked retry alike: kContinue on
  /// acceptance, kPause while the lane is full, kClose once stopped.
  FrameAction admit(Session& s, std::size_t lane, gbx::Tuples<double>& batch)
      GBX_REQUIRES(service_.loop_role) {
    Conn& c = s.state;
    const std::size_t n = batch.size();
    // try_submit consumes the batch on acceptance, but the replication
    // sink must only see batches that were actually accepted (a parked
    // batch dropped by a dying session must never reach the replica) —
    // so copy first, hand over after. The copy is only paid when
    // replication is on; the no-replication path is untouched.
    gbx::Tuples<double> shipped;
    if (opt_.replication != nullptr) shipped = batch;
    switch (stream_->try_submit(lane, batch)) {
      case hier::SubmitResult::kAccepted:
        if (opt_.replication != nullptr)
          opt_.replication->on_batch(lane, std::move(shipped));
        c.used_lanes[lane] = true;
        c.parked = false;
        c.parked_batch.clear();
        stats_.insert_frames.fetch_add(1, std::memory_order_relaxed);
        stats_.entries_ingested.fetch_add(n, std::memory_order_relaxed);
        return FrameAction::kContinue;
      case hier::SubmitResult::kLaneFull:
        if (!c.parked) {
          c.parked = true;
          c.parked_lane = lane;
          c.parked_batch = std::move(batch);
          stats_.parks.fetch_add(1, std::memory_order_relaxed);
        }
        return FrameAction::kPause;  // stop reading THIS connection only
      case hier::SubmitResult::kStopped:
        c.parked = false;
        service_.reply_error(s, MsgType::kInsert, "ingest engine is stopped");
        return FrameAction::kClose;
    }
    return FrameAction::kClose;  // unreachable
  }

  /// Flush barrier: everything this session submitted has been applied.
  /// Every flush received before the barrier cleared gets its own ack.
  void check_flush(Session& s) GBX_REQUIRES(service_.loop_role) {
    Conn& c = s.state;
    if (c.parked) return;
    for (std::size_t p = 0; p < c.used_lanes.size(); ++p)
      if (c.used_lanes[p] && !stream_->lane_idle(p)) return;
    // Replication barrier (conservative, global): a flush ack promises
    // the batches survive a primary crash, so it must also wait for the
    // replica's cumulative durable ack to catch up with everything
    // shipped. The loop polls at 1ms while flushes are pending.
    if (opt_.replication != nullptr && !opt_.replication->all_durable())
      return;
    for (; c.pending_flushes > 0; --c.pending_flushes)
      service_.reply(s, MsgType::kFlush, "", 0);
    s.held = false;
  }

  /// A query reply; with provenance, the snapshot epoch and the per-lane
  /// epochs ride along as the revision-2 trailer.
  void reply(Session& s, MsgType type, const void* payload, std::size_t size,
             bool want_prov, std::uint64_t epoch,
             std::vector<std::uint64_t> part_epochs = {})
      GBX_REQUIRES(service_.loop_role) {
    ReplyProvenance prov;
    prov.snapshot_epoch = epoch;
    prov.part_epochs = std::move(part_epochs);
    service_.reply(s, type, payload, size, want_prov ? &prov : nullptr);
  }

  /// Per-lane epoch vector of a pinned stream snapshot.
  template <class Img>
  static std::vector<std::uint64_t> part_epochs(const Img& img) {
    std::vector<std::uint64_t> es(img.size());
    for (std::size_t p = 0; p < es.size(); ++p) es[p] = img.part(p).epoch();
    return es;
  }

  ServerStats stats_;
  Service service_;
  Stream* stream_;
  Governor* governor_;
  Options opt_;
  Analytics analytics_ GBX_GUARDED_BY(service_.loop_role);
  gbx::Index nrows_;  ///< matrix dims, cached for insert validation
  gbx::Index ncols_;
  std::size_t next_lane_ GBX_GUARDED_BY(service_.loop_role) = 0;
};

}  // namespace net

#endif  // __linux__
