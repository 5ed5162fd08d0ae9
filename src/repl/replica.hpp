// repl/replica.hpp — the replica half of WAL shipping: validate,
// persist, apply, ack; self-promote when the primary's lease lapses.
//
// A ReplicaServer owns a full hier::InstanceArray<double> shaped like
// the primary's (same lanes, dimensions, cut schedule) behind a
// hier::ParallelStream: the event-loop thread validates, persists, and
// sequences every shipped batch, then SUBMITS it to the stream's lane
// workers instead of applying inline — the loop thread stays on the
// socket while lanes apply in parallel, which is what keeps a
// replicated primary within a few percent of unreplicated ingest:
//
//   kShipHello   validate topology; if promoted, fence the caller with
//                kReplyError (a deposed primary must never write);
//                else reply ShipHelloReply{next_seq} so the shipper
//                resumes exactly where the replica's durable state ends
//   kShipBatch   admit via hier::ReplayCursor (gapped / overlapping /
//                torn suffixes are rejected LOUDLY — the connection is
//                errored and closed, never partially applied), append
//                the record to the replica's own WAL, submit to the
//                lane. Acks are cumulative: at the end of each session
//                turn, the WAL is flushed ONCE and ONE kShipAck covers
//                everything the turn admitted.
//                Persist-before-ack is the durability edge
//                all_durable() leans on — an acked batch is in the
//                flushed WAL, so it survives a replica crash-restart
//                via cold replay even if a lane had not applied it yet.
//   kHeartbeat   refresh the primary's lease
//
// Queries and flush barriers drain the stream first (the loop thread is
// the only submitter, so drain() terminates), which preserves the
// applied-barrier semantics the failover exactness probes rely on; the
// per-lane batch counts served by kQueryLaneEpochs are submit-time
// counts, which are correct resume indices because every submitted
// batch is applied before any drain-gated read can observe the lane.
//
// Promotion: when no shipper traffic (hello/batch/heartbeat) arrives
// for lease_ms after a primary was first seen, the replica promotes
// itself: it starts accepting the client-facing subset of the ingest
// protocol (kInsert / kFlush / queries) and fences every later hello.
// Failover clients find their resume point via kQueryLaneEpochs, whose
// reply is [promoted u64][applied_seq u64][per-lane applied batch
// counts u64 × lanes] — counts include both shipped and post-promotion
// batches, so a per-lane-exclusive writer resumes without double-
// applying or dropping anything.
//
// Cold start: an existing WAL at wal_path is replayed through the same
// ReplayCursor before the socket opens (crash-restart of the replica
// itself), then appended to.
//
// Sessions and replies are net::FrameService's: a peer that pipelines
// requests without reading replies is throttled alone, never stalling
// the shipper's session.
#pragma once

#ifdef __linux__

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "gbx/reduce.hpp"
#include "gbx/thread_annotations.hpp"
#include "hier/checkpoint.hpp"
#include "hier/instance_array.hpp"
#include "hier/parallel_stream.hpp"
#include "net/frame_service.hpp"
#include "net/protocol.hpp"
#include "repl/protocol.hpp"
#include "store/wal.hpp"

namespace repl {

struct ReplicaOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  /// Primary lease: promote after this much shipper silence (only once
  /// a primary has been seen at all).
  int lease_ms = 200;
  /// The replica's own WAL (replayed on cold start, appended to).
  std::string wal_path;
  /// Topology — must match the primary's hello.
  std::size_t lanes = 1;
  std::uint64_t nrows = 0;
  std::uint64_t ncols = 0;
  hier::CutPolicy cuts = hier::CutPolicy::geometric(3, 2048, 8);
  bool auto_promote = true;
};

class ReplicaServer {
 public:
  explicit ReplicaServer(ReplicaOptions opt)
      : service_(*this, stats_),
        opt_(std::move(opt)),
        array_(opt_.lanes, static_cast<gbx::Index>(opt_.nrows),
               static_cast<gbx::Index>(opt_.ncols), opt_.cuts),
        stream_(array_),
        lane_batches_(opt_.lanes, 0) {
    GBX_CHECK(!opt_.wal_path.empty(), "replica: wal_path required");
    // The loop thread does not exist yet; the constructing thread holds
    // the role for the cold replay.
    gbx::ScopedThreadRole role(service_.loop_role);
    cold_replay();
    wal_out_.open(opt_.wal_path,
                  std::ios::binary | std::ios::out | std::ios::app);
    GBX_CHECK(wal_out_.good(),
              "replica: cannot open WAL " + opt_.wal_path);
    writer_ = std::make_unique<store::RecordLogWriter>(wal_out_);
  }

  ~ReplicaServer() {
    if (running()) stop();
  }

  void start() {
    stream_.start();
    streaming_ = true;
    service_.start(opt_.port);
  }

  void stop() {
    service_.stop();
    // join() handed the loop thread's role to this thread.
    gbx::ScopedThreadRole role(service_.loop_role);
    // Drain the lane workers: every submitted batch is applied before
    // stop() returns, so the post-stop array()/lane_batches() reads see
    // exactly the acked state. A failed apply is silent divergence —
    // refuse to pretend the replica is intact.
    if (streaming_) {
      const auto report = stream_.stop();
      streaming_ = false;
      std::uint64_t failed = 0;
      for (const auto& lc : report.lane) failed += lc.failed_batches;
      GBX_CHECK(failed == 0, "replica: shipped batch failed to apply");
    }
    wal_out_.flush();
  }

  std::uint16_t port() const { return service_.port(); }
  bool running() const { return service_.running(); }
  bool promoted() const { return promoted_.load(std::memory_order_acquire); }
  std::uint64_t applied_seq() const {
    return applied_seq_.load(std::memory_order_acquire);
  }

  /// In-process state reads — only meaningful after stop() (the loop
  /// thread owns these while running).
  hier::InstanceArray<double>& array() {
    GBX_CHECK(!running(), "replica array() while running");
    return array_;
  }
  std::vector<std::uint64_t> lane_batches() const {
    GBX_CHECK(!running(), "replica lane_batches() while running");
    gbx::ScopedThreadRole role(service_.loop_role);
    return lane_batches_;
  }

 private:
  struct Conn {
    std::size_t home_lane = 0;
    bool is_shipper = false;
    /// Ship frames admitted this turn; one cumulative kShipAck
    /// (preceded by a WAL flush) is sent at the turn's end.
    bool ack_pending = false;
    /// A kStall failpoint swallowed this turn's ack (the primary's
    /// flush barrier must hold until a later turn re-covers it).
    bool suppress_ack = false;
  };
  using Service = net::FrameService<ReplicaServer, Conn>;
  using Session = Service::Session;
  friend Service;

  // --- cold start ----------------------------------------------------------
  void cold_replay() GBX_REQUIRES(service_.loop_role) {
    std::error_code ec;
    if (!std::filesystem::exists(opt_.wal_path, ec)) return;
    std::ifstream in(opt_.wal_path, std::ios::binary | std::ios::in);
    if (!in.good()) return;
    store::RecordLogReader reader(in);
    hier::ReplayCursor cursor(0, "replica cold start");
    while (auto rec = reader.next()) {
      GBX_CHECK(cursor.admit(rec->epoch),
                "replica cold start: record below base");
      apply_payload(rec->epoch, rec->payload, /*log=*/false);
      cursor.mark_applied(rec->epoch);
    }
  }

  // --- FrameService hooks (loop-thread entry points) -----------------------
  void on_open(Session& s) {
    gbx::ScopedThreadRole role(service_.loop_role);
    s.state.home_lane = next_home_lane_++ % opt_.lanes;
  }

  net::FrameAction on_frame(Session& s, store::LogRecord& rec) {
    gbx::ScopedThreadRole role(service_.loop_role);
    return handle_frame(s, rec);
  }

  /// End of a turn: everything it admitted is persisted by ONE flush and
  /// covered by ONE cumulative ack — the write amortization that keeps
  /// replication off the ingest critical path.
  void on_turn_end(Session& s) {
    gbx::ScopedThreadRole role(service_.loop_role);
    Conn& c = s.state;
    if (!c.ack_pending) return;
    c.ack_pending = false;
    if (!c.suppress_ack) {
      flush_wal();
      service_.send(s, net::MsgType::kShipAck,
                    applied_seq_.load(std::memory_order_relaxed));
    }
    c.suppress_ack = false;
  }

  int on_pass() {
    gbx::ScopedThreadRole role(service_.loop_role);
    check_lease();
    return 10;  // lease granularity
  }

  // --- dispatch ------------------------------------------------------------
  net::FrameAction handle_frame(Session& s, store::LogRecord& rec)
      GBX_REQUIRES(service_.loop_role) {
    const net::MsgType type = net::tag_type(rec.epoch);
    const std::uint64_t arg = net::tag_arg(rec.epoch);
    switch (type) {
      case net::MsgType::kShipHello:
        return handle_hello(s, rec);
      case net::MsgType::kShipBatch:
        return handle_ship_batch(s, arg, rec);
      case net::MsgType::kHeartbeat:
        if (s.state.is_shipper) touch_lease();
        return net::FrameAction::kContinue;
      case net::MsgType::kQueryLaneEpochs: {
        // Failover clients resume from these counts and never re-send
        // below them — flush first so the reported boundary survives a
        // replica crash-restart.
        flush_wal();
        std::vector<std::uint64_t> out;
        out.reserve(2 + lane_batches_.size());
        out.push_back(promoted_.load(std::memory_order_relaxed) ? 1 : 0);
        out.push_back(applied_seq_.load(std::memory_order_relaxed));
        out.insert(out.end(), lane_batches_.begin(), lane_batches_.end());
        service_.reply(s, type, out.data(), out.size() * sizeof(out[0]));
        return net::FrameAction::kContinue;
      }
      case net::MsgType::kQuerySum: {
        // Quiesce the lane workers (this thread is the only submitter,
        // so drain() terminates), then fold per-lane reduces in lane
        // order: deterministic, and bit-identical to the same fold over
        // any equally-ordered per-lane state (the failover exactness
        // probe).
        if (streaming_) stream_.drain();
        net::SumReply r;
        r.epoch = applied_seq_.load(std::memory_order_relaxed);
        for (std::size_t p = 0; p < opt_.lanes; ++p) {
          auto snap = array_.instance(p).freeze();
          r.sum += snap.reduce();
          r.nvals += snap.nvals();
        }
        service_.reply(s, type, &r, sizeof r);
        return net::FrameAction::kContinue;
      }
      case net::MsgType::kInsert:
        return handle_insert(s, arg, rec);
      case net::MsgType::kFlush:
        if (!promoted_.load(std::memory_order_relaxed))
          return service_.reject(s, type, "replica not promoted");
        // The barrier: applied (drain the lane workers) AND durable
        // (flush the WAL) before the ack goes out.
        if (streaming_) stream_.drain();
        flush_wal();
        service_.reply(s, type, "", 0);
        return net::FrameAction::kContinue;
      case net::MsgType::kBye:
        service_.reply(s, type, "", 0);
        return net::FrameAction::kClose;
      default:
        return service_.reject(s, type, "replica: unsupported message type");
    }
  }

  net::FrameAction handle_hello(Session& s, store::LogRecord& rec)
      GBX_REQUIRES(service_.loop_role) {
    ShipHello hello;
    if (!net::payload_as(rec.payload, hello))
      return service_.reject(s, net::MsgType::kShipHello,
                             "replica: malformed hello");
    if (promoted_.load(std::memory_order_relaxed))
      // The fence: a deposed primary (or its reconnecting shipper) is
      // turned away for good.
      return service_.reject(s, net::MsgType::kShipHello,
                             "replica promoted: primary is fenced");
    GBX_CHECK(hello.lanes == opt_.lanes && hello.nrows == opt_.nrows &&
                  hello.ncols == opt_.ncols,
              "replica: primary topology mismatch");
    // One shipper at a time: a re-handshake supersedes the old session.
    for (auto& [fd, sp] : service_.sessions())
      if (sp.get() != &s && sp->state.is_shipper) service_.close(*sp);
    s.state.is_shipper = true;
    seen_primary_ = true;
    touch_lease();
    cursor_ = std::make_unique<hier::ReplayCursor>(
        applied_seq_.load(std::memory_order_relaxed), "replica");
    // next_seq tells the shipper what it may treat as acked — make the
    // boundary durable before promising it.
    flush_wal();
    ShipHelloReply r;
    r.next_seq = applied_seq_.load(std::memory_order_relaxed) + 1;
    service_.reply(s, net::MsgType::kShipHello, &r, sizeof r);
    return net::FrameAction::kContinue;
  }

  net::FrameAction handle_ship_batch(Session& s, std::uint64_t seq,
                                     store::LogRecord& rec)
      GBX_REQUIRES(service_.loop_role) {
    GBX_CHECK(s.state.is_shipper, "replica: ship batch before hello");
    GBX_CHECK(!promoted_.load(std::memory_order_relaxed),
              "replica promoted: primary is fenced");
    touch_lease();
    // Any ship frame — including a benign duplicate — earns the turn's
    // cumulative ack (idempotent: it only ever re-states applied_seq_).
    s.state.ack_pending = true;
    // ReplayCursor admission: <= base is a benign duplicate (resend
    // across a reconnect), a gap or regression throws — gapped and
    // overlapping suffixes are rejected loudly, exactly as recover()
    // rejects them on a crash log.
    if (!cursor_->admit(seq)) return net::FrameAction::kContinue;
    apply_payload(seq, rec.payload, /*log=*/true);
    cursor_->mark_applied(seq);

    if (gbx::failpoints().armed()) {
      if (auto fp = gbx::failpoints().hit("repl.replica.ack")) {
        if (fp->action == gbx::FailAction::kDelay)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(fp->delay_ms));
        if (fp->action == gbx::FailAction::kStall)
          s.state.suppress_ack = true;  // ack withheld: flush barrier holds
      }
    }
    return net::FrameAction::kContinue;
  }

  net::FrameAction handle_insert(Session& s, std::uint64_t arg,
                                 store::LogRecord& rec)
      GBX_REQUIRES(service_.loop_role) {
    if (!promoted_.load(std::memory_order_relaxed))
      return service_.reject(s, net::MsgType::kInsert, "replica not promoted");
    std::size_t lane = s.state.home_lane;
    if (arg != net::kAnyLane) {
      GBX_CHECK(arg < opt_.lanes, "replica: insert lane out of range");
      lane = static_cast<std::size_t>(arg);
    }
    gbx::Tuples<double> batch;
    const std::string bad =
        net::decode_insert(rec.payload.data(), rec.payload.size(),
                           opt_.nrows, opt_.ncols, batch);
    if (!bad.empty())
      return service_.reject(s, net::MsgType::kInsert, "replica: " + bad);
    // The insert is durable only at the kFlush barrier, which flushes.
    const std::string record = encode_batch_payload(lane, batch);
    apply(applied_seq_.load(std::memory_order_relaxed) + 1, lane,
          std::move(batch), record.data(), record.size());
    return net::FrameAction::kContinue;
  }

  /// Decode one sequenced batch record ([lane u64][entries]) and apply
  /// it, appending the record to the WAL when `log` (cold replay
  /// re-applies what the WAL already holds).
  void apply_payload(std::uint64_t seq, const std::vector<std::byte>& payload,
                     bool log) GBX_REQUIRES(service_.loop_role) {
    std::uint64_t lane = 0;
    GBX_CHECK(payload.size() >= sizeof lane,
              "replica: malformed shipped batch payload");
    std::memcpy(&lane, payload.data(), sizeof lane);
    GBX_CHECK(lane < opt_.lanes, "replica: shipped lane out of range");
    gbx::Tuples<double> batch;
    const std::string bad = net::decode_insert(
        payload.data() + sizeof lane, payload.size() - sizeof lane,
        opt_.nrows, opt_.ncols, batch);
    GBX_CHECK(bad.empty(), "replica: shipped " + bad);
    apply(seq, static_cast<std::size_t>(lane), std::move(batch),
          log ? payload.data() : nullptr, payload.size());
  }

  /// Persist (when `record` is non-null) and hand one sequenced batch to
  /// its lane. The WAL append happens BEFORE the submit, and the turn-end
  /// flush BEFORE its ack — an acked batch is always recoverable from
  /// the WAL even if a lane worker had not applied it when the replica
  /// died. Before start() (cold replay) the batch applies directly.
  void apply(std::uint64_t seq, std::size_t lane, gbx::Tuples<double> batch,
             const void* record, std::size_t record_size)
      GBX_REQUIRES(service_.loop_role) {
    if (record != nullptr) {
      writer_->append(seq, record, record_size);
      GBX_CHECK(wal_out_.good(), "replica: WAL write failed");
      wal_dirty_ = true;
    }
    if (streaming_)
      stream_.submit(lane, std::move(batch));
    else
      array_.instance(lane).update(batch);
    ++lane_batches_[lane];
    applied_seq_.store(seq, std::memory_order_release);
  }

  /// One flush covers every append since the last — called before any
  /// ack, durability promise, or reported resume boundary leaves the
  /// process.
  void flush_wal() GBX_REQUIRES(service_.loop_role) {
    if (!wal_dirty_) return;
    wal_out_.flush();
    GBX_CHECK(wal_out_.good(), "replica: WAL flush failed");
    wal_dirty_ = false;
  }

  // --- lease / promotion ---------------------------------------------------
  void touch_lease() GBX_REQUIRES(service_.loop_role) {
    last_activity_ = std::chrono::steady_clock::now();
  }

  void check_lease() GBX_REQUIRES(service_.loop_role) {
    if (!opt_.auto_promote || !seen_primary_ ||
        promoted_.load(std::memory_order_relaxed))
      return;
    const auto now = std::chrono::steady_clock::now();
    if (now - last_activity_ < std::chrono::milliseconds(opt_.lease_ms))
      return;
    promoted_.store(true, std::memory_order_release);
    // Sever the (dead or partitioned) shipper: if the primary is in
    // fact alive, its reconnect hello meets the fence above.
    for (auto& [fd, sp] : service_.sessions())
      if (sp->state.is_shipper) service_.close(*sp);
  }

  net::FrameStats stats_;
  Service service_;
  ReplicaOptions opt_;

  /// Written by stream_'s lane workers while running (the loop thread
  /// only touches it through submit/drain, or directly during the cold
  /// replay and after stop() — both single-threaded by construction).
  hier::InstanceArray<double> array_;
  hier::ParallelStream<double> stream_;
  std::vector<std::uint64_t> lane_batches_ GBX_GUARDED_BY(service_.loop_role);
  std::ofstream wal_out_ GBX_GUARDED_BY(service_.loop_role);
  bool wal_dirty_ GBX_GUARDED_BY(service_.loop_role) = false;
  std::unique_ptr<store::RecordLogWriter> writer_
      GBX_GUARDED_BY(service_.loop_role);
  std::unique_ptr<hier::ReplayCursor> cursor_
      GBX_GUARDED_BY(service_.loop_role);

  std::atomic<std::uint64_t> applied_seq_{0};
  std::atomic<bool> promoted_{false};
  bool seen_primary_ GBX_GUARDED_BY(service_.loop_role) = false;
  std::chrono::steady_clock::time_point last_activity_
      GBX_GUARDED_BY(service_.loop_role){};
  std::size_t next_home_lane_ GBX_GUARDED_BY(service_.loop_role) = 0;

  /// True between stream_.start() and stream_.stop(): toggled only
  /// while the loop thread does not exist (thread create/join orders
  /// the loop thread's reads), so a plain bool suffices.
  bool streaming_ = false;
};

}  // namespace repl

#endif  // __linux__
