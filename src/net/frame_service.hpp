// net/frame_service.hpp — the one serving skeleton under every framed
// server (Linux only).
//
// net::IngestServer, repl::ReplicaServer and cluster::Router are
// Handlers of this one event loop; each only decides what a decoded
// record frame (net/protocol.hpp) means. The service owns the rest:
//
//   * the listen socket, accept, and per session a
//     store::RecordFrameDecoder plus a nonblocking outbound buffer;
//   * one bounded TURN per runnable session per loop pass: read until
//     one frame decodes, Handler::on_frame (kContinue, kPause until
//     resume() — the ingest server's lane-full park — or kClose), then
//     Handler::on_turn_end. A query never waits behind more than one
//     in-flight frame of another session. Handler::on_pass runs once per
//     pass and returns the next poll timeout;
//   * the read-pause throttle: a session whose unsent replies pass the
//     outbound cap (a peer pipelining without reading) is not read until
//     the backlog halves — memory stays bounded and the loop never
//     blocks on a peer;
//   * the corrupt-frame rule (kReplyError, then an orderly close), the
//     torn-tail rule (a partial frame at EOF is counted in
//     rejected_frames and dropped), and a gbx::Error thrown by a hook
//     (a kReplyError echoing the frame's type, then a close — never an
//     exception out of the loop thread);
//   * stop(): wake the loop, join it, close every socket.
//
// `loop_role` is the loop thread's capability. Hooks are entry points on
// that thread and claim it, so a handler's loop-only state is
// GBX_GUARDED_BY(service_.loop_role).
#pragma once

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "gbx/error.hpp"
#include "gbx/thread_annotations.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "store/wal.hpp"

namespace net {

/// Listen backlog of every framed server.
inline constexpr int kListenBacklog = 64;

/// Default reply-backlog cap per session (see FrameService).
inline constexpr std::size_t kMaxOutboundBytes = 4u << 20;

/// What the service does with a session after Handler::on_frame.
enum class FrameAction {
  kContinue,  ///< keep reading and dispatching
  kPause,     ///< stop reading this session until the handler resume()s it
  kClose,     ///< stop reading; close once queued replies are sent
};

/// Counters every framed server reports (relaxed atomics; readable from
/// any thread). Servers extend this with their own.
struct FrameStats {
  std::atomic<std::uint64_t> sessions_accepted{0};
  std::atomic<std::uint64_t> sessions_closed{0};
  std::atomic<std::uint64_t> out_throttles{0};    ///< reply-backlog pauses
  std::atomic<std::uint64_t> rejected_frames{0};  ///< corrupt/malformed/torn
};

/// One accepted connection: the service's bookkeeping plus the
/// handler's per-session `state`. Handlers touch only `state` and `held`.
template <class State>
struct FrameSession {
  explicit FrameSession(Fd f) : fd(std::move(f)) {}

  State state{};
  /// Handler work still owed to the peer (an unacknowledged flush): a
  /// closing session stays open until the handler clears this.
  bool held = false;

  Fd fd;
  store::RecordFrameDecoder dec{kMaxFrameBytes};
  std::string out;            ///< outbound bytes
  std::size_t out_off = 0;    ///< sent prefix of `out`
  bool ready = true;          ///< may have input without a new epoll event
  bool paused = false;        ///< kPause: not read until resume()
  bool throttled = false;     ///< reply backlog over the cap
  bool closing = false;       ///< no more reads; destroy once out drains
  bool dead = false;          ///< destroy now (I/O error, reset)
  std::uint32_t events = EPOLLIN | EPOLLRDHUP;  ///< epoll interest armed

  std::size_t out_pending() const { return out.size() - out_off; }
  bool runnable() const {
    return !paused && !throttled && !closing && !dead;
  }
};

/// The event loop, parameterized by the Handler it dispatches to.
/// Handler provides, all called on the loop thread:
///   void on_open(Session&);                       // new session
///   FrameAction on_frame(Session&, store::LogRecord&);
///   void on_turn_end(Session&);                   // after every turn
///   int on_pass();                                // -> next poll timeout, ms
template <class Handler, class State>
class FrameService {
 public:
  using Session = FrameSession<State>;
  using Sessions = std::unordered_map<int, std::unique_ptr<Session>>;

  FrameService(Handler& handler, FrameStats& stats,
               std::size_t max_outbound_bytes = kMaxOutboundBytes)
      : handler_(handler), stats_(stats), max_out_(max_outbound_bytes) {}

  FrameService(const FrameService&) = delete;
  FrameService& operator=(const FrameService&) = delete;

  ~FrameService() {
    if (running_) stop();
  }

  /// Bind 127.0.0.1:`port` (0 = ephemeral), listen, spawn the loop.
  void start(std::uint16_t port) {
    GBX_CHECK(!running_, "frame service already started");
    listen_ = Fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0));
    GBX_CHECK(listen_.valid(), "socket() failed");
    const int one = 1;
    ::setsockopt(listen_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    GBX_CHECK(::bind(listen_.get(), reinterpret_cast<::sockaddr*>(&addr),
                     sizeof addr) == 0,
              "bind() failed");
    GBX_CHECK(::listen(listen_.get(), kListenBacklog) == 0, "listen() failed");
    ::socklen_t len = sizeof addr;
    GBX_CHECK(::getsockname(listen_.get(),
                            reinterpret_cast<::sockaddr*>(&addr), &len) == 0,
              "getsockname() failed");
    port_ = ntohs(addr.sin_port);

    loop_ = std::make_unique<EventLoop>();
    wake_ = std::make_unique<WakeFd>();
    loop_->add(listen_.get(), EPOLLIN);
    loop_->add(wake_->get(), EPOLLIN);
    stop_.store(false, std::memory_order_relaxed);
    running_ = true;
    thread_ = std::thread([this] { run(); });
  }

  /// Wake the loop, join it, close every socket. In-flight sessions are
  /// dropped with an EOF: the contract is "no hang, no crash, no partial
  /// frame applied", not "drain the world".
  void stop() {
    GBX_CHECK(running_, "frame service not started");
    stop_.store(true, std::memory_order_relaxed);
    wake_->wake();
    thread_.join();
    {
      // join() hands the loop thread's role to this thread.
      gbx::ScopedThreadRole role(loop_role);
      sessions_.clear();
    }
    loop_.reset();
    wake_.reset();
    listen_.reset();
    running_ = false;
  }

  std::uint16_t port() const { return port_; }
  bool running() const { return running_; }

  /// The loop thread's capability (see the header comment). Mutable so
  /// a handler's const post-stop readers can claim it too.
  mutable gbx::ThreadRole loop_role;

  // --- for handlers, on the loop thread ------------------------------------

  /// Live and closing sessions (skip `dead` ones). Stable for the whole
  /// pass: sessions are only added and removed between passes.
  Sessions& sessions() GBX_REQUIRES(loop_role) { return sessions_; }

  /// Queue one frame and send what the socket takes now.
  void send(Session& s, MsgType type, std::uint64_t arg48,
            const void* payload = "", std::size_t size = 0)
      GBX_REQUIRES(loop_role) {
    if (s.dead) return;
    append_frame(s.out, type, arg48, payload, size);
    flush_out(s);
    // Write-side back-pressure: stop reading a session whose unsent
    // backlog passed the cap; settle() resumes it once it halves.
    if (!s.dead && !s.throttled && s.out_pending() > max_out_) {
      s.throttled = true;
      stats_.out_throttles.fetch_add(1, std::memory_order_relaxed);
      update_interest(s);
    }
  }

  /// kReplyOk echoing `request`. With `prov`, the body gets the
  /// revision-2 provenance trailer and the echoed arg kWantProvenance.
  void reply(Session& s, MsgType request, const void* payload,
             std::size_t size, const ReplyProvenance* prov = nullptr)
      GBX_REQUIRES(loop_role) {
    const auto arg = static_cast<std::uint64_t>(request);
    if (prov == nullptr) {
      send(s, MsgType::kReplyOk, arg, payload, size);
      return;
    }
    std::string body(size > 0 ? static_cast<const char*>(payload) : "", size);
    append_provenance(body, prov->part_epochs, prov->snapshot_epoch,
                      prov->map_version);
    send(s, MsgType::kReplyOk, arg | kWantProvenance, body.data(),
         body.size());
  }

  void reply_error(Session& s, MsgType request, const std::string& what)
      GBX_REQUIRES(loop_role) {
    send(s, MsgType::kReplyError, static_cast<std::uint64_t>(request),
         what.data(), what.size());
  }

  /// A refused frame: count it, answer with the diagnostic, close.
  FrameAction reject(Session& s, MsgType request, const std::string& what)
      GBX_REQUIRES(loop_role) {
    stats_.rejected_frames.fetch_add(1, std::memory_order_relaxed);
    reply_error(s, request, what);
    return FrameAction::kClose;
  }

  /// End a kPause: the session is read again from the next pass.
  void resume(Session& s) GBX_REQUIRES(loop_role) {
    s.paused = false;
    s.ready = true;
    update_interest(s);
  }

  /// Stop reading; the session is destroyed once its replies are sent
  /// and the handler no longer holds it.
  void close(Session& s) GBX_REQUIRES(loop_role) {
    s.paused = false;
    s.closing = true;
    update_interest(s);
  }

 private:
  void run() {
    gbx::ScopedThreadRole role(loop_role);
    int timeout_ms = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      bool spin = false;  // a runnable session has input we already hold
      for (const auto& [fd, sp] : sessions_)
        spin |= sp->ready && sp->runnable();
      for (const auto& ev : loop_->wait(spin ? 0 : timeout_ms)) {
        if (ev.data.fd == wake_->get()) {
          wake_->clear();
        } else if (ev.data.fd == listen_.get()) {
          accept_all();
        } else if (auto it = sessions_.find(ev.data.fd);
                   it != sessions_.end()) {
          on_event(*it->second, ev.events);
        }
      }
      if (stop_.load(std::memory_order_relaxed)) break;
      for (auto& [fd, sp] : sessions_)
        if (sp->ready && sp->runnable()) turn(*sp);
      timeout_ms = handler_.on_pass();
      settle();
    }
  }

  void accept_all() GBX_REQUIRES(loop_role) {
    for (;;) {
      Fd c(::accept4(listen_.get(), nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC));
      if (!c.valid()) return;  // EAGAIN or transient error: next wave
      const int one = 1;
      ::setsockopt(c.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const int fd = c.get();
      auto s = std::make_unique<Session>(std::move(c));
      handler_.on_open(*s);
      loop_->add(fd, EPOLLIN | EPOLLRDHUP);
      sessions_.emplace(fd, std::move(s));
      stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void on_event(Session& s, std::uint32_t events) GBX_REQUIRES(loop_role) {
    if (events & EPOLLOUT) flush_out(s);
    if (events & (EPOLLIN | EPOLLRDHUP)) s.ready = true;
    // Reset or error: a session that would read finds out from recv();
    // one that is not reading is gone for good.
    if (events & (EPOLLERR | EPOLLHUP)) {
      if (s.runnable())
        s.ready = true;
      else
        s.dead = true;
    }
  }

  /// One bounded turn: read until one frame is decoded (or the socket
  /// is drained), dispatch it, then the handler's turn end.
  void turn(Session& s) GBX_REQUIRES(loop_role) {
    char buf[1u << 16];
    bool got = false;
    while (!got) {
      switch (s.dec.next(rec_)) {
        case store::RecordFrameDecoder::Status::kFrame:
          got = true;
          continue;
        case store::RecordFrameDecoder::Status::kCorrupt:
          reject(s, MsgType::kInsert, s.dec.error());
          close(s);
          return;
        case store::RecordFrameDecoder::Status::kNeedMore:
          break;
      }
      const auto n = ::recv(s.fd.get(), buf, sizeof buf, 0);
      if (n > 0) {
        s.dec.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      s.ready = false;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0) {
        s.dead = true;
        return;
      }
      // EOF. A partial frame here is the torn-tail case: count it, drop
      // it. Queued replies and held work still complete.
      if (s.dec.buffered() > 0)
        stats_.rejected_frames.fetch_add(1, std::memory_order_relaxed);
      close(s);
      break;
    }
    FrameAction next = FrameAction::kContinue;
    try {
      if (got) next = handler_.on_frame(s, rec_);
      handler_.on_turn_end(s);
    } catch (const gbx::Error& e) {
      reply_error(s, tag_type(rec_.epoch), e.what());
      next = FrameAction::kClose;
    }
    if (next == FrameAction::kPause) {
      s.paused = true;
      update_interest(s);
    } else if (next == FrameAction::kClose) {
      close(s);
    }
  }

  /// Per-pass housekeeping: release reply throttles, reap sessions.
  void settle() GBX_REQUIRES(loop_role) {
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = *it->second;
      if (s.throttled && !s.dead && s.out_pending() <= max_out_ / 2) {
        s.throttled = false;
        s.ready = true;
        update_interest(s);
      }
      if (s.dead || (s.closing && !s.held && s.out_pending() == 0)) {
        loop_->del(it->first);
        it = sessions_.erase(it);
        stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }

  /// Opportunistic nonblocking send; EPOLLOUT is armed only on partials.
  void flush_out(Session& s) GBX_REQUIRES(loop_role) {
    while (s.out_off < s.out.size()) {
      const auto n = ::send(s.fd.get(), s.out.data() + s.out_off,
                            s.out.size() - s.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        s.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      s.dead = true;  // peer reset mid-reply
      return;
    }
    if (s.out_off >= s.out.size()) {
      s.out.clear();
      s.out_off = 0;
    }
    update_interest(s);
  }

  void update_interest(Session& s) GBX_REQUIRES(loop_role) {
    if (s.dead) return;
    std::uint32_t ev = 0;
    if (s.runnable()) ev |= EPOLLIN | EPOLLRDHUP;
    if (s.out_pending() > 0) ev |= EPOLLOUT;
    if (ev == s.events) return;
    loop_->mod(s.fd.get(), ev);
    s.events = ev;
  }

  Handler& handler_;
  FrameStats& stats_;
  const std::size_t max_out_;

  Sessions sessions_ GBX_GUARDED_BY(loop_role);
  store::LogRecord rec_ GBX_GUARDED_BY(loop_role);  ///< reused frame buffer

  Fd listen_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<WakeFd> wake_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::uint16_t port_ = 0;
};

}  // namespace net

#endif  // __linux__
