#include "net/server.h"

#include <arpa/inet.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace geolic::net {
namespace {

// epoll user-data ids for the two non-connection descriptors.
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;

// Per-wake recv budget: with level-triggered epoll the remaining bytes
// re-arm immediately, so a firehose client cannot starve its neighbours
// or balloon one read ring inside a single loop turn.
constexpr size_t kMaxReadPerWake = 64 * 1024;

// How long the reactor keeps polling after a turn that read from a peer
// fed by another CPU before it blocks in epoll_wait(-1). A request that
// lands inside the window is picked up by a reactor that is still
// running, not woken on another CPU; an idle server stops spinning after
// one window. 200 µs is four send intervals of a 20k req/s client
// (docs/WIRE.md has the sweep).
constexpr std::chrono::microseconds kPollWindow{200};

// Largest TryIssueBatch call a turn's admission makes: a turn's requests
// share one acquisition of the service lock per chunk of this many.
constexpr size_t kMaxBatch = 64;

// True unless the kernel processed `fd`'s last incoming packets on the
// calling thread's CPU. A peer fed from this CPU (over loopback: a client
// running on it) can only send while the reactor is off the CPU, so
// polling for it would only hold the CPU it needs.
bool FedByAnotherCpu(int fd) {
  int cpu = -1;
  socklen_t len = sizeof(cpu);
  return getsockopt(fd, SOL_SOCKET, SO_INCOMING_CPU, &cpu, &len) != 0 ||
         cpu != sched_getcpu();
}

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

uint64_t NowMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Server::Server(IssuanceService* service, CatalogService* catalog,
               const ServerOptions& options)
    : service_(service), catalog_(catalog), options_(options) {}

Result<std::unique_ptr<Server>> Server::Start(IssuanceService* service,
                                              const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("server needs a service");
  }
  auto server =
      std::unique_ptr<Server>(new Server(service, nullptr, options));
  GEOLIC_RETURN_IF_ERROR(server->Listen());
  server->io_thread_ = std::thread(&Server::IoLoop, server.get());
  return server;
}

Result<std::unique_ptr<Server>> Server::StartWithCatalog(
    CatalogService* catalog, const ServerOptions& options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("server needs a catalog");
  }
  auto server =
      std::unique_ptr<Server>(new Server(nullptr, catalog, options));
  GEOLIC_RETURN_IF_ERROR(server->Listen());
  server->io_thread_ = std::thread(&Server::IoLoop, server.get());
  return server;
}

Status Server::Listen() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Errno("epoll_create1");
  }
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Errno("eventfd");
  }
  listen_fd_ =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Errno("socket");
  }
  const int enable = 1;
  if (setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof(enable)) < 0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("unparseable bind address: " +
                                   options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    return Errno("bind " + options_.bind_address + ":" +
                 std::to_string(options_.port));
  }
  if (listen(listen_fd_, options_.listen_backlog) < 0) {
    return Errno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kListenId;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) < 0) {
    return Errno("epoll_ctl(listen)");
  }
  event.events = EPOLLIN;
  event.data.u64 = kWakeId;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) < 0) {
    return Errno("epoll_ctl(wake)");
  }
  return Status::Ok();
}

Server::~Server() {
  Drain();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
  }
  if (wake_fd_ >= 0) {
    close(wake_fd_);
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

void Server::Drain() {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  if (drained_) {
    return;
  }
  drained_ = true;
  // The reactor sees the flag on its next turn: it closes the listener,
  // parks every connection's read side, pushes the last responses out
  // until the peers have acknowledged them (bounded by drain_timeout_ms
  // against clients that stopped reading) and exits. Requests decoded
  // before the flag were admitted and
  // answered in their own turn; the join means no admission — and so no
  // pinned catalog epoch — is still in flight.
  draining_.store(true, std::memory_order_release);
  uint64_t one = 1;
  (void)!write(wake_fd_, &one, sizeof(one));
  if (io_thread_.joinable()) {
    io_thread_.join();
  }
}

bool Server::IoDone() const {
  for (const auto& entry : conns_) {
    // Done once the peer has acknowledged every response, not once the
    // kernel holds it: input still arriving after close() makes the
    // kernel reset the connection, discarding whatever is unacknowledged.
    int unacked = 0;
    if (!entry.second->write_buf.empty() ||
        (ioctl(entry.second->fd, SIOCOUTQ, &unacked) == 0 && unacked > 0)) {
      return false;
    }
  }
  return true;
}

void Server::IoLoop() {
  epoll_event events[64];
  bool accepting = true;
  uint64_t drain_deadline_ms = 0;
  // End of the poll window the last turn that read from a peer fed by
  // another CPU opened.
  std::chrono::steady_clock::time_point poll_until;
  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      if (accepting) {
        // Stop accepting and stop reading: intake ends, outflow continues.
        accepting = false;
        close(listen_fd_);
        listen_fd_ = -1;
        for (auto& entry : conns_) {
          entry.second->paused = true;
          UpdateInterest(entry.second.get());
        }
        drain_deadline_ms =
            NowMillis() +
            static_cast<uint64_t>(std::max(options_.drain_timeout_ms, 0));
      }
      if (IoDone() || NowMillis() >= drain_deadline_ms) {
        break;
      }
    }
    int n = 0;
    if (draining) {
      n = epoll_wait(epoll_fd_, events, 64, 20);
    } else if (std::chrono::steady_clock::now() < poll_until) {
      n = epoll_wait(epoll_fd_, events, 64, 0);
      if (n == 0) {
        // An empty poll runs no turn body. The yield hands the CPU to
        // whatever shares it; on a core the reactor has to itself it
        // returns at once.
        sched_yield();
        continue;
      }
    } else {
      stats_.reactor_sleeps.fetch_add(1, std::memory_order_relaxed);
      n = epoll_wait(epoll_fd_, events, 64, -1);
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // epoll itself failed; nothing recoverable remains.
    }
    bool poll_next = false;
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t mask = events[i].events;
      if (id == kListenId) {
        if (accepting) {
          AcceptReady();
        }
        continue;
      }
      if (id == kWakeId) {
        uint64_t drained_count = 0;
        (void)!read(wake_fd_, &drained_count, sizeof(drained_count));
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) {
        continue;  // Closed earlier in this batch of events.
      }
      Connection* conn = it->second.get();
      if ((mask & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(id);
        continue;
      }
      if ((mask & EPOLLIN) != 0) {
        poll_next = poll_next || FedByAnotherCpu(conn->fd);
        HandleReadable(conn);  // Its output leaves in AdmitPending.
        read_this_turn_.push_back(id);
      } else if ((mask & EPOLLOUT) != 0) {
        FlushWrites(conn);
      }
    }
    AdmitPending();
    if (poll_next) {
      poll_until = std::chrono::steady_clock::now() + kPollWindow;
    }
  }
  // Teardown: whatever is still connected gets a hard close (drain either
  // finished flushing or timed out on an unreading peer).
  for (auto& entry : conns_) {
    close(entry.second->fd);
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::AcceptReady() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN or a transient accept error: try next wake.
    }
    if (conns_.size() >= options_.max_connections) {
      close(fd);  // At capacity: refuse before the handshake.
      continue;
    }
    // Responses leave as whole frames, one send per connection per turn;
    // Nagle would only hold each one until the client's next ACK.
    const int nodelay = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                     sizeof(nodelay));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->interest = EPOLLIN;
    epoll_event event{};
    event.events = conn->interest;
    event.data.u64 = conn->id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      close(fd);
      continue;
    }
    stats_.connections_opened.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::HandleReadable(Connection* conn) {
#ifndef GEOLIC_DISABLE_TRACING
  const uint64_t read_start =
      options_.tracer != nullptr ? TraceNowNanos() : 0;
#endif
  bool peer_closed = false;
  char buf[16384];
  size_t read_this_wake = 0;
  while (read_this_wake < kMaxReadPerWake) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->read_buf.Append(std::string_view(buf, static_cast<size_t>(n)));
      stats_.bytes_read.fetch_add(static_cast<uint64_t>(n),
                                  std::memory_order_relaxed);
      read_this_wake += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < sizeof(buf)) {
        // A short read drained the socket for now; what arrives later
        // (or the peer's EOF) makes level-triggered epoll report the
        // connection again, so no recv needs to come back EAGAIN.
        break;
      }
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    CloseConnection(conn->id);  // Unrecoverable socket error.
    return;
  }

  if (!conn->saw_magic) {
    if (conn->read_buf.size() < sizeof(kWireMagic)) {
      if (peer_closed) {
        CloseConnection(conn->id);
      }
      return;
    }
    if (std::memcmp(conn->read_buf.data().data(), kWireMagic,
                    sizeof(kWireMagic)) != 0) {
      ProtocolError(conn, "bad connection magic");
      return;
    }
    conn->read_buf.Consume(sizeof(kWireMagic));
    conn->saw_magic = true;
  }

  uint64_t frames_this_wake = 0;
  while (!conn->closing) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const DecodeResult decoded =
        TryDecodeFrame(conn->read_buf.data(), &frame, &consumed, &error);
    if (decoded == DecodeResult::kNeedMore) {
      break;
    }
    if (decoded == DecodeResult::kBad) {
      ProtocolError(conn, error);
      return;
    }
    conn->read_buf.Consume(consumed);
    ++frames_this_wake;
    stats_.frames_decoded.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(conn, frame);
  }
#ifndef GEOLIC_DISABLE_TRACING
  if (options_.tracer != nullptr && frames_this_wake > 0) {
    // One span per loop turn that completed frames: recv + ring append +
    // incremental decode for everything this wake delivered.
    TraceSpan span;
    span.request_id = 0;
    span.stage = TraceStage::kNetRead;
    span.outcome = TraceOutcome::kOk;
    span.start_nanos = read_start;
    span.duration_nanos = TraceNowNanos() - read_start;
    options_.tracer->Record(span);
  }
#else
  (void)frames_this_wake;
#endif
  if (peer_closed) {
    // The peer half-closed its write side; the end of the turn answers
    // what it sent, flushes, then closes.
    conn->closing = true;
  }
}

void Server::HandleFrame(Connection* conn, const Frame& frame) {
  if (!IsRequestKind(frame.kind)) {
    ProtocolError(conn, "response kind from client");
    return;
  }
  if (frame.kind == FrameKind::kPing) {
    SendFrame(conn, FrameKind::kPong, frame.request_id, {});
    return;
  }
  // Issue requests. Semantic failures answer kError but keep the
  // connection: the framing was sound, only this request was bad.
  uint64_t tenant_id = 0;
  Result<License> license = [&]() -> Result<License> {
    if (frame.kind == FrameKind::kTenantIssueRequest) {
      if (catalog_ == nullptr) {
        return Status::FailedPrecondition(
            "tenant-addressed request on a single-service server");
      }
      GEOLIC_ASSIGN_OR_RETURN(TenantIssueRequest request,
                              DecodeTenantIssueRequest(frame.payload));
      tenant_id = request.tenant_id;
      return std::move(request.license);
    }
    if (catalog_ != nullptr) {
      return Status::FailedPrecondition(
          "catalog server requires tenant-addressed requests");
    }
    return DecodeIssueRequest(frame.payload);
  }();
  if (!license.ok()) {
    SendFrame(conn, FrameKind::kError, frame.request_id,
              license.status().message());
    return;
  }
  if (license->aggregate_count() <= 0) {
    // Pre-checked here because the service fails a whole batch on it —
    // one hostile request must not poison its batchmates' admissions.
    SendFrame(conn, FrameKind::kError, frame.request_id,
              "issued license must carry a positive count");
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    SendFrame(conn, FrameKind::kError, frame.request_id, "server draining");
    return;
  }
  if (pending_.size() >= options_.queue_capacity) {
    stats_.requests_shed.fetch_add(1, std::memory_order_relaxed);
    SendFrame(conn, FrameKind::kShed, frame.request_id, {});
    return;
  }
  pending_.push_back(PendingRequest{conn->id, frame.request_id,
                                    TraceNowNanos(), tenant_id,
                                    *std::move(license)});
  stats_.requests_enqueued.fetch_add(1, std::memory_order_relaxed);
  const uint64_t depth = pending_.size();
  stats_.queue_depth.store(depth, std::memory_order_relaxed);
  if (depth > stats_.queue_depth_peak.load(std::memory_order_relaxed)) {
    stats_.queue_depth_peak.store(depth, std::memory_order_relaxed);
  }
}

void Server::SendFrame(Connection* conn, FrameKind kind, uint64_t request_id,
                       std::string_view payload) {
  EncodeFrame(kind, request_id, payload, conn->write_buf.tail());
}

void Server::ProtocolError(Connection* conn, const std::string& message) {
  stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  // Stream-level error (request_id 0): the connection cannot resync, so
  // the error frame is the last thing it will ever receive. Requests it
  // sent earlier in this turn are dropped unadmitted, since no answer
  // could follow the error.
  while (!pending_.empty() && pending_.back().conn_id == conn->id) {
    pending_.pop_back();
  }
  SendFrame(conn, FrameKind::kError, 0, message);
  conn->closing = true;
}

void Server::FlushWrites(Connection* conn) {
#ifndef GEOLIC_DISABLE_TRACING
  const uint64_t write_start =
      options_.tracer != nullptr ? TraceNowNanos() : 0;
#endif
  uint64_t sent_total = 0;
  while (!conn->write_buf.empty()) {
    const std::string_view chunk = conn->write_buf.data();
    const ssize_t sent =
        send(conn->fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;  // Kernel buffer full; EPOLLOUT will resume the flush.
      }
      CloseConnection(conn->id);  // Peer is gone; drop the backlog.
      return;
    }
    conn->write_buf.Consume(static_cast<size_t>(sent));
    sent_total += static_cast<uint64_t>(sent);
  }
  if (sent_total > 0) {
    stats_.bytes_written.fetch_add(sent_total, std::memory_order_relaxed);
#ifndef GEOLIC_DISABLE_TRACING
    if (options_.tracer != nullptr) {
      TraceSpan span;
      span.request_id = 0;
      span.stage = TraceStage::kNetWrite;
      span.outcome = TraceOutcome::kOk;
      span.start_nanos = write_start;
      span.duration_nanos = TraceNowNanos() - write_start;
      options_.tracer->Record(span);
    }
#endif
  }
  if (conn->closing && conn->write_buf.empty()) {
    CloseConnection(conn->id);
    return;
  }
  // Backpressure: a swollen write buffer parks the read side; a
  // half-drained one un-parks it (hysteresis so one borderline send does
  // not flap the epoll interest).
  if (!conn->paused && conn->write_buf.size() > options_.max_write_buffer) {
    conn->paused = true;
  } else if (conn->paused && !conn->closing &&
             !draining_.load(std::memory_order_acquire) &&
             conn->write_buf.size() < options_.max_write_buffer / 2) {
    conn->paused = false;
  }
  conn->want_write = !conn->write_buf.empty();
  UpdateInterest(conn);
}

void Server::UpdateInterest(Connection* conn) {
  uint32_t interest = 0;
  if (!conn->paused && !conn->closing) {
    interest |= EPOLLIN;
  }
  if (conn->want_write) {
    interest |= EPOLLOUT;
  }
  if (interest == conn->interest) {
    return;  // Most turns: EPOLLIN before, EPOLLIN after, no syscall.
  }
  epoll_event event{};
  event.events = interest;
  event.data.u64 = conn->id;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event) == 0) {
    conn->interest = interest;
  }
}

void Server::CloseConnection(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  close(it->second->fd);  // Also deregisters from epoll.
  conns_.erase(it);
  stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
}

void Server::AdmitPending() {
  if (!pending_.empty()) {
#ifndef GEOLIC_DISABLE_TRACING
    if (options_.tracer != nullptr) {
      // Decode → admission: how long each request waited for the rest of
      // its turn, stamped with the client's correlation id (diagnostic,
      // not a tracer request id).
      const uint64_t now = TraceNowNanos();
      for (const PendingRequest& request : pending_) {
        TraceSpan span;
        span.request_id = request.request_id;
        span.stage = TraceStage::kNetBatchWait;
        span.outcome = TraceOutcome::kOk;
        span.start_nanos = request.enqueue_nanos;
        span.duration_nanos = now - request.enqueue_nanos;
        options_.tracer->Record(span);
      }
    }
#endif
    if (catalog_ != nullptr) {
      // Per-request routing: each request may hit a different tenant (and
      // may compile or evict one), so the shared-lock coalescing of the
      // single-service path does not apply across tenants.
      for (const PendingRequest& request : pending_) {
        AnswerIssue(request,
                    catalog_->TryIssue(request.tenant_id, request.license));
      }
      stats_.batches_dispatched.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (size_t begin = 0; begin < pending_.size(); begin += kMaxBatch) {
        const size_t end = std::min(pending_.size(), begin + kMaxBatch);
        batch_licenses_.clear();
        for (size_t i = begin; i < end; ++i) {
          batch_licenses_.push_back(&pending_[i].license);
        }
        batch_decisions_.assign(end - begin, OnlineDecision());
        size_t decided = 0;
        const Status admitted = service_->TryIssueBatch(
            std::span<const License* const>(batch_licenses_.data(),
                                            batch_licenses_.size()),
            std::span<OnlineDecision>(batch_decisions_.data(),
                                      batch_decisions_.size()),
            &decided);
        stats_.batches_dispatched.fetch_add(1, std::memory_order_relaxed);
        // Each member by its own outcome: the decided ones (applied and
        // journaled) get their decisions; the one the batch stopped at
        // (a journal error) and every later one, none of them admitted,
        // get its error.
        for (size_t i = begin; i < end; ++i) {
          AnswerIssue(pending_[i],
                      i - begin < decided
                          ? Result<OnlineDecision>(
                                std::move(batch_decisions_[i - begin]))
                          : Result<OnlineDecision>(admitted));
        }
      }
    }
    stats_.batch_requests_dispatched.fetch_add(pending_.size(),
                                               std::memory_order_relaxed);
    pending_.clear();
    stats_.queue_depth.store(0, std::memory_order_relaxed);
  }
  // One flush per connection read this turn, looked up by id: a flush
  // that hits a dead peer closes its connection.
  for (const uint64_t id : read_this_turn_) {
    const auto it = conns_.find(id);
    if (it != conns_.end()) {
      FlushWrites(it->second.get());
    }
  }
  read_this_turn_.clear();
}

void Server::AnswerIssue(const PendingRequest& request,
                         const Result<OnlineDecision>& decision) {
  // The request's connection is still open: a connection read this turn
  // closes only on a recv error, before it decodes anything, or in the
  // flush after admission.
  Connection* conn = conns_.find(request.conn_id)->second.get();
  if (!decision.ok()) {
    SendFrame(conn, FrameKind::kError, request.request_id,
              decision.status().message());
    return;
  }
  IssueResult result;
  result.outcome = decision->accepted()
                       ? IssueResult::Outcome::kAccepted
                       : (decision->instance_valid
                              ? IssueResult::Outcome::kRejectedAggregate
                              : IssueResult::Outcome::kRejectedInstance);
  result.catalog_epoch = decision->catalog_epoch;
  result.equations_checked =
      static_cast<uint64_t>(decision->equations_checked);
  result_payload_.clear();
  EncodeIssueResult(result, &result_payload_);
  SendFrame(conn, FrameKind::kIssueResult, request.request_id,
            result_payload_);
}

NetStats Server::Stats() const {
  NetStats stats;
  stats.connections_opened =
      stats_.connections_opened.load(std::memory_order_relaxed);
  stats.connections_closed =
      stats_.connections_closed.load(std::memory_order_relaxed);
  stats.frames_decoded =
      stats_.frames_decoded.load(std::memory_order_relaxed);
  stats.requests_enqueued =
      stats_.requests_enqueued.load(std::memory_order_relaxed);
  stats.requests_shed = stats_.requests_shed.load(std::memory_order_relaxed);
  stats.protocol_errors =
      stats_.protocol_errors.load(std::memory_order_relaxed);
  stats.batches_dispatched =
      stats_.batches_dispatched.load(std::memory_order_relaxed);
  stats.batch_requests_dispatched =
      stats_.batch_requests_dispatched.load(std::memory_order_relaxed);
  stats.queue_depth = stats_.queue_depth.load(std::memory_order_relaxed);
  stats.queue_depth_peak =
      stats_.queue_depth_peak.load(std::memory_order_relaxed);
  stats.bytes_read = stats_.bytes_read.load(std::memory_order_relaxed);
  stats.bytes_written = stats_.bytes_written.load(std::memory_order_relaxed);
  stats.reactor_sleeps =
      stats_.reactor_sleeps.load(std::memory_order_relaxed);
  return stats;
}

ExpositionInput Server::Snap() const {
  ExpositionInput input =
      catalog_ != nullptr ? catalog_->Snap() : service_->Snap();
  input.has_net = true;
  const NetStats stats = Stats();
  input.net.connections_opened = stats.connections_opened;
  input.net.connections_closed = stats.connections_closed;
  input.net.frames_decoded = stats.frames_decoded;
  input.net.requests_enqueued = stats.requests_enqueued;
  input.net.requests_shed = stats.requests_shed;
  input.net.protocol_errors = stats.protocol_errors;
  input.net.batches_dispatched = stats.batches_dispatched;
  input.net.batch_requests_dispatched = stats.batch_requests_dispatched;
  input.net.queue_depth = stats.queue_depth;
  input.net.queue_depth_peak = stats.queue_depth_peak;
  input.net.bytes_read = stats.bytes_read;
  input.net.bytes_written = stats.bytes_written;
  input.net.reactor_sleeps = stats.reactor_sleeps;
  return input;
}

}  // namespace geolic::net
