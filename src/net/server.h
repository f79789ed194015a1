#ifndef GEOLIC_NET_SERVER_H_
#define GEOLIC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/catalog_service.h"
#include "net/byte_queue.h"
#include "net/wire.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "service/issuance_service.h"
#include "util/status.h"

namespace geolic::net {

// Epoll-based TCP front-end for one IssuanceService (docs/WIRE.md). One
// reactor thread owns every socket and runs each request to completion in
// the epoll turn that decoded it:
//
//  * During the turn it accepts, reads, decodes frames incrementally off
//    per-connection byte queues, and appends each issue request to a
//    pending list. Pings, request-scoped errors and sheds are answered
//    inline. A request that finds queue_capacity requests already
//    pending is shed with an explicit kShed response — overload degrades
//    to fast rejections, never to unbounded memory.
//  * At the end of the turn it admits the pending list — TryIssueBatch in
//    chunks of 64 (kMaxBatch, server.cc), so requests from every
//    connection read in the turn share one acquisition of the service lock
//    per chunk; per-request CatalogService::TryIssue in catalog mode — each
//    journaled admission synced before its decision returns. Each request
//    is answered by its own outcome: when a chunk stops at a journal error,
//    the requests decided before it get their decisions and the rest get
//    the error. It encodes the responses into the
//    connections' write buffers and flushes each connection read in the
//    turn once: non-blocking sends (MSG_NOSIGNAL, EINTR/EAGAIN and
//    partial writes handled), EPOLLOUT re-armed for the rest.
//
// Between turns the reactor polls before it sleeps: after a turn that
// read from a connection whose packets another CPU processed
// (SO_INCOMING_CPU), it runs epoll_wait(…, 0) + sched_yield() until
// events arrive or kPollWindow (200 µs, server.cc) has passed, and only
// then blocks in epoll_wait(-1). A request on a busy connection so finds
// the reactor running instead of paying a wake-up on another CPU. An
// empty poll runs no turn body, and the yield lets whatever shares the
// reactor's CPU run. A client on the reactor's own CPU can only send
// while the reactor is off it, so its turns open no window. An idle
// server sleeps one window after its last event (NetStats::reactor_sleeps
// counts the sleeps).
//
// Accepted sockets set TCP_NODELAY: responses already leave as whole
// frames coalesced per connection, so Nagle's algorithm would only hold
// each send until the client's next ACK.
//
// Backpressure: a connection whose write buffer exceeds max_write_buffer
// stops being read until the backlog half-drains, so a client that will
// not read its responses throttles itself, not the server.
//
// Graceful drain (Drain(), also run by the destructor): stop accepting
// and reading, push the last responses out until every peer has
// acknowledged them (bounded by drain_timeout_ms), close and join the
// reactor. Every request decoded before the drain was admitted and
// answered in its own turn, after its journal frame's sync, so nothing is
// left to sync; and the join leaves no admission in flight, so a
// checkpoint cutover after Drain sees a quiesced service.
struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; Server::port() reports the choice.
  int listen_backlog = 128;
  size_t max_connections = 1024;
  // Bound on the requests one epoll turn decodes before it admits them;
  // a request past it is shed.
  size_t queue_capacity = 1024;
  // Per-connection write-buffer cap before reads pause (backpressure).
  size_t max_write_buffer = 256 * 1024;
  // How long Drain waits for unread responses before force-closing.
  int drain_timeout_ms = 5000;
  // Optional span sink for the net_read / net_batch_wait / net_write
  // stages; must outlive the server.
  Tracer* tracer = nullptr;
};

// Monotonic counters, snapshot by value. All grow except queue_depth.
struct NetStats {
  uint64_t connections_opened = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_decoded = 0;
  uint64_t requests_enqueued = 0;
  uint64_t requests_shed = 0;
  uint64_t protocol_errors = 0;
  uint64_t batches_dispatched = 0;
  uint64_t batch_requests_dispatched = 0;
  uint64_t queue_depth = 0;
  uint64_t queue_depth_peak = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  // Turns that began with a blocking epoll_wait(-1): the previous turn
  // opened no poll window, or it passed with no event. Drain's bounded
  // waits are not counted.
  uint64_t reactor_sleeps = 0;
};

class Server {
 public:
  // Binds, listens, and starts the reactor thread. `service` (and
  // options.tracer, when set) must outlive the server. A single-service
  // server answers kIssueRequest; tenant-addressed requests are semantic
  // errors.
  static Result<std::unique_ptr<Server>> Start(IssuanceService* service,
                                               const ServerOptions& options);

  // Multi-tenant front-end: the server routes kTenantIssueRequest frames
  // through `catalog` (content_id → lazy per-tenant service). Plain
  // kIssueRequest frames are semantic errors on this server. `catalog`
  // must outlive the server.
  static Result<std::unique_ptr<Server>> StartWithCatalog(
      CatalogService* catalog, const ServerOptions& options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ~Server();  // Runs Drain().

  // The bound TCP port (resolves port 0 to the kernel's pick).
  uint16_t port() const { return port_; }

  // Graceful shutdown; see the class comment. Idempotent, thread-safe.
  void Drain();

  NetStats Stats() const;

  // The service's observability snapshot with the net section filled in.
  ExpositionInput Snap() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    bool saw_magic = false;
    bool closing = false;  // Flush the write buffer, then close.
    bool paused = false;   // EPOLLIN parked for backpressure.
    bool want_write = false;  // EPOLLOUT wanted.
    uint32_t interest = 0;    // Events registered with epoll.
    ByteQueue read_buf;
    ByteQueue write_buf;
  };

  struct PendingRequest {
    uint64_t conn_id;
    uint64_t request_id;
    uint64_t enqueue_nanos;
    uint64_t tenant_id;  // Catalog mode only.
    License license;
  };

  Server(IssuanceService* service, CatalogService* catalog,
         const ServerOptions& options);

  Status Listen();
  void IoLoop();

  // --- Reactor thread only ---
  void AcceptReady();
  void HandleReadable(Connection* conn);
  void HandleFrame(Connection* conn, const Frame& frame);
  // End of turn: admits pending_, then flushes every connection read.
  void AdmitPending();
  void AnswerIssue(const PendingRequest& request,
                   const Result<OnlineDecision>& decision);
  void FlushWrites(Connection* conn);
  // Appends one frame to the write buffer; the end of the turn sends it.
  void SendFrame(Connection* conn, FrameKind kind, uint64_t request_id,
                 std::string_view payload);
  void ProtocolError(Connection* conn, const std::string& message);
  void CloseConnection(uint64_t conn_id);
  void UpdateInterest(Connection* conn);
  bool IoDone() const;

  IssuanceService* service_;   // Null in catalog mode.
  CatalogService* catalog_;    // Null in single-service mode.
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Drain() -> reactor.

  std::thread io_thread_;

  // Set by Drain(). From the next turn on the reactor neither accepts nor
  // reads; a request decoded after the store is answered "server
  // draining" instead of joining the turn's admission.
  std::atomic<bool> draining_{false};
  std::mutex drain_mutex_;  // Serializes Drain() callers.
  bool drained_ = false;    // Guarded by drain_mutex_.

  // Reactor-owned state. pending_ holds the requests decoded this turn
  // and read_this_turn_ the connections read in it; both are empty
  // between turns.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listen fd, 1 = wake fd.
  std::vector<PendingRequest> pending_;
  std::vector<uint64_t> read_this_turn_;
  std::vector<const License*> batch_licenses_;
  std::vector<OnlineDecision> batch_decisions_;
  std::string result_payload_;  // AnswerIssue's reused payload buffer.

  struct AtomicStats {
    std::atomic<uint64_t> connections_opened{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> frames_decoded{0};
    std::atomic<uint64_t> requests_enqueued{0};
    std::atomic<uint64_t> requests_shed{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> batches_dispatched{0};
    std::atomic<uint64_t> batch_requests_dispatched{0};
    std::atomic<uint64_t> queue_depth{0};
    std::atomic<uint64_t> queue_depth_peak{0};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> bytes_written{0};
    std::atomic<uint64_t> reactor_sleeps{0};
  };
  AtomicStats stats_;
};

}  // namespace geolic::net

#endif  // GEOLIC_NET_SERVER_H_
