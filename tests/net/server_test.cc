#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "obs/exposition.h"
#include "persist/faulty_file.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "test_util.h"
#include "util/check.h"

namespace geolic::net {
namespace {

using geolic::testing::IntervalSchema;
using geolic::testing::MakeRedistribution;
using geolic::testing::MakeUsage;

// Minimal blocking client for loopback tests: connect, push bytes,
// decode response frames off a local ring.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    GEOLIC_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    GEOLIC_CHECK(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    GEOLIC_CHECK(connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0);
    timeval timeout{};
    timeout.tv_sec = 20;  // Bounds every recv so a server bug cannot hang.
    (void)setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
  }

  ~TestClient() { Close(); }

  int fd() const { return fd_; }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

  void ShutdownWrite() { GEOLIC_CHECK(shutdown(fd_, SHUT_WR) == 0); }

  void SendMagic() {
    SendRaw(std::string_view(kWireMagic, sizeof(kWireMagic)));
  }

  void SendRaw(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      GEOLIC_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
  }

  void SendFrame(FrameKind kind, uint64_t request_id,
                 std::string_view payload) {
    std::string bytes;
    EncodeFrame(kind, request_id, payload, &bytes);
    SendRaw(bytes);
  }

  // Blocks until one frame decodes; false at the end of the stream (EOF,
  // or a reset from a server that closed with request bytes unread).
  bool ReadFrame(Frame* frame) {
    for (;;) {
      size_t consumed = 0;
      std::string error;
      const DecodeResult result =
          TryDecodeFrame(buffer_, frame, &consumed, &error);
      if (result == DecodeResult::kFrame) {
        buffer_.erase(0, consumed);
        return true;
      }
      GEOLIC_CHECK(result == DecodeResult::kNeedMore);
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0 || (n < 0 && errno == ECONNRESET)) {
        return false;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      GEOLIC_CHECK(n > 0);
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  // True once the server closes the connection (drains any last frames).
  bool ReadEof() {
    for (;;) {
      char chunk[256];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) {
        return true;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0) {
        return false;  // Timeout or error: the peer never closed.
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

bool SameEndpoint(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_family == AF_INET && b.sin_family == AF_INET &&
         a.sin_port == b.sin_port && a.sin_addr.s_addr == b.sin_addr.s_addr;
}

// The server's end of the client socket `client_fd`, found among this
// process's open descriptors by its address pair; -1 if none matches.
int ServerEndOf(int client_fd) {
  sockaddr_in client_local{};
  sockaddr_in client_peer{};
  socklen_t len = sizeof(client_local);
  GEOLIC_CHECK(getsockname(client_fd,
                           reinterpret_cast<sockaddr*>(&client_local),
                           &len) == 0);
  len = sizeof(client_peer);
  GEOLIC_CHECK(getpeername(client_fd,
                           reinterpret_cast<sockaddr*>(&client_peer),
                           &len) == 0);
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename().string());
    sockaddr_in local{};
    sockaddr_in peer{};
    socklen_t local_len = sizeof(local);
    socklen_t peer_len = sizeof(peer);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&local), &local_len) !=
            0 ||
        getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) !=
            0) {
      continue;  // Not a connected socket.
    }
    if (SameEndpoint(local, client_peer) && SameEndpoint(peer, client_local)) {
      return fd;
    }
  }
  return -1;
}

// One redistribution license [0,20] with the given budget; requests
// inside it share the single satisfying set {L1}.
struct Fixture {
  explicit Fixture(int64_t budget,
                   const ServerOptions& options = ServerOptions())
      : schema(IntervalSchema(1)), licenses(&schema) {
    GEOLIC_CHECK(
        licenses.Add(MakeRedistribution(schema, "L1", {{0, 20}}, budget))
            .ok());
    Result<std::unique_ptr<IssuanceService>> created =
        IssuanceService::Create(&licenses);
    GEOLIC_CHECK(created.ok());
    service = *std::move(created);
    Result<std::unique_ptr<Server>> started =
        Server::Start(service.get(), options);
    GEOLIC_CHECK(started.ok());
    server = *std::move(started);
  }

  License Inside(int i, int64_t count = 1) const {
    return MakeUsage(schema, "U" + std::to_string(i), {{5, 10}}, count);
  }

  License Outside(int i) const {
    return MakeUsage(schema, "U" + std::to_string(i), {{500, 510}}, 1);
  }

  std::string IssuePayload(const License& license) const {
    std::string payload;
    GEOLIC_CHECK(EncodeIssueRequest(license, &payload).ok());
    return payload;
  }

  ConstraintSchema schema;
  LicenseCatalog licenses;
  std::unique_ptr<IssuanceService> service;
  std::unique_ptr<Server> server;
};

TEST(ServerTest, PingPongEchoesRequestId) {
  Fixture fx(5);
  TestClient client(fx.server->port());
  client.SendMagic();
  client.SendFrame(FrameKind::kPing, 77, {});
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kPong);
  EXPECT_EQ(frame.request_id, 77u);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(ServerTest, IssueAcceptsThenRejectsOnBudgetAndGeometry) {
  Fixture fx(2);
  TestClient client(fx.server->port());
  client.SendMagic();

  const auto issue = [&](uint64_t id, const License& license) {
    client.SendFrame(FrameKind::kIssueRequest, id, fx.IssuePayload(license));
    Frame frame;
    GEOLIC_CHECK(client.ReadFrame(&frame));
    EXPECT_EQ(frame.kind, FrameKind::kIssueResult);
    EXPECT_EQ(frame.request_id, id);
    IssueResult result;
    GEOLIC_CHECK(DecodeIssueResult(frame.payload, &result).ok());
    return result;
  };

  EXPECT_EQ(issue(1, fx.Inside(1)).outcome, IssueResult::Outcome::kAccepted);
  EXPECT_EQ(issue(2, fx.Inside(2)).outcome, IssueResult::Outcome::kAccepted);
  // Budget of 2 exhausted: aggregate reject, with the work receipt.
  const IssueResult third = issue(3, fx.Inside(3));
  EXPECT_EQ(third.outcome, IssueResult::Outcome::kRejectedAggregate);
  EXPECT_GT(third.equations_checked, 0u);
  // Outside every license: instance reject.
  EXPECT_EQ(issue(4, fx.Outside(4)).outcome,
            IssueResult::Outcome::kRejectedInstance);
}

TEST(ServerTest, PipelinedBurstAnswersEveryRequest) {
  Fixture fx(1000);
  TestClient client(fx.server->port());

  // Magic + 48 requests in a single write: the server must decode them
  // incrementally and answer each one exactly once.
  std::string burst(kWireMagic, sizeof(kWireMagic));
  constexpr uint64_t kRequests = 48;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    EncodeFrame(FrameKind::kIssueRequest, id,
                fx.IssuePayload(fx.Inside(static_cast<int>(id))), &burst);
  }
  client.SendRaw(burst);

  std::set<uint64_t> answered;
  for (uint64_t i = 0; i < kRequests; ++i) {
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.kind, FrameKind::kIssueResult);
    IssueResult result;
    ASSERT_TRUE(DecodeIssueResult(frame.payload, &result).ok());
    EXPECT_EQ(result.outcome, IssueResult::Outcome::kAccepted);
    EXPECT_TRUE(answered.insert(frame.request_id).second)
        << "duplicate response for " << frame.request_id;
  }
  EXPECT_EQ(answered.size(), kRequests);
  EXPECT_EQ(*answered.begin(), 1u);
  EXPECT_EQ(*answered.rbegin(), kRequests);

  const NetStats stats = fx.server->Stats();
  EXPECT_EQ(stats.requests_enqueued, kRequests);
  EXPECT_EQ(stats.batch_requests_dispatched, kRequests);
  EXPECT_GE(stats.batches_dispatched, 1u);
  EXPECT_LE(stats.batches_dispatched, kRequests);
  EXPECT_EQ(stats.requests_shed, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServerTest, AcceptedSocketsDisableNagle) {
  Fixture fx(5);
  TestClient client(fx.server->port());
  client.SendMagic();
  client.SendFrame(FrameKind::kPing, 1, {});
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));  // The server has accepted.
  const int server_fd = ServerEndOf(client.fd());
  ASSERT_GE(server_fd, 0);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(getsockopt(server_fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_EQ(nodelay, 1);
}

// User + system CPU time of the whole process.
std::chrono::microseconds ProcessCpuTime() {
  rusage usage{};
  GEOLIC_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  const auto micros = [](const timeval& tv) {
    return std::chrono::seconds(tv.tv_sec) +
           std::chrono::microseconds(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

// Pins the calling thread to one CPU; threads it starts inherit the mask.
void PinToCpu(size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  GEOLIC_CHECK(sched_setaffinity(0, sizeof(set), &set) == 0);
}

// Restores the calling thread's CPU mask when it goes out of scope.
struct ScopedAffinity {
  ScopedAffinity() {
    GEOLIC_CHECK(sched_getaffinity(0, sizeof(saved), &saved) == 0);
  }
  ~ScopedAffinity() { (void)sched_setaffinity(0, sizeof(saved), &saved); }
  cpu_set_t saved;
};

TEST(ServerTest, IdleReactorSleepsAfterThePollWindow) {
  // A poll window opens only for a client on another CPU: start the
  // reactor on the first allowed CPU and run the client on the second.
  // With one CPU allowed no window opens, and the test checks that the
  // server still sleeps.
  const ScopedAffinity restore;
  std::vector<size_t> cpus;
  for (size_t cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
    if (CPU_ISSET(cpu, &restore.saved)) {
      cpus.push_back(cpu);
    }
  }
  if (cpus.size() == 2) {
    PinToCpu(cpus[0]);
  }
  Fixture fx(5);
  if (cpus.size() == 2) {
    PinToCpu(cpus[1]);
  }
  TestClient client(fx.server->port());
  client.SendMagic();
  client.SendFrame(FrameKind::kPing, 1, {});
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));

  // The reactor polls for one short window after the round trip, then
  // blocks: 200 ms of idleness must cost the process next to no CPU. A
  // poll that never ends would burn the whole 200 ms.
  const std::chrono::microseconds cpu_before = ProcessCpuTime();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::chrono::microseconds cpu_used = ProcessCpuTime() - cpu_before;
  EXPECT_LT(cpu_used, std::chrono::milliseconds(20));
  // One sleep before the first event, at least one after the last turn.
  EXPECT_GE(fx.server->Stats().reactor_sleeps, 2u);
}

TEST(ServerTest, OneWritePastQueueCapacityShedsTheRestOfTheTurn) {
  ServerOptions options;
  options.queue_capacity = 8;
  Fixture fx(1000, options);
  TestClient client(fx.server->port());
  std::string burst(kWireMagic, sizeof(kWireMagic));
  constexpr uint64_t kRequests = 48;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    EncodeFrame(FrameKind::kIssueRequest, id,
                fx.IssuePayload(fx.Inside(static_cast<int>(id))), &burst);
  }
  client.SendRaw(burst);

  std::set<uint64_t> answered;
  uint64_t results = 0;
  uint64_t sheds = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    EXPECT_TRUE(answered.insert(frame.request_id).second)
        << "duplicate response for " << frame.request_id;
    if (frame.kind == FrameKind::kIssueResult) {
      ++results;
    } else {
      ASSERT_EQ(frame.kind, FrameKind::kShed);
      ++sheds;
    }
  }
  EXPECT_EQ(results + sheds, kRequests);
  EXPECT_GE(sheds, 1u);
  EXPECT_EQ(*answered.begin(), 1u);
  EXPECT_EQ(*answered.rbegin(), kRequests);

  const NetStats stats = fx.server->Stats();
  EXPECT_EQ(stats.requests_enqueued + stats.requests_shed, kRequests);
  EXPECT_EQ(stats.requests_enqueued, results);
  EXPECT_EQ(stats.requests_shed, sheds);
  EXPECT_LE(stats.queue_depth_peak, options.queue_capacity);
}

TEST(ServerTest, HalfClosedClientStillGetsEveryAnswer) {
  Fixture fx(1000);
  TestClient client(fx.server->port());
  std::string burst(kWireMagic, sizeof(kWireMagic));
  constexpr uint64_t kRequests = 8;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    EncodeFrame(FrameKind::kIssueRequest, id,
                fx.IssuePayload(fx.Inside(static_cast<int>(id))), &burst);
  }
  client.SendRaw(burst);
  client.ShutdownWrite();  // The EOF may arrive in the requests' turn.

  std::set<uint64_t> answered;
  Frame frame;
  while (client.ReadFrame(&frame)) {
    EXPECT_EQ(frame.kind, FrameKind::kIssueResult);
    EXPECT_TRUE(answered.insert(frame.request_id).second);
  }
  EXPECT_EQ(answered.size(), kRequests);
  EXPECT_EQ(fx.service->metrics().Snap().accepted, kRequests);
}

// A journal error part-way through a turn's batch: the request decided
// before it is journaled and applied, so its answer is its decision; the
// failing request and the one after it were not admitted and get errors.
TEST(ServerTest, JournalErrorMidBatchAnswersEachRequestByItsOutcome) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog licenses(&schema);
  ASSERT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L1", {{0, 20}}, 1000)).ok());
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  auto file = std::make_unique<FaultyFile>(
      std::make_unique<InMemorySyncFile>());
  FaultyFile* faults = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(*std::move(journal)).ok());
  faults->ScheduleTearAppend(2, 5);  // The 2nd frame after the magic.
  Result<std::unique_ptr<Server>> server =
      Server::Start(service->get(), ServerOptions());
  ASSERT_TRUE(server.ok());

  TestClient client((*server)->port());
  std::string burst(kWireMagic, sizeof(kWireMagic));
  for (uint64_t id = 1; id <= 3; ++id) {
    std::string payload;
    ASSERT_TRUE(EncodeIssueRequest(
                    MakeUsage(schema, "U" + std::to_string(id), {{5, 10}}, 1),
                    &payload)
                    .ok());
    EncodeFrame(FrameKind::kIssueRequest, id, payload, &burst);
  }
  client.SendRaw(burst);

  std::map<uint64_t, Frame> answers;
  for (int i = 0; i < 3; ++i) {
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    answers[frame.request_id] = frame;
  }
  ASSERT_EQ(answers.size(), 3u);
  ASSERT_EQ(answers[1].kind, FrameKind::kIssueResult);
  IssueResult result;
  ASSERT_TRUE(DecodeIssueResult(answers[1].payload, &result).ok());
  EXPECT_EQ(result.outcome, IssueResult::Outcome::kAccepted);
  EXPECT_EQ(answers[2].kind, FrameKind::kError);
  EXPECT_EQ(answers[3].kind, FrameKind::kError);

  const LogStore log = (*service)->CollectLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].count, 1);
  EXPECT_EQ((*service)->metrics().Snap().accepted, 1u);
}

// Past the reactor's 16 KiB receive buffer: each turn reads until a recv
// comes back short, and level-triggered epoll brings the connection back
// for what is left, so nothing of the burst goes unanswered.
TEST(ServerTest, FortyKibBurstIsFullyAnswered) {
  Fixture fx(1000000);
  TestClient client(fx.server->port());
  std::string burst(kWireMagic, sizeof(kWireMagic));
  uint64_t requests = 0;
  while (burst.size() < 40 * 1024) {
    ++requests;
    EncodeFrame(FrameKind::kIssueRequest, requests,
                fx.IssuePayload(fx.Inside(static_cast<int>(requests))),
                &burst);
  }
  client.SendRaw(burst);

  std::set<uint64_t> answered;
  for (uint64_t i = 0; i < requests; ++i) {
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame)) << answered.size() << " answered";
    ASSERT_EQ(frame.kind, FrameKind::kIssueResult);
    EXPECT_TRUE(answered.insert(frame.request_id).second);
  }
  EXPECT_EQ(answered.size(), requests);
  EXPECT_EQ(*answered.rbegin(), requests);
  EXPECT_EQ(fx.service->metrics().Snap().accepted, requests);
  EXPECT_EQ(fx.server->Stats().bytes_read, burst.size());
}

// A frame whose bytes arrive in two sends: the first read is short and
// ends the turn with the frame incomplete; the rest completes it.
TEST(ServerTest, FrameSplitAcrossTwoSendsIsAnswered) {
  Fixture fx(1000);
  TestClient client(fx.server->port());
  client.SendMagic();
  std::string frame_bytes;
  EncodeFrame(FrameKind::kIssueRequest, 7, fx.IssuePayload(fx.Inside(7)),
              &frame_bytes);
  const size_t half = frame_bytes.size() / 2;
  client.SendRaw(std::string_view(frame_bytes).substr(0, half));
  for (int waited_ms = 0;
       fx.server->Stats().bytes_read < sizeof(kWireMagic) + half &&
       waited_ms < 5000;
       ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fx.server->Stats().bytes_read, sizeof(kWireMagic) + half);
  EXPECT_EQ(fx.server->Stats().frames_decoded, 0u);
  client.SendRaw(std::string_view(frame_bytes).substr(half));

  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kIssueResult);
  EXPECT_EQ(frame.request_id, 7u);
  EXPECT_EQ(fx.service->metrics().Snap().accepted, 1u);
}

// A peer that sends its last request and half-closes straight after it:
// the request's read may end short of the EOF, which the next turn then
// reads. The answer arrives first, then the server's close.
TEST(ServerTest, LastRequestThenHalfCloseGetsTheAnswerThenTheClose) {
  Fixture fx(1000);
  TestClient client(fx.server->port());
  client.SendMagic();
  client.SendFrame(FrameKind::kIssueRequest, 1, fx.IssuePayload(fx.Inside(1)));
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.request_id, 1u);

  client.SendFrame(FrameKind::kIssueRequest, 2, fx.IssuePayload(fx.Inside(2)));
  client.ShutdownWrite();
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kIssueResult);
  EXPECT_EQ(frame.request_id, 2u);
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(fx.service->metrics().Snap().accepted, 2u);
}

TEST(ServerTest, BadMagicGetsStreamErrorAndClose) {
  Fixture fx(5);
  TestClient client(fx.server->port());
  client.SendRaw("NOTMAGIC");
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.request_id, 0u);  // Stream-level: no request to blame.
  EXPECT_NE(frame.payload.find("magic"), std::string::npos);
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(fx.server->Stats().protocol_errors, 1u);
}

TEST(ServerTest, CorruptFrameGetsStreamErrorAndClose) {
  Fixture fx(5);
  TestClient client(fx.server->port());
  client.SendMagic();
  std::string bytes;
  EncodeFrame(FrameKind::kPing, 5, {}, &bytes);
  bytes[2] = static_cast<char>(bytes[2] ^ 0x10);  // Flip a length bit.
  client.SendRaw(bytes);
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.request_id, 0u);
  EXPECT_NE(frame.payload.find("crc"), std::string::npos);
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(fx.server->Stats().protocol_errors, 1u);
}

TEST(ServerTest, ProtocolErrorDropsTheTurnsRequestsUnadmitted) {
  Fixture fx(1000);
  TestClient client(fx.server->port());
  // One write: four sound requests, then a corrupt frame. All of it is
  // decoded in one turn, so the requests are still pending when the
  // stream error lands, and no answer may follow that error.
  std::string burst(kWireMagic, sizeof(kWireMagic));
  for (uint64_t id = 1; id <= 4; ++id) {
    EncodeFrame(FrameKind::kIssueRequest, id,
                fx.IssuePayload(fx.Inside(static_cast<int>(id))), &burst);
  }
  std::string bad;
  EncodeFrame(FrameKind::kPing, 5, {}, &bad);
  bad[2] = static_cast<char>(bad[2] ^ 0x10);
  client.SendRaw(burst + bad);

  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.request_id, 0u);
  EXPECT_FALSE(client.ReadFrame(&frame));  // Nothing after the error.
  EXPECT_EQ(fx.service->metrics().Snap().total_requests(), 0u);
  EXPECT_TRUE(fx.service->CollectLog().empty());
}

TEST(ServerTest, MalformedLicensePayloadKeepsConnectionAlive) {
  Fixture fx(5);
  TestClient client(fx.server->port());
  client.SendMagic();
  // The framing is sound, only the payload is garbage: a request-scoped
  // kError, and the connection keeps serving.
  client.SendFrame(FrameKind::kIssueRequest, 9, "not a license");
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.request_id, 9u);

  client.SendFrame(FrameKind::kPing, 10, {});
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kPong);
  EXPECT_EQ(frame.request_id, 10u);
  EXPECT_EQ(fx.server->Stats().protocol_errors, 0u);
}

TEST(ServerTest, ResponseKindFromClientIsAProtocolError) {
  Fixture fx(5);
  TestClient client(fx.server->port());
  client.SendMagic();
  client.SendFrame(FrameKind::kPong, 3, {});
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(frame.request_id, 0u);
  EXPECT_TRUE(client.ReadEof());
}

TEST(ServerTest, FullAdmissionQueueShedsExplicitly) {
  ServerOptions options;
  options.queue_capacity = 0;  // Every issue request finds a full queue.
  Fixture fx(5, options);
  TestClient client(fx.server->port());
  client.SendMagic();
  for (uint64_t id = 1; id <= 3; ++id) {
    client.SendFrame(FrameKind::kIssueRequest, id,
                     fx.IssuePayload(fx.Inside(static_cast<int>(id))));
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    EXPECT_EQ(frame.kind, FrameKind::kShed);
    EXPECT_EQ(frame.request_id, id);
  }
  // Shed is an explicit response, not a drop: the connection still works.
  client.SendFrame(FrameKind::kPing, 99, {});
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kPong);

  const NetStats stats = fx.server->Stats();
  EXPECT_EQ(stats.requests_shed, 3u);
  EXPECT_EQ(stats.requests_enqueued, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServerTest, DrainFlushesAndStopsAcceptingIdempotently) {
  Fixture fx(100);
  TestClient client(fx.server->port());
  client.SendMagic();
  client.SendFrame(FrameKind::kIssueRequest, 1,
                   fx.IssuePayload(fx.Inside(1)));
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.kind, FrameKind::kIssueResult);

  fx.server->Drain();
  fx.server->Drain();  // Idempotent.
  EXPECT_TRUE(client.ReadEof());  // Outstanding connections are closed.

  const NetStats stats = fx.server->Stats();
  EXPECT_EQ(stats.connections_closed, stats.connections_opened);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServerTest, DrainMidStreamAnswersEveryAdmittedRequest) {
  ServerOptions options;
  options.queue_capacity = size_t{1} << 20;  // Nothing sheds.
  // The reader must finish before the drain gives up on it, also under a
  // sanitizer's slowdown.
  options.drain_timeout_ms = 60000;
  Fixture fx(1 << 20, options);  // Every admitted request is accepted.
  TestClient client(fx.server->port());
  client.SendMagic();

  // A sender pipelines requests until the server closes, so the drain
  // always meets unread requests. Drain runs on a third thread while the
  // client reads.
  std::atomic<uint64_t> sent{0};
  std::thread sender([&] {
    for (uint64_t id = 1;; ++id) {
      std::string frame;
      EncodeFrame(FrameKind::kIssueRequest, id,
                  fx.IssuePayload(fx.Inside(static_cast<int>(id))), &frame);
      for (size_t off = 0; off < frame.size();) {
        const ssize_t n = send(client.fd(), frame.data() + off,
                               frame.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n <= 0) {
          return;  // The server closed the connection.
        }
        off += static_cast<size_t>(n);
      }
      sent.store(id, std::memory_order_relaxed);
    }
  });
  // Read nothing until the answers overflow the client's receive buffer;
  // the rest then waits unacknowledged in the server's kernel.
  for (int waited_ms = 0;
       fx.server->Stats().batch_requests_dispatched < 20000 &&
       waited_ms < 20000;
       ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread drainer([&fx] { fx.server->Drain(); });
  // Still read nothing for a moment: a drain that closes before its
  // answers are acknowledged loses them to the reset.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<Frame> frames;
  Frame frame;
  while (client.ReadFrame(&frame)) {
    frames.push_back(frame);
  }
  drainer.join();
  sender.join();
  EXPECT_GE(frames.size(), 20000u);

  std::set<uint64_t> answered;
  uint64_t accepted = 0;
  for (const Frame& response : frames) {
    EXPECT_GE(response.request_id, 1u);
    EXPECT_LE(response.request_id, sent.load());
    EXPECT_TRUE(answered.insert(response.request_id).second)
        << "duplicate response for " << response.request_id;
    if (response.kind == FrameKind::kError) {
      EXPECT_EQ(response.payload, "server draining");
      continue;
    }
    ASSERT_EQ(response.kind, FrameKind::kIssueResult);
    IssueResult result;
    ASSERT_TRUE(DecodeIssueResult(response.payload, &result).ok());
    if (result.outcome == IssueResult::Outcome::kAccepted) {
      ++accepted;
    }
  }
  // Nothing was admitted without its answer reaching the client.
  EXPECT_EQ(accepted, fx.service->metrics().Snap().accepted);
  const NetStats stats = fx.server->Stats();
  EXPECT_EQ(stats.batch_requests_dispatched, stats.requests_enqueued);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.connections_closed, stats.connections_opened);
}

TEST(ServerTest, SnapExposesTheNetSectionInBothFormats) {
  Tracer tracer(TracerOptions{.slow_request_nanos = 0});
  ServerOptions options;
  options.tracer = &tracer;
  Fixture fx(100, options);
  TestClient client(fx.server->port());
  client.SendMagic();
  for (uint64_t id = 1; id <= 8; ++id) {
    client.SendFrame(FrameKind::kIssueRequest, id,
                     fx.IssuePayload(fx.Inside(static_cast<int>(id))));
    Frame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(frame.kind, FrameKind::kIssueResult);
  }

  ExpositionInput input = fx.server->Snap();
  ASSERT_TRUE(input.has_net);
  EXPECT_EQ(input.net.requests_enqueued, 8u);
  input.has_stages = true;
  input.stages = tracer.ProfileSnapshot();

  const std::string text = RenderPrometheusText(input);
  EXPECT_NE(text.find("geolic_net_requests_total{service=\"geolic\","
                      "event=\"enqueued\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("geolic_net_connections_total"), std::string::npos);
  EXPECT_NE(text.find("stage=\"net_read\""), std::string::npos);
  EXPECT_NE(text.find("stage=\"net_batch_wait\""), std::string::npos);
  EXPECT_NE(text.find("stage=\"net_write\""), std::string::npos);

  const std::string json = RenderJson(input);
  EXPECT_NE(json.find("\"net\":{\"connections\""), std::string::npos);
  EXPECT_NE(json.find("\"net_read\""), std::string::npos);
  EXPECT_NE(json.find("\"net_batch_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"net_write\""), std::string::npos);

#ifndef GEOLIC_DISABLE_TRACING
  // The three wire stages must have recorded real spans, not just exist
  // as empty families.
  const auto stage_count = [&input](TraceStage stage) {
    return input.stages.stage(stage).total_count;
  };
  EXPECT_GT(stage_count(TraceStage::kNetRead), 0u);
  EXPECT_GT(stage_count(TraceStage::kNetBatchWait), 0u);
  EXPECT_GT(stage_count(TraceStage::kNetWrite), 0u);
#endif
}

}  // namespace
}  // namespace geolic::net
