// wire-open: a single-service net::Server over loopback, fronting many
// tiny disjoint overlap groups, driven by one connection in an open loop at
// a fixed offered rate below the knee. Admission is about a microsecond of
// each request's latency here; the rest is the wire path (encode, socket,
// epoll, admission queue, batch worker, response).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/issuance_service.h"

namespace perfbench {
namespace {

using geolic::IssuanceService;
using geolic::License;
using geolic::net::FrameKind;
using geolic::net::IssueResult;

// Groups of two overlapping licences with budgets no run can exhaust: the
// loadgen catalogue. Every decision is an acceptance of a 1- or 2-licence
// satisfying set.
constexpr int kGroups = 64;
constexpr int64_t kBudget = int64_t{1} << 40;
constexpr uint64_t kWarmupPings = 1000;

struct Sizes {
  int rate;       // Offered requests per second.
  int requests;
  int setups;
};

Sizes SizesFor(const Args& args) {
  if (args.smoke) {
    return {5000, 2000, 2};
  }
  // 20k req/s sits below the knee with a mean batch of about 1: the queue
  // stays short and latency is the wire path's own.
  return {20000, 20000 * args.seconds, 101};
}

// Fixed thread placement: the client thread alone on the highest CPU, the
// server's threads (I/O and batch worker) on the two CPUs below it. Left
// to the scheduler, the threads' placement changed from run to run and
// wire-open's p50 with it (~40 or ~68 us); pinned apart, the server keeps
// cores of its own, as deployed. With fewer CPUs the sets share.
struct Placement {
  int client;
  std::vector<int> server;

  explicit Placement(const std::vector<int>& cpus) : client(cpus.back()) {
    for (size_t i = cpus.size() - 1; i > 0 && server.size() < 2; --i) {
      server.insert(server.begin(), cpus[i - 1]);
    }
    if (server.empty()) {
      server.push_back(client);
    }
  }
  size_t cpus_used() const {
    return server.size() + (server.back() == client ? 0 : 1);
  }
  std::string ToString() const {
    std::string text = "client on cpu " + std::to_string(client) +
                       ", server on cpus";
    for (const int cpu : server) {
      text += " " + std::to_string(cpu);
    }
    return text;
  }
};

void Pin(const std::vector<int>& cpus) {
  if (!PinCallingThread(cpus)) {
    std::fprintf(stderr, "perfbench: cannot set the CPU mask\n");
    std::exit(1);
  }
}

License MakeLicense(const geolic::ConstraintSchema& schema, std::string id,
                    geolic::LicenseType type, int64_t count, int64_t lo,
                    int64_t hi) {
  geolic::LicenseBuilder builder(&schema);
  builder.SetId(std::move(id))
      .SetContentKey("K")
      .SetType(type)
      .SetPermission(geolic::Permission::kPlay)
      .SetAggregateCount(count)
      .SetInterval("C1", lo, hi);
  return ValueOrDie(builder.Build(), "license");
}

// One usage request: an interval of dimension C1 and a count. Kept compact
// (the licence is rebuilt when needed) so the generator adds little to the
// process's resident set.
struct Request {
  int64_t lo;
  int64_t hi;
  int64_t count;
};

struct Inputs {
  geolic::ConstraintSchema schema;
  std::unique_ptr<geolic::LicenseCatalog> licenses;
  std::vector<Request> requests;
  // Issue payloads encoded before the window, back to back; request i is
  // payloads[offsets[i], offsets[i + 1]).
  std::string payloads;
  std::vector<size_t> offsets;

  License UsageLicense(size_t i) const {
    const Request& r = requests[i];
    return MakeLicense(schema, "U" + std::to_string(i + 1),
                       geolic::LicenseType::kUsage, r.count, r.lo, r.hi);
  }
  std::string_view Payload(size_t i) const {
    return std::string_view(payloads).substr(offsets[i],
                                             offsets[i + 1] - offsets[i]);
  }
};

void MakeInputs(const Args& args, const Sizes& sizes, Inputs* inputs) {
  DieIfError(inputs->schema.AddIntervalDimension("C1"), "schema");
  inputs->licenses = std::make_unique<geolic::LicenseCatalog>(&inputs->schema);
  for (int g = 0; g < kGroups; ++g) {
    for (int member = 0; member < 2; ++member) {
      const int64_t lo = 1000 * g + 10 * member;
      DieIfError(inputs->licenses
                     ->Add(MakeLicense(inputs->schema,
                                       "L" + std::to_string(2 * g + member),
                                       geolic::LicenseType::kRedistribution,
                                       kBudget, lo, lo + 20))
                     .status(),
                 "catalogue");
    }
  }
  geolic::Rng rng(args.seed);
  inputs->requests.reserve(static_cast<size_t>(sizes.requests));
  inputs->offsets.reserve(static_cast<size_t>(sizes.requests) + 1);
  inputs->offsets.push_back(0);
  std::string payload;
  for (int i = 0; i < sizes.requests; ++i) {
    // A sub-interval of [1000g, 1000g + 30]: inside one or both members.
    const int64_t base = 1000 * rng.UniformInt(0, kGroups - 1);
    const int64_t lo = base + rng.UniformInt(0, 20);
    const int64_t hi = std::min(lo + rng.UniformInt(0, 10),
                                lo < base + 10 ? base + 20 : base + 30);
    inputs->requests.push_back({lo, hi, rng.UniformInt(1, 30)});
    payload.clear();
    DieIfError(geolic::net::EncodeIssueRequest(
                   inputs->UsageLicense(static_cast<size_t>(i)), &payload),
               "encode");
    inputs->payloads += payload;
    inputs->offsets.push_back(inputs->payloads.size());
  }
}

// One blocking loopback connection (TCP_NODELAY), magic already sent.
class Connection {
 public:
  explicit Connection(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 || connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
      std::perror("perfbench: connect");
      std::exit(1);
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A response that never comes ends the run instead of hanging it.
    timeval timeout{};
    timeout.tv_sec = 20;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    SendAll(std::string_view(geolic::net::kWireMagic,
                             sizeof(geolic::net::kWireMagic)));
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void SendAll(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        std::perror("perfbench: send");
        std::exit(1);
      }
      off += static_cast<size_t>(n);
    }
  }

  // Appends what arrives to `buffer`; false on EOF or error.
  bool Receive(std::string* buffer) {
    char chunk[16384];
    for (;;) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      buffer->append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  // Waits up to `nanos` for data to read: 1 = readable, 0 = timed out,
  // -1 = interrupted.
  int WaitReadable(uint64_t nanos) {
    pollfd poll_fd{fd_, POLLIN, 0};
    timespec timeout{static_cast<time_t>(nanos / 1000000000ULL),
                     static_cast<long>(nanos % 1000000000ULL)};
    const int ready = ppoll(&poll_fd, 1, &timeout, nullptr);
    return ready > 0 ? 1 : ready;
  }

 private:
  int fd_ = -1;
};

// A running server plus its service and the client's connection.
// Members are destroyed client first, service last.
struct Serving {
  std::unique_ptr<IssuanceService> service;
  std::unique_ptr<geolic::net::Server> server;
  std::unique_ptr<Connection> connection;

  void Stop() {
    connection.reset();
    server.reset();
    service.reset();
  }
};

// Sends ping `id` and waits for its pong.
void Ping(Connection* connection, uint64_t id, std::string* buffer) {
  std::string ping;
  geolic::net::EncodeFrame(FrameKind::kPing, id, "", &ping);
  connection->SendAll(ping);
  geolic::net::Frame frame;
  size_t consumed = 0;
  std::string error;
  while (geolic::net::TryDecodeFrame(*buffer, &frame, &consumed, &error) !=
         geolic::net::DecodeResult::kFrame) {
    if (!connection->Receive(buffer)) {
      std::fprintf(stderr, "perfbench: server closed during set-up\n");
      std::exit(1);
    }
  }
  if (frame.kind != FrameKind::kPong || frame.request_id != id) {
    std::fprintf(stderr, "perfbench: unexpected set-up reply\n");
    std::exit(1);
  }
  buffer->erase(0, consumed);
}

// Starts the service and the server (its threads on the server CPUs),
// connects from the client CPU and waits for the first ping's reply: the
// set-up users pay before serving. Returns its duration in seconds; the
// moves between CPU sets are not counted.
double StartServing(const Inputs& inputs,
                    const geolic::OnlineValidatorOptions& service_options,
                    geolic::Tracer* tracer, const Placement& placement,
                    Serving* serving) {
  Pin(placement.server);
  uint64_t start = NowNanos();
  serving->service = ValueOrDie(
      IssuanceService::Create(inputs.licenses.get(), service_options),
      "IssuanceService::Create");
  geolic::net::ServerOptions options;
  options.tracer = tracer;
  serving->server = ValueOrDie(
      geolic::net::Server::Start(serving->service.get(), options),
      "Server::Start");
  uint64_t nanos = NowNanos() - start;
  Pin({placement.client});
  start = NowNanos();
  serving->connection = std::make_unique<Connection>(serving->server->port());
  std::string buffer;
  Ping(serving->connection.get(), 1, &buffer);
  nanos += NowNanos() - start;
  return static_cast<double>(nanos) / 1e9;
}

struct Answer {
  bool answered = false;
  bool duplicate = false;
  FrameKind kind = FrameKind::kError;
  IssueResult result;
};

// Returns the pass's p50 in microseconds.
double RunPass(const Args& args, const Sizes& sizes, const Inputs& inputs,
               bool traced, Report* report) {
  std::unique_ptr<geolic::Tracer> tracer;
  geolic::OnlineValidatorOptions service_options;
  if (traced) {
    // The program traces one request in 8, which keeps its span ring at a
    // few MiB.
    geolic::TracerOptions options =
        TracerFor(static_cast<size_t>(sizes.requests) + 4096);
    options.sample_period = 8;
    tracer = std::make_unique<geolic::Tracer>(options);
    service_options.tracer = tracer.get();
  }

  const Placement placement(args.cpus);
  report->Info("cpus_used", std::to_string(placement.cpus_used()));
  report->Info("cpu_placement", placement.ToString());
  Serving serving;
  std::vector<double> setup_s;
  for (int s = 0; s < (traced ? 1 : sizes.setups); ++s) {
    serving.Stop();
    setup_s.push_back(StartServing(inputs, service_options, tracer.get(),
                                   placement, &serving));
  }
  // The connection carries kWarmupPings round trips before traffic starts,
  // outside any timer.
  {
    std::string buffer;
    for (uint64_t id = 2; id <= kWarmupPings; ++id) {
      Ping(serving.connection.get(), id, &buffer);
    }
  }

  const size_t n = static_cast<size_t>(sizes.requests);
  const uint64_t interval_nanos =
      1000000000ULL / static_cast<uint64_t>(sizes.rate);
  std::vector<uint64_t> due(n);
  std::vector<uint64_t> latency_nanos(n, 0);
  std::vector<Answer> answers(n);
  std::vector<double> late_us;
  late_us.reserve(n);
  SpanLog spans(traced);
  uint64_t stray_frames = 0;

  // One client thread, open loop: request i is due at window_start + i *
  // interval and is sent as soon as the clock reaches it, however late the
  // previous one was; between sends the thread sleeps in ppoll until the
  // next due time or a response, as a client that shares its machine would,
  // rather than spinning. Timer slack is cut to 1 ns for the pacing sleeps
  // and restored afterwards.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  const uint64_t window_start = NowNanos() + 1000000;
  for (size_t i = 0; i < n; ++i) {
    due[i] = window_start + i * interval_nanos;
  }
  std::string frame;
  std::string buffer;
  size_t offset = 0;
  size_t sent = 0;
  size_t received = 0;
  bool open = true;
  while (received < n && open) {
    uint64_t now = NowNanos();
    while (sent < n && due[sent] <= now) {
      late_us.push_back(static_cast<double>(now - due[sent]) / 1e3);
      spans.set_current_request(sent + 1);
      frame.clear();
      {
        ScopedSpan span(&spans, "net", "EncodeFrame");
        geolic::net::EncodeFrame(FrameKind::kIssueRequest, sent + 1,
                                 inputs.Payload(sent), &frame);
      }
      serving.connection->SendAll(frame);
      ++sent;
      now = NowNanos();
    }
    // Wait for the next due time, or a response, whichever comes first;
    // after the last send, for responses only (up to 20 s).
    const uint64_t wait_nanos =
        sent < n ? due[sent] - std::min(due[sent], now) : 20000000000ULL;
    const int ready = serving.connection->WaitReadable(wait_nanos);
    if (ready == 0 && sent == n) {
      break;  // Responses stopped coming: the rest count as unanswered.
    }
    if (ready <= 0) {
      continue;
    }
    open = serving.connection->Receive(&buffer);
    const uint64_t arrived = NowNanos();
    for (;;) {
      geolic::net::Frame response;
      size_t consumed = 0;
      std::string error;
      geolic::net::DecodeResult decoded;
      {
        ScopedSpan span(&spans, "net", "TryDecodeFrame");
        decoded = geolic::net::TryDecodeFrame(
            std::string_view(buffer).substr(offset), &response, &consumed,
            &error);
      }
      if (decoded == geolic::net::DecodeResult::kNeedMore) {
        buffer.erase(0, offset);
        offset = 0;
        break;
      }
      if (decoded == geolic::net::DecodeResult::kBad) {
        ++stray_frames;
        open = false;
        break;
      }
      offset += consumed;
      const uint64_t id = response.request_id;
      if (id == 0 || id > sent) {
        ++stray_frames;
        continue;
      }
      spans.set_current_request(id);
      Answer& answer = answers[id - 1];
      if (answer.answered) {
        answer.duplicate = true;
        continue;
      }
      answer.answered = true;
      answer.kind = response.kind;
      latency_nanos[id - 1] = arrived - due[id - 1];
      if (response.kind == FrameKind::kIssueResult) {
        ScopedSpan span(&spans, "net", "DecodeIssueResult");
        if (!geolic::net::DecodeIssueResult(response.payload, &answer.result)
                 .ok()) {
          answer.kind = FrameKind::kError;
        }
      }
      ++received;
    }
  }
  prctl(PR_SET_TIMERSLACK, old_slack, 0, 0, 0);
  // Set-up plus the measured window: the footprint while serving.
  const double rss_mib = PeakRssMib();
  serving.server->Drain();
  const geolic::net::NetStats net = serving.server->Stats();

  // Every request answered exactly once, with the in-process decision.
  std::unique_ptr<IssuanceService> twin = ValueOrDie(
      IssuanceService::Create(inputs.licenses.get()), "twin service");
  SpanLog twin_spans(traced);
  Latencies latency;
  latency.Reserve(n);
  uint64_t failed = 0;
  uint64_t equations = 0;
  uint64_t accepted = 0;
  for (size_t i = 0; i < n; ++i) {
    twin_spans.set_current_request(i + 1);
    geolic::Result<geolic::OnlineDecision> want = [&] {
      ScopedSpan span(&twin_spans, "service", "TryIssue");
      return twin->TryIssue(inputs.UsageLicense(i));
    }();
    const Answer& got = answers[i];
    bool ok = want.ok() && got.answered && !got.duplicate &&
              got.kind == FrameKind::kIssueResult;
    if (ok) {
      const IssueResult::Outcome outcome =
          want->accepted() ? IssueResult::Outcome::kAccepted
          : want->instance_valid
              ? IssueResult::Outcome::kRejectedAggregate
              : IssueResult::Outcome::kRejectedInstance;
      ok = got.result.outcome == outcome &&
           got.result.catalog_epoch == want->catalog_epoch &&
           got.result.equations_checked == want->equations_checked;
      equations += want->equations_checked;
      accepted += want->accepted() ? 1 : 0;
    }
    if (ok) {
      latency.Add(latency_nanos[i], due[i] + latency_nanos[i]);
    } else {
      latency.AddFailed(due[i]);
      ++failed;
      report->Mismatch("request " + std::to_string(i + 1) +
                       (got.answered ? (got.duplicate ? " answered twice"
                                                      : " answered wrongly")
                                     : " never answered"));
    }
  }
  if (net.requests_shed != 0 || net.protocol_errors != 0 || stray_frames) {
    report->Mismatch("sheds, protocol errors or stray frames on the wire");
    ++failed;
  }

  serving.Stop();

  report->attempted += n;
  report->failed += failed;
  const double p50_us = latency.QuantileMicros(0.50);
  const double equations_per_op =
      static_cast<double>(equations) / static_cast<double>(n);
  const double accept_frac =
      static_cast<double>(accepted) / static_cast<double>(n);
  report->Count("service.equations_per_op", equations_per_op);
  report->Count("service.accept_frac", accept_frac);

  if (!traced) {
    report->Metric("setup_s", InterquartileMean(setup_s), "s");
    ReportLatency(latency, window_start, report);
    report->Metric("peak_rss_mib", rss_mib, "MiB");
    report->Info("offered_rate", std::to_string(sizes.rate));
    return p50_us;
  }

  report->Metric("service.try_issue_us",
                 Median(twin_spans.DurationsMicros("service", "TryIssue")),
                 "us");
  report->Metric("service.equations_per_op", equations_per_op, "count");
  report->Metric("service.accept_frac", accept_frac, "fraction");
  const double batches = static_cast<double>(std::max<uint64_t>(
      net.batches_dispatched, 1));
  report->Metric("net.mean_batch",
                 static_cast<double>(net.batch_requests_dispatched) / batches,
                 "count");
  report->Metric("net.queue_peak", static_cast<double>(net.queue_depth_peak),
                 "count");
  report->Metric("net.bytes_per_req",
                 static_cast<double>(net.bytes_read + net.bytes_written) /
                     static_cast<double>(n),
                 "B");
  report->Metric("net.shed", static_cast<double>(net.requests_shed), "count");
  report->Metric("net.protocol_errors",
                 static_cast<double>(net.protocol_errors), "count");
  // Client codec: encode of the request frame plus decode of the response.
  const double codec_us =
      Median(spans.DurationsMicros("net", "EncodeFrame")) +
      Median(spans.DurationsMicros("net", "TryDecodeFrame")) +
      Median(spans.DurationsMicros("net", "DecodeIssueResult"));
  report->Metric("net.client_codec_us", codec_us, "us");
  Latencies late;
  for (const double us : late_us) {
    late.Add(static_cast<uint64_t>(us * 1e3), 0);
  }
  report->Metric("net.gen_late_p99_us", late.QuantileMicros(0.99), "us");
  ReportStages(*tracer, report);
  // What the client waited for that no server stage on the blocking path
  // accounts for.
  double staged = 0;
  for (const geolic::TraceStage stage :
       {geolic::TraceStage::kNetRead, geolic::TraceStage::kNetBatchWait,
        geolic::TraceStage::kInstanceSoaScan,
        geolic::TraceStage::kShardLockWait, geolic::TraceStage::kEquationScan,
        geolic::TraceStage::kNetWrite}) {
    staged += StageP50Micros(*tracer, stage);
  }
  report->Metric("stage.unattributed_us", p50_us - staged, "us");

  DieIfError(WriteSpans(args.spans_path, {&spans, &twin_spans}),
             "write spans");
  return p50_us;
}

}  // namespace

void RunWireOpen(const Args& args, Report* report) {
  const Sizes sizes = SizesFor(args);
  Inputs inputs;
  MakeInputs(args, sizes, &inputs);
  report->Info("requests", std::to_string(sizes.requests));
  report->Info("loop", "open, " + std::to_string(sizes.rate) +
                           " req/s, 1 connection");
  RunPasses(args, report, [&](bool traced, Report* pass_report) {
    return RunPass(args, sizes, inputs, traced, pass_report);
  });
}

}  // namespace perfbench
