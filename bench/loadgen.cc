// Closed-loop TCP load generator for the network front-end (docs/WIRE.md):
// starts an in-process Server over a grouped catalog, opens N client
// connections, and drives pipelined issue requests through the real wire
// path — encode, socket, epoll, admission queue, TryIssueBatch, response.
//
// Reports client-side latency percentiles plus the server's own counters;
// the headline number is the mean wire batch size (batched requests per
// TryIssueBatch dispatch), which is > 1 whenever concurrent connections
// actually coalesce into shared service-lock acquisitions.
//
// --overload=1 shrinks the admission queue so the run demonstrates load
// shedding: sheds become nonzero, protocol errors must stay zero, and
// every shed is an explicit kShed response the client observes.
//
// --tenants=T switches to the multi-tenant catalog path: the server fronts
// a CatalogService over T Zipf(--zipf)-popular contents with an LRU budget
// of --budget_mb and one journal (every frame synced before its response),
// clients send kTenantIssueRequest frames, and the report adds the
// catalog's hit rate, compiles, evictions and resident gauges — a healthy
// run at --tenants=100000 keeps well under 10% of tenants resident while
// sustaining steady-state throughput.
// Machine-readable: --json_out=<path>.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <filesystem>
#include <list>

#include "bench/bench_util.h"
#include "catalog/catalog_service.h"
#include "catalog/tenant_source.h"
#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/issuance_service.h"
#include "util/check.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workload/multi_tenant.h"

namespace {

using namespace geolic;  // NOLINT

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Disjoint clusters of two overlapping licenses with effectively unlimited
// budgets, so accepted/rejected is deterministic and the run measures the
// wire path, not budget exhaustion.
LicenseCatalog MakeCatalog(const ConstraintSchema& schema, int groups) {
  LicenseCatalog licenses(&schema);
  for (int g = 0; g < groups; ++g) {
    const int64_t base = 1000 * g;
    for (int member = 0; member < 2; ++member) {
      LicenseBuilder builder(&schema);
      builder.SetId("L" + std::to_string(2 * g + member))
          .SetContentKey("K")
          .SetType(LicenseType::kRedistribution)
          .SetPermission(Permission::kPlay)
          .SetAggregateCount(int64_t{1} << 40)
          .SetInterval("C1", base + 10 * member, base + 20 + 10 * member);
      GEOLIC_CHECK(licenses.Add(*builder.Build()).ok());
    }
  }
  return licenses;
}

struct ClientResult {
  std::vector<uint64_t> latency_nanos;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
};

// One closed-loop connection: keeps up to `pipeline` requests in flight,
// stamping send time per request id and classifying every response.
// `make_frame(id, out)` appends the complete wire frame for request `id`.
template <typename MakeFrame>
void RunClientLoop(uint16_t port, MakeFrame&& make_frame, int requests,
                   int pipeline, ClientResult* result) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  GEOLIC_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  GEOLIC_CHECK(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
  GEOLIC_CHECK(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) == 0);
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  const auto send_all = [fd](std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      GEOLIC_CHECK(n > 0);
      off += static_cast<size_t>(n);
    }
  };

  send_all(std::string_view(net::kWireMagic, sizeof(net::kWireMagic)));

  std::unordered_map<uint64_t, uint64_t> sent_nanos;
  sent_nanos.reserve(static_cast<size_t>(pipeline) * 2);
  uint64_t next_id = 1;
  const auto send_one = [&] {
    std::string bytes;
    make_frame(next_id, &bytes);
    sent_nanos[next_id] = NowNanos();
    ++next_id;
    send_all(bytes);
  };

  std::string buffer;
  const auto read_frame = [&](net::Frame* frame) {
    for (;;) {
      size_t consumed = 0;
      std::string error;
      const net::DecodeResult decoded =
          net::TryDecodeFrame(buffer, frame, &consumed, &error);
      if (decoded == net::DecodeResult::kFrame) {
        buffer.erase(0, consumed);
        return;
      }
      GEOLIC_CHECK(decoded == net::DecodeResult::kNeedMore);
      char chunk[8192];
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      GEOLIC_CHECK(n > 0);  // EOF mid-run means the server dropped us.
      buffer.append(chunk, static_cast<size_t>(n));
    }
  };

  const int initial = std::min(pipeline, requests);
  for (int i = 0; i < initial; ++i) {
    send_one();
  }
  for (int received = 0; received < requests; ++received) {
    net::Frame frame;
    read_frame(&frame);
    const auto it = sent_nanos.find(frame.request_id);
    GEOLIC_CHECK(it != sent_nanos.end());
    result->latency_nanos.push_back(NowNanos() - it->second);
    sent_nanos.erase(it);
    switch (frame.kind) {
      case net::FrameKind::kIssueResult: {
        net::IssueResult issue;
        GEOLIC_CHECK(net::DecodeIssueResult(frame.payload, &issue).ok());
        if (issue.outcome == net::IssueResult::Outcome::kAccepted) {
          ++result->accepted;
        } else {
          ++result->rejected;
        }
        break;
      }
      case net::FrameKind::kShed:
        ++result->shed;
        break;
      default:
        ++result->errors;
        break;
    }
    if (next_id <= static_cast<uint64_t>(requests)) {
      send_one();
    }
  }
  close(fd);
}

// Single-service client: cycles the pre-encoded group payloads.
void RunClient(uint16_t port, const std::vector<std::string>& payloads,
               int requests, int pipeline, ClientResult* result) {
  RunClientLoop(
      port,
      [&payloads](uint64_t id, std::string* bytes) {
        net::EncodeFrame(net::FrameKind::kIssueRequest, id,
                         payloads[static_cast<size_t>(id) % payloads.size()],
                         bytes);
      },
      requests, pipeline, result);
}

// Catalog-mode client: draws a Zipf tenant per request and a usage license
// inside that tenant's baseline. Baselines are materialized client-side on
// demand behind a small generational cache — the Zipf head dominates the
// draws, so a few dozen entries absorb almost all of them while the tail
// stays cold, mirroring what real per-content traffic looks like to the
// server's LRU.
void RunTenantClient(uint16_t port, const MultiTenantWorkload* workload,
                     int requests, int pipeline, uint64_t seed,
                     ClientResult* result) {
  constexpr size_t kBaselineCacheCap = 64;
  Rng rng(seed);
  std::unordered_map<uint64_t, std::unique_ptr<Workload>> baselines;
  RunClientLoop(
      port,
      [&](uint64_t id, std::string* bytes) {
        const uint64_t tenant = workload->DrawTenant(&rng);
        auto it = baselines.find(tenant);
        if (it == baselines.end()) {
          if (baselines.size() >= kBaselineCacheCap) {
            baselines.clear();
          }
          Result<Workload> made = workload->MakeTenant(tenant);
          GEOLIC_CHECK(made.ok());
          it = baselines
                   .emplace(tenant,
                            std::make_unique<Workload>(std::move(*made)))
                   .first;
        }
        const License request = workload->DrawRequest(
            *it->second, &rng, static_cast<int64_t>(id));
        std::string payload;
        GEOLIC_CHECK(
            net::EncodeTenantIssueRequest(tenant, request, &payload).ok());
        net::EncodeFrame(net::FrameKind::kTenantIssueRequest, id, payload,
                         bytes);
      },
      requests, pipeline, result);
}

uint64_t Percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(rank)];
}

}  // namespace

int main(int argc, char** argv) {
  using geolic::JsonWriter;
  using geolic::bench::Flags;
  using geolic::bench::JsonOut;

  Flags flags(argc, argv);
  const int connections = std::max(1, flags.Int("connections", 64));
  const int requests = std::max(1, flags.Int("requests", 400));
  const int pipeline = std::max(1, flags.Int("pipeline", 8));
  const int groups = std::max(1, flags.Int("groups", 8));
  const bool overload = flags.Int("overload", 0) != 0;
  // Multi-tenant catalog mode (0 = classic single-service run).
  const int tenants = std::max(0, flags.Int("tenants", 0));
  const double zipf_s = std::strtod(flags.Str("zipf", "1.1").c_str(), nullptr);
  const int budget_mb = std::max(1, flags.Int("budget_mb", 64));
  JsonOut json(flags, "loadgen");
  flags.Finish();
  const bool catalog_mode = tenants > 0;
  GEOLIC_CHECK(!catalog_mode || zipf_s > 0);

  ConstraintSchema schema;
  GEOLIC_CHECK(schema.AddIntervalDimension("C1").ok());
  const LicenseCatalog licenses = MakeCatalog(schema, groups);

  net::ServerOptions options;
  if (overload) {
    // A queue far smaller than the in-flight volume: overload must degrade
    // to explicit sheds, never to protocol errors or unbounded latency.
    options.queue_capacity = 2;
  }

  std::unique_ptr<IssuanceService> service;
  std::unique_ptr<MultiTenantWorkload> tenant_workload;
  std::unique_ptr<WorkloadTenantSource> tenant_source;
  std::unique_ptr<CatalogService> catalog;
  std::filesystem::path catalog_dir;
  std::unique_ptr<net::Server> server;
  if (catalog_mode) {
    MultiTenantConfig config;
    config.num_tenants = static_cast<uint64_t>(tenants);
    config.zipf_s = zipf_s;
    tenant_workload = std::make_unique<MultiTenantWorkload>(config);
    tenant_source =
        std::make_unique<WorkloadTenantSource>(tenant_workload.get());
    catalog_dir = std::filesystem::temp_directory_path() /
                  ("geolic-loadgen-" + std::to_string(getpid()));
    std::error_code ec;
    std::filesystem::remove_all(catalog_dir, ec);
    CatalogOptions catalog_options;
    catalog_options.dir = catalog_dir.string();
    catalog_options.memory_budget_bytes =
        static_cast<size_t>(budget_mb) << 20;
    Result<std::unique_ptr<CatalogService>> made =
        CatalogService::Create(tenant_source.get(), catalog_options);
    GEOLIC_CHECK(made.ok());
    catalog = std::move(*made);
    Result<std::unique_ptr<net::Server>> started =
        net::Server::StartWithCatalog(catalog.get(), options);
    GEOLIC_CHECK(started.ok());
    server = std::move(*started);
  } else {
    Result<std::unique_ptr<IssuanceService>> made =
        IssuanceService::Create(&licenses);
    GEOLIC_CHECK(made.ok());
    service = std::move(*made);
    Result<std::unique_ptr<net::Server>> started =
        net::Server::Start(service.get(), options);
    GEOLIC_CHECK(started.ok());
    server = std::move(*started);
  }

  // Pre-encoded request payloads cycling the groups; every request is
  // instance-valid. (Single-service mode only; catalog clients generate
  // per-tenant requests on the fly.)
  std::vector<std::string> payloads;
  payloads.reserve(static_cast<size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    LicenseBuilder builder(&schema);
    builder.SetId("U" + std::to_string(g))
        .SetContentKey("K")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(1)
        .SetInterval("C1", 1000 * g + 12, 1000 * g + 18);
    std::string payload;
    GEOLIC_CHECK(net::EncodeIssueRequest(*builder.Build(), &payload).ok());
    payloads.push_back(std::move(payload));
  }

  if (catalog_mode) {
    std::printf("# loadgen: %d connections x %d requests, pipeline %d, "
                "%d tenants (zipf %.2f, budget %d MB)%s\n",
                connections, requests, pipeline, tenants, zipf_s, budget_mb,
                overload ? ", OVERLOAD (queue_capacity=2)" : "");
  } else {
    std::printf("# loadgen: %d connections x %d requests, pipeline %d%s\n",
                connections, requests, pipeline,
                overload ? ", OVERLOAD (queue_capacity=2)" : "");
  }

  std::vector<ClientResult> results(static_cast<size_t>(connections));
  Stopwatch timer;
  {
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      if (catalog_mode) {
        clients.emplace_back(RunTenantClient, server->port(),
                             tenant_workload.get(), requests, pipeline,
                             /*seed=*/0x10ad6e0u + static_cast<uint64_t>(c),
                             &results[static_cast<size_t>(c)]);
      } else {
        clients.emplace_back(RunClient, server->port(), std::cref(payloads),
                             requests, pipeline,
                             &results[static_cast<size_t>(c)]);
      }
    }
    for (std::thread& client : clients) {
      client.join();
    }
  }
  const double elapsed_ms = timer.ElapsedMillis();

  ClientResult total;
  for (const ClientResult& r : results) {
    total.accepted += r.accepted;
    total.rejected += r.rejected;
    total.shed += r.shed;
    total.errors += r.errors;
    total.latency_nanos.insert(total.latency_nanos.end(),
                               r.latency_nanos.begin(),
                               r.latency_nanos.end());
  }
  std::sort(total.latency_nanos.begin(), total.latency_nanos.end());
  const uint64_t p50 = Percentile(total.latency_nanos, 0.50);
  const uint64_t p99 = Percentile(total.latency_nanos, 0.99);
  const uint64_t p999 = Percentile(total.latency_nanos, 0.999);

  const net::NetStats stats = server->Stats();
  const double mean_batch =
      stats.batches_dispatched > 0
          ? static_cast<double>(stats.batch_requests_dispatched) /
                static_cast<double>(stats.batches_dispatched)
          : 0.0;
  const uint64_t answered = total.accepted + total.rejected + total.shed;
  const double kreq_per_s =
      elapsed_ms > 0 ? static_cast<double>(answered) / elapsed_ms : 0.0;

  std::printf("# %" PRIu64 " answered in %.1f ms (%.1f kreq/s): "
              "%" PRIu64 " accepted, %" PRIu64 " rejected, %" PRIu64
              " shed, %" PRIu64 " errors\n",
              answered, elapsed_ms, kreq_per_s, total.accepted,
              total.rejected, total.shed, total.errors);
  std::printf("# latency us: p50 %.1f  p99 %.1f  p99.9 %.1f\n",
              static_cast<double>(p50) / 1e3, static_cast<double>(p99) / 1e3,
              static_cast<double>(p999) / 1e3);
  std::printf("# server: %" PRIu64 " batches, %" PRIu64
              " batched requests, mean batch %.2f, queue peak %" PRIu64
              ", %" PRIu64 " protocol errors\n",
              stats.batches_dispatched, stats.batch_requests_dispatched,
              mean_batch, stats.queue_depth_peak, stats.protocol_errors);

  CatalogStats catalog_stats;
  double hit_rate = 0.0;
  double resident_fraction = 0.0;
  if (catalog_mode) {
    catalog_stats = catalog->stats();
    const uint64_t lookups = catalog_stats.hits + catalog_stats.misses;
    hit_rate = lookups > 0 ? static_cast<double>(catalog_stats.hits) /
                                 static_cast<double>(lookups)
                           : 0.0;
    resident_fraction = static_cast<double>(catalog_stats.resident_tenants) /
                        static_cast<double>(tenants);
    std::printf("# catalog: hit rate %.3f (%" PRIu64 " hits, %" PRIu64
                " misses), %" PRIu64 " compiles, %" PRIu64 " spill loads, "
                "%" PRIu64 " evictions\n",
                hit_rate, catalog_stats.hits, catalog_stats.misses,
                catalog_stats.compiles, catalog_stats.loads,
                catalog_stats.evictions);
    std::printf("# catalog: %" PRIu64 " of %d tenants resident (%.1f%%), "
                "%" PRIu64 " resident bytes, %" PRIu64 " journal frames\n",
                catalog_stats.resident_tenants, tenants,
                100.0 * resident_fraction, catalog_stats.resident_bytes,
                catalog_stats.journal_frames);
  }

  json.Row([&](JsonWriter& out) {
    out.KeyValue("connections", static_cast<int64_t>(connections));
    out.KeyValue("requests_per_connection", static_cast<int64_t>(requests));
    out.KeyValue("pipeline", static_cast<int64_t>(pipeline));
    out.KeyValue("overload", overload ? int64_t{1} : int64_t{0});
    out.KeyValue("elapsed_ms", elapsed_ms);
    out.KeyValue("kreq_per_s", kreq_per_s);
    out.KeyValue("accepted", total.accepted);
    out.KeyValue("rejected", total.rejected);
    out.KeyValue("shed", total.shed);
    out.KeyValue("errors", total.errors);
    out.KeyValue("p50_nanos", p50);
    out.KeyValue("p99_nanos", p99);
    out.KeyValue("p999_nanos", p999);
    out.KeyValue("batches_dispatched", stats.batches_dispatched);
    out.KeyValue("batch_requests_dispatched",
                 stats.batch_requests_dispatched);
    out.KeyValue("mean_batch_size", mean_batch);
    out.KeyValue("queue_depth_peak", stats.queue_depth_peak);
    out.KeyValue("protocol_errors", stats.protocol_errors);
    out.KeyValue("bytes_read", stats.bytes_read);
    out.KeyValue("bytes_written", stats.bytes_written);
    if (catalog_mode) {
      out.KeyValue("tenants", static_cast<int64_t>(tenants));
      out.KeyValue("zipf_s", zipf_s);
      out.KeyValue("budget_mb", static_cast<int64_t>(budget_mb));
      out.KeyValue("catalog_hit_rate", hit_rate);
      out.KeyValue("catalog_hits", catalog_stats.hits);
      out.KeyValue("catalog_misses", catalog_stats.misses);
      out.KeyValue("catalog_compiles", catalog_stats.compiles);
      out.KeyValue("catalog_spill_loads", catalog_stats.loads);
      out.KeyValue("catalog_evictions", catalog_stats.evictions);
      out.KeyValue("catalog_spills", catalog_stats.spills);
      out.KeyValue("catalog_resident_tenants",
                   catalog_stats.resident_tenants);
      out.KeyValue("catalog_resident_bytes", catalog_stats.resident_bytes);
      out.KeyValue("catalog_resident_fraction", resident_fraction);
      out.KeyValue("catalog_journal_frames", catalog_stats.journal_frames);
    }
  });
  json.Write();

  server->Drain();
  GEOLIC_CHECK(stats.protocol_errors == 0);
  if (catalog_mode) {
    // Every request must round-trip as a real decision: shedding is fine
    // under --overload, hard errors are not.
    GEOLIC_CHECK(total.errors == 0);
    GEOLIC_CHECK(catalog->Close().ok());
    std::error_code ec;
    std::filesystem::remove_all(catalog_dir, ec);
  }
  return 0;
}
