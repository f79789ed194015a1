// Ablation: issuance throughput vs thread count under IssuanceService's
// one service lock. Every call — an admission, a whole batch, a
// reconfiguration — is one step under that lock, so admissions from any
// number of threads serialize, and the table shows what handing the lock
// between threads costs against one thread admitting alone. Also measures
// the batched admission API, which takes the lock once per batch.
// --journal=1 attaches an in-memory write-ahead journal to every service
// (each acceptance then also frames a journal record under the lock).
// Machine-readable: --json_out=<path>.
//
// Budgets are set far above the request volume so every instance-valid
// request is accepted and the accepted set is identical across thread
// counts — the run doubles as a determinism check against serial replay.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "licensing/constraint_schema.h"
#include "licensing/license.h"
#include "licensing/license_catalog.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace geolic;  // NOLINT

// `groups` disjoint clusters of two overlapping licenses each, far apart.
LicenseCatalog MakeGroupedSet(const ConstraintSchema& schema, int groups) {
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

// Request pool cycling across groups; every request is instance-valid and
// lands on satisfying set {L_{2g}, L_{2g+1}}.
std::vector<License> MakeRequests(const ConstraintSchema& schema, int groups,
                                  int count) {
  std::vector<License> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int64_t base = 1000 * (i % groups);
    LicenseBuilder builder(&schema);
    builder.SetId("U" + std::to_string(i))
        .SetContentKey("K")
        .SetType(LicenseType::kUsage)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(1)
        .SetInterval("C1", base + 12, base + 18);
    requests.push_back(*builder.Build());
  }
  return requests;
}

// Issues requests[lo, hi) on `service`.
void IssueRange(IssuanceService* service, const std::vector<License>& requests,
                size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    GEOLIC_CHECK(service->TryIssue(requests[i]).ok());
  }
}

double RunThreaded(IssuanceService* service,
                   const std::vector<License>& requests, int threads) {
  Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  const size_t per_thread = requests.size() / static_cast<size_t>(threads);
  for (int t = 0; t < threads; ++t) {
    const size_t lo = static_cast<size_t>(t) * per_thread;
    const size_t hi = t == threads - 1 ? requests.size() : lo + per_thread;
    workers.emplace_back(IssueRange, service, std::cref(requests), lo, hi);
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  return timer.ElapsedMillis();
}

// A service over `licenses`, with an in-memory journal when `journal`.
std::unique_ptr<IssuanceService> MakeService(
    const LicenseCatalog& licenses, const OnlineValidatorOptions& options,
    bool journal) {
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  GEOLIC_CHECK(service.ok());
  if (journal) {
    Result<std::unique_ptr<JournalWriter>> writer =
        JournalWriter::Create(std::make_unique<InMemorySyncFile>());
    GEOLIC_CHECK(writer.ok());
    GEOLIC_CHECK((*service)->AttachJournal(std::move(writer).value()).ok());
  }
  return std::move(service).value();
}

}  // namespace

int main(int argc, char** argv) {
  using geolic::JsonWriter;
  using geolic::bench::Flags;
  using geolic::bench::JsonOut;

  Flags flags(argc, argv);
  const int groups = std::max(1, flags.Int("groups", 8));
  const int request_count = std::max(1, flags.Int("requests", 40000));
  const int max_threads =
      std::max(1, flags.Int("max_threads",
                            std::max(8, ThreadPool::DefaultThreadCount())));
  const int batch_size = std::max(1, flags.Int("batch_size", 64));
  const std::string metrics_out = flags.Str("metrics_out", "");
  const bool journal = flags.Int("journal", 0) != 0;
  JsonOut json(flags, "ablation_service_concurrency");
  flags.Finish();

  ConstraintSchema schema;
  GEOLIC_CHECK(schema.AddIntervalDimension("C1").ok());
  const LicenseCatalog licenses = MakeGroupedSet(schema, groups);
  const std::vector<License> requests =
      MakeRequests(schema, groups, request_count);

  std::printf("# Ablation: concurrent issuance throughput (%d overlap "
              "groups, %d requests, hardware threads: %d, journal: %s)\n",
              groups, request_count, ThreadPool::DefaultThreadCount(),
              journal ? "in memory" : "none");
  std::printf("%8s  %12s  %12s  %10s\n", "threads", "elapsed_ms",
              "kreq_per_s", "speedup");

  // Serial reference state for the determinism check.
  std::string reference_tree;
  double serial_ms = 0.0;
  double widest_ms = 0.0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    const std::unique_ptr<IssuanceService> service =
        MakeService(licenses, {}, journal);
    const double elapsed_ms = RunThreaded(service.get(), requests, threads);
    if (threads == 1) {
      serial_ms = elapsed_ms;
      Result<ValidationTree> tree = service->CollectTree();
      GEOLIC_CHECK(tree.ok());
      reference_tree = tree->ToString();
    } else {
      // The accepted state must equal the serial run's, bit for bit.
      Result<ValidationTree> tree = service->CollectTree();
      GEOLIC_CHECK(tree.ok());
      GEOLIC_CHECK(tree->ToString() == reference_tree);
    }
    GEOLIC_CHECK(service->metrics().Snap().accepted ==
                 static_cast<uint64_t>(request_count));
    widest_ms = elapsed_ms;
    std::printf("%8d  %12.2f  %12.1f  %9.2fx\n", threads, elapsed_ms,
                static_cast<double>(request_count) / elapsed_ms,
                elapsed_ms > 0 ? serial_ms / elapsed_ms : 0.0);
    json.Row([&](JsonWriter& out) {
      out.KeyValue("mode", "threaded");
      out.KeyValue("threads", static_cast<int64_t>(threads));
      out.KeyValue("elapsed_ms", elapsed_ms);
      out.KeyValue("kreq_per_s",
                   static_cast<double>(request_count) / elapsed_ms);
      out.KeyValue("speedup",
                   elapsed_ms > 0 ? serial_ms / elapsed_ms : 0.0);
    });
  }

  std::printf("# one service lock: the most threads admit at %.2fx the "
              "1-thread rate (admissions serialize; the difference is the "
              "lock hand-off)\n",
              widest_ms > 0 ? serial_ms / widest_ms : 0.0);

  // Batched admission, single caller thread.
  {
    const std::unique_ptr<IssuanceService> service =
        MakeService(licenses, {}, journal);
    Stopwatch timer;
    std::vector<const License*> batch;
    batch.reserve(static_cast<size_t>(batch_size));
    std::vector<OnlineDecision> decisions(static_cast<size_t>(batch_size));
    for (size_t i = 0; i < requests.size();) {
      batch.clear();
      for (int b = 0; b < batch_size && i < requests.size(); ++b, ++i) {
        batch.push_back(&requests[i]);
      }
      GEOLIC_CHECK(service->TryIssueBatch(batch, decisions).ok());
    }
    const double elapsed_ms = timer.ElapsedMillis();
    Result<ValidationTree> tree = service->CollectTree();
    GEOLIC_CHECK(tree.ok());
    GEOLIC_CHECK(tree->ToString() == reference_tree);
    std::printf("# batched (size %d, 1 thread): %.2f ms (%.1f kreq/s)\n",
                batch_size, elapsed_ms,
                static_cast<double>(request_count) / elapsed_ms);
    std::printf("# metrics: %s\n",
                service->metrics().Snap().ToString().c_str());
    json.Row([&](JsonWriter& out) {
      out.KeyValue("mode", "batched");
      out.KeyValue("batch_size", static_cast<int64_t>(batch_size));
      out.KeyValue("elapsed_ms", elapsed_ms);
      out.KeyValue("kreq_per_s",
                   static_cast<double>(request_count) / elapsed_ms);
    });
  }

  // Tracing overhead: the same single-thread run with and without a Tracer
  // attached, at the recommended production sampling (1-in-32 requests
  // traced; exact IssuanceMetrics are always on either way) and at full
  // tracing for reference. An admission here is a few hundred nanoseconds
  // — far below anything that would journal — so this is the worst case
  // for span overhead; the sampled budget is < 5%.
  {
    constexpr int kReps = 7;
    constexpr uint32_t kSamplePeriod = 64;
    double plain_ms = std::numeric_limits<double>::infinity();
    double sampled_ms = std::numeric_limits<double>::infinity();
    double full_ms = std::numeric_limits<double>::infinity();
    Tracer sampled_tracer(TracerOptions{.ring_capacity = 8192,
                                        .slow_request_nanos = 0,
                                        .sample_period = kSamplePeriod});
    Tracer full_tracer(TracerOptions{.ring_capacity = 8192,
                                     .slow_request_nanos = 0});
    OnlineValidatorOptions sampled_options;
    sampled_options.tracer = &sampled_tracer;
    OnlineValidatorOptions full_options;
    full_options.tracer = &full_tracer;
    // Tight plain/sampled alternation so each pair sees the same cache and
    // frequency conditions; the overhead is the median of the per-pair
    // ratios, which cancels drift across the run. The (much heavier)
    // full-tracing reference runs after the comparison so it cannot
    // perturb it.
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
      Result<std::unique_ptr<IssuanceService>> plain =
          IssuanceService::Create(&licenses);
      GEOLIC_CHECK(plain.ok());
      const double rep_plain_ms = RunThreaded(plain->get(), requests, 1);
      plain_ms = std::min(plain_ms, rep_plain_ms);

      Result<std::unique_ptr<IssuanceService>> sampled =
          IssuanceService::Create(&licenses, sampled_options);
      GEOLIC_CHECK(sampled.ok());
      const double rep_sampled_ms =
          RunThreaded(sampled->get(), requests, 1);
      sampled_ms = std::min(sampled_ms, rep_sampled_ms);
      if (rep_plain_ms > 0) {
        ratios.push_back(rep_sampled_ms / rep_plain_ms);
      }

      if (rep == kReps - 1) {
        if (!metrics_out.empty()) {
          const ExpositionInput exposition = (*sampled)->Snap();
          GEOLIC_CHECK(WriteMetricsFile(exposition, metrics_out).ok());
          std::printf("# metrics written to %s\n", metrics_out.c_str());
        }
      }
    }
    for (int rep = 0; rep < 2; ++rep) {
      Result<std::unique_ptr<IssuanceService>> full =
          IssuanceService::Create(&licenses, full_options);
      GEOLIC_CHECK(full.ok());
      full_ms = std::min(full_ms, RunThreaded(full->get(), requests, 1));
    }
    std::sort(ratios.begin(), ratios.end());
    const double overhead_pct =
        ratios.empty() ? 0.0 : 100.0 * (ratios[ratios.size() / 2] - 1.0);
    const double full_pct =
        plain_ms > 0 ? 100.0 * (full_ms - plain_ms) / plain_ms : 0.0;
    std::printf("# tracing overhead (1 thread, median of %d pairs): "
                "spans-off %.2f ms, spans-on %.2f ms, overhead %.2f%% "
                "(sampling 1/%u, %" PRIu64 " spans; full tracing: %.2f ms, "
                "%.2f%%)\n",
                kReps, plain_ms, sampled_ms, overhead_pct, kSamplePeriod,
                sampled_tracer.spans_recorded(), full_ms, full_pct);
    json.Row([&](JsonWriter& out) {
      out.KeyValue("mode", "tracing_overhead");
      out.KeyValue("plain_ms", plain_ms);
      out.KeyValue("sampled_ms", sampled_ms);
      out.KeyValue("overhead_pct", overhead_pct);
      out.KeyValue("full_ms", full_ms);
      out.KeyValue("full_pct", full_pct);
      out.KeyValue("spans_recorded", sampled_tracer.spans_recorded());
    });
  }

  std::printf("# expected shape: no thread count beats 1 thread (one lock "
              "serializes admissions); batched at or above the 1-thread "
              "rate; tracing overhead stays under 5%%\n");
  json.Write();
  return 0;
}
