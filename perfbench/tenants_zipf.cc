// tenants-zipf: a CatalogService over ~100k contents with 2-6 licences
// each and Zipf(1.1) popularity. One caller runs a closed loop of
// tenant-addressed TryIssue, each journalled with an fsync; a tenant's
// first request compiles it. Afterwards the catalog stops and
// catalog-wide Recover rebuilds it from the journal pool.
//
// The memory budget holds every tenant a run touches, so the window never
// evicts: each eviction writes a spill durably (temp file, fsync, rename,
// directory fsync), and with the LRU spilling and reloading thousands of
// tenants per run (a budget well below the working set) the figures
// followed the disk's rename and directory-sync latency, with quartile
// spreads of 0.29-0.41 over ten seeds. Smoke runs keep a small budget, so
// the self-test still drives eviction, spill and reload.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/catalog_service.h"
#include "catalog/tenant_source.h"
#include "harness.h"
#include "validation/validate.h"
#include "workload/multi_tenant.h"

namespace perfbench {
namespace {

using geolic::CatalogService;
using geolic::CatalogStats;
using geolic::License;

// The tenants' catalogues are part of the workload's definition, the same
// for every seed; the seed draws the request stream.
constexpr uint64_t kTenantSeed = 42;

struct Sizes {
  uint64_t tenants;
  size_t budget_bytes;  // 0: hold every tenant the inputs touch.
  int warmup_ops;  // Set-up: compiles the Zipf head before the window.
  int ops;         // Measured window.
  int setups;
  int audits;
  int sample;      // Tenants checked across Recover and audited.
};

Sizes SizesFor(const Args& args) {
  if (args.smoke) {
    return {2000, 256 << 10, 500, 500, 2, 3, 8};
  }
  // About 10,000 ops per second on the 4-vCPU Xeon VM the bounds were set
  // on (one journal fsync per op, ~70 us on ext4).
  return {100000, 0, 6000, 10000 * args.seconds, 3, 5, 128};
}

struct Request {
  uint64_t tenant;
  License license;
};

// Draws `count` requests by Zipf popularity. Tenant baselines are
// materialized behind a small cache; the Zipf head absorbs most draws.
std::vector<Request> DrawRequests(const geolic::MultiTenantWorkload& workload,
                                  geolic::Rng* rng, int count,
                                  int64_t first_sequence) {
  std::unordered_map<uint64_t, geolic::Workload> baselines;
  std::vector<Request> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const uint64_t tenant = workload.DrawTenant(rng);
    auto it = baselines.find(tenant);
    if (it == baselines.end()) {
      if (baselines.size() >= 256) {
        baselines.clear();
      }
      it = baselines
               .emplace(tenant, ValueOrDie(workload.MakeTenant(tenant),
                                           "MakeTenant"))
               .first;
    }
    requests.push_back(
        {tenant, workload.DrawRequest(it->second, rng, first_sequence + i)});
  }
  return requests;
}

struct Inputs {
  std::unique_ptr<geolic::MultiTenantWorkload> workload;
  std::vector<Request> warmup;
  std::vector<Request> ops;
  // Tenants snapshotted before the stop and after Recover, and audited:
  // the Zipf head (the same ids for every seed, so the audit's work does
  // not depend on the seed) plus as many seeded tenants the window touched.
  std::vector<uint64_t> sample;
};

Inputs MakeInputs(const Args& args, const Sizes& sizes) {
  geolic::MultiTenantConfig config;
  config.num_tenants = sizes.tenants;
  config.zipf_s = 1.1;
  config.seed = kTenantSeed;
  Inputs inputs;
  inputs.workload = std::make_unique<geolic::MultiTenantWorkload>(config);
  geolic::Rng rng(args.seed);
  inputs.warmup = DrawRequests(*inputs.workload, &rng, sizes.warmup_ops, 1);
  inputs.ops = DrawRequests(*inputs.workload, &rng, sizes.ops,
                            1 + sizes.warmup_ops);
  for (uint64_t rank = 0; rank < static_cast<uint64_t>(sizes.sample) / 2;
       ++rank) {
    inputs.sample.push_back(rank);
  }
  while (inputs.sample.size() < static_cast<size_t>(sizes.sample)) {
    const uint64_t tenant =
        inputs.ops[rng.UniformIndex(inputs.ops.size())].tenant;
    if (std::find(inputs.sample.begin(), inputs.sample.end(), tenant) ==
        inputs.sample.end()) {
      inputs.sample.push_back(tenant);
    }
  }
  return inputs;
}

// A budget that holds every tenant the inputs touch at the catalog's own
// accounting (16 KiB per tenant, 1 KiB per licence, 128 B per logged
// record), twice over, so the LRU stripes' uneven shares never evict: a
// 10 s run touches ~18,000 tenants, ~800 MiB of budget. The accounting is
// coarse; the process's resident set stays near 150 MiB.
size_t BudgetHoldingAll(const Inputs& inputs) {
  std::unordered_set<uint64_t> tenants;
  for (const std::vector<Request>* requests : {&inputs.warmup, &inputs.ops}) {
    for (const Request& request : *requests) {
      tenants.insert(request.tenant);
    }
  }
  const size_t ops = inputs.warmup.size() + inputs.ops.size();
  return 2 * (tenants.size() * ((16 << 10) + 6 * (1 << 10)) + ops * 128);
}

bool SameSnapshot(const CatalogService::TenantSnapshot& a,
                  const CatalogService::TenantSnapshot& b) {
  if (a.epoch != b.epoch || a.tenant_seq != b.tenant_seq ||
      a.licenses.size() != b.licenses.size() ||
      a.log.records() != b.log.records()) {
    return false;
  }
  for (size_t i = 0; i < a.licenses.size(); ++i) {
    if (a.licenses[i].id() != b.licenses[i].id() ||
        !(a.licenses[i].rect() == b.licenses[i].rect()) ||
        a.licenses[i].aggregate_count() != b.licenses[i].aggregate_count()) {
      return false;
    }
  }
  return true;
}

enum class OpClass { kHit, kCompile, kLoad };

OpClass Classify(const CatalogStats& before, const CatalogStats& after) {
  if (after.compiles != before.compiles) {
    return OpClass::kCompile;
  }
  if (after.loads != before.loads) {
    return OpClass::kLoad;
  }
  return OpClass::kHit;
}

// Returns the pass's p50 in microseconds.
double RunPass(const Args& args, const Sizes& sizes, const Inputs& inputs,
               bool traced, Report* report) {
  SpanLog spans(traced);
  std::atomic<uint64_t> syncs{0};
  std::unique_ptr<geolic::Tracer> tracer;
  geolic::WorkloadTenantSource source(inputs.workload.get());
  geolic::CatalogOptions options;
  options.dir = args.work_dir + "/catalog";
  options.memory_budget_bytes =
      sizes.budget_bytes != 0 ? sizes.budget_bytes : BudgetHoldingAll(inputs);
  options.journal_file_factory = [&syncs, &spans](const std::string& path,
                                                  int) {
    return CountingSyncFile::Open(path, &syncs, &spans);
  };
  if (traced) {
    tracer = std::make_unique<geolic::Tracer>(
        TracerFor((inputs.ops.size() + inputs.warmup.size()) * 10 + 4096));
    options.tracer = tracer.get();
    options.service_options.tracer = tracer.get();
  }

  uint64_t failures = 0;
  std::vector<geolic::OnlineDecision> decisions;
  const auto issue = [&](CatalogService* catalog, const Request& request) {
    geolic::Result<geolic::OnlineDecision> decision =
        catalog->TryIssue(request.tenant, request.license);
    if (!decision.ok()) {
      ++failures;
      return false;
    }
    decisions.push_back(*std::move(decision));
    return true;
  };

  // Set-up: a fresh catalog, warmed by traffic that compiles the head.
  std::unique_ptr<CatalogService> catalog;
  std::vector<double> setup_s;
  for (int s = 0; s < (traced ? 1 : sizes.setups); ++s) {
    catalog.reset();
    decisions.clear();
    SyncFilesystem(args.work_dir);
    const uint64_t start = NowNanos();
    catalog = ValueOrDie(CatalogService::Create(&source, options),
                         "CatalogService::Create");
    for (const Request& request : inputs.warmup) {
      issue(catalog.get(), request);
    }
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  decisions.clear();
  decisions.reserve(inputs.ops.size());
  const CatalogStats warm = catalog->stats();
  const uint64_t journal_before = FileBytes(options.dir, "catalog-journal-");
  const uint64_t syncs_before = syncs.load();
  SyncFilesystem(args.work_dir);

  // Measured window: one caller, closed loop.
  Latencies latency;
  latency.Reserve(inputs.ops.size());
  std::vector<double> class_us[3];
  uint64_t request_id = 0;
  const uint64_t window_start = NowNanos();
  for (const Request& request : inputs.ops) {
    spans.set_current_request(++request_id);
    const CatalogStats before = catalog->stats();
    const uint64_t start = NowNanos();
    bool ok = false;
    {
      ScopedSpan span(&spans, "catalog", "TryIssue");
      ok = issue(catalog.get(), request);
    }
    const uint64_t elapsed = NowNanos() - start;
    if (ok) {
      latency.Add(elapsed, start + elapsed);
      class_us[static_cast<int>(Classify(before, catalog->stats()))]
          .push_back(static_cast<double>(elapsed) / 1e3);
    } else {
      latency.AddFailed(start + elapsed);
    }
  }
  spans.set_current_request(0);
  const double ops = static_cast<double>(inputs.ops.size());
  // Set-up plus the measured window: the footprint while serving.
  const double rss_mib = PeakRssMib();
  const CatalogStats done = catalog->stats();
  const uint64_t journal_bytes =
      FileBytes(options.dir, "catalog-journal-") - journal_before;
  const uint64_t window_syncs = syncs.load() - syncs_before;
  const uint64_t spill_bytes = FileBytes(options.dir, "tenant-");

  uint64_t equations = 0;
  uint64_t accepted = 0;
  for (const geolic::OnlineDecision& decision : decisions) {
    equations += decision.equations_checked;
    accepted += decision.accepted() ? 1 : 0;
  }

  // Seeded sample: snapshots before the stop, and an offline audit of each
  // sampled tenant's accepted log.
  std::vector<CatalogService::TenantSnapshot> before_stop;
  for (const uint64_t tenant : inputs.sample) {
    before_stop.push_back(
        ValueOrDie(catalog->SnapshotTenant(tenant), "SnapshotTenant"));
  }
  std::vector<geolic::Workload> baselines;
  for (const uint64_t tenant : inputs.sample) {
    baselines.push_back(
        ValueOrDie(inputs.workload->MakeTenant(tenant), "MakeTenant"));
  }
  geolic::ValidateOptions validate;
  validate.mode = geolic::ValidationMode::kGrouped;
  validate.tracer = tracer.get();
  size_t violations = 0;
  const std::vector<double> audit_ms =
      RepeatMillis(sizes.audits, args.smoke ? 0.2 : 0.5, [&](int) {
    ScopedSpan span(&spans, "validation", "Validate");
    violations = 0;
    for (size_t t = 0; t < before_stop.size(); ++t) {
      geolic::LicenseCatalog licenses(baselines[t].schema.get());
      for (const License& license : before_stop[t].licenses) {
        DieIfError(licenses.Add(license).status(), "audit catalogue");
      }
      violations += ValueOrDie(geolic::Validate(licenses, before_stop[t].log,
                                                validate),
                               "Validate")
                        .report.violations.size();
    }
  });
  if (violations != 0) {
    report->Mismatch("offline audit of sampled tenants found violations");
    ++report->failed;
  }
  if (catalog->stats().poisoned_writers != 0) {
    report->Mismatch("a pool journal writer was poisoned");
    ++report->failed;
  }

  // Stop: every frame and spill was synced when written, so the directory
  // holds what a crash at this point would leave.
  catalog.reset();
  geolic::CatalogRecoveryStats recovery;
  double recover_s = 0;
  {
    ScopedSpan span(&spans, "catalog", "Recover");
    const uint64_t start = NowNanos();
    catalog = ValueOrDie(CatalogService::Recover(&source, options, &recovery),
                         "CatalogService::Recover");
    recover_s = static_cast<double>(NowNanos() - start) / 1e9;
  }
  for (size_t t = 0; t < inputs.sample.size(); ++t) {
    const CatalogService::TenantSnapshot after = ValueOrDie(
        catalog->SnapshotTenant(inputs.sample[t]), "SnapshotTenant");
    if (!SameSnapshot(before_stop[t], after)) {
      report->Mismatch("tenant " + std::to_string(inputs.sample[t]) +
                       " differs after Recover");
      ++report->failed;
    }
  }
  if (catalog->stats().poisoned_writers != 0) {
    report->Mismatch("a pool journal writer was poisoned after Recover");
    ++report->failed;
  }
  catalog.reset();

  report->attempted += inputs.ops.size();
  report->failed += failures;
  const double p50_us = latency.QuantileMicros(0.50);

  const uint64_t lookups =
      (done.hits - warm.hits) + (done.misses - warm.misses);
  const double hit_rate =
      static_cast<double>(done.hits - warm.hits) / static_cast<double>(lookups);
  const double journal_bytes_per_op = static_cast<double>(journal_bytes) / ops;
  report->Count("service.equations_per_op",
                static_cast<double>(equations) / ops);
  report->Count("service.accept_frac", static_cast<double>(accepted) / ops);
  report->Count("catalog.compiles",
                static_cast<double>(done.compiles - warm.compiles));
  report->Count("catalog.loads", static_cast<double>(done.loads - warm.loads));
  report->Count("catalog.evictions",
                static_cast<double>(done.evictions - warm.evictions));
  report->Count("catalog.spills",
                static_cast<double>(done.spills - warm.spills));
  report->Count("persist.recover_frames",
                static_cast<double>(recovery.journal_frames));
  report->Count("persist.journal_bytes_per_op", journal_bytes_per_op);
  report->Count("persist.syncs_per_op",
                static_cast<double>(window_syncs) / ops);

  if (!traced) {
    report->Metric("setup_s", InterquartileMean(setup_s), "s");
    ReportLatency(latency, window_start, report);
    report->Metric("peak_rss_mib", rss_mib, "MiB");
    report->Metric("audit_ms", InterquartileMean(audit_ms), "ms");
    report->Metric("recover_s", recover_s, "s");
    return p50_us;
  }

  report->Metric("service.equations_per_op",
                 static_cast<double>(equations) / ops, "count");
  report->Metric("service.accept_frac", static_cast<double>(accepted) / ops,
                 "fraction");
  report->Metric("persist.syncs_per_op",
                 static_cast<double>(window_syncs) / ops, "count");
  report->Metric("persist.journal_bytes_per_op", journal_bytes_per_op, "B");
  report->Metric("persist.spill_bytes", static_cast<double>(spill_bytes), "B");
  report->Metric("persist.recover_frames",
                 static_cast<double>(recovery.journal_frames), "count");
  report->Metric("persist.recover_tenants",
                 static_cast<double>(recovery.tenants_recovered), "count");
  report->Metric("catalog.hit_rate", hit_rate, "fraction");
  report->Metric("catalog.compiles",
                 static_cast<double>(done.compiles - warm.compiles), "count");
  report->Metric("catalog.loads", static_cast<double>(done.loads - warm.loads),
                 "count");
  report->Metric("catalog.evictions",
                 static_cast<double>(done.evictions - warm.evictions), "count");
  report->Metric("catalog.spills",
                 static_cast<double>(done.spills - warm.spills), "count");
  report->Metric("catalog.hit_us", Median(class_us[0]), "us");
  report->Metric("catalog.compile_us", Median(class_us[1]), "us");
  report->Metric("catalog.load_us", Median(class_us[2]), "us");
  report->Metric("catalog.resident_tenants",
                 static_cast<double>(done.resident_tenants), "count");
  report->Metric("catalog.resident_mib",
                 static_cast<double>(done.resident_bytes) / (1 << 20), "MiB");
  ReportStages(*tracer, report);
  DieIfError(WriteSpans(args.spans_path, {&spans}), "write spans");
  return p50_us;
}

}  // namespace

void RunTenantsZipf(const Args& args, Report* report) {
  const Sizes sizes = SizesFor(args);
  const Inputs inputs = MakeInputs(args, sizes);
  report->Info("tenants", std::to_string(sizes.tenants));
  report->Info("budget_bytes",
               std::to_string(sizes.budget_bytes != 0
                                  ? sizes.budget_bytes
                                  : BudgetHoldingAll(inputs)));
  report->Info("warmup_ops", std::to_string(sizes.warmup_ops));
  report->Info("ops", std::to_string(inputs.ops.size()));
  report->Info("loop", "closed, 1 caller");
  RunPasses(args, report, [&](bool traced, Report* pass_report) {
    return RunPass(args, sizes, inputs, traced, pass_report);
  });
}

}  // namespace perfbench
