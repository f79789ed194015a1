// dense-churn: one content whose 12 redistribution licences form a single
// overlap group, so every admission scans up to 2^(12-k) validation
// equations in the service's per-group state. One caller runs a closed
// loop of TryIssue with periodic AcquireLicense/RevokeLicenseById pairs
// that return the catalogue to its starting shape; afterwards the run
// audits the accepted log offline, checkpoints, stops, and recovers.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/grouping.h"
#include "harness.h"
#include "persist/journal.h"
#include "service/issuance_service.h"
#include "sim/reference_model.h"
#include "validation/validate.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using geolic::IssuanceService;
using geolic::License;
using geolic::LicenseSet;
using geolic::LogRecord;
using geolic::LogStore;
using geolic::OnlineDecision;

constexpr int kLicenses = 12;
// Budgets far above anything the run can issue, so the accepted fraction
// is fixed by the request mix alone and stays constant through the run.
constexpr int64_t kBudget = int64_t{1} << 40;
// One request in kRejectEvery asks for more than any equation's budget; it
// is rejected at its own satisfying set, which exercises the limiting
// equation path at a constant rate.
constexpr int kRejectEvery = 16;
constexpr int64_t kOversizedCount = int64_t{1} << 50;
// A reconfiguration pair every kChurnPeriod admissions makes about 2% of
// ops epoch rebuilds: enough for their cost to show in ops_per_s, and the
// top 1% of latencies (the p99 diagnostic) is made of them rather than of
// the fsync or scheduling tail of single admissions.
constexpr int kChurnPeriod = 100;

struct Sizes {
  int history;         // Preloaded records (tree node count levelled off).
  int ops;             // TryIssue calls in the measured window.
  int setups;          // Set-up repetitions.
  int repeats;         // Minimum audit and Recover repetitions each.
  int verify_every;    // Full reference-model check of every n-th decision.
};

Sizes SizesFor(const Args& args) {
  if (args.smoke) {
    return {2000, 300, 2, 3, 4};
  }
  // About 700 admissions per second on the 4-vCPU Xeon VM the bounds were
  // set on (a ~1.3 ms equation scan plus one journal fsync).
  return {24000, 700 * args.seconds, 25, 15, 24};
}

struct Op {
  enum Kind { kIssue, kAcquire, kRevoke } kind;
  // kIssue: the request; kAcquire: the licence added; kRevoke: the licence
  // removed (by id).
  License license;
};

struct Inputs {
  geolic::Workload workload;  // Licences + preload history.
  std::vector<Op> ops;
  int issues = 0;
};

// The content's catalogue is part of the workload's definition and the
// same for every seed: random geometry would move the equations scanned
// per admission by +-15% from seed to seed. The seed draws the traffic:
// the preloaded history and the op stream.
constexpr uint64_t kCatalogueSeed = 11;

Inputs MakeInputs(const Args& args, const Sizes& sizes) {
  Inputs inputs;
  geolic::WorkloadConfig config;
  config.num_licenses = kLicenses;
  config.num_clusters = 1;
  config.aggregate_min = kBudget;
  config.aggregate_max = kBudget;
  config.seed = kCatalogueSeed;
  geolic::WorkloadGenerator generator(config);
  inputs.workload =
      ValueOrDie(generator.GenerateLicensesOnly(), "dense catalogue");
  const geolic::LicenseCatalog& licenses = *inputs.workload.licenses;

  geolic::Rng rng(args.seed);
  for (int r = 0; r < sizes.history; ++r) {
    const int parent = static_cast<int>(rng.UniformInt(0, kLicenses - 1));
    const License usage =
        generator.DrawUsageLicense(inputs.workload, parent, &rng, -r - 1);
    LogRecord record;
    record.issued_license_id = usage.id();
    for (int i = 0; i < kLicenses; ++i) {
      if (licenses.at(i).InstanceContains(usage)) {
        record.set.Add(i);
      }
    }
    record.count = usage.aggregate_count();
    DieIfError(inputs.workload.log.Append(std::move(record)), "history");
  }

  int pair = 0;
  for (int i = 0; i < sizes.ops; ++i) {
    if (i > 0 && i % kChurnPeriod == 0) {
      // A licence overlapping the whole group (a copy of one member's
      // geometry) joins and leaves again: the catalogue is rebuilt twice
      // and returns to its starting shape.
      const License& model = licenses.at(static_cast<int>(
          rng.UniformInt(0, kLicenses - 1)));
      License extra("LX" + std::to_string(++pair), model.content_key(),
                    model.type(), model.permission(), model.rect(),
                    model.aggregate_count());
      inputs.ops.push_back({Op::kAcquire, extra});
      inputs.ops.push_back({Op::kRevoke, std::move(extra)});
    }
    const int parent = static_cast<int>(rng.UniformInt(0, kLicenses - 1));
    License request =
        generator.DrawUsageLicense(inputs.workload, parent, &rng, i + 1);
    if (rng.UniformInt(0, kRejectEvery - 1) == 0) {
      request = License(request.id(), request.content_key(), request.type(),
                        request.permission(), request.rect(),
                        kOversizedCount);
    }
    inputs.ops.push_back({Op::kIssue, std::move(request)});
    ++inputs.issues;
  }
  return inputs;
}

bool RecordLess(const LogRecord& a, const LogRecord& b) {
  if (a.set != b.set) {
    return a.set < b.set;
  }
  if (a.count != b.count) {
    return a.count < b.count;
  }
  return a.issued_license_id < b.issued_license_id;
}

bool SameMultiset(std::vector<LogRecord> a, std::vector<LogRecord> b) {
  std::sort(a.begin(), a.end(), RecordLess);
  std::sort(b.begin(), b.end(), RecordLess);
  return a == b;
}

// Re-checks the decisions against the brute-force reference model: the
// satisfying set of every decision, and the full decision (accept flag and
// limiting equation) of every `every`-th one. Reconfiguration pairs leave
// no records behind, so the model's catalogue stays the starting one.
// A mismatched op is marked failed in `latency` (indexes follow the ops).
void CheckAgainstReference(const Inputs& inputs,
                           const std::vector<OnlineDecision>& decisions,
                           int every, Latencies* latency, Report* report) {
  const geolic::LicenseCatalog& licenses = *inputs.workload.licenses;
  geolic::ReferenceModel model(&licenses);
  for (const LogRecord& record : inputs.workload.log.records()) {
    model.Apply(record.set, record.count);
  }
  size_t next = 0;
  for (size_t index = 0; index < inputs.ops.size(); ++index) {
    const Op& op = inputs.ops[index];
    if (op.kind != Op::kIssue) {
      continue;
    }
    const OnlineDecision& got = decisions[next];
    const bool full = next % static_cast<size_t>(every) == 0;
    ++next;
    if (latency->failed(index)) {
      continue;  // Already counted: the call itself returned an error.
    }
    LicenseSet want_set;
    for (int i = 0; i < licenses.size(); ++i) {
      if (licenses.at(i).InstanceContains(op.license)) {
        want_set.Add(i);
      }
    }
    if (got.satisfying_set != want_set) {
      report->Mismatch("satisfying set of " + op.license.id());
      latency->MarkFailed(index);
      ++report->failed;
    } else if (full) {
      const geolic::ReferenceModel::Decision want = model.TryIssue(op.license);
      if (got.accepted() != want.accepted() ||
          (!want.accepted() && (got.limiting.set != want.limiting_set ||
                                got.limiting.lhs != want.limiting_lhs ||
                                got.limiting.rhs != want.limiting_rhs))) {
        report->Mismatch("decision or limiting equation of " +
                         op.license.id());
        latency->MarkFailed(index);
        ++report->failed;
      }
    }
    if (got.accepted()) {
      model.Apply(got.satisfying_set, op.license.aggregate_count());
    }
  }
}

// Returns the pass's p50 in microseconds.
double RunPass(const Args& args, const Sizes& sizes, const Inputs& inputs,
               bool traced, Report* report) {
  const geolic::LicenseCatalog* licenses = inputs.workload.licenses.get();
  const std::string wal = args.work_dir + "/dense.wal";
  const std::string ckpt = args.work_dir + "/dense.ckpt";
  SpanLog spans(traced);
  std::atomic<uint64_t> syncs{0};
  std::unique_ptr<geolic::Tracer> tracer;
  geolic::OnlineValidatorOptions options;
  if (traced) {
    tracer = std::make_unique<geolic::Tracer>(
        TracerFor(static_cast<size_t>(inputs.ops.size()) * 8 + 4096));
    options.tracer = tracer.get();
  }

  // Set-up: preload the levelled-off history and attach the journal.
  std::unique_ptr<IssuanceService> service;
  std::vector<double> setup_s;
  for (int s = 0; s < (traced ? 1 : sizes.setups); ++s) {
    service.reset();
    std::filesystem::remove(wal);
    SyncFilesystem(args.work_dir);
    const uint64_t start = NowNanos();
    service = ValueOrDie(IssuanceService::CreateWithHistory(
                             licenses, options, inputs.workload.log),
                         "CreateWithHistory");
    std::unique_ptr<geolic::SyncFile> file =
        ValueOrDie(CountingSyncFile::Open(wal, &syncs, &spans), "open wal");
    DieIfError(service->AttachJournal(ValueOrDie(
                   geolic::JournalWriter::Create(std::move(file)),
                   "journal")),
               "AttachJournal");
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  const uint64_t wal_bytes_before = std::filesystem::file_size(wal);
  const uint64_t syncs_before = syncs.load();
  SyncFilesystem(args.work_dir);

  // Measured window: one caller, closed loop.
  Latencies latency;
  latency.Reserve(inputs.ops.size());
  std::vector<OnlineDecision> decisions;
  decisions.reserve(static_cast<size_t>(inputs.issues));
  uint64_t equations = 0;
  uint64_t accepted = 0;
  uint64_t op_failures = 0;
  uint64_t request = 0;
  const uint64_t window_start = NowNanos();
  for (const Op& op : inputs.ops) {
    spans.set_current_request(++request);
    const uint64_t start = NowNanos();
    bool ok = true;
    switch (op.kind) {
      case Op::kIssue: {
        ScopedSpan span(&spans, "service", "TryIssue");
        geolic::Result<OnlineDecision> decision = service->TryIssue(op.license);
        ok = decision.ok();
        decisions.push_back(ok ? *std::move(decision) : OnlineDecision());
        break;
      }
      case Op::kAcquire: {
        ScopedSpan span(&spans, "service", "AcquireLicense");
        ok = service->AcquireLicense(op.license).ok();
        break;
      }
      case Op::kRevoke: {
        ScopedSpan span(&spans, "service", "RevokeLicenseById");
        ok = service->RevokeLicenseById(op.license.id()).ok();
        break;
      }
    }
    const uint64_t end = NowNanos();
    if (ok) {
      latency.Add(end - start, end);
    } else {
      latency.AddFailed(end);
      ++op_failures;
    }
    if (op.kind == Op::kIssue && ok) {
      equations += decisions.back().equations_checked;
      accepted += decisions.back().accepted() ? 1 : 0;
    }
  }
  spans.set_current_request(0);
  const double ops = static_cast<double>(inputs.ops.size());
  // Set-up plus the measured window: the footprint while serving.
  const double rss_mib = PeakRssMib();
  const uint64_t wal_bytes = std::filesystem::file_size(wal) - wal_bytes_before;
  const uint64_t window_syncs = syncs.load() - syncs_before;
  const size_t tree_nodes =
      ValueOrDie(service->CollectTree(), "CollectTree").NodeCount();

  const LogStore log = service->CollectLog();
  double checkpoint_ms = 0;
  {
    ScopedSpan span(&spans, "service", "WriteCheckpoint");
    const uint64_t start = NowNanos();
    DieIfError(service->WriteCheckpoint(ckpt), "WriteCheckpoint");
    checkpoint_ms = static_cast<double>(NowNanos() - start) / 1e6;
  }
  // Stop: every frame was synced on append, so what is on disk now is what
  // a crash at this point would leave.
  service.reset();

  // Offline audit of the accepted log (the paper's D_T + V_T) against the
  // catalogue, back in its starting shape, alternating with recovery from
  // the checkpoint and journal.
  geolic::ValidateOptions validate;
  validate.mode = geolic::ValidationMode::kGrouped;
  validate.tracer = tracer.get();
  std::vector<double> audit_ms, recover_ms, division_ms, scan_ms;
  geolic::ValidationOutcome outcome;
  geolic::RecoveryStats recovery;
  std::unique_ptr<IssuanceService> recovered;
  bool checked_recovery = false;
  AlternateMillis(
      sizes.repeats, args.smoke ? 0.2 : kAfterWindowSeconds,
      [&] {
        ScopedSpan span(&spans, "validation", "Validate");
        const uint64_t start = NowNanos();
        outcome = ValueOrDie(geolic::Validate(*licenses, log, validate),
                             "Validate");
        const uint64_t end = NowNanos();
        division_ms.push_back(outcome.division_micros / 1e3);
        scan_ms.push_back(outcome.validation_micros / 1e3);
        return static_cast<double>(end - start) / 1e6;
      },
      [&] {
        recovered.reset();
        ScopedSpan span(&spans, "service", "Recover");
        recovery = geolic::RecoveryStats();
        const uint64_t start = NowNanos();
        recovered = ValueOrDie(
            IssuanceService::Recover(licenses, options, ckpt, wal, &recovery),
            "Recover");
        const uint64_t end = NowNanos();
        if (!checked_recovery) {
          checked_recovery = true;
          if (!SameMultiset(recovered->CollectLog().records(),
                            log.records())) {
            report->Mismatch("recovered log differs from the pre-crash log");
            ++report->failed;
          }
        }
        return static_cast<double>(end - start) / 1e6;
      },
      &audit_ms, &recover_ms);
  recovered.reset();
  if (!outcome.report.all_valid()) {
    report->Mismatch("offline audit found " +
                     std::to_string(outcome.report.violations.size()) +
                     " violated equations");
    ++report->failed;
  }

  CheckAgainstReference(inputs, decisions, sizes.verify_every, &latency,
                        report);

  report->attempted += inputs.ops.size();
  report->failed += op_failures;
  const double p50_us = latency.QuantileMicros(0.50);

  const double issues = static_cast<double>(inputs.issues);
  const double equations_per_op = static_cast<double>(equations) / issues;
  const double accept_frac = static_cast<double>(accepted) / issues;
  const double journal_bytes_per_op = static_cast<double>(wal_bytes) / ops;
  const double recover_frames =
      static_cast<double>(recovery.journal_records_replayed +
                          recovery.journal_records_skipped +
                          recovery.reconfig_records_replayed);

  report->Count("service.equations_per_op", equations_per_op);
  report->Count("service.accept_frac", accept_frac);
  report->Count("service.tree_nodes", static_cast<double>(tree_nodes));
  report->Count("validation.equations",
                static_cast<double>(outcome.report.equations_evaluated));
  report->Count("persist.recover_frames", recover_frames);
  report->Count("persist.journal_bytes_per_op", journal_bytes_per_op);
  report->Count("persist.syncs_per_op",
                static_cast<double>(window_syncs) / ops);

  if (!traced) {
    report->Metric("setup_s", InterquartileMean(setup_s), "s");
    ReportLatency(latency, window_start, report);
    report->Metric("peak_rss_mib", rss_mib, "MiB");
    report->Metric("audit_ms", InterquartileMean(audit_ms), "ms");
    report->Metric("recover_s", InterquartileMean(recover_ms) / 1e3, "s");
    return p50_us;
  }

  report->Metric("service.try_issue_us",
                 Median(spans.DurationsMicros("service", "TryIssue")), "us");
  report->Metric("service.equations_per_op", equations_per_op, "count");
  std::vector<double> reconfig = spans.DurationsMicros("service",
                                                       "AcquireLicense");
  for (const double us : spans.DurationsMicros("service",
                                               "RevokeLicenseById")) {
    reconfig.push_back(us);
  }
  for (double& us : reconfig) {
    us /= 1e3;
  }
  report->Metric("service.reconfig_ms", Median(reconfig), "ms");
  report->Metric("service.accept_frac", accept_frac, "fraction");
  report->Metric("service.tree_nodes", static_cast<double>(tree_nodes),
                 "count");
  report->Metric("service.checkpoint_ms", checkpoint_ms, "ms");
  report->Metric("core.division_ms", Median(division_ms), "ms");
  report->Metric("validation.scan_ms", Median(scan_ms), "ms");
  report->Metric("validation.equations",
                 static_cast<double>(outcome.report.equations_evaluated),
                 "count");
  report->Metric("validation.groups", static_cast<double>(outcome.group_count),
                 "count");
  report->Metric("persist.syncs_per_op",
                 static_cast<double>(window_syncs) / ops, "count");
  report->Metric("persist.journal_bytes_per_op", journal_bytes_per_op, "B");
  report->Metric("persist.recover_frames", recover_frames, "count");
  ReportStages(*tracer, report);
  DieIfError(WriteSpans(args.spans_path, {&spans}), "write spans");
  return p50_us;
}

}  // namespace

void RunDenseChurn(const Args& args, Report* report) {
  const Sizes sizes = SizesFor(args);
  const Inputs inputs = MakeInputs(args, sizes);
  const geolic::LicenseGrouping grouping =
      geolic::LicenseGrouping::FromLicenses(*inputs.workload.licenses);
  if (grouping.group_count() != 1 || grouping.GroupSize(0) != kLicenses) {
    report->Mismatch("catalogue is not one overlap group of 12 licences");
    ++report->failed;
  }
  report->Info("history_records", std::to_string(sizes.history));
  report->Info("ops", std::to_string(inputs.ops.size()));
  report->Info("loop", "closed, 1 caller");
  RunPasses(args, report, [&](bool traced, Report* pass_report) {
    return RunPass(args, sizes, inputs, traced, pass_report);
  });
}

}  // namespace perfbench
