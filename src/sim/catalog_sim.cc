#include "sim/catalog_sim.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog_service.h"
#include "catalog/tenant_source.h"
#include "persist/faulty_file.h"
#include "persist/sync_file.h"
#include "sim/reference_model.h"
#include "util/license_set.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/multi_tenant.h"

namespace geolic {
namespace {

// Live per-tenant oracle: the tenant's immutable baseline plus a
// ReferenceModel mirroring every accepted issuance. One maybe-persisted op
// at most — the journal writer poisons itself after its first I/O error
// and the catalog fail-stops, so only the faulted append itself can have
// reached the platter. Only an accepted issue reaches the journal, so the
// faulted op is always one.
struct TenantOracle {
  std::unique_ptr<Workload> baseline;
  std::unique_ptr<ReferenceModel> model;
  bool maybe_pending = false;
  LicenseSet maybe_set;  // The maybe-persisted op's satisfying set.
  int64_t maybe_count = 0;
};

int64_t TotalCount(const std::map<LicenseSet, int64_t>& counts) {
  int64_t total = 0;
  for (const auto& [set, count] : counts) {
    total += count;
  }
  return total;
}

std::string TenantTag(uint64_t tenant) {
  return "t" + std::to_string(tenant);
}

// Compares one live decision against the model's verdict. Returns a
// non-empty description on the first disagreement.
std::string CompareDecision(const OnlineDecision& got,
                            const ReferenceModel::Decision& want,
                            const std::string& where) {
  if (got.instance_valid != want.instance_valid) {
    return where + ": instance_valid " +
           std::to_string(got.instance_valid) + " != model " +
           std::to_string(want.instance_valid);
  }
  if (got.aggregate_valid != want.aggregate_valid) {
    return where + ": aggregate_valid " +
           std::to_string(got.aggregate_valid) + " != model " +
           std::to_string(want.aggregate_valid);
  }
  if (want.instance_valid && !(got.satisfying_set == want.satisfying_set)) {
    return where + ": satisfying set " + got.satisfying_set.ToString() +
           " != model " + want.satisfying_set.ToString();
  }
  if (want.instance_valid && !want.aggregate_valid) {
    if (!(got.limiting.set == want.limiting_set) ||
        got.limiting.lhs != want.limiting_lhs ||
        got.limiting.rhs != want.limiting_rhs) {
      return where + ": limiting equation " + got.limiting.set.ToString() +
             " (" + std::to_string(got.limiting.lhs) + " <= " +
             std::to_string(got.limiting.rhs) + ") != model " +
             want.limiting_set.ToString() + " (" +
             std::to_string(want.limiting_lhs) + " <= " +
             std::to_string(want.limiting_rhs) + ")";
    }
  }
  return "";
}

}  // namespace

CatalogSimResult RunCatalogSimulation(uint64_t seed,
                                      const CatalogSimConfig& config) {
  CatalogSimResult result;
  result.seed = seed;
  const auto fail = [&result](std::string message) {
    result.ok = false;
    result.failure = std::move(message);
    return result;
  };

  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5DEECE66Dull);
  const int tenants = static_cast<int>(
      rng.UniformInt(config.min_tenants, config.max_tenants));
  const int total_ops =
      static_cast<int>(rng.UniformInt(config.min_ops, config.max_ops));

  // Small per-tenant geometries keep the brute-force model exponential in
  // a number that stays tiny; small aggregates against the usage counts
  // let a run's few dozen issues exhaust them, so aggregate rejections
  // (and their limiting equations) are checked too.
  MultiTenantConfig mt;
  mt.num_tenants = static_cast<uint64_t>(tenants);
  mt.zipf_s = 1.1;
  mt.seed = seed ^ 0xCA7A106ull;
  mt.base.dimensions = 2;
  mt.base.aggregate_min = 60;
  mt.base.aggregate_max = 400;
  mt.base.usage_count_min = 10;
  mt.base.usage_count_max = 40;
  mt.min_licenses = 2;
  mt.max_licenses = 4;
  const MultiTenantWorkload workload(mt);
  WorkloadTenantSource source(&workload);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("geolic-catalog-sim-" + std::to_string(::getpid()) + "-" +
       std::to_string(seed));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  // Removes the run's directory on every return, failures included,
  // after the catalogs declared below have closed.
  struct RemoveDir {
    std::filesystem::path dir;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } const remove_dir{dir};

  // Seed-chosen fault schedule: the journal tears an append or starts
  // failing fsync at a fixed future append, chosen before the run starts.
  int fault_kind = 0;  // 0 = none, 1 = torn append, 2 = failing fsync.
  uint64_t fault_append = 0;
  size_t fault_keep_bytes = 0;
  if (config.force_fault || rng.Bernoulli(config.fault_probability)) {
    fault_kind = rng.Bernoulli(0.5) ? 1 : 2;
    fault_append = static_cast<uint64_t>(
        rng.UniformInt(1, std::max(1, total_ops / 2)));
    fault_keep_bytes = static_cast<size_t>(rng.UniformInt(0, 96));
  }

  CatalogOptions options;
  options.dir = dir.string();
  options.memory_budget_bytes = config.memory_budget_bytes;
  options.service_options.sim_skip_last_equation = config.inject_equation_skip;
  FaultyFile* faulty = nullptr;
  options.journal_file_factory =
      [&faulty](const std::string& path,
                int) -> Result<std::unique_ptr<SyncFile>> {
    GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixSyncFile> base,
                            PosixSyncFile::Create(path));
    auto file = std::make_unique<FaultyFile>(std::move(base));
    faulty = file.get();
    return std::unique_ptr<SyncFile>(std::move(file));
  };

  Result<std::unique_ptr<CatalogService>> created =
      CatalogService::Create(&source, options);
  if (!created.ok()) {
    return fail("catalog Create failed: " + created.status().message());
  }
  std::unique_ptr<CatalogService> catalog = std::move(*created);
  // Arm the schedule only now: Create's own journal-header appends must
  // not consume it — the fault belongs to the op stream.
  if (fault_kind == 1) {
    faulty->ScheduleTearAppend(fault_append, fault_keep_bytes);
  } else if (fault_kind == 2) {
    faulty->ScheduleFailSyncAfterAppend(fault_append);
  }

  std::map<uint64_t, TenantOracle> oracles;
  // Set at the first op failure: the faulted append poisons its writer and
  // the catalog fail-stops, so every later mutating op must be rejected.
  bool catalog_failed = false;

  const auto oracle_for = [&](uint64_t tenant) -> Result<TenantOracle*> {
    auto it = oracles.find(tenant);
    if (it == oracles.end()) {
      GEOLIC_ASSIGN_OR_RETURN(Workload baseline,
                              workload.MakeTenant(tenant));
      TenantOracle oracle;
      oracle.baseline = std::make_unique<Workload>(std::move(baseline));
      oracle.model =
          std::make_unique<ReferenceModel>(oracle.baseline->licenses.get());
      it = oracles.emplace(tenant, std::move(oracle)).first;
    }
    return &it->second;
  };

  for (int op = 0; op < total_ops; ++op) {
    const uint64_t tenant = workload.DrawTenant(&rng);
    Result<TenantOracle*> oracle_or = oracle_for(tenant);
    if (!oracle_or.ok()) {
      return fail("tenant baseline failed: " + oracle_or.status().message());
    }
    TenantOracle& oracle = **oracle_or;
    const double action = rng.UniformDouble();
    if (action < config.spill_probability) {
      const Status spilled = catalog->SpillTenant(tenant);
      if (!spilled.ok()) {
        return fail(TenantTag(tenant) +
                    " spill failed: " + spilled.message());
      }
      result.op_trace.push_back(TenantTag(tenant) + " spill");
      ++result.ops_executed;
      continue;
    }
    const License request =
        workload.DrawRequest(*oracle.baseline, &rng, op);
    const ReferenceModel::Decision want = oracle.model->TryIssue(request);
    Result<OnlineDecision> got = catalog->TryIssue(tenant, request);
    ++result.ops_executed;
    if (!got.ok()) {
      if (fault_kind == 0) {
        return fail(TenantTag(tenant) + " issue failed with no fault "
                    "scheduled: " + got.status().message());
      }
      if (!catalog_failed) {
        // The first failure is the faulted append itself — only it is
        // maybe-persisted. It poisons the writer, so the catalog
        // fail-stops.
        catalog_failed = true;
        oracle.maybe_pending = true;
        oracle.maybe_set = want.satisfying_set;
        oracle.maybe_count = request.aggregate_count();
        result.op_trace.push_back(TenantTag(tenant) +
                                  " issue FAIL (journal dead, catalog "
                                  "fail-stopped)");
      } else {
        result.op_trace.push_back(TenantTag(tenant) +
                                  " issue FAIL (fail-stopped)");
      }
      continue;
    }
    if (catalog_failed) {
      return fail(TenantTag(tenant) + " op " + std::to_string(op) +
                  " succeeded after the catalog fail-stopped — mutations "
                  "must be rejected once the journal writer is poisoned");
    }
    const std::string mismatch =
        CompareDecision(*got, want, TenantTag(tenant) + " op " +
                        std::to_string(op));
    if (!mismatch.empty()) {
      return fail(mismatch);
    }
    if (got->catalog_epoch != 0) {
      return fail(TenantTag(tenant) + ": catalog_epoch drifted to " +
                  std::to_string(got->catalog_epoch) +
                  " without any reconfiguration");
    }
    if (got->accepted()) {
      oracle.model->Apply(want.satisfying_set, request.aggregate_count());
    }
    result.op_trace.push_back(
        TenantTag(tenant) + " issue " +
        (got->accepted()
             ? "accept |S|=" + std::to_string(got->satisfying_set.Size())
             : (got->instance_valid ? "reject-aggregate"
                                    : "reject-instance")));
  }

  // Crash: drop the live catalog without any orderly spill, then recover
  // from the journal + whatever spills eviction left behind.
  catalog.reset();

  CatalogOptions recover_options = options;
  recover_options.journal_file_factory = nullptr;
  CatalogRecoveryStats rstats;
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(&source, recover_options, &rstats);
  if (!recovered.ok()) {
    return fail("recovery failed: " + recovered.status().message());
  }

  for (auto& [tenant, oracle] : oracles) {
    const std::string tag = TenantTag(tenant);
    Result<CatalogService::TenantSnapshot> snap =
        (*recovered)->SnapshotTenant(tenant);
    if (!snap.ok()) {
      return fail(tag + " snapshot after recovery failed: " +
                  snap.status().message());
    }
    // Accepted counts per distinct set (the recovered log is compacted):
    // exact, modulo the one maybe-persisted op.
    std::map<LicenseSet, int64_t> got_counts;
    for (const LogRecord& record : snap->log.records()) {
      got_counts[record.set] += record.count;
    }
    const std::map<LicenseSet, int64_t>& expected = oracle.model->counts();
    std::map<LicenseSet, int64_t> with_maybe = expected;
    if (oracle.maybe_pending) {
      with_maybe[oracle.maybe_set] += oracle.maybe_count;
    }
    if (got_counts != expected && got_counts != with_maybe) {
      return fail(tag + " recovered " + std::to_string(got_counts.size()) +
                  " accepted sets totalling " +
                  std::to_string(TotalCount(got_counts)) +
                  ", model expected " + std::to_string(expected.size()) +
                  " totalling " + std::to_string(TotalCount(expected)) +
                  (with_maybe != expected
                       ? " (or " + std::to_string(TotalCount(with_maybe)) +
                             " with the maybe-persisted op)"
                       : ""));
    }
    if (snap->epoch != 0) {
      return fail(tag + " recovered at cumulative epoch " +
                  std::to_string(snap->epoch) +
                  " without any reconfiguration");
    }
    // Safety: a model rebuilt from the recovered log must still satisfy
    // eq. 1 for every subset — recovery never over-issues.
    ReferenceModel fresh(oracle.baseline->licenses.get());
    for (const LogRecord& record : snap->log.records()) {
      fresh.Apply(record.set, record.count);
    }
    const Status invariant = fresh.CheckInvariant();
    if (!invariant.ok()) {
      return fail(tag + " recovered state violates eq. 1: " +
                  invariant.message());
    }
    // Liveness: post-recovery decisions keep agreeing with the rebuilt
    // model (geometry, counts, and epoch all came back).
    for (int probe = 0; probe < 3; ++probe) {
      const License request = workload.DrawRequest(
          *oracle.baseline, &rng, total_ops + probe);
      const ReferenceModel::Decision want = fresh.TryIssue(request);
      Result<OnlineDecision> got = (*recovered)->TryIssue(tenant, request);
      ++result.ops_executed;
      if (!got.ok()) {
        return fail(tag + " post-recovery issue failed: " +
                    got.status().message());
      }
      const std::string mismatch = CompareDecision(
          *got, want, tag + " post-recovery probe " + std::to_string(probe));
      if (!mismatch.empty()) {
        return fail(mismatch);
      }
      if (got->accepted()) {
        fresh.Apply(want.satisfying_set, request.aggregate_count());
      }
      result.op_trace.push_back(tag + " post-recovery issue " +
                                (got->accepted() ? "accept" : "reject"));
    }
  }

  (void)(*recovered)->Close();
  recovered->reset();
  return result;
}

}  // namespace geolic
