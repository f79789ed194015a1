// Eviction round-trip equivalence (the catalog layer's core promise):
// a tenant that is forcibly spilled to its checkpoint and reloaded on
// every touch must make decisions *bit-identical* to a never-evicted twin
// — same admission outcome, same satisfying set, same cumulative
// catalog_epoch, same limiting equation on aggregate rejection — across
// issue, acquire, revoke and expire streams.
//
// The twin construction: two CatalogServices over the same deterministic
// MultiTenantWorkload. The "churn" catalog runs with a 1-byte budget and
// an explicit SpillTenant after every op, so every subsequent touch is a
// checkpoint reload; the "resident" catalog runs with the default budget
// and never evicts. Identical op streams go to both; any divergence is a
// spill-encode/decode or reloaded-epoch bug.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "catalog/catalog_service.h"
#include "catalog/tenant_source.h"
#include "licensing/license.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/multi_tenant.h"

namespace geolic {
namespace {

namespace fs = std::filesystem;

constexpr int kTrials = 500;
constexpr int kOpsPerTrial = 14;

std::string TrialDir(const char* tag, int trial) {
  return (fs::path(testing::TestTmpDir()) /
          ("geolic-evict-rt-" + std::to_string(getpid()) + "-" + tag + "-" +
           std::to_string(trial)))
      .string();
}

// A redistribution license to acquire live: a random box in the tenant's
// domain with a small aggregate budget, built against the tenant's own
// schema (generated interval dimensions are named "C1", "C2", ...).
License MakeAcquire(const Workload& tenant, Rng* rng, int64_t domain,
                    const std::string& id) {
  LicenseBuilder builder(tenant.schema.get());
  builder.SetId(id)
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kPlay)
      .SetAggregateCount(rng->UniformInt(40, 200));
  for (int d = 0; d < tenant.schema->dimensions(); ++d) {
    const int64_t width = rng->UniformInt(domain / 20, domain / 4);
    const int64_t lo = rng->UniformInt(0, domain - width - 1);
    builder.SetInterval("C" + std::to_string(d + 1), lo, lo + width);
  }
  Result<License> license = builder.Build();
  EXPECT_TRUE(license.ok()) << license.status().message();
  return *license;
}

// Asserts two decisions are indistinguishable to a client. The count of
// equations *checked* is deliberately not compared: a reloaded service
// recompiles its grouping from the evolved catalog, which may partition
// groups differently without changing any decision (paper Theorem 2).
void ExpectSameDecision(const OnlineDecision& churn,
                        const OnlineDecision& resident,
                        const std::string& where) {
  EXPECT_EQ(churn.instance_valid, resident.instance_valid) << where;
  EXPECT_EQ(churn.aggregate_valid, resident.aggregate_valid) << where;
  EXPECT_EQ(churn.catalog_epoch, resident.catalog_epoch) << where;
  if (resident.instance_valid) {
    EXPECT_TRUE(churn.satisfying_set == resident.satisfying_set) << where;
  }
  if (resident.instance_valid && !resident.aggregate_valid) {
    EXPECT_TRUE(churn.limiting.set == resident.limiting.set) << where;
    EXPECT_EQ(churn.limiting.lhs, resident.limiting.lhs) << where;
    EXPECT_EQ(churn.limiting.rhs, resident.limiting.rhs) << where;
  }
}

void RunTrial(int trial) {
  const uint64_t trial_u = static_cast<uint64_t>(trial);
  Rng rng(testing::TestSeed(uint64_t{0xE71C7} * trial_u + uint64_t{17}));

  MultiTenantConfig config;
  config.num_tenants = 3;
  config.zipf_s = 1.1;
  config.seed = uint64_t{0x5EED} + trial_u;
  config.base.dimensions = 2;
  config.base.aggregate_min = 60;
  config.base.aggregate_max = 400;
  config.base.usage_count_min = 10;
  config.base.usage_count_max = 40;
  config.min_licenses = 2;
  config.max_licenses = 4;
  MultiTenantWorkload workload(config);
  WorkloadTenantSource source_churn(&workload);
  WorkloadTenantSource source_resident(&workload);

  const std::string churn_dir = TrialDir("churn", trial);
  const std::string resident_dir = TrialDir("resident", trial);
  fs::remove_all(churn_dir);
  fs::remove_all(resident_dir);

  CatalogOptions churn_options;
  churn_options.dir = churn_dir;
  churn_options.memory_budget_bytes = 1;  // Floor = one resident tenant.

  CatalogOptions resident_options;
  resident_options.dir = resident_dir;

  Result<std::unique_ptr<CatalogService>> churn_or =
      CatalogService::Create(&source_churn, churn_options);
  Result<std::unique_ptr<CatalogService>> resident_or =
      CatalogService::Create(&source_resident, resident_options);
  ASSERT_TRUE(churn_or.ok()) << churn_or.status().message();
  ASSERT_TRUE(resident_or.ok()) << resident_or.status().message();
  CatalogService& churn = **churn_or;
  CatalogService& resident = **resident_or;

  // Tenant baselines for drawing requests (shared by both sides: the op
  // stream is drawn once and applied to each catalog verbatim).
  std::unordered_map<uint64_t, Workload> baselines;
  std::vector<std::string> acquired_ids;
  int acquire_seq = 0;

  for (int op = 0; op < kOpsPerTrial; ++op) {
    const uint64_t tenant = workload.DrawTenant(&rng);
    auto it = baselines.find(tenant);
    if (it == baselines.end()) {
      Result<Workload> made = workload.MakeTenant(tenant);
      ASSERT_TRUE(made.ok()) << made.status().message();
      it = baselines.emplace(tenant, std::move(*made)).first;
    }
    const Workload& baseline = it->second;
    const std::string where =
        "trial " + std::to_string(trial) + " op " + std::to_string(op) +
        " tenant " + std::to_string(tenant);

    const double roll = rng.UniformDouble();
    if (roll < 0.12) {
      // Live acquire: grows the catalog, bumps the epoch.
      const License license =
          MakeAcquire(baseline, &rng, config.base.domain_size,
                      "RT" + std::to_string(++acquire_seq));
      Result<int> a = churn.AcquireLicense(tenant, license);
      Result<int> b = resident.AcquireLicense(tenant, license);
      ASSERT_EQ(a.ok(), b.ok()) << where;
      if (a.ok()) {
        EXPECT_EQ(*a, *b) << where;
        acquired_ids.push_back(license.id());
      }
    } else if (roll < 0.20 && !acquired_ids.empty()) {
      // Revoke one of the live acquisitions (may target a different
      // tenant's id — then both sides must reject identically).
      const std::string& id =
          acquired_ids[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(acquired_ids.size()) - 1))];
      const Status a = churn.RevokeLicenseById(tenant, id);
      const Status b = resident.RevokeLicenseById(tenant, id);
      EXPECT_EQ(a.ok(), b.ok()) << where << " revoke " << id;
    } else if (roll < 0.26) {
      // Expire: drops licenses wholly below the cutoff in one dimension.
      const int dim = static_cast<int>(rng.UniformInt(0, 1));
      const int64_t cutoff =
          rng.UniformInt(0, config.base.domain_size / 2);
      Result<int> a = churn.ExpireDimensionBelow(tenant, dim, cutoff);
      Result<int> b = resident.ExpireDimensionBelow(tenant, dim, cutoff);
      ASSERT_EQ(a.ok(), b.ok()) << where;
      if (a.ok()) {
        EXPECT_EQ(*a, *b) << where;
      }
    } else {
      const License usage = workload.DrawRequest(baseline, &rng, op + 1);
      Result<OnlineDecision> a = churn.TryIssue(tenant, usage);
      Result<OnlineDecision> b = resident.TryIssue(tenant, usage);
      ASSERT_TRUE(a.ok()) << where << ": " << a.status().message();
      ASSERT_TRUE(b.ok()) << where << ": " << b.status().message();
      ExpectSameDecision(*a, *b, where);
    }

    // Epochs must track in the cumulative numbering even though the churn
    // side's in-memory service restarts at epoch 0 on every reload.
    Result<uint64_t> epoch_a = churn.TenantEpoch(tenant);
    Result<uint64_t> epoch_b = resident.TenantEpoch(tenant);
    ASSERT_TRUE(epoch_a.ok()) << where;
    ASSERT_TRUE(epoch_b.ok()) << where;
    EXPECT_EQ(*epoch_a, *epoch_b) << where;

    // Force the round-trip: spill the tenant now so the next touch is a
    // checkpoint reload, not a cache hit.
    const Status spilled = churn.SpillTenant(tenant);
    EXPECT_TRUE(spilled.ok()) << where << ": " << spilled.message();
  }

  // End-of-trial deep comparison of every touched tenant.
  for (const auto& [tenant, baseline] : baselines) {
    (void)baseline;
    Result<CatalogService::TenantSnapshot> a = churn.SnapshotTenant(tenant);
    Result<CatalogService::TenantSnapshot> b =
        resident.SnapshotTenant(tenant);
    ASSERT_TRUE(a.ok()) << a.status().message();
    ASSERT_TRUE(b.ok()) << b.status().message();
    EXPECT_EQ(a->epoch, b->epoch) << "tenant " << tenant;
    EXPECT_EQ(a->tenant_seq, b->tenant_seq) << "tenant " << tenant;
    ASSERT_EQ(a->licenses.size(), b->licenses.size()) << "tenant " << tenant;
    for (size_t i = 0; i < a->licenses.size(); ++i) {
      EXPECT_EQ(a->licenses[i].id(), b->licenses[i].id())
          << "tenant " << tenant << " license " << i;
    }
    ASSERT_EQ(a->log.size(), b->log.size()) << "tenant " << tenant;
  }

  // The property must actually have exercised the eviction machinery.
  const CatalogStats stats = churn.stats();
  EXPECT_GT(stats.spills, 0u) << "trial " << trial;
  EXPECT_GT(stats.loads, 0u) << "trial " << trial;
  EXPECT_EQ(resident.stats().spills, 0u) << "trial " << trial;

  EXPECT_TRUE(churn.Close().ok());
  EXPECT_TRUE(resident.Close().ok());
  fs::remove_all(churn_dir);
  fs::remove_all(resident_dir);
}

TEST(EvictionRoundtripTest, SpilledTenantsDecideLikeResidentTwins) {
  for (int trial = 1; trial <= kTrials; ++trial) {
    RunTrial(trial);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "divergence at trial " << trial
             << " — repro: rerun with kTrials floor at this trial";
    }
  }
}

}  // namespace
}  // namespace geolic
