// Unit coverage for the multi-tenant catalog front door
// (catalog/catalog_service.h): lazy compilation and hit accounting, LRU
// eviction under a tiny budget, the resident charge for dense equation
// tables and for acceptances above the dense cap, explicit spill/reload
// transparency, and journal-backed crash
// recovery of an evolved tenant.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog_service.h"
#include "catalog/tenant_source.h"
#include "persist/faulty_file.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/multi_tenant.h"

namespace geolic {
namespace {

namespace fs = std::filesystem;

class CatalogServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_tenants = 8;
    config_.base.dimensions = 2;
    config_.min_licenses = 2;
    config_.max_licenses = 3;
    workload_ = std::make_unique<MultiTenantWorkload>(config_);
    source_ = std::make_unique<WorkloadTenantSource>(workload_.get());
    dir_ = (fs::path(testing::TestTmpDir()) /
            ("geolic-catalog-unit-" + std::to_string(getpid())))
               .string();
    fs::remove_all(dir_);
    options_.dir = dir_;
    options_.journal_writers = 2;
    options_.lru_shards = 1;
    options_.fsync_interval = 0;
  }

  void TearDown() override { fs::remove_all(dir_); }

  // One on-policy usage request for `tenant` (deterministic per call
  // sequence — the Rng is owned by the fixture).
  License Request(uint64_t tenant) {
    Result<Workload> baseline = workload_->MakeTenant(tenant);
    EXPECT_TRUE(baseline.ok());
    return workload_->DrawRequest(*baseline, &rng_, ++sequence_);
  }

  MultiTenantConfig config_;
  std::unique_ptr<MultiTenantWorkload> workload_;
  std::unique_ptr<WorkloadTenantSource> source_;
  CatalogOptions options_;
  std::string dir_;
  Rng rng_{testing::TestSeed(0xCA7A)};
  int64_t sequence_ = 0;
};

TEST_F(CatalogServiceTest, RejectsBadOptions) {
  CatalogOptions bad = options_;
  bad.dir.clear();
  EXPECT_FALSE(CatalogService::Create(source_.get(), bad).ok());
  bad = options_;
  bad.journal_writers = 0;
  EXPECT_FALSE(CatalogService::Create(source_.get(), bad).ok());
  bad = options_;
  bad.lru_shards = 0;
  EXPECT_FALSE(CatalogService::Create(source_.get(), bad).ok());
}

TEST_F(CatalogServiceTest, LazyCompileThenCacheHit) {
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();

  Result<OnlineDecision> first = (*catalog)->TryIssue(3, Request(3));
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_TRUE(first->instance_valid);
  CatalogStats stats = (*catalog)->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.resident_tenants, 1u);

  Result<OnlineDecision> second = (*catalog)->TryIssue(3, Request(3));
  ASSERT_TRUE(second.ok());
  stats = (*catalog)->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.journal_frames, 2u);

  // Unknown tenants fail without poisoning the catalog.
  EXPECT_FALSE(
      (*catalog)->TryIssue(config_.num_tenants + 5, Request(3)).ok());
  EXPECT_TRUE((*catalog)->TryIssue(3, Request(3)).ok());
  EXPECT_TRUE((*catalog)->Close().ok());
}

TEST_F(CatalogServiceTest, TinyBudgetEvictsColdTenants) {
  options_.memory_budget_bytes = 1;  // Floor: one resident tenant/shard.
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(catalog.ok());

  for (uint64_t tenant = 0; tenant < 4; ++tenant) {
    ASSERT_TRUE((*catalog)->TryIssue(tenant, Request(tenant)).ok());
  }
  const CatalogStats stats = (*catalog)->stats();
  EXPECT_GE(stats.evictions, 3u);
  EXPECT_EQ(stats.resident_tenants, 1u);

  // Evicted tenants come back transparently from their spills.
  ASSERT_TRUE((*catalog)->TryIssue(0, Request(0)).ok());
  EXPECT_GE((*catalog)->stats().loads, 1u);
  EXPECT_TRUE((*catalog)->Close().ok());
}

// A resident tenant is charged the exact size of its service's dense
// equation tables on top of the fixed costs (16 KiB per tenant, 1 KiB per
// license), and re-charged when a reconfiguration resizes them.
TEST_F(CatalogServiceTest, ResidentBytesChargeDenseTables) {
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(catalog.ok());
  Result<Workload> baseline = workload_->MakeTenant(2);
  ASSERT_TRUE(baseline.ok());
  const auto table_bytes = [](const LicenseCatalog& licenses) {
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::Create(&licenses);
    GEOLIC_CHECK(service.ok());
    return (*service)->dense_table_bytes();
  };
  const LicenseCatalog& licenses = *baseline->licenses;
  const size_t n = static_cast<size_t>(licenses.size());
  ASSERT_TRUE((*catalog)->TenantEpoch(2).ok());  // Compiles; no records.
  EXPECT_EQ((*catalog)->stats().resident_bytes,
            (16u << 10) + n * (1u << 10) + table_bytes(licenses));

  // A copy of license 0 under a new id joins license 0's group, doubling
  // that group's tables.
  const License& original = licenses.at(0);
  LicenseBuilder builder(baseline->schema.get());
  builder.SetId("copy")
      .SetContentKey(original.content_key())
      .SetType(original.type())
      .SetPermission(original.permission())
      .SetAggregateCount(original.aggregate_count());
  for (int d = 0; d < baseline->schema->dimensions(); ++d) {
    builder.SetRange(baseline->schema->name(d), original.rect().dim(d));
  }
  const Result<License> copy = builder.Build();
  ASSERT_TRUE(copy.ok());
  LicenseCatalog grown(baseline->schema.get());
  for (const License& license : licenses.licenses()) {
    ASSERT_TRUE(grown.Add(license).ok());
  }
  ASSERT_TRUE(grown.Add(*copy).ok());
  ASSERT_GT(table_bytes(grown), table_bytes(licenses));
  ASSERT_TRUE((*catalog)->AcquireLicense(2, *copy).ok());
  EXPECT_EQ((*catalog)->stats().resident_bytes,
            (16u << 10) + (n + 1) * (1u << 10) + table_bytes(grown));

  // Revoking it shrinks the tables back (the license charge stays: the
  // accounting only grows between reloads).
  ASSERT_TRUE((*catalog)->RevokeLicenseById(2, "copy").ok());
  EXPECT_EQ((*catalog)->stats().resident_bytes,
            (16u << 10) + (n + 1) * (1u << 10) + table_bytes(licenses));
  EXPECT_TRUE((*catalog)->Close().ok());
}

// An acceptance is charged kRecordBytes (128) only where the state can
// grow: in a group above the dense cap, whose tree may gain a node. A
// dense group's state is its fixed tables, which table_bytes already
// charges, so its acceptances cost nothing more.
TEST_F(CatalogServiceTest, AcceptancesChargeRecordBytesOnlyAboveTheDenseCap) {
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(catalog.ok());
  Result<Workload> baseline = workload_->MakeTenant(2);
  ASSERT_TRUE(baseline.ok());
  const LicenseCatalog& licenses = *baseline->licenses;
  const License& original = licenses.at(0);
  // A licence (or usage request) with license 0's geometry.
  const auto like_original = [&](const std::string& id, LicenseType type,
                                 int64_t count) {
    LicenseBuilder builder(baseline->schema.get());
    builder.SetId(id)
        .SetContentKey(original.content_key())
        .SetType(type)
        .SetPermission(original.permission())
        .SetAggregateCount(count);
    for (int d = 0; d < baseline->schema->dimensions(); ++d) {
      builder.SetRange(baseline->schema->name(d), original.rect().dim(d));
    }
    Result<License> built = builder.Build();
    GEOLIC_CHECK(built.ok());
    return *std::move(built);
  };

  // Dense: accepted requests leave the charge as it was.
  ASSERT_TRUE((*catalog)->TenantEpoch(2).ok());
  const size_t compiled = (*catalog)->stats().resident_bytes;
  for (int i = 0; i < 3; ++i) {
    Result<OnlineDecision> decision = (*catalog)->TryIssue(
        2, like_original("U" + std::to_string(i), LicenseType::kUsage, 1));
    ASSERT_TRUE(decision.ok());
    ASSERT_TRUE(decision->accepted());
  }
  EXPECT_EQ((*catalog)->stats().resident_bytes, compiled);

  // kMaxDenseGroupSize copies of license 0 put its group above the cap:
  // its tables go (the charge follows dense_table_bytes), and from then
  // on each acceptance in it is charged 128 bytes.
  for (int i = 0; i < kMaxDenseGroupSize; ++i) {
    ASSERT_TRUE((*catalog)
                    ->AcquireLicense(
                        2, like_original("copy" + std::to_string(i),
                                         LicenseType::kRedistribution,
                                         original.aggregate_count()))
                    .ok());
  }
  Result<CatalogService::TenantSnapshot> snapshot =
      (*catalog)->SnapshotTenant(2);
  ASSERT_TRUE(snapshot.ok());
  const size_t n = snapshot->licenses.size();
  ASSERT_GT(n, static_cast<size_t>(kMaxDenseGroupSize));
  LicenseCatalog grown(baseline->schema.get());
  for (const License& license : snapshot->licenses) {
    ASSERT_TRUE(grown.Add(license).ok());
  }
  Result<std::unique_ptr<IssuanceService>> grown_service =
      IssuanceService::Create(&grown);
  ASSERT_TRUE(grown_service.ok());
  const size_t tables = (*grown_service)->dense_table_bytes();
  const size_t licenses_charged =
      static_cast<size_t>(licenses.size() + kMaxDenseGroupSize);
  EXPECT_EQ((*catalog)->stats().resident_bytes,
            (16u << 10) + licenses_charged * (1u << 10) + tables);
  for (int i = 0; i < 2; ++i) {
    Result<OnlineDecision> decision = (*catalog)->TryIssue(
        2, like_original("V" + std::to_string(i), LicenseType::kUsage, 1));
    ASSERT_TRUE(decision.ok());
    ASSERT_TRUE(decision->accepted());
  }
  EXPECT_EQ((*catalog)->stats().resident_bytes,
            (16u << 10) + licenses_charged * (1u << 10) + tables + 2 * 128);
  EXPECT_TRUE((*catalog)->Close().ok());
}

TEST_F(CatalogServiceTest, ExplicitSpillIsTransparent) {
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(catalog.ok());

  const License usage = Request(2);
  Result<OnlineDecision> before = (*catalog)->TryIssue(2, usage);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*catalog)->SpillTenant(2).ok());
  EXPECT_TRUE(fs::exists((*catalog)->SpillPath(2)));
  // Spilling a cold tenant is a no-op.
  EXPECT_TRUE((*catalog)->SpillTenant(2).ok());

  // The reloaded tenant remembers the accepted record and keeps deciding.
  Result<CatalogService::TenantSnapshot> snapshot =
      (*catalog)->SnapshotTenant(2);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->log.size(), before->accepted() ? 1u : 0u);
  Result<OnlineDecision> after = (*catalog)->TryIssue(2, usage);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->instance_valid, before->instance_valid);
  EXPECT_TRUE((*catalog)->Close().ok());
}

TEST_F(CatalogServiceTest, RecoverReplaysTheJournaledTail) {
  int64_t accepted = 0;
  {
    options_.fsync_interval = 1;
    Result<std::unique_ptr<CatalogService>> catalog =
        CatalogService::Create(source_.get(), options_);
    ASSERT_TRUE(catalog.ok());
    for (int i = 0; i < 6; ++i) {
      const uint64_t tenant = static_cast<uint64_t>(i % 2);
      const License request = Request(tenant);
      Result<OnlineDecision> decision = (*catalog)->TryIssue(tenant, request);
      ASSERT_TRUE(decision.ok());
      if (tenant == 1 && decision->accepted()) {
        accepted += request.aggregate_count();
      }
    }
    // Crash: destroy without Close. The journal pool has every frame.
    catalog->reset();
  }

  CatalogRecoveryStats rstats;
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(source_.get(), options_, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(rstats.journal_frames, 6u);
  EXPECT_EQ(rstats.tenants_recovered, 2u);

  Result<CatalogService::TenantSnapshot> snapshot =
      (*recovered)->SnapshotTenant(1);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->log.TotalCount(), accepted);
  EXPECT_EQ(snapshot->tenant_seq, 3u);
  EXPECT_TRUE((*recovered)->Close().ok());
}

TEST_F(CatalogServiceTest, RecoverReadsAnEmptyPoolFileAsNoFrames) {
  // A pool writer that never completed a sync may leave its file empty
  // after a crash: its magic was never made durable and no frame on it
  // was acknowledged. Recovery reads it as no frames and replays the rest
  // of the pool.
  options_.fsync_interval = 1;
  uint64_t tenant = 0;
  int64_t accepted = 0;
  std::string empty_path;
  {
    Result<std::unique_ptr<CatalogService>> catalog =
        CatalogService::Create(source_.get(), options_);
    ASSERT_TRUE(catalog.ok());
    const int used = (*catalog)->WriterIndexForTenant(tenant);
    empty_path = (*catalog)->JournalPath(1 - used);
    for (int i = 0; i < 3; ++i) {
      const License request = Request(tenant);
      Result<OnlineDecision> decision = (*catalog)->TryIssue(tenant, request);
      ASSERT_TRUE(decision.ok());
      if (decision->accepted()) {
        accepted += request.aggregate_count();
      }
    }
    catalog->reset();  // Crash: destroy without Close.
  }
  fs::resize_file(empty_path, 0);

  CatalogRecoveryStats rstats;
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(source_.get(), options_, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(rstats.journal_frames, 3u);
  EXPECT_EQ(rstats.torn_tails, 0u);
  Result<CatalogService::TenantSnapshot> snapshot =
      (*recovered)->SnapshotTenant(tenant);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->log.TotalCount(), accepted);
  EXPECT_EQ(snapshot->tenant_seq, 3u);
  EXPECT_TRUE((*recovered)->Close().ok());
}

TEST_F(CatalogServiceTest, FreshCreateRemovesStaleSpills) {
  // Evolve a tenant, spill it, and shut down cleanly so nothing is left
  // in the journals.
  {
    Result<std::unique_ptr<CatalogService>> catalog =
        CatalogService::Create(source_.get(), options_);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE((*catalog)->TryIssue(2, Request(2)).ok());
    ASSERT_TRUE((*catalog)->SpillTenant(2).ok());
    ASSERT_TRUE(fs::exists((*catalog)->SpillPath(2)));
    EXPECT_TRUE((*catalog)->Close().ok());
  }
  // Plant an interrupted temp spill too — Create must sweep both.
  {
    std::ofstream stale(dir_ + "/tenant-5.spill.tmp", std::ios::binary);
    stale << "torn spill write";
  }

  // A *fresh* catalog over the same directory must not resurrect the old
  // generation's evolved tenant state.
  Result<std::unique_ptr<CatalogService>> fresh =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();
  EXPECT_FALSE(fs::exists((*fresh)->SpillPath(2)));
  EXPECT_FALSE(fs::exists(dir_ + "/tenant-5.spill.tmp"));

  // First touch compiles from the baseline — no spill load, no history.
  Result<CatalogService::TenantSnapshot> snapshot =
      (*fresh)->SnapshotTenant(2);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->log.size(), 0u);
  const CatalogStats stats = (*fresh)->stats();
  EXPECT_EQ(stats.loads, 0u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_TRUE((*fresh)->Close().ok());
}

TEST_F(CatalogServiceTest, PoisonedWriterFailStopsTheCatalog) {
  // Route journal I/O through fault injectors so one writer can die
  // mid-run.
  options_.fsync_interval = 1;
  std::vector<FaultyFile*> faulty(
      static_cast<size_t>(options_.journal_writers), nullptr);
  options_.journal_file_factory =
      [&faulty](const std::string& path,
                int writer_index) -> Result<std::unique_ptr<SyncFile>> {
    GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixSyncFile> base,
                            PosixSyncFile::Create(path));
    auto file = std::make_unique<FaultyFile>(std::move(base));
    faulty[static_cast<size_t>(writer_index)] = file.get();
    return std::unique_ptr<SyncFile>(std::move(file));
  };
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(catalog.ok());

  // Two tenants routing to different pool writers.
  uint64_t victim = 0;
  uint64_t bystander = 1;
  while ((*catalog)->WriterIndexForTenant(bystander) ==
         (*catalog)->WriterIndexForTenant(victim)) {
    ++bystander;
  }
  ASSERT_LT(bystander, config_.num_tenants);
  ASSERT_TRUE((*catalog)->TryIssue(victim, Request(victim)).ok());
  ASSERT_TRUE((*catalog)->TryIssue(bystander, Request(bystander)).ok());

  // Kill the victim's writer: the faulted op fails with the I/O error...
  faulty[static_cast<size_t>((*catalog)->WriterIndexForTenant(victim))]
      ->CrashNow();
  Result<OnlineDecision> faulted =
      (*catalog)->TryIssue(victim, Request(victim));
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kIoError);

  // ...and the whole catalog fail-stops: tenants on the healthy writer
  // are rejected too (no silent partial outage), with the health counter
  // exposed.
  Result<OnlineDecision> rejected =
      (*catalog)->TryIssue(bystander, Request(bystander));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("fail-stopped"),
            std::string::npos)
      << rejected.status().message();
  EXPECT_FALSE((*catalog)->RevokeLicenseById(bystander, "nope").ok());
  EXPECT_EQ((*catalog)->stats().poisoned_writers, 1u);

  // Read-side maintenance still works: spilling journals nothing.
  EXPECT_TRUE((*catalog)->SpillTenant(bystander).ok());

  // Recovery over the same directory restores service; the maybe-persisted
  // faulted frame is allowed to replay.
  catalog->reset();
  CatalogOptions recover_options = options_;
  recover_options.journal_file_factory = nullptr;
  CatalogRecoveryStats rstats;
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(source_.get(), recover_options, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_TRUE((*recovered)->TryIssue(victim, Request(victim)).ok());
  EXPECT_TRUE((*recovered)->TryIssue(bystander, Request(bystander)).ok());
  EXPECT_EQ((*recovered)->stats().poisoned_writers, 0u);
  EXPECT_TRUE((*recovered)->Close().ok());
}

TEST_F(CatalogServiceTest, WriterRoutingIsStablePerTenant) {
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(catalog.ok());
  for (uint64_t tenant = 0; tenant < 8; ++tenant) {
    const int writer = (*catalog)->WriterIndexForTenant(tenant);
    EXPECT_GE(writer, 0);
    EXPECT_LT(writer, options_.journal_writers);
    EXPECT_EQ(writer, (*catalog)->WriterIndexForTenant(tenant));
  }
  EXPECT_TRUE((*catalog)->Close().ok());
}

}  // namespace
}  // namespace geolic
