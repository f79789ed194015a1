// Unit coverage for the multi-tenant catalog front door
// (catalog/catalog_service.h): lazy compilation and hit accounting, LRU
// eviction under a tiny budget, the resident charge for dense equation
// tables and for acceptances above the dense cap, explicit spill/reload
// transparency, a journal that holds only the ops that succeeded,
// journal-backed crash recovery of an evolved tenant with its per-tenant
// sequence checks and strict replay, stale pool journals, fail-stop on a
// poisoned writer (an issue's frame or an acquire's), and four threads
// checked against per-tenant reference models in the journal's lock
// order.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog_service.h"
#include "catalog/tenant_source.h"
#include "persist/faulty_file.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "sim/reference_model.h"
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
  }

  void TearDown() override { fs::remove_all(dir_); }

  // One on-policy usage request for `tenant` (deterministic per call
  // sequence — the Rng is owned by the fixture). Its count (at most 30) is
  // far below every licence's budget (at least 5,000), so the few dozen a
  // test issues are all accepted.
  License Request(uint64_t tenant) {
    Result<Workload> baseline = workload_->MakeTenant(tenant);
    EXPECT_TRUE(baseline.ok());
    return workload_->DrawRequest(*baseline, &rng_, ++sequence_);
  }

  // A usage of `request`'s geometry under `id` with `count` issuances.
  // Built directly: LicenseBuilder refuses a non-positive count.
  static License WithCount(const License& request, const std::string& id,
                           int64_t count) {
    return License(id, request.content_key(), request.type(),
                   request.permission(), request.rect(), count);
  }

  // More issuances than any tenant's licences sum to in any epoch, so
  // WithCount(request, id, kOverBudget) is rejected by the first equation
  // it checks, T = S, whatever was admitted before it.
  static constexpr int64_t kOverBudget = int64_t{1} << 40;

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
  bad.memory_budget_bytes = 0;
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
  options_.memory_budget_bytes = 1;  // Floor: one resident tenant.
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
  ASSERT_TRUE(before->accepted());
  const size_t compiled_bytes = (*catalog)->stats().resident_bytes;
  ASSERT_TRUE((*catalog)->SpillTenant(2).ok());
  EXPECT_TRUE(fs::exists((*catalog)->SpillPath(2)));
  EXPECT_EQ((*catalog)->stats().resident_bytes, 0u);
  // Spilling a cold tenant is a no-op.
  EXPECT_TRUE((*catalog)->SpillTenant(2).ok());

  // The reloaded tenant remembers the accepted record and keeps deciding.
  // A load charges 128 bytes per record it reads (one distinct set here)
  // on top of what the compile charged.
  Result<CatalogService::TenantSnapshot> snapshot =
      (*catalog)->SnapshotTenant(2);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->log.size(), 1u);
  EXPECT_EQ((*catalog)->stats().resident_bytes, compiled_bytes + 128);
  Result<OnlineDecision> after = (*catalog)->TryIssue(2, usage);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->instance_valid, before->instance_valid);
  EXPECT_TRUE((*catalog)->Close().ok());
}

// The journal holds exactly the ops that succeeded: a rejected issue, a
// revoke of an unknown id, an expire that removes nothing and a
// non-positive count append no frame; the accepted issue after them
// appends the tenant's first.
TEST_F(CatalogServiceTest, OnlyOpsThatSucceededAppendAFrame) {
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(catalog.ok());
  const uint64_t tenant = 2;
  const License request = Request(tenant);

  Result<OnlineDecision> rejected =
      (*catalog)->TryIssue(tenant, WithCount(request, "over", kOverBudget));
  ASSERT_TRUE(rejected.ok());
  EXPECT_TRUE(rejected->instance_valid);
  EXPECT_FALSE(rejected->aggregate_valid);
  EXPECT_EQ((*catalog)->RevokeLicenseById(tenant, "nope").code(),
            StatusCode::kNotFound);
  Result<int> expired = (*catalog)->ExpireDimensionBelow(
      tenant, 0, std::numeric_limits<int64_t>::min());
  ASSERT_TRUE(expired.ok()) << expired.status().message();
  EXPECT_EQ(*expired, 0);
  const License zero = WithCount(request, "zero", 0);
  EXPECT_EQ((*catalog)->TryIssue(tenant, zero).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*catalog)->stats().journal_frames, 0u);

  Result<OnlineDecision> accepted = (*catalog)->TryIssue(tenant, request);
  ASSERT_TRUE(accepted.ok());
  ASSERT_TRUE(accepted->accepted());
  EXPECT_EQ((*catalog)->stats().journal_frames, 1u);
  Result<CatalogService::TenantSnapshot> snapshot =
      (*catalog)->SnapshotTenant(tenant);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->tenant_seq, 1u);
  ASSERT_TRUE((*catalog)->Close().ok());

  const Result<JournalReplay> replay =
      JournalReader::ReadFile((*catalog)->JournalPath());
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  ASSERT_EQ(replay->entries.size(), 1u);
  const JournalEntry& frame = replay->entries[0];
  EXPECT_EQ(frame.kind, JournalEntryKind::kTenantOp);
  EXPECT_EQ(frame.tenant_id, tenant);
  EXPECT_EQ(frame.tenant_seq, 1u);
  EXPECT_EQ(frame.op.kind, OpKind::kIssue);
  EXPECT_EQ(frame.op.license.id(), request.id());
}

// Six accepted issues across two tenants, each followed by an
// over-budget issue and a revoke of an unknown id: the journal holds the
// six that succeeded, and Recover replays them.
TEST_F(CatalogServiceTest, RecoverReplaysTheJournaledTail) {
  int64_t accepted = 0;
  {
    Result<std::unique_ptr<CatalogService>> catalog =
        CatalogService::Create(source_.get(), options_);
    ASSERT_TRUE(catalog.ok());
    for (int i = 0; i < 6; ++i) {
      const uint64_t tenant = static_cast<uint64_t>(i % 2);
      const License request = Request(tenant);
      Result<OnlineDecision> decision = (*catalog)->TryIssue(tenant, request);
      ASSERT_TRUE(decision.ok());
      ASSERT_TRUE(decision->accepted());
      if (tenant == 1) {
        accepted += request.aggregate_count();
      }
      Result<OnlineDecision> rejected = (*catalog)->TryIssue(
          tenant, WithCount(request, "over" + std::to_string(i), kOverBudget));
      ASSERT_TRUE(rejected.ok());
      ASSERT_FALSE(rejected->accepted());
      ASSERT_FALSE((*catalog)->RevokeLicenseById(tenant, "nope").ok());
    }
    EXPECT_EQ((*catalog)->stats().journal_frames, 6u);
    // Crash: destroy without Close. The journal has every frame.
    catalog->reset();
  }

  CatalogRecoveryStats rstats;
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(source_.get(), options_, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(rstats.journal_frames, 6u);
  EXPECT_EQ(rstats.frames_replayed, 6u);
  EXPECT_EQ(rstats.tenants_recovered, 2u);

  Result<CatalogService::TenantSnapshot> snapshot =
      (*recovered)->SnapshotTenant(1);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->log.TotalCount(), accepted);
  EXPECT_EQ(snapshot->tenant_seq, 3u);
  EXPECT_TRUE((*recovered)->Close().ok());
}

TEST_F(CatalogServiceTest, RecoverReadsAnEmptyJournalAsNoFrames) {
  // A journal that never completed a sync may be empty after a crash: its
  // magic was never made durable and none of its frames was acknowledged
  // as synced. Recovery reads it as no frames and serves the tenant from
  // its spill, which covers the tenant's three accepted issues (its
  // tenant_seq counts ops that succeeded, not the rejected fourth).
  const uint64_t tenant = 0;
  int64_t accepted = 0;
  {
    Result<std::unique_ptr<CatalogService>> catalog =
        CatalogService::Create(source_.get(), options_);
    ASSERT_TRUE(catalog.ok());
    for (int i = 0; i < 3; ++i) {
      const License request = Request(tenant);
      Result<OnlineDecision> decision = (*catalog)->TryIssue(tenant, request);
      ASSERT_TRUE(decision.ok());
      ASSERT_TRUE(decision->accepted());
      accepted += request.aggregate_count();
    }
    Result<OnlineDecision> rejected = (*catalog)->TryIssue(
        tenant, WithCount(Request(tenant), "over", kOverBudget));
    ASSERT_TRUE(rejected.ok());
    ASSERT_FALSE(rejected->accepted());
    ASSERT_TRUE((*catalog)->SpillTenant(tenant).ok());
    catalog->reset();  // Crash: destroy without Close.
  }
  fs::resize_file(dir_ + "/catalog-journal-0.wal", 0);

  CatalogRecoveryStats rstats;
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(source_.get(), options_, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(rstats.journal_frames, 0u);
  EXPECT_EQ(rstats.torn_tails, 0);
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
  // Plant an interrupted temp spill and a pool journal of a layout with
  // several writers too — Create must sweep them all.
  {
    std::ofstream stale(dir_ + "/tenant-5.spill.tmp", std::ios::binary);
    stale << "torn spill write";
  }
  {
    std::ofstream stale(dir_ + "/catalog-journal-3.wal", std::ios::binary);
    stale << "old pool journal";
  }

  // A *fresh* catalog over the same directory must not resurrect the old
  // generation's evolved tenant state.
  Result<std::unique_ptr<CatalogService>> fresh =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();
  EXPECT_FALSE(fs::exists((*fresh)->SpillPath(2)));
  EXPECT_FALSE(fs::exists(dir_ + "/tenant-5.spill.tmp"));
  EXPECT_FALSE(fs::exists(dir_ + "/catalog-journal-3.wal"));
  EXPECT_TRUE(fs::exists((*fresh)->JournalPath()));

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

TEST_F(CatalogServiceTest, RecoverRefusesAStalePoolJournal) {
  {
    Result<std::unique_ptr<CatalogService>> catalog =
        CatalogService::Create(source_.get(), options_);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE((*catalog)->TryIssue(2, Request(2)).ok());
    EXPECT_TRUE((*catalog)->Close().ok());
  }
  // A pool file another layout acknowledged ops in: recovering without it
  // would silently drop them.
  const std::string stale = dir_ + "/catalog-journal-1.wal";
  {
    std::ofstream out(stale, std::ios::binary);
    out << "old pool journal";
  }
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(source_.get(), options_);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find(stale), std::string::npos)
      << recovered.status().message();
  // Neither file was touched.
  EXPECT_TRUE(fs::exists(stale));
  EXPECT_GT(fs::file_size(dir_ + "/catalog-journal-0.wal"), 8u);

  // The catalog-journal-0.wal itself and other names are not pool files.
  fs::remove(stale);
  {
    std::ofstream out(dir_ + "/catalog-journal-x.wal", std::ios::binary);
    out << "not a pool index";
  }
  EXPECT_TRUE(CatalogService::Recover(source_.get(), options_).ok());
}

// One tenant's issue op, as a catalog journal frame carries it.
struct IssueFrame {
  uint64_t tenant = 0;
  uint64_t tenant_seq = 0;
  License usage;
};

// Writes `frames` as a whole journal at `path`, writer frames 1, 2, ...
void WriteTenantJournal(const std::string& path,
                        const std::vector<IssueFrame>& frames) {
  Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok()) << writer.status().message();
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE((*writer)
                    ->AppendTenantOp(i + 1, frames[i].tenant,
                                     frames[i].tenant_seq,
                                     OpRef::Issue(frames[i].usage))
                    .ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
}

// Recover checks each tenant's tenant_seq run: contiguous from the op
// after its spill's covered_seq. A gap, a duplicate, or a run resuming
// past the spill fails with a ParseError naming the tenant, even when the
// other tenants' runs are clean. Every hand-built frame is an on-policy
// issue that replays accepted, so only the sequence checks can fail.
TEST_F(CatalogServiceTest, RecoverRejectsBrokenTenantSequences) {
  struct Case {
    const char* name;
    std::vector<uint64_t> seqs;  // Tenant 2's frames, in journal order.
    bool spill_first;            // Spill tenant 2 at op 2 beforehand.
    const char* expected;        // Substring of the error.
  };
  const std::vector<Case> cases = {
      {"gap", {1, 2, 4}, false, "jumps from 2 to 4"},
      {"duplicate", {1, 2, 2}, false, "jumps from 2 to 2"},
      {"resumes past the spill", {4, 5}, true,
       "spill covers op 2 but the journal resumes at op 4"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    fs::remove_all(dir_);
    {
      Result<std::unique_ptr<CatalogService>> catalog =
          CatalogService::Create(source_.get(), options_);
      ASSERT_TRUE(catalog.ok());
      if (c.spill_first) {
        ASSERT_TRUE((*catalog)->TryIssue(2, Request(2)).ok());
        ASSERT_TRUE((*catalog)->TryIssue(2, Request(2)).ok());
        ASSERT_TRUE((*catalog)->SpillTenant(2).ok());
      }
      EXPECT_TRUE((*catalog)->Close().ok());
    }
    std::vector<IssueFrame> frames;
    uint64_t bystander_seq = 0;
    for (const uint64_t seq : c.seqs) {
      frames.push_back({5, ++bystander_seq, Request(5)});
      frames.push_back({2, seq, Request(2)});
    }
    WriteTenantJournal(dir_ + "/catalog-journal-0.wal", frames);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    Result<std::unique_ptr<CatalogService>> recovered =
        CatalogService::Recover(source_.get(), options_);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kParseError);
    const std::string& message = recovered.status().message();
    EXPECT_NE(message.find("tenant 2:"), std::string::npos) << message;
    EXPECT_NE(message.find(c.expected), std::string::npos) << message;
  }

  // The same journal with a contiguous run recovers.
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  WriteTenantJournal(dir_ + "/catalog-journal-0.wal",
                     {{2, 1, Request(2)}, {5, 1, Request(5)}, {2, 2, Request(2)}});
  CatalogRecoveryStats rstats;
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(source_.get(), options_, &rstats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(rstats.frames_replayed, 3u);
  EXPECT_EQ(rstats.tenants_recovered, 2u);
}

// Every frame of a catalog journal holds an op that succeeded live, so a
// frame that does not succeed again (tenant 2's second issue, over every
// budget) fails Recover with a ParseError naming the tenant, its op
// sequence and the frame, instead of replaying as a rejection.
TEST_F(CatalogServiceTest, RecoverFailsOnAFrameThatDoesNotReplay) {
  fs::create_directories(dir_);
  WriteTenantJournal(dir_ + "/catalog-journal-0.wal",
                     {{2, 1, Request(2)},
                      {5, 1, Request(5)},
                      {2, 2, WithCount(Request(2), "over", kOverBudget)},
                      {5, 2, Request(5)}});
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Result<std::unique_ptr<CatalogService>> recovered =
      CatalogService::Recover(source_.get(), options_);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kParseError);
  const std::string& message = recovered.status().message();
  EXPECT_NE(message.find("tenant 2: op 2 at frame 3 of"), std::string::npos)
      << message;
  EXPECT_NE(message.find("does not replay as it ran live"), std::string::npos)
      << message;
}

TEST_F(CatalogServiceTest, PoisonedWriterFailStopsTheCatalog) {
  // Route journal I/O through a fault injector so the writer can die
  // mid-run.
  FaultyFile* faulty = nullptr;
  options_.journal_file_factory =
      [&faulty](const std::string& path,
                int writer_index) -> Result<std::unique_ptr<SyncFile>> {
    EXPECT_EQ(writer_index, 0);
    GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixSyncFile> base,
                            PosixSyncFile::Create(path));
    auto file = std::make_unique<FaultyFile>(std::move(base));
    faulty = file.get();
    return std::unique_ptr<SyncFile>(std::move(file));
  };
  Result<std::unique_ptr<CatalogService>> catalog =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(catalog.ok());

  const uint64_t victim = 0;
  const uint64_t bystander = 1;
  ASSERT_TRUE((*catalog)->TryIssue(victim, Request(victim)).ok());
  ASSERT_TRUE((*catalog)->TryIssue(bystander, Request(bystander)).ok());

  // Kill the writer: the faulted op fails with the I/O error...
  faulty->CrashNow();
  Result<OnlineDecision> faulted =
      (*catalog)->TryIssue(victim, Request(victim));
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kIoError);

  // ...and the whole catalog fail-stops: other tenants are rejected too,
  // with the health counter exposed.
  Result<OnlineDecision> rejected =
      (*catalog)->TryIssue(bystander, Request(bystander));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("fail-stopped"),
            std::string::npos)
      << rejected.status().message();
  EXPECT_FALSE((*catalog)->RevokeLicenseById(bystander, "nope").ok());
  EXPECT_EQ((*catalog)->stats().poisoned_writers, 1u);

  // Read-side maintenance still works: spilling journals nothing. The next
  // mutating op, on the spilled tenant, is still rejected, and the one
  // poisoned writer stays counted once.
  EXPECT_TRUE((*catalog)->SpillTenant(bystander).ok());
  Result<OnlineDecision> after_spill =
      (*catalog)->TryIssue(bystander, Request(bystander));
  ASSERT_FALSE(after_spill.ok());
  EXPECT_EQ(after_spill.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(after_spill.status().message().find("fail-stopped"),
            std::string::npos)
      << after_spill.status().message();
  EXPECT_EQ((*catalog)->stats().poisoned_writers, 1u);

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

// A fault on the journal append of a tenant's acquire fails the acquire
// after its next epoch was built and before it was swapped in: the tenant
// keeps its epoch and catalog, and the catalog fail-stops. The frame is
// maybe-persisted, so Recover gives the state before the acquire (the disk
// died before the frame reached it) or the state after it (the frame
// reached the file and only its sync failed), never a third.
TEST_F(CatalogServiceTest, FaultOnAnAcquireFrameKeepsTheEpochAndFailStops) {
  for (const bool frame_reaches_file : {false, true}) {
    SCOPED_TRACE(frame_reaches_file ? "failed sync" : "dead disk");
    fs::remove_all(dir_);
    FaultyFile* faulty = nullptr;
    options_.journal_file_factory =
        [&faulty](const std::string& path,
                  int) -> Result<std::unique_ptr<SyncFile>> {
      GEOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixSyncFile> base,
                              PosixSyncFile::Create(path));
      auto file = std::make_unique<FaultyFile>(std::move(base));
      faulty = file.get();
      return std::unique_ptr<SyncFile>(std::move(file));
    };
    Result<std::unique_ptr<CatalogService>> catalog =
        CatalogService::Create(source_.get(), options_);
    ASSERT_TRUE(catalog.ok());
    const uint64_t tenant = 2;
    Result<OnlineDecision> issued =
        (*catalog)->TryIssue(tenant, Request(tenant));
    ASSERT_TRUE(issued.ok());
    ASSERT_TRUE(issued->accepted());
    const Result<CatalogService::TenantSnapshot> before =
        (*catalog)->SnapshotTenant(tenant);
    ASSERT_TRUE(before.ok());

    if (frame_reaches_file) {
      faulty->FailNextSync();
    } else {
      faulty->CrashNow();
    }
    const License& original = before->licenses.front();
    const License copy("copy", original.content_key(), original.type(),
                       original.permission(), original.rect(),
                       original.aggregate_count());
    const Result<int> acquired = (*catalog)->AcquireLicense(tenant, copy);
    ASSERT_FALSE(acquired.ok());
    EXPECT_EQ(acquired.status().code(), StatusCode::kIoError);
    const Result<CatalogService::TenantSnapshot> faulted =
        (*catalog)->SnapshotTenant(tenant);
    ASSERT_TRUE(faulted.ok());
    EXPECT_EQ(faulted->epoch, before->epoch);
    EXPECT_EQ(faulted->licenses.size(), before->licenses.size());
    EXPECT_EQ(faulted->tenant_seq, before->tenant_seq);
    EXPECT_EQ((*catalog)->stats().poisoned_writers, 1u);
    EXPECT_EQ((*catalog)->TryIssue(tenant, Request(tenant)).status().code(),
              StatusCode::kFailedPrecondition);

    catalog->reset();  // Crash.
    CatalogOptions recover_options = options_;
    recover_options.journal_file_factory = nullptr;
    Result<std::unique_ptr<CatalogService>> recovered =
        CatalogService::Recover(source_.get(), recover_options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    const Result<CatalogService::TenantSnapshot> after =
        (*recovered)->SnapshotTenant(tenant);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->log.records(), before->log.records());
    const uint64_t acquires = frame_reaches_file ? 1 : 0;
    EXPECT_EQ(after->epoch, before->epoch + acquires);
    EXPECT_EQ(after->tenant_seq, before->tenant_seq + acquires);
    ASSERT_EQ(after->licenses.size(), before->licenses.size() + acquires);
    EXPECT_EQ(after->licenses.back().id(),
              frame_reaches_file ? "copy" : before->licenses.back().id());
    EXPECT_TRUE((*recovered)->Close().ok());
  }
}

// Four threads issue, acquire and revoke licences and spill across the
// eight tenants under a budget of about two residents, so evictions and
// reloads interleave with every op. The one catalog lock makes the
// journal's frame order the order the ops that succeeded ran in:
// replaying each tenant's frames in that order through its own
// ReferenceModel (evolving its catalog at each acquire and revoke) must
// reproduce every decision and index, and the final snapshot of every
// tenant. The journal places no failed op, so the ops that fail here fail
// in any order: an issue over every budget (rejected at T = S in any
// epoch) and a revoke of an id no tenant holds. On-policy issues stay far
// below the budgets, so every one is accepted.
TEST_F(CatalogServiceTest, ConcurrentOpsMatchPerTenantModelsInJournalOrder) {
  constexpr size_t kThreads = 4;
  constexpr int kOpsPerThread = 100;
  options_.memory_budget_bytes = 48 << 10;

  // The ops, drawn up front: mostly issues, an over-budget issue, a revoke
  // of an unknown id, an acquire of a copy of the tenant's licence 0
  // followed by its revocation, and spills.
  enum class Kind { kIssue, kOverBudgetIssue, kRevokeUnknown, kAcquire,
                    kRevoke, kSpill };
  struct Op {
    Kind kind = Kind::kIssue;
    uint64_t tenant = 0;
    std::optional<License> license;  // Issues and kAcquire.
    std::string revoke_id;           // Revokes.
  };
  std::map<uint64_t, Workload> baselines;
  for (uint64_t tenant = 0; tenant < config_.num_tenants; ++tenant) {
    Result<Workload> baseline = workload_->MakeTenant(tenant);
    ASSERT_TRUE(baseline.ok());
    baselines.emplace(tenant, std::move(*baseline));
  }
  std::vector<std::vector<Op>> ops(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      Op op;
      op.tenant = rng_.UniformIndex(config_.num_tenants);
      const std::string id = std::to_string(t) + "_" + std::to_string(i);
      const Workload& baseline = baselines.at(op.tenant);
      switch (i % 10) {
        case 5:
          op.kind = Kind::kOverBudgetIssue;
          op.license = WithCount(
              workload_->DrawRequest(baseline, &rng_, ++sequence_), "X" + id,
              kOverBudget);
          break;
        case 6:
          op.kind = Kind::kRevokeUnknown;
          op.revoke_id = "unknown";
          break;
        case 7: {
          const License& original = baseline.licenses->at(0);
          op.kind = Kind::kAcquire;
          op.license = License("A" + id, original.content_key(),
                               original.type(), original.permission(),
                               original.rect(), original.aggregate_count());
          break;
        }
        case 8:  // Revokes the previous op's acquisition.
          op.kind = Kind::kRevoke;
          op.tenant = ops[t].back().tenant;
          op.revoke_id = ops[t].back().license->id();
          break;
        case 9:
          op.kind = Kind::kSpill;
          break;
        default:
          op.kind = Kind::kIssue;
          op.license = workload_->DrawRequest(baseline, &rng_, ++sequence_);
          break;
      }
      ops[t].push_back(std::move(op));
    }
  }

  Result<std::unique_ptr<CatalogService>> created =
      CatalogService::Create(source_.get(), options_);
  ASSERT_TRUE(created.ok());
  CatalogService& catalog = **created;
  struct Outcome {
    Status status;
    OnlineDecision decision;  // Issues.
    int index = -1;           // kAcquire.
  };
  std::vector<std::vector<Outcome>> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Op& op : ops[t]) {
        Outcome outcome;
        switch (op.kind) {
          case Kind::kIssue:
          case Kind::kOverBudgetIssue: {
            Result<OnlineDecision> got = catalog.TryIssue(op.tenant,
                                                          *op.license);
            outcome.status = got.status();
            if (got.ok()) {
              outcome.decision = *got;
            }
            break;
          }
          case Kind::kAcquire: {
            Result<int> got = catalog.AcquireLicense(op.tenant, *op.license);
            outcome.status = got.status();
            if (got.ok()) {
              outcome.index = *got;
            }
            break;
          }
          case Kind::kRevoke:
          case Kind::kRevokeUnknown:
            outcome.status = catalog.RevokeLicenseById(op.tenant,
                                                       op.revoke_id);
            break;
          case Kind::kSpill:
            outcome.status = catalog.SpillTenant(op.tenant);
            break;
        }
        outcomes[t].push_back(outcome);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // The frames the journal must hold, by the id each carries (a usage
  // request's or acquired licence's id, the revoked id): every op that
  // succeeded but a spill. The over-budget issues wait for their epochs'
  // catalogs below.
  std::map<std::pair<OpKind, std::string>,
           std::pair<const Op*, const Outcome*>>
      by_frame;
  std::vector<std::pair<const Op*, const Outcome*>> over_budget;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < ops[t].size(); ++i) {
      const Op& op = ops[t][i];
      const Outcome& outcome = outcomes[t][i];
      if (op.kind == Kind::kSpill) {
        EXPECT_TRUE(outcome.status.ok()) << outcome.status.message();
        continue;
      }
      if (op.kind == Kind::kRevokeUnknown) {
        EXPECT_EQ(outcome.status.code(), StatusCode::kNotFound);
        continue;
      }
      const std::string id =
          op.kind == Kind::kRevoke ? op.revoke_id : op.license->id();
      ASSERT_TRUE(outcome.status.ok()) << id << outcome.status.message();
      if (op.kind == Kind::kOverBudgetIssue) {
        over_budget.emplace_back(&op, &outcome);
        continue;
      }
      if (op.kind == Kind::kIssue) {
        EXPECT_TRUE(outcome.decision.accepted()) << id;
      }
      const OpKind kind =
          op.kind == Kind::kIssue     ? OpKind::kIssue
          : op.kind == Kind::kAcquire ? OpKind::kAcquire
                                      : OpKind::kRevoke;
      ASSERT_TRUE(by_frame.emplace(std::pair(kind, id),
                                   std::pair(&op, &outcome))
                      .second)
          << id;
    }
  }
  const CatalogStats stats = catalog.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.loads, 0u);
  EXPECT_EQ(stats.journal_frames, by_frame.size());
  std::map<uint64_t, CatalogService::TenantSnapshot> snapshots;
  for (const auto& [tenant, baseline] : baselines) {
    Result<CatalogService::TenantSnapshot> snapshot =
        catalog.SnapshotTenant(tenant);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().message();
    snapshots.emplace(tenant, *std::move(snapshot));
  }
  ASSERT_TRUE(catalog.Close().ok());

  // Each tenant's model, catalog and epoch as its frames replay.
  struct Replica {
    std::vector<std::unique_ptr<LicenseCatalog>> catalogs;
    std::unique_ptr<ReferenceModel> model;
    uint64_t frames = 0;
  };
  std::map<uint64_t, Replica> replicas;
  for (const auto& [tenant, baseline] : baselines) {
    Replica& replica = replicas[tenant];
    replica.catalogs.push_back(
        std::make_unique<LicenseCatalog>(*baseline.licenses));
    replica.model =
        std::make_unique<ReferenceModel>(replica.catalogs.back().get());
  }
  const Result<JournalReplay> replay =
      JournalReader::ReadFile(dir_ + "/catalog-journal-0.wal");
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  ASSERT_EQ(replay->entries.size(), by_frame.size());
  std::set<std::pair<OpKind, std::string>> replayed;
  for (const JournalEntry& entry : replay->entries) {
    const JournalOp& frame = entry.op;
    Replica& replica = replicas.at(entry.tenant_id);
    EXPECT_EQ(entry.tenant_seq, ++replica.frames);
    const std::string id = frame.kind == OpKind::kRevoke ? frame.revoke_id
                                                         : frame.license.id();
    const auto it = by_frame.find(std::pair(frame.kind, id));
    ASSERT_NE(it, by_frame.end()) << id;
    ASSERT_TRUE(replayed.insert(it->first).second) << id;
    const Op& op = *it->second.first;
    const Outcome& outcome = *it->second.second;
    ASSERT_EQ(op.tenant, entry.tenant_id) << id;
    const LicenseCatalog& current = *replica.catalogs.back();
    const uint64_t epoch = replica.catalogs.size() - 1;
    if (frame.kind == OpKind::kIssue) {
      const ReferenceModel::Decision want = replica.model->TryIssue(
          *op.license);
      const OnlineDecision& got = outcome.decision;
      EXPECT_TRUE(want.accepted()) << id;
      EXPECT_EQ(got.satisfying_set, want.satisfying_set) << id;
      EXPECT_EQ(got.catalog_epoch, epoch) << id;
      replica.model->Apply(want.satisfying_set, op.license->aggregate_count());
      continue;
    }
    // A reconfiguration: the next catalog, and every count carried into
    // it (dropped when it holds a revoked licence, renumbered densely
    // past it).
    auto next = std::make_unique<LicenseCatalog>(&current.schema());
    std::vector<int> old_to_new;
    std::optional<int> revoked;
    if (frame.kind == OpKind::kRevoke) {
      // Its acquisition always ran first: the same thread issued it.
      const Result<int> index = current.IndexOfId(frame.revoke_id);
      ASSERT_TRUE(index.ok()) << id;
      revoked = *index;
    }
    for (int i = 0; i < current.size(); ++i) {
      old_to_new.push_back(revoked == i ? -1 : next->size());
      if (revoked != i) {
        ASSERT_TRUE(next->Add(current.at(i)).ok());
      }
    }
    if (frame.kind == OpKind::kAcquire) {
      EXPECT_EQ(outcome.index, current.size()) << id;
      ASSERT_TRUE(next->Add(*op.license).ok());
    }
    auto next_model = std::make_unique<ReferenceModel>(next.get());
    for (const auto& [set, count] : replica.model->counts()) {
      LicenseSet carried;
      bool kept = true;
      for (int i : set.Indexes()) {
        const int to = old_to_new[static_cast<size_t>(i)];
        kept = kept && to >= 0;
        if (to >= 0) {
          carried.Add(to);
        }
      }
      if (kept) {
        next_model->Apply(carried, count);
      }
    }
    replica.catalogs.push_back(std::move(next));
    replica.model = std::move(next_model);
  }

  // Each over-budget issue, against the catalog of the epoch it names: the
  // satisfying set of that catalog, rejected at T = S with its aggregate.
  // Only the left-hand side depends on what was admitted before.
  for (const auto& [op, outcome] : over_budget) {
    const std::string& id = op->license->id();
    const OnlineDecision& got = outcome->decision;
    const Replica& replica = replicas.at(op->tenant);
    ASSERT_LT(got.catalog_epoch, replica.catalogs.size()) << id;
    const ReferenceModel::Decision want =
        ReferenceModel(replica.catalogs[got.catalog_epoch].get())
            .TryIssue(*op->license);
    ASSERT_TRUE(want.instance_valid) << id;
    ASSERT_FALSE(want.aggregate_valid) << id;
    EXPECT_TRUE(got.instance_valid) << id;
    EXPECT_FALSE(got.aggregate_valid) << id;
    EXPECT_EQ(got.satisfying_set, want.satisfying_set) << id;
    EXPECT_EQ(got.limiting.set, want.satisfying_set) << id;
    EXPECT_EQ(got.limiting.rhs, want.limiting_rhs) << id;
    EXPECT_GE(got.limiting.lhs, kOverBudget) << id;
  }

  for (const auto& [tenant, replica] : replicas) {
    SCOPED_TRACE("tenant " + std::to_string(tenant));
    const CatalogService::TenantSnapshot& snapshot = snapshots.at(tenant);
    const LicenseCatalog& licenses = *replica.catalogs.back();
    ASSERT_EQ(snapshot.licenses.size(), static_cast<size_t>(licenses.size()));
    for (int i = 0; i < licenses.size(); ++i) {
      EXPECT_EQ(snapshot.licenses[static_cast<size_t>(i)].id(),
                licenses.at(i).id());
    }
    std::map<LicenseSet, int64_t> counts;
    for (const LogRecord& record : snapshot.log.records()) {
      counts[record.set] += record.count;
    }
    EXPECT_EQ(counts, replica.model->counts());
    EXPECT_EQ(snapshot.epoch, replica.catalogs.size() - 1);
    EXPECT_EQ(snapshot.tenant_seq, replica.frames);
  }
}

}  // namespace
}  // namespace geolic
