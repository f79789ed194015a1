// Live license lifecycle on a running IssuanceService: acquire/revoke/
// expire reconfigurations, epoch bumps, shard merge/split, cascade
// revocation, journaled reconfiguration recovery, and the epoch-tagged
// checkpoint format.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "persist/faulty_file.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "test_util.h"
#include "util/date.h"
#include "util/sim_hooks.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

// Three overlap groups: {L1, L2}, {L3, L4}, {L5}.
LicenseCatalog ThreeGroupSet(const ConstraintSchema& schema, int64_t budget) {
  LicenseCatalog licenses(&schema);
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L1", {{0, 20}}, budget)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L2", {{10, 30}}, budget)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L3", {{100, 120}}, budget))
          .ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L4", {{110, 130}}, budget))
          .ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "L5", {{200, 220}}, budget))
          .ok());
  return licenses;
}

TEST(LifecycleTest, AcquireAppendsBumpsEpochAndAdmits) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 5);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->catalog_epoch(), 0u);
  ASSERT_EQ((*service)->shard_count(), 3);

  const Result<int> index = (*service)->AcquireLicense(
      MakeRedistribution(schema, "L6", {{300, 320}}, 5));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 5);  // Appended: existing indexes unchanged.
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  EXPECT_EQ((*service)->licenses().size(), 6);
  EXPECT_EQ((*service)->shard_count(), 4);  // New isolated group.

  // The acquired license admits immediately.
  const Result<OnlineDecision> got =
      (*service)->TryIssue(MakeUsage(schema, "U1", {{305, 315}}, 1));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->accepted());
  EXPECT_EQ(got->satisfying_set, testing::Mask(0b100000));
  EXPECT_EQ(got->catalog_epoch, 1u);
}

TEST(LifecycleTest, AcquireBridgeMergesShardsWithoutLosingRecords) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 2)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 3)).ok());

  // {15, 115} overlaps L1..L4: figure 6's merge, live — groups {L1,L2} and
  // {L3,L4} collapse into one shard.
  const Result<int> index = (*service)->AcquireLicense(
      MakeRedistribution(schema, "B", {{15, 115}}, 100));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 5);
  EXPECT_EQ((*service)->grouping().group_count(), 2);
  EXPECT_EQ((*service)->shard_count(), 2);

  // Both pre-merge records survived the shard merge, untouched (an acquire
  // never renumbers).
  const auto merged = (*service)->CollectLog().MergedCounts();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.at(testing::Mask(0b00011)), 2);
  EXPECT_EQ(merged.at(testing::Mask(0b01100)), 3);
}

TEST(LifecycleTest, AcquireRejectsDuplicateIdAndBadShape) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 5);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  EXPECT_FALSE((*service)
                   ->AcquireLicense(
                       MakeRedistribution(schema, "L1", {{300, 320}}, 5))
                   .ok());
  const ConstraintSchema two_dims = IntervalSchema(2);
  EXPECT_FALSE(
      (*service)
          ->AcquireLicense(MakeRedistribution(two_dims, "L9",
                                              {{300, 320}, {0, 10}}, 5))
          .ok());
  // Failed acquisitions change nothing.
  EXPECT_EQ((*service)->catalog_epoch(), 0u);
  EXPECT_EQ((*service)->licenses().size(), 5);
}

TEST(LifecycleTest, RevokeCascadesAndRenumbersDensely) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U3", {{205, 215}}, 1)).ok());

  ASSERT_TRUE((*service)->RevokeLicense(0).ok());  // L1.
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  EXPECT_EQ((*service)->licenses().size(), 4);
  EXPECT_EQ(*(*service)->licenses().IndexOfId("L2"), 0);
  EXPECT_EQ(*(*service)->licenses().IndexOfId("L5"), 3);

  // U1's record contained the revoked license: cascade-dropped. The other
  // two renumber densely ({L3,L4}: 2,3 → 1,2; {L5}: 4 → 3).
  const auto merged = (*service)->CollectLog().MergedCounts();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.at(testing::Mask(0b0110)), 1);
  EXPECT_EQ(merged.at(testing::Mask(0b1000)), 1);
  EXPECT_EQ((*service)->CollectTree()->TotalCount(), 2);

  // Admission keeps working in the renumbered space: {12,18} now only
  // lies inside L2 (new index 0).
  const Result<OnlineDecision> got =
      (*service)->TryIssue(MakeUsage(schema, "U4", {{12, 18}}, 1));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->accepted());
  EXPECT_EQ(got->satisfying_set, testing::Mask(0b0001));
  EXPECT_EQ(got->catalog_epoch, 1u);
}

TEST(LifecycleTest, RevokeGuards) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog one(&schema);
  ASSERT_TRUE(one.Add(MakeRedistribution(schema, "L1", {{0, 20}}, 5)).ok());
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&one);
  ASSERT_TRUE(service.ok());

  EXPECT_FALSE((*service)->RevokeLicense(-1).ok());
  EXPECT_FALSE((*service)->RevokeLicense(1).ok());
  EXPECT_FALSE((*service)->RevokeLicense(0).ok());  // Last license.
  EXPECT_FALSE((*service)->RevokeLicenseById("nope").ok());
  EXPECT_EQ((*service)->catalog_epoch(), 0u);
}

TEST(LifecycleTest, RevokeByIdMatchesIndexForm) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->RevokeLicenseById("L3").ok());
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  EXPECT_EQ((*service)->licenses().size(), 4);
  EXPECT_FALSE((*service)->licenses().IndexOfId("L3").ok());
}

TEST(LifecycleTest, ExpireDimensionBelowRemovesByIntervalEnd) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  // Nothing ends below 0: a no-op, no epoch change.
  Result<int> removed = (*service)->ExpireDimensionBelow(0, 0);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 0);
  EXPECT_EQ((*service)->catalog_epoch(), 0u);

  // Only L1 ({0,20}) ends strictly below 25.
  removed = (*service)->ExpireDimensionBelow(0, 25);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1);
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  EXPECT_EQ((*service)->licenses().size(), 4);
  EXPECT_FALSE((*service)->licenses().IndexOfId("L1").ok());

  // Expiring everything is refused (the catalog may never become empty).
  EXPECT_FALSE((*service)->ExpireDimensionBelow(0, 1000).ok());
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  // And an unordered/bad dimension is an error, not a removal.
  EXPECT_FALSE((*service)->ExpireDimensionBelow(7, 25).ok());
}

TEST(LifecycleTest, ExpireBeforeFindsTheDateDimension) {
  ConstraintSchema schema;
  ASSERT_TRUE(schema.AddIntervalDimension("C1").ok());
  ASSERT_TRUE(
      schema.AddIntervalDimension("valid", IntervalFormat::kDate).ok());
  const Date jan1 = *Date::FromCivil(2026, 1, 1);
  const auto make = [&](const std::string& id, int64_t last_valid_day) {
    LicenseBuilder builder(&schema);
    builder.SetId(id)
        .SetContentKey("K")
        .SetType(LicenseType::kRedistribution)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(10);
    builder.SetInterval("C1", 0, 100);
    builder.SetInterval("valid", 0, last_valid_day);
    const Result<License> license = builder.Build();
    EXPECT_TRUE(license.ok());
    return *license;
  };
  LicenseCatalog licenses(&schema);
  ASSERT_TRUE(licenses.Add(make("old", jan1.day_number() - 10)).ok());
  ASSERT_TRUE(licenses.Add(make("fresh", jan1.day_number() + 90)).ok());
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  const Result<int> removed = (*service)->ExpireBefore(jan1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1);
  EXPECT_EQ((*service)->licenses().size(), 1);
  EXPECT_EQ((*service)->licenses().at(0).id(), "fresh");

  // A schema without any date dimension cannot expire by date.
  const ConstraintSchema plain = IntervalSchema(1);
  const LicenseCatalog no_dates = ThreeGroupSet(plain, 5);
  Result<std::unique_ptr<IssuanceService>> undated =
      IssuanceService::Create(&no_dates);
  ASSERT_TRUE(undated.ok());
  EXPECT_FALSE((*undated)->ExpireBefore(jan1).ok());
}

TEST(LifecycleTest, JournaledLifecycleRecoversToLiveState) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 2)).ok());
  ASSERT_TRUE((*service)
                  ->AcquireLicense(
                      MakeRedistribution(schema, "L6", {{300, 320}}, 9))
                  .ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U3", {{305, 315}}, 1)).ok());
  ASSERT_TRUE((*service)->RevokeLicenseById("L3").ok());
  ASSERT_TRUE((*service)->ExpireDimensionBelow(0, 25).ok());  // Drops L1.
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U4", {{205, 215}}, 1)).ok());
  ASSERT_EQ((*service)->catalog_epoch(), 3u);

  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_recover.gjl";
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(disk->contents().data(),
              static_cast<std::streamsize>(disk->contents().size()));
  }
  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, /*checkpoint_path=*/"",
                               journal_path, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.reconfig_records_replayed, 3u);
  EXPECT_EQ(stats.recovered_catalog_epoch, 3u);
  // The recovered service is a fresh baseline: its own epoch restarts.
  EXPECT_EQ((*recovered)->catalog_epoch(), 0u);
  // Catalog and validation state equal the live service's, record for
  // record, in the final epoch's dense index space.
  ASSERT_EQ((*recovered)->licenses().size(), (*service)->licenses().size());
  for (int i = 0; i < (*service)->licenses().size(); ++i) {
    EXPECT_EQ((*recovered)->licenses().at(i).id(),
              (*service)->licenses().at(i).id());
  }
  EXPECT_EQ((*recovered)->CollectTree()->ToString(),
            (*service)->CollectTree()->ToString());
  EXPECT_EQ((*recovered)->CollectLog().MergedCounts(),
            (*service)->CollectLog().MergedCounts());
}

// Admits `requests` on the reconfiguring thread itself when an armed
// reconfiguration reaches the point between its phase-2 snapshot and its
// phase-3 catch-up (the "reconfig_snapshotted" yield, where only the
// reconfiguration lock is held): admissions in exactly the window the
// catch-up exists for, deterministically.
class AdmitBetweenSnapshotAndCatchUp : public SimHooks {
 public:
  void Arm(IssuanceService* service, std::vector<License> requests) {
    service_ = service;
    requests_ = std::move(requests);
  }
  bool armed() const { return service_ != nullptr; }

  void Yield(const char* point) override {
    if (service_ == nullptr ||
        std::string_view(point) != "reconfig_snapshotted") {
      return;
    }
    IssuanceService* service = std::exchange(service_, nullptr);
    for (const License& request : requests_) {
      const Result<OnlineDecision> got = service->TryIssue(request);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->accepted()) << request.id();
    }
  }
  uint64_t NowNanos() override { return 0; }

 private:
  IssuanceService* service_ = nullptr;
  std::vector<License> requests_;
};

// Phase 3 carries what the shards gained after their snapshot — by
// diffing C[S] (copied dense tables, rebuilt dense tables) and the tree's
// sets (an above-cap group) against the snapshot. A twin that admits the
// same requests before the same reconfiguration must end in the same
// state: the same compacted log, and the same C⟨T⟩ wherever a probe too
// large for any budget is rejected at its own satisfying set.
TEST(LifecycleTest, AdmissionsBetweenSnapshotAndCatchUpAreCarried) {
  constexpr int64_t kBudget = 1000000;
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog licenses = ThreeGroupSet(schema, kBudget);
  // Plus one group above the dense cap: W0..W12 all cover [1000, 1100].
  for (int i = 0; i <= kMaxDenseGroupSize; ++i) {
    ASSERT_TRUE(licenses
                    .Add(MakeRedistribution(schema, "W" + std::to_string(i),
                                            {{1000 - i, 1100 + i}}, kBudget))
                    .ok());
  }
  AdmitBetweenSnapshotAndCatchUp hooks;
  OnlineValidatorOptions options;
  options.sim_hooks = &hooks;
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  Result<std::unique_ptr<IssuanceService>> twin =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE(twin.ok());

  const std::vector<std::pair<int64_t, int64_t>> regions = {
      {12, 18},      // {L1, L2}, or {L2} once L1 is gone.
      {25, 28},      // {L2}
      {111, 119},    // {L3, L4}
      {205, 215},    // {L5}
      {1050, 1050},  // Every W.
      {999, 999},    // W1..W12.
      {1105, 1105}}; // W5..W12.
  const auto requests = [&](int64_t count) {
    std::vector<License> made;
    for (const auto& [lo, hi] : regions) {
      made.push_back(MakeUsage(
          schema, "U" + std::to_string(lo) + "x" + std::to_string(count),
          {{lo, hi}}, count));
    }
    return made;
  };
  int round = 0;
  const auto step = [&](const std::function<Status(IssuanceService*)>&
                            reconfigure) {
    SCOPED_TRACE("step " + std::to_string(round));
    const std::vector<License> window = requests(++round);
    hooks.Arm(service->get(), window);
    ASSERT_TRUE(reconfigure(service->get()).ok());
    EXPECT_FALSE(hooks.armed());  // The window ran.
    for (const License& request : window) {
      ASSERT_TRUE((*twin)->TryIssue(request)->accepted());
    }
    ASSERT_TRUE(reconfigure(twin->get()).ok());

    EXPECT_EQ((*service)->CollectLog().records(),
              (*twin)->CollectLog().records());
    EXPECT_EQ((*service)->CollectTree()->ToString(),
              (*twin)->CollectTree()->ToString());
    for (const License& probe : requests(kBudget * 100)) {
      const Result<OnlineDecision> got = (*service)->TryIssue(probe);
      const Result<OnlineDecision> want = (*twin)->TryIssue(probe);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_FALSE(got->aggregate_valid) << probe.id();
      EXPECT_EQ(got->satisfying_set, want->satisfying_set) << probe.id();
      EXPECT_EQ(got->limiting.set, want->limiting.set) << probe.id();
      EXPECT_EQ(got->limiting.lhs, want->limiting.lhs) << probe.id();
    }
  };
  // Nothing dropped or regrouped: every dense table is copied verbatim.
  step([&](IssuanceService* s) {
    return s->AcquireLicense(
                MakeRedistribution(schema, "N1", {{300, 320}}, kBudget))
        .status();
  });
  // {L1, L2} loses L1 (cascading {L1, L2}) and is rebuilt from C[S]; the
  // other groups renumber down one and keep copied tables.
  step([](IssuanceService* s) { return s->RevokeLicense(0); });
  // A bridge merges {L2} and {L3, L4} into one rebuilt group.
  step([&](IssuanceService* s) {
    return s->AcquireLicense(
                MakeRedistribution(schema, "B1", {{25, 115}}, kBudget))
        .status();
  });
  // The above-cap group loses W0 and drops to the cap: tree to table.
  step([](IssuanceService* s) { return s->RevokeLicenseById("W0"); });
}

// The service keeps C[S] per distinct set, not its records: CollectLog
// is one record per distinct set, with an empty id, in ascending set
// order, and carries the exact per-set counts through acquire, revoke,
// expire, a checkpoint and Recover. The journal stays the per-record
// history.
void ExpectCompacted(const IssuanceService& service,
                     const std::map<LicenseSet, int64_t>& expected,
                     const std::string& context) {
  SCOPED_TRACE(context);
  const LogStore log = service.CollectLog();
  ASSERT_EQ(log.size(), expected.size());
  size_t at = 0;
  for (const auto& [set, count] : expected) {  // Ascending by set.
    const LogRecord& record = log.at(at++);
    EXPECT_TRUE(record.issued_license_id.empty());
    EXPECT_EQ(record.set, set);
    EXPECT_EQ(record.count, count);
  }
}

TEST(LifecycleTest, CollectLogIsOneRecordPerDistinctSetThroughTheLifecycle) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 1000);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  IssuanceService* s = service->get();
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(s->AttachJournal(std::move(*journal)).ok());
  int issued = 0;
  const auto issue = [&](int64_t lo, int64_t hi, int64_t count, int times) {
    for (int i = 0; i < times; ++i) {
      const Result<OnlineDecision> got = s->TryIssue(MakeUsage(
          schema, "U" + std::to_string(++issued), {{lo, hi}}, count));
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(got->accepted());
    }
  };

  issue(12, 18, 2, 5);    // {L1, L2}
  issue(111, 119, 3, 3);  // {L3, L4}
  issue(5, 8, 1, 4);      // {L1}
  issue(205, 215, 1, 2);  // {L5}
  ExpectCompacted(*s,
                  {{testing::Mask(0b00001), 4},
                   {testing::Mask(0b00011), 10},
                   {testing::Mask(0b01100), 9},
                   {testing::Mask(0b10000), 2}},
                  "admissions");

  ASSERT_TRUE(
      s->AcquireLicense(MakeRedistribution(schema, "L6", {{300, 320}}, 1000))
          .ok());
  issue(305, 315, 1, 2);  // {L6}
  ExpectCompacted(*s,
                  {{testing::Mask(0b000001), 4},
                   {testing::Mask(0b000011), 10},
                   {testing::Mask(0b001100), 9},
                   {testing::Mask(0b010000), 2},
                   {testing::Mask(0b100000), 2}},
                  "acquire");

  // L3 goes, with {L3, L4}; L4, L5 and L6 shift down one.
  ASSERT_TRUE(s->RevokeLicenseById("L3").ok());
  ExpectCompacted(*s,
                  {{testing::Mask(0b00001), 4},
                   {testing::Mask(0b00011), 10},
                   {testing::Mask(0b01000), 2},
                   {testing::Mask(0b10000), 2}},
                  "revoke");

  // L1 expires, with {L1} and {L1, L2}; the rest shift down one.
  ASSERT_TRUE(s->ExpireDimensionBelow(0, 25).ok());
  issue(25, 28, 1, 3);  // {L2}
  ExpectCompacted(*s,
                  {{testing::Mask(0b0001), 3},
                   {testing::Mask(0b0100), 2},
                   {testing::Mask(0b1000), 2}},
                  "expire");

  const std::string checkpoint_path =
      ::testing::TempDir() + "lifecycle_distinct_sets.gck";
  ASSERT_TRUE(s->WriteCheckpoint(checkpoint_path).ok());
  issue(25, 28, 1, 2);  // {L2}, past the checkpoint.
  const std::map<LicenseSet, int64_t> final_counts = {
      {testing::Mask(0b0001), 5},
      {testing::Mask(0b0100), 2},
      {testing::Mask(0b1000), 2}};
  ExpectCompacted(*s, final_counts, "after the checkpoint");

  // The journal holds every admission as its own frame.
  const Result<JournalReplay> replay = JournalReader::Parse(disk->contents());
  ASSERT_TRUE(replay.ok());
  uint64_t admissions = 0;
  for (const JournalEntry& entry : replay->entries) {
    admissions += entry.kind == JournalEntryKind::kAdmission ? 1 : 0;
  }
  EXPECT_EQ(admissions, s->metrics().Snap().accepted);
  EXPECT_EQ(admissions, 21u);

  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_distinct_sets.gjl";
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(disk->contents().data(),
              static_cast<std::streamsize>(disk->contents().size()));
  }
  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path,
                               &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(stats.checkpoint_records, 3u);  // The checkpoint's distinct sets.
  EXPECT_EQ(stats.journal_records_replayed, 2u);
  ExpectCompacted(**recovered, final_counts, "recovered");
}

// A checkpoint taken after acquire, revoke and expire carries the evolved
// catalog. Recover builds from it, replays only the frames past it (a tail
// of admissions and one more revoke) and lands where the service that
// never crashed stands: the same catalog, CollectLog and decisions. A
// journal that lost the expire frame holds fewer reconfigurations than the
// checkpoint's epoch, and recovery from it fails.
TEST(LifecycleTest, RecoveryAfterReconfigurationMatchesANeverCrashedTwin) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 10);
  Result<std::unique_ptr<IssuanceService>> twin =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(twin.ok());
  IssuanceService* s = twin->get();
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(s->AttachJournal(std::move(*journal)).ok());
  const auto issue = [&](int64_t lo, int64_t hi, int64_t count) {
    const Result<OnlineDecision> got =
        s->TryIssue(MakeUsage(schema, "U", {{lo, hi}}, count));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->accepted());
  };
  const auto write_file = [](const std::string& path,
                             const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  issue(12, 18, 3);    // {L1, L2}
  issue(111, 119, 4);  // {L3, L4}
  issue(205, 215, 2);  // {L5}
  ASSERT_TRUE(
      s->AcquireLicense(MakeRedistribution(schema, "L6", {{210, 320}}, 10))
          .ok());
  issue(212, 218, 3);  // {L5, L6}
  ASSERT_TRUE(s->RevokeLicenseById("L3").ok());  // With {L3, L4}.
  issue(115, 125, 2);                            // {L4}
  const std::string before_expire = disk->contents();
  ASSERT_EQ(*s->ExpireDimensionBelow(0, 25), 1);  // L1, with {L1, L2}.
  const std::string checkpoint_path =
      ::testing::TempDir() + "lifecycle_twin.gck";
  ASSERT_TRUE(s->WriteCheckpoint(checkpoint_path).ok());

  issue(25, 28, 2);                              // {L2}
  issue(305, 315, 4);                            // {L6}
  ASSERT_TRUE(s->RevokeLicenseById("L5").ok());  // With {L5}, {L5, L6}.
  issue(300, 310, 1);                            // {L6}
  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_twin.gjl";
  write_file(journal_path, disk->contents());

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path,
                               &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(stats.checkpoint_records, 3u);
  EXPECT_EQ(stats.journal_records_skipped, 5u);
  EXPECT_EQ(stats.journal_records_replayed, 4u);
  EXPECT_EQ(stats.reconfig_records_replayed, 4u);
  EXPECT_EQ(stats.recovered_catalog_epoch, 4u);
  IssuanceService* r = recovered->get();
  ASSERT_EQ(r->licenses().size(), s->licenses().size());
  for (int i = 0; i < s->licenses().size(); ++i) {
    EXPECT_EQ(r->licenses().at(i).id(), s->licenses().at(i).id());
  }
  ExpectCompacted(*r,
                  {{testing::Mask(0b001), 2},
                   {testing::Mask(0b010), 2},
                   {testing::Mask(0b100), 5}},
                  "recovered");
  EXPECT_EQ(r->CollectLog().records(), s->CollectLog().records());

  // The same requests decide the same, up to the budgets and past them.
  const std::vector<License> probes = {
      MakeUsage(schema, "P1", {{25, 28}}, 8),     // {L2} to its budget.
      MakeUsage(schema, "P2", {{25, 28}}, 1),     // {L2} past it.
      MakeUsage(schema, "P3", {{300, 310}}, 6),   // {L6} past it.
      MakeUsage(schema, "P4", {{115, 125}}, 8),   // {L4} to its budget.
      MakeUsage(schema, "P5", {{500, 510}}, 1)};  // No license.
  for (const License& probe : probes) {
    SCOPED_TRACE(probe.id());
    const Result<OnlineDecision> want = s->TryIssue(probe);
    const Result<OnlineDecision> got = r->TryIssue(probe);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->instance_valid, want->instance_valid);
    EXPECT_EQ(got->aggregate_valid, want->aggregate_valid);
    EXPECT_EQ(got->satisfying_set, want->satisfying_set);
    EXPECT_EQ(got->limiting.set, want->limiting.set);
    EXPECT_EQ(got->limiting.lhs, want->limiting.lhs);
    EXPECT_EQ(got->limiting.rhs, want->limiting.rhs);
  }
  EXPECT_EQ(r->CollectLog().records(), s->CollectLog().records());

  write_file(journal_path, before_expire);
  const Result<std::unique_ptr<IssuanceService>> lost_expire =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path);
  ASSERT_FALSE(lost_expire.ok());
  EXPECT_NE(lost_expire.status().message().find("epoch"), std::string::npos)
      << lost_expire.status().message();
}

TEST(LifecycleTest, CheckpointAfterReconfigCoversAndTagsTheEpoch) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  const std::string checkpoint_path =
      ::testing::TempDir() + "lifecycle_epoch_ckpt.gck";
  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_epoch_ckpt.gjl";

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE((*service)->RevokeLicenseById("L5").ok());
  ASSERT_TRUE((*service)
                  ->AcquireLicense(
                      MakeRedistribution(schema, "L6", {{300, 320}}, 9))
                  .ok());
  ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{305, 315}}, 1)).ok());
  ASSERT_TRUE((*service)->SyncJournal().ok());

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path,
                               &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.reconfig_records_replayed, 2u);
  EXPECT_EQ(stats.recovered_catalog_epoch, 2u);
  EXPECT_EQ((*recovered)->CollectTree()->ToString(),
            (*service)->CollectTree()->ToString());
  EXPECT_EQ((*recovered)->CollectLog().MergedCounts(),
            (*service)->CollectLog().MergedCounts());
}

TEST(LifecycleTest, CheckpointPredatingReconfigsStillRecovers) {
  // The checkpoint covers only epoch-0 admissions; every reconfiguration
  // lives in the journal tail and must replay on top of it.
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  const std::string checkpoint_path =
      ::testing::TempDir() + "lifecycle_predate_ckpt.gck";
  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_predate_ckpt.gjl";

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Open(journal_path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 1)).ok());
  ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());  // Epoch 0.
  ASSERT_TRUE((*service)->RevokeLicense(0).ok());
  ASSERT_TRUE((*service)->ExpireDimensionBelow(0, 35).ok());  // Drops L2.
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U3", {{205, 215}}, 1)).ok());
  ASSERT_TRUE((*service)->SyncJournal().ok());
  ASSERT_EQ((*service)->catalog_epoch(), 2u);

  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path,
                               &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.reconfig_records_replayed, 2u);
  EXPECT_EQ((*recovered)->CollectTree()->ToString(),
            (*service)->CollectTree()->ToString());
  EXPECT_EQ((*recovered)->CollectLog().MergedCounts(),
            (*service)->CollectLog().MergedCounts());
}

TEST(LifecycleTest, CheckpointEpochDisagreementFailsLoudly) {
  // A checkpoint tagged epoch 1 whose journal prefix contains no
  // reconfiguration frame is inconsistent — recovery must refuse rather
  // than load records into the wrong index space.
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  const std::string checkpoint_path =
      ::testing::TempDir() + "lifecycle_mismatch_ckpt.gck";
  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_mismatch_ckpt.gjl";

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  const std::string journal_before_reconfig = disk->contents();
  ASSERT_TRUE((*service)->RevokeLicenseById("L5").ok());
  ASSERT_TRUE((*service)->WriteCheckpoint(checkpoint_path).ok());  // Epoch 1.

  // Crash variant where only the PRE-reconfiguration journal survived.
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(journal_before_reconfig.data(),
              static_cast<std::streamsize>(journal_before_reconfig.size()));
  }
  const Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, checkpoint_path, journal_path);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find("epoch"), std::string::npos)
      << recovered.status().message();
}

TEST(LifecycleTest, AttachJournalRequiresEpochZero) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  // An unjournaled reconfiguration is legal, but afterwards a journal can
  // no longer be attached: it would miss the reconfiguration record that
  // recovery needs to rebuild the index space.
  ASSERT_TRUE((*service)->RevokeLicenseById("L5").ok());
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::make_unique<InMemorySyncFile>());
  ASSERT_TRUE(journal.ok());
  EXPECT_FALSE((*service)->AttachJournal(std::move(*journal)).ok());
}

TEST(LifecycleTest, TornReconfigFrameAbortsAndRecoversPreReconfigState) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());

  auto file = std::make_unique<InMemorySyncFile>();
  InMemorySyncFile* disk = file.get();
  auto faulty = std::make_unique<FaultyFile>(std::move(file));
  FaultyFile* faults = faulty.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(faulty));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 1)).ok());
  const std::string tree_before = (*service)->CollectTree()->ToString();

  // The revoke's journal frame tears mid-write: WAL contract — the
  // reconfiguration reports failure and NOTHING changed in memory.
  faults->TearNextAppend(9);
  EXPECT_FALSE((*service)->RevokeLicense(0).ok());
  EXPECT_EQ((*service)->catalog_epoch(), 0u);
  EXPECT_EQ((*service)->licenses().size(), 5);
  EXPECT_EQ((*service)->CollectTree()->ToString(), tree_before);

  // And recovery from the torn platter lands on the pre-reconfig state.
  const std::string journal_path =
      ::testing::TempDir() + "lifecycle_torn_reconfig.gjl";
  {
    std::ofstream out(journal_path, std::ios::binary | std::ios::trunc);
    out.write(disk->contents().data(),
              static_cast<std::streamsize>(disk->contents().size()));
  }
  RecoveryStats stats;
  Result<std::unique_ptr<IssuanceService>> recovered =
      IssuanceService::Recover(&licenses, {}, "", journal_path, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(stats.journal_torn_tail);
  EXPECT_EQ(stats.reconfig_records_replayed, 0u);
  EXPECT_EQ((*recovered)->CollectTree()->ToString(), tree_before);
}

TEST(LifecycleTest, ReconfigStormRacesConcurrentIssuance) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 1000000);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  IssuanceService* s = service->get();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> issuers;
  issuers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    issuers.emplace_back([&schema, s, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id =
            "U" + std::to_string(t) + "_" + std::to_string(i);
        const License request =
            i % 3 == 0 ? MakeUsage(schema, id, {{12, 18}}, 1)
            : i % 3 == 1 ? MakeUsage(schema, id, {{111, 119}}, 1)
                         : MakeUsage(schema, id, {{205, 215}}, 1);
        const Result<OnlineDecision> got = s->TryIssue(request);
        if (!got.ok() || !got->instance_valid) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // The storm: repeated acquire+revoke of a bridge license that merges the
  // {L1,L2} and {L3,L4} shards on the way in and splits them on the way
  // out, while issuance keeps running.
  for (int round = 0; round < 20; ++round) {
    const std::string id = "X" + std::to_string(round);
    const Result<int> acquired = s->AcquireLicense(
        MakeRedistribution(schema, id, {{15, 115}}, 1000000));
    ASSERT_TRUE(acquired.ok()) << acquired.status().message();
    ASSERT_TRUE(s->RevokeLicenseById(id).ok());
  }
  for (std::thread& thread : issuers) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(s->catalog_epoch(), 40u);
  EXPECT_EQ(s->licenses().size(), 5);
  EXPECT_EQ(s->shard_count(), 3);

  // Requests admitted under the transient bridge epochs were recorded with
  // the bridge in scope; after its revocation their sets cascade or remap
  // back into the stable three-group space. The merged tree must replay
  // serially: every record routes inside one overlap group.
  const Result<ValidationTree> tree = s->CollectTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->TotalCount(), s->CollectLog().TotalCount());

  // Admissions that raced a reconfiguration's snapshot were carried over
  // by its catch-up: the equation state must equal one rebuilt from the
  // log. A request over every budget is rejected at its own satisfying
  // set S with lhs = C<S> + count, so each probe reads one C<S>.
  const LogStore log = s->CollectLog();
  Result<std::unique_ptr<IssuanceService>> rebuilt =
      IssuanceService::CreateWithHistory(&s->licenses(), {}, log);
  ASSERT_TRUE(rebuilt.ok());
  const std::vector<std::pair<int64_t, int64_t>> probes = {
      {1, 5}, {12, 18}, {25, 29}, {101, 105}, {111, 119}, {125, 129},
      {205, 215}};
  for (const auto& [lo, hi] : probes) {
    const License request =
        MakeUsage(schema, "P", {{lo, hi}}, int64_t{1} << 40);
    const Result<OnlineDecision> got = s->TryIssue(request);
    const Result<OnlineDecision> want = (*rebuilt)->TryIssue(request);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_FALSE(got->aggregate_valid);
    EXPECT_EQ(got->limiting.set, want->limiting.set);
    EXPECT_EQ(got->limiting.lhs, want->limiting.lhs) << lo << ".." << hi;
  }
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

std::vector<LogRecord> Sorted(const LogStore& log) {
  std::vector<LogRecord> records = log.records();
  std::sort(records.begin(), records.end(), RecordLess);
  return records;
}

// CollectLog racing a reconfiguration storm returns one epoch's log —
// never records of two index spaces. Without admissions each epoch's log
// is fixed, so a serial replay of the same storm lists every legal answer.
TEST(LifecycleTest, CollectLogRacingReconfigurationsSeesOneEpochsLog) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 1000000);
  LogStore history;
  const std::vector<LicenseSet> sets = {
      LicenseSet::FromWord(0b00001), LicenseSet::FromWord(0b00011),
      LicenseSet::FromWord(0b00010), LicenseSet::FromWord(0b00100),
      LicenseSet::FromWord(0b01100), LicenseSet::FromWord(0b01000),
      LicenseSet::FromWord(0b10000)};
  for (int r = 0; r < 70; ++r) {
    LogRecord record;
    record.issued_license_id = "H" + std::to_string(r);
    record.set = sets[static_cast<size_t>(r) % sets.size()];
    record.count = 1 + r % 4;
    ASSERT_TRUE(history.Append(std::move(record)).ok());
  }
  // Per round: ten times a license joining {L3, L4} (its group is
  // rebuilt, the others' tables are copied) and its revocation. Every 50
  // rounds index 0 is revoked as well, which cascade-drops its sets and
  // renumbers every survivor.
  constexpr int kRounds = 200;
  const auto storm = [&schema](IssuanceService* s, int round) {
    for (int pair = 0; pair < 10; ++pair) {
      const std::string id =
          "J" + std::to_string(round) + "_" + std::to_string(pair);
      EXPECT_TRUE(s->AcquireLicense(
                       MakeRedistribution(schema, id, {{105, 125}}, 1000000))
                      .ok());
      EXPECT_TRUE(s->RevokeLicenseById(id).ok());
    }
    if (round % 50 == 49) {
      EXPECT_TRUE(s->RevokeLicense(0).ok());
    }
  };

  Result<std::unique_ptr<IssuanceService>> serial =
      IssuanceService::CreateWithHistory(&licenses, {}, history);
  ASSERT_TRUE(serial.ok());
  // The distinct logs the epochs hold (an acquire/revoke pair leaves the
  // log as it was).
  std::vector<std::vector<LogRecord>> epochs = {
      Sorted((*serial)->CollectLog())};
  for (int round = 0; round < kRounds; ++round) {
    storm(serial->get(), round);
    std::vector<LogRecord> log = Sorted((*serial)->CollectLog());
    if (log != epochs.back()) {
      epochs.push_back(std::move(log));
    }
  }
  ASSERT_EQ(epochs.size(), 5u);

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::CreateWithHistory(&licenses, {}, history);
  ASSERT_TRUE(service.ok());
  IssuanceService* s = service->get();
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::vector<LogRecord> got = Sorted(s->CollectLog());
        if (std::find(epochs.begin(), epochs.end(), got) == epochs.end()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    storm(s, round);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(mismatches.load(), 0) << "of " << reads.load() << " reads";
  EXPECT_EQ(Sorted(s->CollectLog()), epochs.back());
}

}  // namespace
}  // namespace geolic
