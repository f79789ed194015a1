// Live license lifecycle on a running IssuanceService: acquire/revoke/
// expire reconfigurations, epoch bumps, group merge/split, cascade
// revocation, journaled reconfiguration recovery, and the epoch-tagged
// checkpoint format.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "persist/faulty_file.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service.h"
#include "sim/reference_model.h"
#include "test_util.h"
#include "util/date.h"

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
  ASSERT_EQ((*service)->grouping().group_count(), 3);

  const Result<int> index = (*service)->AcquireLicense(
      MakeRedistribution(schema, "L6", {{300, 320}}, 5));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 5);  // Appended: existing indexes unchanged.
  EXPECT_EQ((*service)->catalog_epoch(), 1u);
  EXPECT_EQ((*service)->licenses().size(), 6);
  EXPECT_EQ((*service)->grouping().group_count(), 4);  // Isolated.

  // The acquired license admits immediately.
  const Result<OnlineDecision> got =
      (*service)->TryIssue(MakeUsage(schema, "U1", {{305, 315}}, 1));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->accepted());
  EXPECT_EQ(got->satisfying_set, testing::Mask(0b100000));
  EXPECT_EQ(got->catalog_epoch, 1u);
}

TEST(LifecycleTest, AcquireBridgeMergesGroupsWithoutLosingRecords) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 2)).ok());
  ASSERT_TRUE(
      (*service)->TryIssue(MakeUsage(schema, "U2", {{111, 119}}, 3)).ok());

  // {15, 115} overlaps L1..L4: figure 6's merge, live — groups {L1,L2} and
  // {L3,L4} collapse into one group.
  const Result<int> index = (*service)->AcquireLicense(
      MakeRedistribution(schema, "B", {{15, 115}}, 100));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, 5);
  EXPECT_EQ((*service)->grouping().group_count(), 2);

  // Both pre-merge records survived the merge, untouched (an acquire
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

// ExpireBefore reads the schema and computes the expired set under the
// same lock hold as its reconfiguration, so it races acquire/revoke and
// admissions on other threads like any other call: each expiry removes
// exactly the one license its cutoff passes, whatever epoch it lands in.
TEST(LifecycleTest, ExpireBeforeRacesAcquireRevokeAndAdmissions) {
  ConstraintSchema schema;
  ASSERT_TRUE(schema.AddIntervalDimension("C1").ok());
  ASSERT_TRUE(
      schema.AddIntervalDimension("valid", IntervalFormat::kDate).ok());
  const int64_t jan1 = Date::FromCivil(2026, 1, 1)->day_number();
  const auto make = [&](const std::string& id, LicenseType type, int64_t lo,
                        int64_t hi, int64_t last_valid_day, int64_t count) {
    LicenseBuilder builder(&schema);
    builder.SetId(id)
        .SetContentKey("K")
        .SetType(type)
        .SetPermission(Permission::kPlay)
        .SetAggregateCount(count);
    builder.SetInterval("C1", lo, hi);
    builder.SetInterval("valid", 0, last_valid_day);
    const Result<License> license = builder.Build();
    EXPECT_TRUE(license.ok());
    return *license;
  };
  // K0..K3 cover every admission and never expire; E<d>, in an overlap
  // group of its own, is valid through day jan1 + d; the transient T sits
  // apart from both.
  constexpr int kExpiring = 40;
  LicenseCatalog licenses(&schema);
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(licenses
                    .Add(make("K" + std::to_string(k),
                              LicenseType::kRedistribution, 0, 100 + k,
                              jan1 + 1000, 1000000))
                    .ok());
  }
  for (int d = 0; d < kExpiring; ++d) {
    ASSERT_TRUE(licenses
                    .Add(make("E" + std::to_string(d),
                              LicenseType::kRedistribution, 200, 300,
                              jan1 + d, 1000000))
                    .ok());
  }
  Result<std::unique_ptr<IssuanceService>> created =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(created.ok());
  IssuanceService& service = **created;

  constexpr int kRounds = 100;
  constexpr int kAdmissions = 1000;
  std::atomic<int> failures{0};
  std::vector<Result<int>> expired;
  std::thread admit([&] {
    for (int i = 0; i < kAdmissions; ++i) {
      const Result<OnlineDecision> got = service.TryIssue(
          make("U" + std::to_string(i), LicenseType::kUsage, 10, 20,
               jan1 + 500, 1));
      if (!got.ok() || !got->accepted()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread churn([&] {
    for (int i = 0; i < kRounds; ++i) {
      if (!service
               .AcquireLicense(make("T", LicenseType::kRedistribution, 500,
                                    600, jan1 + 1000, 10))
               .ok() ||
          !service.RevokeLicenseById("T").ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread expire([&] {
    for (int d = 0; d < kExpiring; ++d) {
      // Strictly before jan1 + d + 1: only E<d> is left to expire.
      expired.push_back(
          service.ExpireBefore(Date::FromDayNumber(jan1 + d + 1)));
    }
  });
  admit.join();
  churn.join();
  expire.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_EQ(expired.size(), static_cast<size_t>(kExpiring));
  for (int d = 0; d < kExpiring; ++d) {
    ASSERT_TRUE(expired[static_cast<size_t>(d)].ok()) << d;
    EXPECT_EQ(*expired[static_cast<size_t>(d)], 1) << d;
  }
  EXPECT_EQ(service.catalog_epoch(), uint64_t{2 * kRounds + kExpiring});
  ASSERT_EQ(service.licenses().size(), 4);
  // Every admission counted against K0..K3, renumbered to 0..3 throughout.
  const LogStore log = service.CollectLog();
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].set, testing::Mask(0b1111));
  EXPECT_EQ(log.records()[0].count, kAdmissions);
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

  const testing::ScopedTempPath journal_file("lifecycle_recover.gjl");

  const std::string& journal_path = journal_file.path();
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

// Every call is one step under the service lock, so admissions racing
// reconfigurations on other threads decide exactly as the reference model
// applying the same calls in lock order. The journal is appended under the
// lock, so its frames give that order for the accepted admissions and the
// reconfigurations. The rejections are order-free by construction: no
// license covers the request, or it asks for more than the whole budget of
// L5, which no accepted request counts against.
TEST(LifecycleTest, ReconfigurationsRacingAdmissionsMatchTheModelInLockOrder) {
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
  Result<std::unique_ptr<IssuanceService>> created =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(created.ok());
  IssuanceService& service = **created;
  auto platter = std::make_unique<InMemorySyncFile>();
  const InMemorySyncFile* disk = platter.get();
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Create(std::move(platter));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(service.AttachJournal(std::move(*writer)).ok());

  // Each admitting thread cycles through five calls: two issues in the
  // small groups, a batch (every W, no license, W1..W12), an issue over
  // L5's whole budget and one in W5..W12.
  constexpr int kThreads = 4;
  constexpr int kCalls = 150;
  struct Issued {
    License request;
    OnlineDecision decision;
  };
  std::vector<std::vector<Issued>> issued(kThreads);
  std::atomic<int> calls{0};
  std::atomic<int> finished{0};  // Threads done, whether or not they failed.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<Issued>& of_thread = issued[static_cast<size_t>(t)];
      for (int i = 0; i < kCalls; ++i) {
        const std::string id = "U" + std::to_string(t) + "_" +
                               std::to_string(i) + "_";
        const auto usage = [&](int b, int64_t lo, int64_t hi,
                               int64_t count) {
          return MakeUsage(schema, id + std::to_string(b), {{lo, hi}},
                           count);
        };
        std::vector<License> requests;
        switch (i % 5) {
          case 0: requests = {usage(0, 12, 18, 1)}; break;
          case 1: requests = {usage(0, 111, 119, 2)}; break;
          case 2:
            requests = {usage(0, 1050, 1050, 1), usage(1, 500, 510, 1),
                        usage(2, 999, 999, 3)};
            break;
          case 3: requests = {usage(0, 205, 215, kBudget + 1)}; break;
          default: requests = {usage(0, 1105, 1105, 1)}; break;
        }
        if (requests.size() == 1) {
          const Result<OnlineDecision> got = service.TryIssue(requests[0]);
          if (!got.ok()) {
            ADD_FAILURE() << "TryIssue: " << got.status().message();
            break;
          }
          of_thread.push_back({requests[0], *got});
        } else {
          std::vector<OnlineDecision> got(requests.size());
          const Status admitted =
              service.TryIssueBatch(testing::PointersTo(requests), got);
          if (!admitted.ok()) {
            ADD_FAILURE() << "TryIssueBatch: " << admitted.message();
            break;
          }
          for (size_t b = 0; b < requests.size(); ++b) {
            of_thread.push_back({requests[b], got[b]});
          }
        }
        calls.fetch_add(1, std::memory_order_relaxed);
      }
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // The reconfigurations, each once the admissions have made some
  // progress: a bridge merges {L1, L2} and {L3, L4} and leaves again
  // (cascading the sets that hold it), an isolated license joins, L1's
  // revocation renumbers every index above it, and W0's drops the
  // above-cap group to the cap (tree to table).
  const std::vector<std::function<Status()>> reconfigurations = {
      [&] {
        return service
            .AcquireLicense(
                MakeRedistribution(schema, "B1", {{15, 115}}, kBudget))
            .status();
      },
      [&] { return service.RevokeLicenseById("B1"); },
      [&] {
        return service
            .AcquireLicense(
                MakeRedistribution(schema, "N1", {{300, 320}}, kBudget))
            .status();
      },
      [&] { return service.RevokeLicense(0); },
      [&] {
        return service
            .AcquireLicense(
                MakeRedistribution(schema, "B2", {{15, 115}}, kBudget))
            .status();
      },
      [&] { return service.RevokeLicenseById("W0"); },
  };
  // Every thread is joined before any assertion can return.
  const int total = kThreads * kCalls;
  std::vector<Status> reconfigured;
  for (size_t r = 0; r < reconfigurations.size(); ++r) {
    const int progress = static_cast<int>(
        (r + 1) * total / (reconfigurations.size() + 1));
    while (calls.load(std::memory_order_relaxed) < progress &&
           finished.load(std::memory_order_relaxed) < kThreads) {
      std::this_thread::yield();
    }
    reconfigured.push_back(reconfigurations[r]());
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (size_t r = 0; r < reconfigured.size(); ++r) {
    ASSERT_TRUE(reconfigured[r].ok())
        << "reconfiguration " << r << ": " << reconfigured[r].message();
  }

  std::map<std::string, const Issued*> by_id;
  for (const std::vector<Issued>& of_thread : issued) {
    for (const Issued& entry : of_thread) {
      by_id[entry.request.id()] = &entry;
    }
  }
  // Replay the journal's frames through the model, evolving its catalog
  // at each reconfiguration frame; keep every epoch's catalog.
  const Result<JournalReplay> replay = JournalReader::Parse(disk->contents());
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  std::vector<std::unique_ptr<LicenseCatalog>> catalogs;
  catalogs.push_back(std::make_unique<LicenseCatalog>(licenses));
  auto model = std::make_unique<ReferenceModel>(catalogs.back().get());
  std::set<std::string> journaled;
  for (const JournalEntry& entry : replay->entries) {
    const LicenseCatalog& catalog = *catalogs.back();
    const JournalOp& op = entry.op;
    if (op.kind == OpKind::kIssue) {
      const std::string& id = op.license.id();
      ASSERT_TRUE(by_id.count(id) != 0) << id;
      const Issued& admitted = *by_id[id];
      EXPECT_TRUE(op.license.rect() == admitted.request.rect()) << id;
      const ReferenceModel::Decision want = model->TryIssue(op.license);
      EXPECT_TRUE(want.instance_valid && want.aggregate_valid) << id;
      EXPECT_TRUE(admitted.decision.accepted()) << id;
      EXPECT_EQ(admitted.decision.satisfying_set, want.satisfying_set) << id;
      EXPECT_EQ(admitted.decision.catalog_epoch, catalogs.size() - 1) << id;
      model->Apply(want.satisfying_set, op.license.aggregate_count());
      journaled.insert(id);
      continue;
    }
    // A reconfiguration op: the next catalog, and every count carried into
    // it (cascade-dropped when it holds a revoked license, renumbered
    // densely past it).
    ASSERT_NE(op.kind, OpKind::kExpire);
    const int revoked_index =
        op.kind == OpKind::kRevoke ? *catalog.IndexOfId(op.revoke_id) : -1;
    auto next = std::make_unique<LicenseCatalog>(&schema);
    std::vector<int> old_to_new;
    for (int i = 0; i < catalog.size(); ++i) {
      const bool revoked = i == revoked_index;
      old_to_new.push_back(revoked ? -1 : next->size());
      if (!revoked) {
        ASSERT_TRUE(next->Add(catalog.at(i)).ok());
      }
    }
    if (op.kind == OpKind::kAcquire) {
      ASSERT_TRUE(next->Add(op.license).ok());
    }
    auto next_model = std::make_unique<ReferenceModel>(next.get());
    for (const auto& [set, count] : model->counts()) {
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
    catalogs.push_back(std::move(next));
    model = std::move(next_model);
  }
  ASSERT_EQ(catalogs.size(), reconfigurations.size() + 1);
  EXPECT_EQ(service.catalog_epoch(), reconfigurations.size());

  // Every decision the journal does not hold is one of the order-free
  // rejections, against the catalog of the epoch it names.
  int rejected = 0;
  for (const auto& [id, entry] : by_id) {
    if (journaled.count(id) != 0) {
      continue;
    }
    ++rejected;
    const OnlineDecision& decision = entry->decision;
    EXPECT_FALSE(decision.accepted()) << id;
    ASSERT_LT(decision.catalog_epoch, catalogs.size()) << id;
    const LicenseCatalog& catalog = *catalogs[decision.catalog_epoch];
    if (entry->request.aggregate_count() <= kBudget) {
      EXPECT_FALSE(decision.instance_valid) << id;  // [500, 510].
      continue;
    }
    LicenseSet l5;
    l5.Add(*catalog.IndexOfId("L5"));
    EXPECT_EQ(decision.satisfying_set, l5) << id;
    EXPECT_EQ(decision.limiting.set, l5) << id;
    EXPECT_EQ(decision.limiting.lhs, kBudget + 1) << id;
    EXPECT_EQ(decision.limiting.rhs, kBudget) << id;
  }
  // One [500, 510] request per batch and one L5 request per thread cycle.
  EXPECT_EQ(rejected, 2 * kThreads * kCalls / 5);

  // The final state is the model's, in the final epoch's numbering.
  const LicenseCatalog& final_catalog = *catalogs.back();
  ASSERT_EQ(service.licenses().size(), final_catalog.size());
  for (int i = 0; i < final_catalog.size(); ++i) {
    EXPECT_EQ(service.licenses().at(i).id(), final_catalog.at(i).id());
  }
  const std::unordered_map<LicenseSet, int64_t> collected =
      service.CollectLog().MergedCounts();
  EXPECT_EQ(collected.size(), model->counts().size());
  for (const auto& [set, count] : model->counts()) {
    const auto it = collected.find(set);
    ASSERT_TRUE(it != collected.end()) << set;
    EXPECT_EQ(it->second, count) << set;
  }
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

  const testing::ScopedTempPath checkpoint_file("lifecycle_distinct_sets.gck");

  const std::string& checkpoint_path = checkpoint_file.path();
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
    admissions += entry.op.kind == OpKind::kIssue ? 1 : 0;
  }
  EXPECT_EQ(admissions, s->metrics().Snap().accepted);
  EXPECT_EQ(admissions, 21u);

  const testing::ScopedTempPath journal_file("lifecycle_distinct_sets.gjl");

  const std::string& journal_path = journal_file.path();
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
  const testing::ScopedTempPath checkpoint_file("lifecycle_twin.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  ASSERT_TRUE(s->WriteCheckpoint(checkpoint_path).ok());

  issue(25, 28, 2);                              // {L2}
  issue(305, 315, 4);                            // {L6}
  ASSERT_TRUE(s->RevokeLicenseById("L5").ok());  // With {L5}, {L5, L6}.
  issue(300, 310, 1);                            // {L6}
  const testing::ScopedTempPath journal_file("lifecycle_twin.gjl");
  const std::string& journal_path = journal_file.path();
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
  const testing::ScopedTempPath checkpoint_file("lifecycle_epoch_ckpt.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  const testing::ScopedTempPath journal_file("lifecycle_epoch_ckpt.gjl");
  const std::string& journal_path = journal_file.path();

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
  const testing::ScopedTempPath checkpoint_file("lifecycle_predate_ckpt.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  const testing::ScopedTempPath journal_file("lifecycle_predate_ckpt.gjl");
  const std::string& journal_path = journal_file.path();

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
  const testing::ScopedTempPath checkpoint_file("lifecycle_mismatch_ckpt.gck");
  const std::string& checkpoint_path = checkpoint_file.path();
  const testing::ScopedTempPath journal_file("lifecycle_mismatch_ckpt.gjl");
  const std::string& journal_path = journal_file.path();

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
  const testing::ScopedTempPath journal_file("lifecycle_torn_reconfig.gjl");
  const std::string& journal_path = journal_file.path();
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
  // {L1,L2} and {L3,L4} groups on the way in and splits them on the way
  // out, while issuance keeps running.
  // The issuers are joined before any assertion can return.
  for (int round = 0; round < 20; ++round) {
    const std::string id = "X" + std::to_string(round);
    const Result<int> acquired = s->AcquireLicense(
        MakeRedistribution(schema, id, {{15, 115}}, 1000000));
    EXPECT_TRUE(acquired.ok()) << acquired.status().message();
    EXPECT_TRUE(s->RevokeLicenseById(id).ok());
  }
  for (std::thread& thread : issuers) {
    thread.join();
  }
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(s->catalog_epoch(), 40u);
  EXPECT_EQ(s->licenses().size(), 5);
  EXPECT_EQ(s->grouping().group_count(), 3);

  // Requests admitted under the transient bridge epochs were recorded with
  // the bridge in scope; after its revocation their sets cascade or remap
  // back into the stable three-group space. The merged tree must replay
  // serially: every record routes inside one overlap group.
  const Result<ValidationTree> tree = s->CollectTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->TotalCount(), s->CollectLog().TotalCount());

  // Admissions that raced the reconfigurations were carried over by them:
  // the equation state must equal one rebuilt from the log. A request over every budget is rejected at its own satisfying
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
