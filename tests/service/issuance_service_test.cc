#include "service/issuance_service.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "persist/framing.h"
#include "persist/journal.h"
#include "persist/sync_file.h"
#include "service/issuance_service_peer.h"
#include "sim/reference_model.h"
#include "test_util.h"
#include "validation/flat_tree.h"

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

// One usage request per group, cycling with `i`; every fourth request lies
// outside all licenses (instance-invalid).
License RequestAt(const ConstraintSchema& schema, int i) {
  const std::string id = "U" + std::to_string(i);
  switch (i % 4) {
    case 0:
      return MakeUsage(schema, id, {{12, 18}}, 1);  // Group {L1, L2}.
    case 1:
      return MakeUsage(schema, id, {{111, 119}}, 1);  // Group {L3, L4}.
    case 2:
      return MakeUsage(schema, id, {{205, 215}}, 1);  // Group {L5}.
    default:
      return MakeUsage(schema, id, {{500, 510}}, 1);  // No license.
  }
}

TEST(IssuanceServiceTest, MatchesReferenceModelSerially) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 5);

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ReferenceModel model(&licenses);

  // Past the budget of 5 per group so both reject the tail identically.
  for (int i = 0; i < 40; ++i) {
    const License request = RequestAt(schema, i);
    const Result<OnlineDecision> got = (*service)->TryIssue(request);
    const ReferenceModel::Decision want = model.TryIssue(request);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->instance_valid, want.instance_valid) << i;
    EXPECT_EQ(got->aggregate_valid, want.aggregate_valid) << i;
    EXPECT_EQ(got->satisfying_set, want.satisfying_set) << i;
    // Every S here is its whole group: 2^(N_g − k) = 1 equation.
    EXPECT_EQ(got->equations_checked, want.instance_valid ? 1u : 0u) << i;
    if (want.accepted()) {
      model.Apply(want.satisfying_set, request.aggregate_count());
    } else if (want.instance_valid) {
      EXPECT_EQ(got->limiting.set, want.limiting_set) << i;
      EXPECT_EQ(got->limiting.lhs, want.limiting_lhs) << i;
      EXPECT_EQ(got->limiting.rhs, want.limiting_rhs) << i;
    }
  }

  // Same accepted state: the service's merged counts are the model's.
  const Result<ValidationTree> tree = (*service)->CollectTree();
  ASSERT_TRUE(tree.ok());
  const auto merged = (*service)->CollectLog().MergedCounts();
  EXPECT_EQ(merged.size(), model.counts().size());
  for (const auto& [set, count] : model.counts()) {
    ASSERT_TRUE(merged.contains(set)) << set;
    EXPECT_EQ(merged.at(set), count) << set;
  }

  // The offline-audit snapshot: a flat compile of the same merged tree,
  // every equation through the batch scan Validate runs.
  const FlatValidationTree flat = FlatValidationTree::Compile(*tree);
  EXPECT_EQ(flat.NodeCount(), tree->NodeCount());
  EXPECT_EQ(flat.TotalCount(), tree->TotalCount());
  const uint64_t full = licenses.AllMask().AsWord();
  std::vector<LicenseSet> sets;
  for (uint64_t word = 1; word <= full; ++word) {
    sets.push_back(LicenseSet::FromWord(word));
  }
  std::vector<int64_t> sums(sets.size());
  flat.SumSubsetsBatch(sets, sums);
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sums[i], tree->SumSubsets(sets[i])) << sets[i];
  }
}

TEST(IssuanceServiceTest, ConcurrentStressMatchesSerialReplay) {
  const ConstraintSchema schema = IntervalSchema(1);
  // Tight budgets. Requests hit satisfying set {L1,L2} / {L3,L4} / {L5}, so
  // the binding equation's budget is 50 / 50 / 25; each group sees
  // 8×20 = 160 unit requests and saturates under any interleaving.
  const LicenseCatalog licenses = ThreeGroupSet(schema, 25);

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  ASSERT_EQ((*service)->grouping().group_count(), 3);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 80;  // 20 requests per group + 20 invalid.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&schema, &service, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Result<OnlineDecision> decision =
            (*service)->TryIssue(RequestAt(schema, t * kPerThread + i));
        ASSERT_TRUE(decision.ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // Every group saturated its budget exactly — no lost or duplicated
  // admissions under contention.
  const LogStore log = (*service)->CollectLog();
  EXPECT_EQ(log.TotalCount(), 50 + 50 + 25);
  const IssuanceMetrics::Snapshot metrics = (*service)->metrics().Snap();
  EXPECT_EQ(metrics.accepted, 125u);
  EXPECT_EQ(metrics.rejected_instance, 160u);
  EXPECT_EQ(metrics.rejected_aggregate, 640u - 160u - 125u);
  EXPECT_EQ(metrics.total_requests(), 640u);
  EXPECT_EQ(metrics.latency.total_count, 640u);

  // The final tree equals a single-threaded replay of the accepted log.
  const Result<ValidationTree> rebuilt = ValidationTree::BuildFromLog(log);
  ASSERT_TRUE(rebuilt.ok());
  const Result<ValidationTree> tree = (*service)->CollectTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->ToString(), rebuilt->ToString());
}

TEST(IssuanceServiceTest, BatchMatchesSequentialIssue) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 7);

  Result<std::unique_ptr<IssuanceService>> batched =
      IssuanceService::Create(&licenses);
  Result<std::unique_ptr<IssuanceService>> sequential =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(batched.ok());
  ASSERT_TRUE(sequential.ok());

  std::vector<License> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(RequestAt(schema, i));
  }
  std::vector<OnlineDecision> got(batch.size());
  ASSERT_TRUE(
      (*batched)->TryIssueBatch(testing::PointersTo(batch), got).ok());

  for (size_t i = 0; i < batch.size(); ++i) {
    const Result<OnlineDecision> want = (*sequential)->TryIssue(batch[i]);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got[i].instance_valid, want->instance_valid) << i;
    EXPECT_EQ(got[i].aggregate_valid, want->aggregate_valid) << i;
    EXPECT_EQ(got[i].satisfying_set, want->satisfying_set) << i;
    EXPECT_EQ(got[i].equations_checked, want->equations_checked) << i;
  }
  const Result<ValidationTree> got_tree = (*batched)->CollectTree();
  const Result<ValidationTree> want_tree = (*sequential)->CollectTree();
  ASSERT_TRUE(got_tree.ok());
  ASSERT_TRUE(want_tree.ok());
  EXPECT_EQ(got_tree->ToString(), want_tree->ToString());

  const IssuanceMetrics::Snapshot metrics = (*batched)->metrics().Snap();
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(metrics.batched_requests, 50u);
}

TEST(IssuanceServiceTest, UngroupedAcceptsWhatGroupedAccepts) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 4);

  OnlineValidatorOptions options;
  options.use_grouping = false;
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  ASSERT_TRUE(service.ok());

  // Same accepted set as grouped (grouping changes cost, not outcomes).
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
  }
  EXPECT_EQ((*service)->CollectLog().TotalCount(), 6 + 6 + 4);
}

TEST(IssuanceServiceTest, CreateWithHistoryContinuesBudgets) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 3);

  LogStore history;
  LogRecord spent;
  spent.issued_license_id = "H1";
  spent.set = testing::Mask(0b11);  // {L1, L2}.
  spent.count = 5;
  ASSERT_TRUE(history.Append(spent).ok());

  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::CreateWithHistory(&licenses, {}, history);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->CollectLog().size(), 1u);
  const Result<ValidationTree> preloaded = (*service)->CollectTree();
  ASSERT_TRUE(preloaded.ok());
  EXPECT_EQ(preloaded->CountOf(testing::Mask(0b11)), 5);

  // Pair budget 3 + 3 = 6, history spent 5: one unit left in {L1, L2}.
  const Result<OnlineDecision> first =
      (*service)->TryIssue(MakeUsage(schema, "U1", {{12, 18}}, 1));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->accepted());
  const Result<OnlineDecision> second =
      (*service)->TryIssue(MakeUsage(schema, "U2", {{12, 18}}, 1));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->accepted());

  // History that references indexes outside the set is rejected.
  for (const int index : {9, 60}) {
    LogStore bad;
    LogRecord unknown;
    unknown.issued_license_id = "H2";
    unknown.set = LicenseSet::Singleton(index);
    unknown.count = 1;
    ASSERT_TRUE(bad.Append(unknown).ok());
    EXPECT_FALSE(IssuanceService::CreateWithHistory(&licenses, {}, bad).ok())
        << index;
  }
}

// L1 [0,20] A=100, L2 [10,30] A=50, L3 [100,120] A=30 — two groups.
LicenseCatalog SmallSet(const ConstraintSchema& schema) {
  LicenseCatalog licenses(&schema);
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 50)).ok());
  EXPECT_TRUE(
      licenses.Add(MakeRedistribution(schema, "LD3", {{100, 120}}, 30)).ok());
  return licenses;
}

TEST(IssuanceServiceTest, DecisionsCarrySetAndLimitingEquation) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = SmallSet(schema);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  auto file = std::make_unique<InMemorySyncFile>();
  const InMemorySyncFile* disk = file.get();
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::move(file));
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*service)->AttachJournal(std::move(*journal)).ok());

  const Result<OnlineDecision> accepted =
      (*service)->TryIssue(MakeUsage(schema, "LU1", {{2, 5}}, 40));
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted->instance_valid);
  EXPECT_TRUE(accepted->aggregate_valid);
  EXPECT_EQ(accepted->satisfying_set, testing::Mask(0b001));

  // [25, 50] is not inside any license.
  const Result<OnlineDecision> outside =
      (*service)->TryIssue(MakeUsage(schema, "LU2", {{25, 50}}, 5));
  ASSERT_TRUE(outside.ok());
  EXPECT_FALSE(outside->instance_valid);
  EXPECT_FALSE(outside->accepted());

  // L3's budget is 30: a 31-count usage inside L3 is rejected on {L3}.
  const Result<OnlineDecision> over =
      (*service)->TryIssue(MakeUsage(schema, "LU3", {{105, 110}}, 31));
  ASSERT_TRUE(over.ok());
  EXPECT_TRUE(over->instance_valid);
  EXPECT_FALSE(over->aggregate_valid);
  EXPECT_EQ(over->limiting.set, testing::Mask(0b100));
  EXPECT_EQ(over->limiting.lhs, 31);
  EXPECT_EQ(over->limiting.rhs, 30);

  // Only the acceptance is recorded: journaled as an issue op carrying the
  // issued license, and in the service's state as the count of its set.
  const Result<JournalReplay> replay = JournalReader::Parse(disk->contents());
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->entries.size(), 1u);
  EXPECT_EQ(replay->entries[0].op.kind, OpKind::kIssue);
  EXPECT_EQ(replay->entries[0].op.license.id(), "LU1");
  EXPECT_EQ(replay->entries[0].op.license.aggregate_count(), 40);
  const LogStore log = (*service)->CollectLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.records()[0].issued_license_id.empty());
  EXPECT_EQ(log.records()[0].set, testing::Mask(0b001));
  EXPECT_EQ(log.records()[0].count, 40);
  const Result<ValidationTree> tree = (*service)->CollectTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->CountOf(testing::Mask(0b001)), 40);
}

TEST(IssuanceServiceTest, ExhaustsBudgetExactlyThenRejects) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = SmallSet(schema);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  // Three 10-count issues exhaust L3's 30.
  for (int i = 0; i < 3; ++i) {
    const Result<OnlineDecision> decision =
        (*service)->TryIssue(MakeUsage(schema, "LU", {{101, 102}}, 10));
    ASSERT_TRUE(decision.ok());
    EXPECT_TRUE(decision->accepted()) << "issue " << i;
  }
  const Result<OnlineDecision> rejected =
      (*service)->TryIssue(MakeUsage(schema, "LU", {{101, 102}}, 1));
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected->accepted());
}

TEST(IssuanceServiceTest, GroupingShrinksEquationCount) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = SmallSet(schema);
  OnlineValidatorOptions ungrouped;
  ungrouped.use_grouping = false;
  Result<std::unique_ptr<IssuanceService>> grouped =
      IssuanceService::Create(&licenses);
  Result<std::unique_ptr<IssuanceService>> baseline =
      IssuanceService::Create(&licenses, ungrouped);
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE(baseline.ok());

  const License usage = MakeUsage(schema, "LU", {{2, 5}}, 1);
  const Result<OnlineDecision> grouped_decision = (*grouped)->TryIssue(usage);
  const Result<OnlineDecision> baseline_decision =
      (*baseline)->TryIssue(usage);
  ASSERT_TRUE(grouped_decision.ok());
  ASSERT_TRUE(baseline_decision.ok());
  EXPECT_TRUE(grouped_decision->accepted());
  EXPECT_TRUE(baseline_decision->accepted());
  // S = {L1}, k = 1. Baseline checks 2^(3−1) = 4 equations; grouped only
  // the group {L1, L2}: 2^(2−1) = 2.
  EXPECT_EQ(baseline_decision->equations_checked, 4u);
  EXPECT_EQ(grouped_decision->equations_checked, 2u);
}

TEST(IssuanceServiceTest, RejectsNonPositiveCount) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = SmallSet(schema);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  // LicenseBuilder refuses a zero count, so hand-construct the license.
  const License usage("LU", "K", LicenseType::kUsage, Permission::kPlay,
                      testing::Rect({{0, 1}}), 0);
  EXPECT_EQ((*service)->TryIssue(usage).status().code(),
            StatusCode::kInvalidArgument);
  const License* batch[] = {&usage};
  OnlineDecision decision;
  EXPECT_EQ((*service)->TryIssueBatch(batch, {&decision, 1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*service)->metrics().Snap().total_requests(), 0u);
  EXPECT_TRUE((*service)->CollectLog().empty());

  // A batch stops at its first failing member: the one before it is
  // decided and applied, it and the one after it are not.
  const License good = MakeUsage(schema, "LG", {{0, 1}}, 1);
  const License* mixed[] = {&good, &usage, &good};
  OnlineDecision decisions[3];
  size_t decided = 99;
  EXPECT_EQ((*service)->TryIssueBatch(mixed, decisions, &decided).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(decided, 1u);
  EXPECT_TRUE(decisions[0].accepted());
  EXPECT_EQ((*service)->metrics().Snap().accepted, 1u);
  const LogStore log = (*service)->CollectLog();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].count, 1);
}

TEST(IssuanceServiceTest, ExternalMetricsSinkIsUsed) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 10);

  IssuanceMetrics sink;
  OnlineValidatorOptions options;
  options.metrics = &sink;
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses, options);
  ASSERT_TRUE(service.ok());

  ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, 0)).ok());   // Accept.
  ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, 3)).ok());   // Invalid.
  const IssuanceMetrics::Snapshot snapshot = sink.Snap();
  EXPECT_EQ(snapshot.accepted, 1u);
  EXPECT_EQ(snapshot.rejected_instance, 1u);
  EXPECT_EQ(&(*service)->metrics(), &sink);
}

TEST(IssuanceServiceTest, RejectsEmptyLicenseCatalog) {
  const ConstraintSchema schema = IntervalSchema(1);
  EXPECT_FALSE(IssuanceService::Create(nullptr).ok());
  LicenseCatalog empty(&schema);
  EXPECT_FALSE(IssuanceService::Create(&empty).ok());
}

// The service state payload round-trips a snapshot, and its decoder takes
// only what the encoder writes: records ascending by set, once each,
// without ids, over known licenses, and a non-empty catalog.
TEST(ServiceStateTest, DecodesWhatSnapshotEncodesAndNothingElse) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog licenses = ThreeGroupSet(schema, 100);
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*service)->TryIssue(RequestAt(schema, i)).ok());
  }
  ASSERT_TRUE(
      (*service)
          ->AcquireLicense(MakeRedistribution(schema, "L6", {{300, 320}}, 9))
          .ok());
  std::string bytes;
  ASSERT_TRUE(EncodeServiceState((*service)->Snapshot(), &bytes).ok());
  size_t pos = 0;
  Result<ServiceState> decoded = DecodeServiceState(bytes, &pos, &schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(decoded->catalog_epoch, 1u);
  EXPECT_EQ(decoded->covered_seq, 0u);
  EXPECT_EQ(decoded->licenses->size(), 6);
  EXPECT_EQ(decoded->records.records(), (*service)->CollectLog().records());
  Result<std::unique_ptr<IssuanceService>> restored =
      IssuanceService::Restore(std::move(decoded).value(), {});
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->catalog_epoch(), 1u);
  std::string again;
  ASSERT_TRUE(EncodeServiceState((*restored)->Snapshot(), &again).ok());
  EXPECT_EQ(again, bytes);

  const auto rejects = [&schema](std::vector<LogRecord> records,
                                 int license_count) {
    ServiceState state;
    state.licenses = std::make_unique<LicenseCatalog>(&schema);
    for (int i = 0; i < license_count; ++i) {
      EXPECT_TRUE(state.licenses
                      ->Add(MakeRedistribution(schema, "L" + std::to_string(i),
                                               {{0, 20}}, 10))
                      .ok());
    }
    std::string payload;
    EXPECT_TRUE(EncodeServiceState(state, &payload).ok());
    // The record table follows the licenses; rewrite it by hand.
    payload.resize(payload.size() - sizeof(uint64_t));
    framing::PutScalar(&payload, static_cast<uint64_t>(records.size()));
    for (const LogRecord& record : records) {
      EncodeLogRecord(record, &payload);
    }
    size_t at = 0;
    const Result<ServiceState> got = DecodeServiceState(payload, &at, &schema);
    return !got.ok() && got.status().code() == StatusCode::kParseError;
  };
  const LogRecord low{"", testing::Mask(0b01), 1};
  const LogRecord high{"", testing::Mask(0b11), 1};
  EXPECT_FALSE(rejects({low, high}, 2));  // The well-formed control.
  EXPECT_TRUE(rejects({high, low}, 2));   // Descending.
  EXPECT_TRUE(rejects({low, low}, 2));    // Repeated.
  EXPECT_TRUE(rejects({LogRecord{"U1", testing::Mask(0b01), 1}}, 2));  // Id.
  EXPECT_TRUE(rejects({LogRecord{"", testing::Mask(0b100), 1}}, 2));   // L2.
  EXPECT_TRUE(rejects({}, 0));  // No licenses.
}

// The epoch's grouping comes from the sweep; on a catalog of chains,
// touching endpoints and isolated licenses across two bitset words it
// must be Algorithm 3's, after Create and after Restore alike.
TEST(IssuanceServiceTest, GroupingAfterCreateAndRestoreIsFromLicenses) {
  const ConstraintSchema schema = testing::IntervalSchema(2);
  LicenseCatalog licenses(&schema);
  Rng rng(testing::TestSeed(0x5EE9));
  for (int i = 0; i < 90; ++i) {
    const int64_t lo = 10 * rng.UniformInt(0, 60);
    const int64_t y = rng.UniformInt(0, 3);
    ASSERT_TRUE(licenses
                    .Add(MakeRedistribution(
                        schema, "L" + std::to_string(i),
                        {{lo, lo + 10 * rng.UniformInt(0, 2)}, {y, y + 1}},
                        50))
                    .ok());
  }
  const auto expect_paper_grouping = [](const IssuanceService& service) {
    const LicenseGrouping expected =
        LicenseGrouping::FromLicenses(service.licenses());
    EXPECT_EQ(service.grouping().Components().components,
              expected.Components().components);
    EXPECT_EQ(service.grouping().Components().component_of,
              expected.Components().component_of);
  };
  Result<std::unique_ptr<IssuanceService>> service =
      IssuanceService::Create(&licenses);
  ASSERT_TRUE(service.ok());
  const LicenseGrouping paper = LicenseGrouping::FromLicenses(licenses);
  ASSERT_GT(paper.group_count(), 1);
  ASSERT_LT(paper.group_count(), licenses.size());
  expect_paper_grouping(**service);

  std::string bytes;
  ASSERT_TRUE(EncodeServiceState((*service)->Snapshot(), &bytes).ok());
  size_t pos = 0;
  Result<ServiceState> decoded = DecodeServiceState(bytes, &pos, &schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  Result<std::unique_ptr<IssuanceService>> restored =
      IssuanceService::Restore(std::move(decoded).value(), {});
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->licenses().size(), licenses.size());
  expect_paper_grouping(**restored);
}

// MemberRuns against the index walk it replaced (each member index's
// position in the group, one index at a time), on member sets with gaps,
// blocks across the 64- and 128-bit word boundaries, and high indexes.
TEST(MemberRunsTest, LocalMaskMatchesIndexWalk) {
  // Runs end at gaps and at word boundaries.
  EXPECT_EQ(MemberRuns(LicenseSet::Full(12)).run_count(), 1);
  EXPECT_EQ(MemberRuns(LicenseSet::FromIndexes({62, 63, 64, 65})).run_count(),
            2);
  EXPECT_EQ(
      MemberRuns(LicenseSet::FromIndexes({1, 3, 127, 128, 129, 1023}))
          .run_count(),
      5);
  EXPECT_EQ(MemberRuns(LicenseSet::FromIndexes(
                           {0, 64, 128, 192, 256, 320, 384, 448, 512, 576,
                            640, 1023}))
                .run_count(),
            12);

  Rng rng(testing::TestSeed(0x2C115));
  for (int trial = 0; trial < 2000; ++trial) {
    // A block of consecutive members around a random point (often a
    // word boundary), plus scattered ones.
    const int size = static_cast<int>(rng.UniformInt(1, kMaxDenseGroupSize));
    const int block = static_cast<int>(rng.UniformInt(1, size));
    const int anchor = rng.Bernoulli(0.5)
                           ? 64 * static_cast<int>(rng.UniformInt(1, 15))
                           : static_cast<int>(rng.UniformInt(0, 1023));
    LicenseSet members;
    for (int i = 0; i < block; ++i) {
      members.Add(std::clamp(anchor - block / 2, 0, 1024 - block) + i);
    }
    while (members.Size() < size) {
      members.Add(static_cast<int>(rng.UniformInt(0, 1023)));
    }
    const MemberRuns runs(members);
    const std::vector<int> indexes = members.ToIndexes();
    for (int draw = 0; draw < 16; ++draw) {
      LicenseSet set;
      for (int i : indexes) {
        if (rng.Bernoulli(0.5)) {
          set.Add(i);
        }
      }
      uint32_t want = 0;
      for (int i : set.Indexes()) {
        const auto at = std::lower_bound(indexes.begin(), indexes.end(), i);
        want |= uint32_t{1} << (at - indexes.begin());
      }
      ASSERT_EQ(runs.LocalMask(set), want) << members << " " << set;
    }
  }
}


// A duplicate license id makes a state payload damage, not a catalog.
TEST(ServiceStateTest, DuplicateLicenseIdIsParseError) {
  const ConstraintSchema schema = IntervalSchema(1);
  for (const bool duplicate : {false, true}) {
    ServiceState state;
    state.licenses = std::make_unique<LicenseCatalog>(&schema);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(state.licenses
                      ->Add(MakeRedistribution(
                          schema, "L" + std::to_string(i), {{i, i + 5}}, 10))
                      .ok());
    }
    std::string payload;
    ASSERT_TRUE(EncodeServiceState(state, &payload).ok());
    if (duplicate) {
      // Rename L29 to L17 in place: same length, canonical bytes.
      const size_t at = payload.find("L29");
      ASSERT_NE(at, std::string::npos);
      payload.replace(at, 3, "L17");
    }
    size_t pos = 0;
    const Result<ServiceState> got = DecodeServiceState(payload, &pos, &schema);
    if (!duplicate) {
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(got->licenses->size(), 40);
      continue;
    }
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kParseError);
    EXPECT_NE(got.status().message().find("duplicate license id: L17"),
              std::string::npos)
        << got.status().message();
  }
}

// A catalog of `n` licenses in overlap groups of 1..`max_group` members.
// Indexes are dealt to groups either scattered (shuffled) or in
// consecutive blocks, and a block of consecutive indexes across each of
// the word boundaries 64 and 128 joins one group, so groups hold multi-run
// members that cross words. Group k's member at position p covers
// [10000k + 10p, 10000k + 10p + 60]: neighbours overlap, groups do not.
struct ScatteredCatalog {
  std::unique_ptr<LicenseCatalog> licenses;
  std::vector<std::vector<int>> groups;  // Member indexes, ascending.
};

ScatteredCatalog MakeScatteredCatalog(const ConstraintSchema& schema, int n,
                                      bool scatter, Rng* rng,
                                      int max_group = kMaxDenseGroupSize) {
  std::vector<int> group_of(static_cast<size_t>(n), -1);
  std::vector<std::vector<int>> groups;
  for (const int boundary : {64, 128}) {
    if (boundary + 3 > n) {
      continue;
    }
    groups.emplace_back();
    for (int i = boundary - 3; i < boundary + 3; ++i) {
      group_of[static_cast<size_t>(i)] = static_cast<int>(groups.size()) - 1;
      groups.back().push_back(i);
    }
  }
  std::vector<int> rest;
  for (int i = 0; i < n; ++i) {
    if (group_of[static_cast<size_t>(i)] < 0) {
      rest.push_back(i);
    }
  }
  if (scatter) {
    for (size_t i = rest.size(); i > 1; --i) {
      std::swap(rest[i - 1], rest[rng->UniformIndex(i)]);
    }
  }
  // Straddling groups take a few scattered members too.
  size_t next = 0;
  for (std::vector<int>& group : groups) {
    const size_t extra = static_cast<size_t>(rng->UniformInt(0, 6));
    for (size_t e = 0; e < extra && next < rest.size(); ++e) {
      group.push_back(rest[next++]);
    }
  }
  while (next < rest.size()) {
    const size_t size = static_cast<size_t>(rng->UniformInt(1, max_group));
    groups.emplace_back();
    for (size_t e = 0; e < size && next < rest.size(); ++e) {
      groups.back().push_back(rest[next++]);
    }
  }
  std::vector<std::pair<int64_t, int64_t>> span(static_cast<size_t>(n));
  for (size_t k = 0; k < groups.size(); ++k) {
    std::sort(groups[k].begin(), groups[k].end());
    for (size_t p = 0; p < groups[k].size(); ++p) {
      const int64_t lo = 10000 * static_cast<int64_t>(k) +
                         10 * static_cast<int64_t>(p);
      span[static_cast<size_t>(groups[k][p])] = {lo, lo + 60};
    }
  }
  ScatteredCatalog catalog{std::make_unique<LicenseCatalog>(&schema),
                           std::move(groups)};
  for (int i = 0; i < n; ++i) {
    GEOLIC_CHECK(catalog.licenses
                     ->Add(MakeRedistribution(
                         schema, "L" + std::to_string(i),
                         {span[static_cast<size_t>(i)]},
                         rng->UniformInt(20, 80)))
                     .ok());
  }
  return catalog;
}

// Seeded property: on catalogs whose dense groups have scattered members
// and runs across words 64 and 128, a random in-group history preloaded
// through CreateWithHistory comes back from CollectLog merged, survives
// Restore(Snapshot()) and the state payload, and a stream of TryIssue
// decisions (with limiting equations) on both services equals the
// ReferenceModel's.
TEST(IssuanceServiceProperty, ScatteredDenseGroupsReplayAndAdmitLikeTheModel) {
  const ConstraintSchema schema = IntervalSchema(1);
  Rng rng(testing::TestSeed(0x8E9A7));
  std::vector<int> sizes = {1, 2, 12, 13, 63, 64, 65, 67, 127, 128, 131, 200};
  for (int c = 0; c < 12; ++c) {
    sizes.push_back(static_cast<int>(rng.UniformInt(1, 200)));
  }
  sizes.push_back(1020);
  int over_budget = 0;  // Requests rejected by an equation, every case.
  for (size_t c = 0; c < sizes.size(); ++c) {
    const int n = sizes[c];
    SCOPED_TRACE("n = " + std::to_string(n) + ", case " + std::to_string(c));
    const ScatteredCatalog catalog =
        MakeScatteredCatalog(schema, n, c % 2 == 0, &rng);
    const LicenseCatalog& licenses = *catalog.licenses;

    LogStore history;
    std::map<LicenseSet, int64_t> merged;
    for (int r = 0; r < std::max(8, n); ++r) {
      const std::vector<int>& group =
          catalog.groups[rng.UniformIndex(catalog.groups.size())];
      LicenseSet set;
      while (set.Empty()) {
        for (int i : group) {
          if (rng.Bernoulli(0.5)) {
            set.Add(i);
          }
        }
      }
      const int64_t count = rng.UniformInt(1, 3);
      merged[set] += count;
      ASSERT_TRUE(
          history.Append({"H" + std::to_string(r), set, count}).ok());
    }
    // Records as "set x count" lines, so a mismatch prints readably.
    const auto expect_merged = [&merged](const IssuanceService& service) {
      std::vector<std::string> want;
      for (const auto& [set, count] : merged) {
        want.push_back(set.ToString() + " x " + std::to_string(count));
      }
      std::vector<std::string> got;
      const LogStore collected = service.CollectLog();
      for (const LogRecord& record : collected.records()) {
        got.push_back(record.issued_license_id + record.set.ToString() +
                      " x " + std::to_string(record.count));
      }
      EXPECT_EQ(got, want);
    };

    const OnlineValidatorOptions options;
    Result<std::unique_ptr<IssuanceService>> service =
        IssuanceService::CreateWithHistory(&licenses, options, history);
    ASSERT_TRUE(service.ok()) << service.status().message();
    expect_merged(**service);
    Result<std::unique_ptr<IssuanceService>> restored =
        IssuanceService::Restore((*service)->Snapshot(), options);
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    expect_merged(**restored);
    std::string payload;
    ASSERT_TRUE(EncodeServiceState((*service)->Snapshot(), &payload).ok());
    size_t pos = 0;
    Result<ServiceState> decoded = DecodeServiceState(payload, &pos, &schema);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    Result<std::unique_ptr<IssuanceService>> reloaded =
        IssuanceService::Restore(std::move(decoded).value(), options);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
    expect_merged(**reloaded);

    ReferenceModel model(&licenses);
    for (const auto& [set, count] : merged) {
      model.Apply(set, count);
    }
    int accepted = 0;
    for (int i = 0; i < 60; ++i) {
      const size_t k = rng.UniformIndex(catalog.groups.size());
      const int64_t x =
          rng.Bernoulli(0.1)
              ? -100
              : 10000 * static_cast<int64_t>(k) +
                    rng.UniformInt(0, 10 * static_cast<int64_t>(
                                               catalog.groups[k].size()) +
                                          50);
      const License request = MakeUsage(schema, "U" + std::to_string(i),
                                        {{x, x + 1}}, rng.UniformInt(1, 40));
      const ReferenceModel::Decision want = model.TryIssue(request);
      for (IssuanceService* twin : {service->get(), restored->get()}) {
        const Result<OnlineDecision> got = twin->TryIssue(request);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->instance_valid, want.instance_valid) << i;
        ASSERT_EQ(got->aggregate_valid, want.aggregate_valid) << i;
        ASSERT_EQ(got->satisfying_set, want.satisfying_set) << i;
        if (want.instance_valid && !want.aggregate_valid) {
          ++over_budget;
          EXPECT_EQ(got->limiting.set, want.limiting_set) << i;
          EXPECT_EQ(got->limiting.lhs, want.limiting_lhs) << i;
          EXPECT_EQ(got->limiting.rhs, want.limiting_rhs) << i;
        }
      }
      if (want.accepted()) {
        ++accepted;
        model.Apply(want.satisfying_set, request.aggregate_count());
        merged[want.satisfying_set] += request.aggregate_count();
      }
    }
    EXPECT_GT(accepted, 0);
    expect_merged(**service);
    expect_merged(**restored);
    if (HasFailure()) {
      return;  // One failing case says enough.
    }
  }
  EXPECT_GT(over_budget, 0);
}

// Seeded oracle for the batched history preload: on catalogs with
// single-run and multi-run dense groups (blocks across indexes 64 and
// 128), above-cap groups, one-word and multi-word sets, and with or
// without grouping, CreateWithHistory's one PreloadEpoch pass leaves the
// same A, C[S] and C⟨T⟩ tables, trees, CollectLog and Snapshot bytes as
// one ApplySetToEpoch per record, and fails with the same first error on
// histories holding records with unknown indexes or spanning groups.
// Every dense C⟨T⟩ is also checked against naive subset sums of C[S]
// (empty tables included), and every A[T] against its members' sums.
TEST(IssuanceServiceProperty, BatchedPreloadEqualsPerRecordPath) {
  using Peer = IssuanceServiceTestPeer;
  const ConstraintSchema schema = IntervalSchema(1);
  Rng rng(testing::TestSeed(0x9E10AD));
  std::vector<int> sizes = {1, 2, 12, 13, 63, 64, 65, 67, 127, 128, 131, 200};
  for (int c = 0; c < 12; ++c) {
    sizes.push_back(static_cast<int>(rng.UniformInt(1, 200)));
  }
  sizes.push_back(1020);
  int errors_seen = 0;
  for (size_t c = 0; c < sizes.size(); ++c) {
    const int n = sizes[c];
    // Every third case also has groups above the cap; small catalogs also
    // run without grouping (one scope over the whole catalog).
    const int max_group = c % 3 == 0 ? kMaxDenseGroupSize + 4
                                     : kMaxDenseGroupSize;
    const ScatteredCatalog catalog =
        MakeScatteredCatalog(schema, n, c % 2 == 0, &rng, max_group);
    const LicenseCatalog& licenses = *catalog.licenses;
    for (const bool grouped : {true, false}) {
      if (!grouped && n > 2 * kMaxDenseGroupSize) {
        continue;
      }
      SCOPED_TRACE("n = " + std::to_string(n) + ", case " +
                   std::to_string(c) + (grouped ? "" : ", ungrouped"));
      OnlineValidatorOptions options;
      options.use_grouping = grouped;

      LogStore history;
      for (int r = 0; r < 4 * n + 16; ++r) {
        const std::vector<int>& group =
            catalog.groups[rng.UniformIndex(catalog.groups.size())];
        LicenseSet set;
        while (set.Empty()) {
          for (int i : group) {
            if (rng.Bernoulli(0.5)) {
              set.Add(i);
            }
          }
        }
        ASSERT_TRUE(history.Append({"", set, rng.UniformInt(1, 3)}).ok());
      }
      Result<std::unique_ptr<IssuanceService>> batched =
          IssuanceService::CreateWithHistory(&licenses, options, history);
      Result<std::unique_ptr<IssuanceService>> per_record =
          Peer::CreateFromCopies(&licenses, options, history);
      ASSERT_TRUE(batched.ok()) << batched.status().message();
      ASSERT_TRUE(per_record.ok()) << per_record.status().message();
      const Peer::EpochState state = Peer::State(**batched);
      ASSERT_TRUE(state == Peer::State(**per_record));
      EXPECT_EQ((*batched)->CollectLog().records(),
                (*per_record)->CollectLog().records());
      std::string batched_bytes;
      std::string per_record_bytes;
      ASSERT_TRUE(
          EncodeServiceState((*batched)->Snapshot(), &batched_bytes).ok());
      ASSERT_TRUE(
          EncodeServiceState((*per_record)->Snapshot(), &per_record_bytes)
              .ok());
      EXPECT_EQ(batched_bytes, per_record_bytes);
      for (size_t d = 0; d < state.dense_masks.size(); ++d) {
        const std::vector<int> members = state.dense_masks[d].ToIndexes();
        for (uint32_t t = 0; t < state.sums[d].size(); ++t) {
          int64_t lhs = 0;
          int64_t rhs = 0;
          for (uint32_t sub = t;; sub = (sub - 1) & t) {
            lhs += state.counts[d][sub];
            if (sub == 0) {
              break;
            }
          }
          for (uint32_t bits = t; bits != 0; bits &= bits - 1) {
            rhs += licenses.at(members[static_cast<size_t>(
                                   std::countr_zero(bits))])
                       .aggregate_count();
          }
          ASSERT_EQ(state.sums[d][t], lhs) << "scope " << d << " T " << t;
          ASSERT_EQ(state.aggregates[d][t], rhs) << "scope " << d << " T " << t;
        }
      }

      // Bad records: an index beyond the catalog (possibly beside valid
      // members), or members of two groups. The first one decides.
      std::vector<size_t> group_of(static_cast<size_t>(n));
      for (size_t k = 0; k < catalog.groups.size(); ++k) {
        for (int i : catalog.groups[k]) {
          group_of[static_cast<size_t>(i)] = k;
        }
      }
      const auto error_of = [&](const LicenseSet& set) -> std::string {
        if (!set.IsSubsetOf(LicenseSet::Full(n))) {
          return "history record references unknown license indexes";
        }
        for (int i : set.Indexes()) {
          if (grouped && group_of[static_cast<size_t>(i)] !=
                             group_of[static_cast<size_t>(set.Lowest())]) {
            return "history record spans overlap groups";
          }
        }
        return "";
      };
      std::vector<LogRecord> records = history.records();
      for (int b = 0; b < 3; ++b) {
        LicenseSet set;
        if (catalog.groups.size() < 2 || rng.Bernoulli(0.5)) {
          set.Add(static_cast<int>(rng.UniformInt(n, kMaxLicensesLarge - 1)));
          if (rng.Bernoulli(0.5)) {
            set.Add(static_cast<int>(rng.UniformInt(0, n - 1)));
          }
        } else {
          const size_t g = rng.UniformIndex(catalog.groups.size());
          const size_t h =
              (g + 1 + rng.UniformIndex(catalog.groups.size() - 1)) %
              catalog.groups.size();
          set.Add(catalog.groups[g].front());
          set.Add(catalog.groups[h].back());
        }
        records.insert(records.begin() + static_cast<std::ptrdiff_t>(
                                              rng.UniformIndex(
                                                  records.size() + 1)),
                       LogRecord{"", set, 1});
      }
      LogStore bad;
      std::string first_error;
      for (LogRecord& record : records) {
        if (first_error.empty()) {
          first_error = error_of(record.set);
        }
        ASSERT_TRUE(bad.Append(std::move(record)).ok());
      }
      const Result<std::unique_ptr<IssuanceService>> batched_bad =
          IssuanceService::CreateWithHistory(&licenses, options, bad);
      const Result<std::unique_ptr<IssuanceService>> per_record_bad =
          Peer::CreateFromCopies(&licenses, options, bad);
      ASSERT_EQ(batched_bad.ok(), per_record_bad.ok());
      if (!batched_bad.ok()) {
        ++errors_seen;
        EXPECT_EQ(batched_bad.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(batched_bad.status().code(), per_record_bad.status().code());
        EXPECT_EQ(batched_bad.status().message(),
                  per_record_bad.status().message());
        EXPECT_EQ(batched_bad.status().message(), first_error);
      } else {
        EXPECT_TRUE(first_error.empty());
        EXPECT_TRUE(Peer::State(**batched_bad) ==
                    Peer::State(**per_record_bad));
      }
      if (HasFailure()) {
        return;  // One failing case says enough.
      }
    }
  }
  EXPECT_GT(errors_seen, 0);
}

// A wide catalog (1,020 licenses, over 100 overlap groups) with a
// journal: admissions, Snapshot, WriteCheckpoint and acquire/revoke
// reconfigurations from concurrent threads, twice over. Every call takes
// the one service lock, so ThreadSanitizer sees every path race every
// other.
TEST(IssuanceServiceTest, WideCatalogAllPathsUnderConcurrency) {
  const ConstraintSchema schema = IntervalSchema(1);
  Rng rng(testing::TestSeed(0x7A5A));
  const ScatteredCatalog catalog =
      MakeScatteredCatalog(schema, 1020, /*scatter=*/true, &rng);
  ASSERT_GT(catalog.groups.size(), 100u);
  Result<std::unique_ptr<IssuanceService>> created =
      IssuanceService::Create(catalog.licenses.get());
  ASSERT_TRUE(created.ok()) << created.status().message();
  IssuanceService& service = **created;
  Result<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Create(std::make_unique<InMemorySyncFile>());
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(service.AttachJournal(std::move(*journal)).ok());
  const std::string checkpoint =
      testing::TestTmpDir() + "wide_all_paths.ckpt";

  std::map<LicenseSet, int64_t> merged;  // Accepted sets, every round.
  constexpr size_t kAdmitters = 3;
  constexpr int kReconfigRounds = 2;
  const auto concurrent_round = [&](int round) {
    // Requests are drawn up front: the Rng is not shared across threads.
    std::vector<std::vector<License>> requests(kAdmitters);
    for (size_t t = 0; t < kAdmitters; ++t) {
      for (int i = 0; i < 40; ++i) {
        const size_t k = rng.UniformIndex(catalog.groups.size());
        const int64_t x =
            10000 * static_cast<int64_t>(k) +
            rng.UniformInt(0, 10 * static_cast<int64_t>(
                                       catalog.groups[k].size()) +
                                  50);
        requests[t].push_back(MakeUsage(
            schema,
            "U" + std::to_string(round) + "_" + std::to_string(t) + "_" +
                std::to_string(i),
            {{x, x + 1}}, rng.UniformInt(1, 40)));
      }
    }
    std::vector<std::vector<OnlineDecision>> decisions(kAdmitters);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kAdmitters; ++t) {
      threads.emplace_back([&, t] {
        for (const License& request : requests[t]) {
          const Result<OnlineDecision> decision = service.TryIssue(request);
          EXPECT_TRUE(decision.ok());
          decisions[t].push_back(decision.ok() ? *decision
                                               : OnlineDecision());
        }
      });
    }
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        // The catalog with or without the transient license below.
        const int size = service.Snapshot().licenses->size();
        EXPECT_TRUE(size == 1020 || size == 1021) << size;
        EXPECT_TRUE(service.WriteCheckpoint(checkpoint).ok());
      }
    });
    // A license far from every group joins at index 1020 and leaves
    // again, so every other index keeps its number and no request's
    // satisfying set ever holds it.
    threads.emplace_back([&] {
      for (int i = 0; i < kReconfigRounds; ++i) {
        const Result<int> acquired = service.AcquireLicense(
            MakeRedistribution(schema, "LX", {{-1000, -900}}, 50));
        EXPECT_TRUE(acquired.ok()) << acquired.status().message();
        if (acquired.ok()) {
          EXPECT_EQ(*acquired, 1020);
        }
        EXPECT_TRUE(service.RevokeLicenseById("LX").ok());
      }
    });
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (size_t t = 0; t < kAdmitters; ++t) {
      for (size_t i = 0; i < requests[t].size(); ++i) {
        if (decisions[t][i].accepted()) {
          merged[decisions[t][i].satisfying_set] +=
              requests[t][i].aggregate_count();
        }
      }
    }
  };

  concurrent_round(0);
  concurrent_round(1);
  EXPECT_EQ(service.catalog_epoch(), 2u * 2 * kReconfigRounds);
  EXPECT_EQ(service.licenses().size(), 1020);

  std::vector<std::string> want;
  for (const auto& [set, count] : merged) {
    want.push_back(set.ToString() + " x " + std::to_string(count));
  }
  EXPECT_FALSE(want.empty());
  std::vector<std::string> got;
  const LogStore collected = service.CollectLog();
  for (const LogRecord& record : collected.records()) {
    got.push_back(record.set.ToString() + " x " +
                  std::to_string(record.count));
  }
  EXPECT_EQ(got, want);
  std::filesystem::remove(checkpoint);
}

}  // namespace
}  // namespace geolic
