#include "core/assignment.h"

#include <gtest/gtest.h>

#include "service/issuance_service.h"
#include "test_util.h"
#include "validation/validate.h"
#include "workload/workload.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;

TEST(SettlementTest, SplitsSharedSetAcrossLicenses) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 100)).ok());
  LogStore log;
  // 150 counts against {L1,L2}: cannot fit in one license, must split.
  ASSERT_TRUE(log.Append(LogRecord{"U", testing::Mask(0b11), 150}).ok());
  const Result<SettlementAssignment> settlement =
      ComputeSettlement(set, log);
  ASSERT_TRUE(settlement.ok());
  EXPECT_EQ(settlement->charged[0] + settlement->charged[1], 150);
  EXPECT_LE(settlement->charged[0], 100);
  EXPECT_LE(settlement->charged[1], 100);
  EXPECT_EQ(settlement->remaining[0], 100 - settlement->charged[0]);
  const auto& rows = settlement->allocation.at(testing::Mask(0b11));
  int64_t allocated = 0;
  for (const auto& [license, amount] : rows) {
    EXPECT_TRUE(license == 0 || license == 1);
    EXPECT_GT(amount, 0);
    allocated += amount;
  }
  EXPECT_EQ(allocated, 150);
}

TEST(SettlementTest, PaperExample1Settles) {
  // LU1 (800, {L1,L2}) and LU2 (400, {L2}) settle — the split a greedy
  // charger can miss.
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 30}}, 2000)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 40}}, 1000)).ok());
  LogStore log;
  ASSERT_TRUE(log.Append(LogRecord{"LU1", testing::Mask(0b11), 800}).ok());
  ASSERT_TRUE(log.Append(LogRecord{"LU2", testing::Mask(0b10), 400}).ok());
  const Result<SettlementAssignment> settlement =
      ComputeSettlement(set, log);
  ASSERT_TRUE(settlement.ok());
  EXPECT_EQ(settlement->charged[0] + settlement->charged[1], 1200);
  EXPECT_LE(settlement->charged[1], 1000);
}

TEST(SettlementTest, InfeasibleLogFails) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  LogStore log;
  ASSERT_TRUE(log.Append(LogRecord{"U", testing::Mask(0b1), 130}).ok());
  const Result<SettlementAssignment> settlement =
      ComputeSettlement(set, log);
  ASSERT_FALSE(settlement.ok());
  EXPECT_EQ(settlement.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SettlementTest, EmptyLogSettlesToNothing) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  const Result<SettlementAssignment> settlement =
      ComputeSettlement(set, LogStore());
  ASSERT_TRUE(settlement.ok());
  EXPECT_EQ(settlement->charged[0], 0);
  EXPECT_EQ(settlement->remaining[0], 100);
  EXPECT_TRUE(settlement->allocation.empty());
}

// Property: settlement succeeds exactly when grouped validation is clean,
// and any produced assignment conserves counts and respects budgets.
TEST(SettlementPropertyTest, SettleableIffValid) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    WorkloadConfig config = PaperSweepConfig(10, seed);
    config.num_records = 400;
    config.aggregate_min = 60;
    config.aggregate_max = 700;
    Result<Workload> workload = WorkloadGenerator(config).Generate();
    ASSERT_TRUE(workload.ok());
    const Result<ValidationOutcome> audit =
        Validate(*workload->licenses, workload->log,
                 {.mode = ValidationMode::kGrouped});
    ASSERT_TRUE(audit.ok());
    const Result<SettlementAssignment> settlement =
        ComputeSettlement(*workload->licenses, workload->log);
    ASSERT_EQ(settlement.ok(), audit->report.all_valid()) << "seed " << seed;
    if (!settlement.ok()) {
      continue;
    }
    // Conservation per set.
    const auto merged = workload->log.MergedCounts();
    int64_t total_allocated = 0;
    for (const auto& [set, rows] : settlement->allocation) {
      int64_t sum = 0;
      for (const auto& [license, amount] : rows) {
        EXPECT_TRUE((set).Contains(license));
        EXPECT_GT(amount, 0);
        sum += amount;
      }
      EXPECT_EQ(sum, merged.at(set));
      total_allocated += sum;
    }
    EXPECT_EQ(total_allocated, workload->log.TotalCount());
    // Budgets respected.
    for (int i = 0; i < workload->licenses->size(); ++i) {
      EXPECT_LE(settlement->charged[static_cast<size_t>(i)],
                workload->licenses->at(i).aggregate_count());
      EXPECT_GE(settlement->remaining[static_cast<size_t>(i)], 0);
    }
  }
}

// Property: an online-validated stream is always settleable.
TEST(SettlementPropertyTest, OnlineAcceptedStreamsAlwaysSettle) {
  WorkloadConfig config = PaperSweepConfig(12, 77);
  config.num_records = 0;
  config.aggregate_min = 100;
  config.aggregate_max = 500;
  WorkloadGenerator generator(config);
  Result<Workload> workload = generator.GenerateLicensesOnly();
  ASSERT_TRUE(workload.ok());
  Result<std::unique_ptr<IssuanceService>> online =
      IssuanceService::Create(workload->licenses.get());
  ASSERT_TRUE(online.ok());
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int parent = static_cast<int>(
        rng.UniformInt(0, workload->licenses->size() - 1));
    (void)*(*online)->TryIssue(
        generator.DrawUsageLicense(*workload, parent, &rng, i));
  }
  EXPECT_TRUE(
      ComputeSettlement(*workload->licenses, (*online)->CollectLog()).ok());
}

}  // namespace
}  // namespace geolic
