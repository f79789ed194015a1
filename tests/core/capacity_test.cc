#include "core/capacity.h"

#include <gtest/gtest.h>

#include "service/issuance_service.h"
#include "test_util.h"
#include "workload/workload.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

TEST(CapacityTest, FreshSetQuotesFullBudget) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 50)).ok());
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(set);
  ValidationTree tree;
  const Result<CapacityQuote> quote =
      RemainingCapacity(set, grouping, tree, testing::Mask(0b01));
  ASSERT_TRUE(quote.ok());
  // Binding equation for {L1}: A=100 (the pair equation has slack 150).
  EXPECT_EQ(quote->remaining, 100);
  EXPECT_EQ(quote->binding_set, testing::Mask(0b01));
}

TEST(CapacityTest, SharedBudgetBinds) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 50)).ok());
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(set);
  ValidationTree tree;
  // 120 already issued against {L1,L2}: pair equation slack = 150−120=30,
  // {L1} equation slack stays 100 (the 120 isn't attributable to L1 only).
  ASSERT_TRUE(tree.Insert(testing::Mask(0b11), 120).ok());
  const Result<CapacityQuote> quote =
      RemainingCapacity(set, grouping, tree, testing::Mask(0b01));
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(quote->remaining, 30);
  EXPECT_EQ(quote->binding_set, testing::Mask(0b11));
  EXPECT_EQ(quote->binding_slack, 30);
}

TEST(CapacityTest, ViolatedEquationQuotesZero) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(set);
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b1), 130).ok());
  const Result<CapacityQuote> quote =
      RemainingCapacity(set, grouping, tree, testing::Mask(0b1));
  ASSERT_TRUE(quote.ok());
  EXPECT_EQ(quote->remaining, 0);
  EXPECT_EQ(quote->binding_slack, -30);
}

TEST(CapacityTest, RejectsBadSets) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{100, 120}}, 50)).ok());
  const LicenseGrouping grouping = LicenseGrouping::FromLicenses(set);
  ValidationTree tree;
  EXPECT_FALSE(RemainingCapacity(set, grouping, tree, testing::Mask(0)).ok());
  EXPECT_FALSE(
      RemainingCapacity(set, grouping, tree, LicenseSet::Singleton(9)).ok());
  // {L1, L2} spans the two (disjoint) groups.
  EXPECT_FALSE(RemainingCapacity(set, grouping, tree, testing::Mask(0b11)).ok());
}

// Property: the quote is exactly the acceptance threshold of the online
// validator — a usage license with count == remaining is accepted, one
// with remaining + 1 is rejected.
TEST(CapacityPropertyTest, QuoteMatchesOnlineAcceptanceBoundary) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    WorkloadConfig config = PaperSweepConfig(10, seed);
    config.num_records = 0;
    config.aggregate_min = 100;
    config.aggregate_max = 400;
    WorkloadGenerator generator(config);
    Result<Workload> workload = generator.GenerateLicensesOnly();
    ASSERT_TRUE(workload.ok());
    Result<std::unique_ptr<IssuanceService>> online =
        IssuanceService::Create(workload->licenses.get());
    ASSERT_TRUE(online.ok());

    // Spend some budget via accepted issues.
    Rng rng(seed);
    for (int i = 0; i < 300; ++i) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      (void)*(*online)->TryIssue(
          generator.DrawUsageLicense(*workload, parent, &rng, i));
    }
    const LogStore log = (*online)->CollectLog();
    const Result<ValidationTree> tree = (*online)->CollectTree();
    ASSERT_TRUE(tree.ok());

    // For random usage rects, the capacity quote equals the acceptance
    // boundary.
    const SoaInstanceValidator instance(workload->licenses.get());
    for (int trial = 0; trial < 40; ++trial) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      const License probe =
          generator.DrawUsageLicense(*workload, parent, &rng, 10000 + trial);
      const LicenseSet set = instance.SatisfyingSet(probe);
      ASSERT_FALSE(set.Empty());
      const Result<CapacityQuote> quote = RemainingCapacity(
          *workload->licenses, (*online)->grouping(), *tree, set);
      ASSERT_TRUE(quote.ok());
      if (quote->remaining == 0) {
        continue;  // Nothing issuable; rejection is covered below anyway.
      }
      // Exactly `remaining` fits…
      License at_boundary(probe.id(), probe.content_key(), probe.type(),
                          probe.permission(), probe.rect(),
                          quote->remaining);
      // …probe without committing: use a scratch service seeded with the
      // same history.
      Result<std::unique_ptr<IssuanceService>> scratch =
          IssuanceService::CreateWithHistory(workload->licenses.get(), {},
                                             log);
      ASSERT_TRUE(scratch.ok());
      EXPECT_TRUE((*scratch)->TryIssue(at_boundary)->accepted());
      License past_boundary(probe.id(), probe.content_key(), probe.type(),
                            probe.permission(), probe.rect(),
                            quote->remaining + 1);
      Result<std::unique_ptr<IssuanceService>> scratch2 =
          IssuanceService::CreateWithHistory(workload->licenses.get(), {},
                                             log);
      ASSERT_TRUE(scratch2.ok());
      EXPECT_FALSE((*scratch2)->TryIssue(past_boundary)->accepted());
    }
  }
}

}  // namespace
}  // namespace geolic
