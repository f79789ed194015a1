#include "drm/distribution_network.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

class DistributionNetworkTest : public ::testing::Test {
 protected:
  DistributionNetworkTest()
      : schema_(IntervalSchema(1)),
        network_(&schema_, "K", Permission::kPlay) {}

  ConstraintSchema schema_;
  DistributionNetwork network_;
};

TEST_F(DistributionNetworkTest, PartyRegistration) {
  const Result<int> owner = network_.AddOwner("Studio");
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(network_.AddOwner("Second").status().code(),
            StatusCode::kAlreadyExists);

  const Result<int> distributor = network_.AddDistributor("D1", *owner);
  ASSERT_TRUE(distributor.ok());
  const Result<int> sub = network_.AddDistributor("D2", *distributor);
  ASSERT_TRUE(sub.ok());
  const Result<int> consumer = network_.AddConsumer("C1", *distributor);
  ASSERT_TRUE(consumer.ok());

  EXPECT_EQ(network_.party(*owner).role, PartyRole::kOwner);
  EXPECT_EQ(network_.party(*distributor).role, PartyRole::kDistributor);
  EXPECT_EQ(network_.party(*consumer).role, PartyRole::kConsumer);
  EXPECT_EQ(network_.party(*sub).parent, *distributor);

  // Consumers cannot parent anything; consumers attach to distributors.
  EXPECT_FALSE(network_.AddDistributor("D3", *consumer).ok());
  EXPECT_FALSE(network_.AddConsumer("C2", *owner).ok());
  EXPECT_FALSE(network_.AddDistributor("D4", 99).ok());
}

TEST_F(DistributionNetworkTest, OwnerGrantAndShapeChecks) {
  const int owner = *network_.AddOwner("Studio");
  const int distributor = *network_.AddDistributor("D1", owner);

  ASSERT_TRUE(network_
                  .GrantFromOwner(distributor, MakeRedistribution(
                                                   schema_, "LD1", {{0, 100}},
                                                   1000))
                  .ok());
  EXPECT_EQ(network_.ReceivedLicenses(distributor).size(), 1);

  // Usage license cannot be granted as redistribution.
  EXPECT_FALSE(network_
                   .GrantFromOwner(distributor,
                                   MakeUsage(schema_, "LU", {{0, 1}}, 5))
                   .ok());
  // Wrong permission.
  LicenseBuilder builder(&schema_);
  builder.SetId("LD2")
      .SetContentKey("K")
      .SetType(LicenseType::kRedistribution)
      .SetPermission(Permission::kCopy)
      .SetAggregateCount(10)
      .SetInterval("C1", 0, 1);
  EXPECT_FALSE(network_.GrantFromOwner(distributor, *builder.Build()).ok());
}

TEST_F(DistributionNetworkTest, GrantBeforeOwnerFails) {
  DistributionNetwork fresh(&schema_, "K", Permission::kPlay);
  EXPECT_EQ(fresh
                .GrantFromOwner(0, MakeRedistribution(schema_, "LD1",
                                                      {{0, 100}}, 1000))
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DistributionNetworkTest, UsageIssueToConsumer) {
  const int owner = *network_.AddOwner("Studio");
  const int distributor = *network_.AddDistributor("D1", owner);
  const int consumer = *network_.AddConsumer("C1", distributor);
  ASSERT_TRUE(network_
                  .GrantFromOwner(distributor,
                                  MakeRedistribution(schema_, "LD1",
                                                     {{0, 100}}, 1000))
                  .ok());

  const Result<OnlineDecision> decision = network_.Issue(
      distributor, consumer, MakeUsage(schema_, "LU1", {{10, 20}}, 50));
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->accepted());
  EXPECT_EQ(network_.IssuanceLog(distributor).size(), 1u);

  // Usage licenses cannot go to distributors.
  const int sub = *network_.AddDistributor("D2", distributor);
  EXPECT_FALSE(
      network_.Issue(distributor, sub, MakeUsage(schema_, "LU2", {{0, 1}}, 1))
          .ok());
}

TEST_F(DistributionNetworkTest, RedistributionIssuePropagates) {
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int d2 = *network_.AddDistributor("D2", d1);
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD1",
                                                         {{0, 100}}, 1000))
                  .ok());

  // D1 carves a sub-license for D2 out of LD1.
  const Result<OnlineDecision> decision = network_.Issue(
      d1, d2, MakeRedistribution(schema_, "LD1.1", {{10, 50}}, 400));
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->accepted());
  EXPECT_EQ(network_.ReceivedLicenses(d2).size(), 1);
  EXPECT_EQ(network_.ReceivedLicenses(d2).at(0).id(), "LD1.1");

  // D2 can now issue to its consumer within [10, 50] and 400 counts.
  const int consumer = *network_.AddConsumer("C1", d2);
  const Result<OnlineDecision> usage = network_.Issue(
      d2, consumer, MakeUsage(schema_, "LU1", {{15, 30}}, 100));
  ASSERT_TRUE(usage.ok());
  EXPECT_TRUE(usage->accepted());

  // Outside the sub-license's range → instance-invalid for D2.
  const Result<OnlineDecision> outside = network_.Issue(
      d2, consumer, MakeUsage(schema_, "LU2", {{60, 70}}, 10));
  ASSERT_TRUE(outside.ok());
  EXPECT_FALSE(outside->accepted());
  EXPECT_FALSE(outside->instance_valid);
}

TEST_F(DistributionNetworkTest, AggregateBudgetEnforcedDownstream) {
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int consumer = *network_.AddConsumer("C1", d1);
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD1",
                                                         {{0, 100}}, 100))
                  .ok());
  // First 80 counts pass, next 30 exceed the 100 budget.
  EXPECT_TRUE(network_
                  .Issue(d1, consumer,
                         MakeUsage(schema_, "LU1", {{0, 10}}, 80))
                  ->accepted());
  const Result<OnlineDecision> over = network_.Issue(
      d1, consumer, MakeUsage(schema_, "LU2", {{0, 10}}, 30));
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->accepted());
  EXPECT_FALSE(over->aggregate_valid);
}

TEST_F(DistributionNetworkTest, IssueWithoutLicensesFails) {
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int consumer = *network_.AddConsumer("C1", d1);
  EXPECT_EQ(network_
                .Issue(d1, consumer, MakeUsage(schema_, "LU1", {{0, 1}}, 1))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DistributionNetworkTest, CleanNetworkAuditsClean) {
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int consumer = *network_.AddConsumer("C1", d1);
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD1",
                                                         {{0, 50}}, 500))
                  .ok());
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD2",
                                                         {{40, 90}}, 300))
                  .ok());
  for (int i = 0; i < 10; ++i) {
    const Result<OnlineDecision> decision = network_.Issue(
        d1, consumer,
        MakeUsage(schema_, "LU" + std::to_string(i), {{i * 5, i * 5 + 4}},
                  20));
    ASSERT_TRUE(decision.ok());
    EXPECT_TRUE(decision->accepted());
  }
  const Result<NetworkAudit> audit = network_.AuditAll();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean());
  ASSERT_EQ(audit->distributors.size(), 1u);
  EXPECT_EQ(audit->distributors[0].party_name, "D1");
}

TEST_F(DistributionNetworkTest, RogueIssueDetectedByAudit) {
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int consumer = *network_.AddConsumer("C1", d1);
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD1",
                                                         {{0, 50}}, 100))
                  .ok());
  // Rogue: 150 counts against a 100 budget, bypassing online validation.
  const Result<LicenseSet> rogue_set = network_.IssueUnchecked(
      d1, consumer, MakeUsage(schema_, "LUX", {{0, 10}}, 150));
  ASSERT_TRUE(rogue_set.ok());
  EXPECT_EQ(*rogue_set, testing::Mask(0b1));

  const Result<DistributorAudit> audit = network_.AuditDistributor(d1);
  ASSERT_TRUE(audit.ok());
  EXPECT_FALSE(audit->result.report.all_valid());
  ASSERT_EQ(audit->result.report.violations.size(), 1u);
  EXPECT_EQ(audit->result.report.violations[0].set, testing::Mask(0b1));
  EXPECT_EQ(audit->result.report.violations[0].lhs, 150);
  EXPECT_EQ(audit->result.report.violations[0].rhs, 100);

  const Result<NetworkAudit> all = network_.AuditAll();
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->clean());
}

// A second grant puts the distributor's catalog in its service's epoch; the
// rogue rebuild must keep both licenses and the accepted history.
TEST_F(DistributionNetworkTest, RogueIssueAfterSecondGrantKeepsState) {
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int consumer = *network_.AddConsumer("C1", d1);
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD1",
                                                         {{0, 50}}, 100))
                  .ok());
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD2",
                                                         {{40, 90}}, 100))
                  .ok());
  ASSERT_TRUE(network_.Issue(d1, consumer,
                             MakeUsage(schema_, "LU1", {{60, 70}}, 60))
                  ->accepted());
  ASSERT_TRUE(network_
                  .IssueUnchecked(d1, consumer,
                                  MakeUsage(schema_, "LUX", {{60, 70}}, 60))
                  .ok());

  EXPECT_EQ(network_.ReceivedLicenses(d1).size(), 2);
  EXPECT_EQ(network_.ReceivedLicenses(d1).at(1).id(), "LD2");
  EXPECT_EQ(network_.IssuanceLog(d1).TotalCount(), 120);
  // {LD2} now carries 120 against its 100: flagged offline, and online
  // admission sees the rogue counts too.
  const Result<DistributorAudit> audit = network_.AuditDistributor(d1);
  ASSERT_TRUE(audit.ok());
  EXPECT_FALSE(audit->result.report.all_valid());
  EXPECT_FALSE(network_.Issue(d1, consumer,
                              MakeUsage(schema_, "LU2", {{60, 70}}, 1))
                   ->accepted());
}

TEST_F(DistributionNetworkTest, RogueInstanceInvalidIsRejectedOutright) {
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int consumer = *network_.AddConsumer("C1", d1);
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD1",
                                                         {{0, 50}}, 100))
                  .ok());
  // Entirely outside every received license: unattributable, rejected.
  EXPECT_FALSE(network_
                   .IssueUnchecked(d1, consumer,
                                   MakeUsage(schema_, "LUX", {{200, 210}}, 5))
                   .ok());
}

TEST_F(DistributionNetworkTest, AuditValidatesRoleAndRange) {
  const int owner = *network_.AddOwner("Studio");
  EXPECT_FALSE(network_.AuditDistributor(owner).ok());
  EXPECT_FALSE(network_.AuditDistributor(42).ok());
  const int d1 = *network_.AddDistributor("D1", owner);
  // No licenses yet: trivially clean audit.
  const Result<DistributorAudit> audit = network_.AuditDistributor(d1);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->result.report.all_valid());
  EXPECT_EQ(audit->result.report.equations_evaluated, 0u);
}

TEST_F(DistributionNetworkTest, SubLicensingConsumesIssuerBudget) {
  // Generating a redistribution license consumes the issuer's aggregate
  // budget exactly like usage licenses do (the paper: "the sum of the
  // aggregate constraint counts in all the licenses generated using a
  // redistribution license must not exceed" its value).
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int d2 = *network_.AddDistributor("D2", d1);
  const int consumer = *network_.AddConsumer("C1", d1);
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD1",
                                                         {{0, 100}}, 500))
                  .ok());
  // Sub-license takes 400 of the 500.
  ASSERT_TRUE(network_
                  .Issue(d1, d2,
                         MakeRedistribution(schema_, "LD1.1", {{0, 50}},
                                            400))
                  ->accepted());
  // 150 more for a consumer exceeds the remaining 100.
  const Result<OnlineDecision> over = network_.Issue(
      d1, consumer, MakeUsage(schema_, "LU1", {{60, 70}}, 150));
  ASSERT_TRUE(over.ok());
  EXPECT_FALSE(over->accepted());
  // 100 exactly fits.
  EXPECT_TRUE(network_
                  .Issue(d1, consumer,
                         MakeUsage(schema_, "LU2", {{60, 70}}, 100))
                  ->accepted());
}

TEST_F(DistributionNetworkTest, ViolationAttributedToCorrectLevel) {
  // A rogue mid-tier distributor is caught by ITS audit; its parent and
  // sibling stay clean.
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int d2 = *network_.AddDistributor("D2", d1);
  const int d3 = *network_.AddDistributor("D3", d1);
  const int consumer = *network_.AddConsumer("C1", d2);
  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "LD1",
                                                         {{0, 100}}, 1000))
                  .ok());
  ASSERT_TRUE(network_
                  .Issue(d1, d2,
                         MakeRedistribution(schema_, "LD1.1", {{0, 40}},
                                            300))
                  ->accepted());
  ASSERT_TRUE(network_
                  .Issue(d1, d3,
                         MakeRedistribution(schema_, "LD1.2", {{50, 90}},
                                            300))
                  ->accepted());
  // D2 goes rogue: 450 counts against its 300 budget.
  ASSERT_TRUE(network_
                  .IssueUnchecked(d2, consumer,
                                  MakeUsage(schema_, "LUX", {{0, 10}}, 450))
                  .ok());
  const Result<NetworkAudit> audit = network_.AuditAll();
  ASSERT_TRUE(audit.ok());
  EXPECT_FALSE(audit->clean());
  for (const DistributorAudit& entry : audit->distributors) {
    if (entry.party_id == d2) {
      EXPECT_FALSE(entry.result.report.all_valid());
    } else {
      EXPECT_TRUE(entry.result.report.all_valid())
          << entry.party_name << " wrongly implicated";
    }
  }
}

TEST_F(DistributionNetworkTest, MultiLevelChainEndToEnd) {
  // Owner → D1 → D2 → D3 → consumer, with shrinking licenses; the deepest
  // distributor's issuance stays inside every ancestor constraint.
  const int owner = *network_.AddOwner("Studio");
  const int d1 = *network_.AddDistributor("D1", owner);
  const int d2 = *network_.AddDistributor("D2", d1);
  const int d3 = *network_.AddDistributor("D3", d2);
  const int consumer = *network_.AddConsumer("C", d3);

  ASSERT_TRUE(network_
                  .GrantFromOwner(d1, MakeRedistribution(schema_, "L1",
                                                         {{0, 1000}}, 10000))
                  .ok());
  ASSERT_TRUE(network_
                  .Issue(d1, d2,
                         MakeRedistribution(schema_, "L2", {{100, 800}},
                                            4000))
                  ->accepted());
  ASSERT_TRUE(network_
                  .Issue(d2, d3,
                         MakeRedistribution(schema_, "L3", {{200, 600}},
                                            1500))
                  ->accepted());
  ASSERT_TRUE(network_
                  .Issue(d3, consumer,
                         MakeUsage(schema_, "LU", {{250, 300}}, 100))
                  ->accepted());

  const Result<NetworkAudit> audit = network_.AuditAll();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean());
  EXPECT_EQ(audit->distributors.size(), 3u);
}

}  // namespace
}  // namespace geolic
