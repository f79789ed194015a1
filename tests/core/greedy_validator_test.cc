#include "bench/greedy_validator.h"

#include <gtest/gtest.h>

#include "service/issuance_service.h"
#include "licensing/license_parser.h"
#include "test_util.h"
#include "workload/workload.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

TEST(GreedyValidatorTest, PolicyNames) {
  EXPECT_STREQ(GreedyPolicyName(GreedyPolicy::kFirst), "first");
  EXPECT_STREQ(GreedyPolicyName(GreedyPolicy::kRandom), "random");
  EXPECT_STREQ(GreedyPolicyName(GreedyPolicy::kLargestRemaining),
               "largest-remaining");
  EXPECT_STREQ(GreedyPolicyName(GreedyPolicy::kSmallestRemaining),
               "smallest-remaining");
}

TEST(GreedyValidatorTest, CreateRequiresLicenses) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog empty(&schema);
  EXPECT_FALSE(
      GreedyOnlineValidator::Create(&empty, GreedyPolicy::kFirst).ok());
}

TEST(GreedyValidatorTest, ChargesChosenLicense) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 50)).ok());
  Result<GreedyOnlineValidator> validator =
      GreedyOnlineValidator::Create(&set, GreedyPolicy::kFirst);
  ASSERT_TRUE(validator.ok());
  const Result<GreedyDecision> decision =
      validator->TryIssue(MakeUsage(schema, "U", {{12, 18}}, 30));
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->accepted);
  EXPECT_EQ(decision->satisfying_set, testing::Mask(0b11));
  EXPECT_EQ(decision->charged_license, 0);  // kFirst picks LD1.
  EXPECT_EQ(validator->remaining()[0], 70);
  EXPECT_EQ(validator->remaining()[1], 50);
}

TEST(GreedyValidatorTest, RejectsWhenNoSingleLicenseFits) {
  // 60 remaining on each of two licenses: an 80-count issue is rejected by
  // every greedy policy even though 80 ≤ 120 combined — greedy charges ONE
  // license.
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 60)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{0, 20}}, 60)).ok());
  for (GreedyPolicy policy :
       {GreedyPolicy::kFirst, GreedyPolicy::kRandom,
        GreedyPolicy::kLargestRemaining, GreedyPolicy::kSmallestRemaining}) {
    Result<GreedyOnlineValidator> validator =
        GreedyOnlineValidator::Create(&set, policy);
    ASSERT_TRUE(validator.ok());
    const Result<GreedyDecision> decision =
        validator->TryIssue(MakeUsage(schema, "U", {{5, 6}}, 80));
    ASSERT_TRUE(decision.ok());
    EXPECT_TRUE(decision->instance_valid);
    EXPECT_FALSE(decision->accepted) << GreedyPolicyName(policy);
  }
  // The equation-based validator accepts it? No — a single issued license
  // is one log record with one count; the equations also cap C⟨{L1,L2}⟩ at
  // 120 ≥ 80, and C[{L1,L2}]=80 ≤ A — so equations accept. This is the
  // fractional-assignment subtlety: counts in one record CAN be split
  // across licenses under the aggregate semantics.
  Result<std::unique_ptr<IssuanceService>> equations =
      IssuanceService::Create(&set);
  ASSERT_TRUE(equations.ok());
  EXPECT_TRUE(
      (*equations)->TryIssue(MakeUsage(schema, "U", {{5, 6}}, 80))->accepted());
}

TEST(GreedyValidatorTest, PaperExample1Trap) {
  // The exact narrative of Example 1: greedy charging L_D^2 for LU1 leaves
  // 200 and wrongly rejects LU2 (400); equation-based accepts both.
  const ConstraintSchema schema = ConstraintSchema::PaperExampleSchema();
  LicenseCatalog set(&schema);
  ASSERT_TRUE(set.Add(*ParseLicense(
                      "(K; Play; T=[10/03/09, 20/03/09]; R=[Asia, Europe]; "
                      "A=2000)",
                      schema, LicenseType::kRedistribution, "LD1"))
                  .ok());
  ASSERT_TRUE(set.Add(*ParseLicense(
                      "(K; Play; T=[15/03/09, 25/03/09]; R=[Asia]; A=1000)",
                      schema, LicenseType::kRedistribution, "LD2"))
                  .ok());
  const License lu1 = *ParseLicense(
      "(K; Play; T=[15/03/09, 19/03/09]; R=[India]; A=800)", schema,
      LicenseType::kUsage, "LU1");
  const License lu2 = *ParseLicense(
      "(K; Play; T=[21/03/09, 24/03/09]; R=[Japan]; A=400)", schema,
      LicenseType::kUsage, "LU2");

  // Find a random seed whose pick for LU1 is LD2 (the unlucky pick). With
  // kSmallestRemaining the trap is deterministic: LD2 (1000) < LD1 (2000).
  Result<GreedyOnlineValidator> greedy = GreedyOnlineValidator::Create(
      &set, GreedyPolicy::kSmallestRemaining);
  ASSERT_TRUE(greedy.ok());
  const Result<GreedyDecision> first = greedy->TryIssue(lu1);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->accepted);
  EXPECT_EQ(first->charged_license, 1);  // LD2.
  const Result<GreedyDecision> second = greedy->TryIssue(lu2);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->instance_valid);
  EXPECT_FALSE(second->accepted);  // The paper's wrongly-invalidated LU2.

  Result<std::unique_ptr<IssuanceService>> equations =
      IssuanceService::Create(&set);
  ASSERT_TRUE(equations.ok());
  EXPECT_TRUE((*equations)->TryIssue(lu1)->accepted());
  EXPECT_TRUE((*equations)->TryIssue(lu2)->accepted());
}

// Property: on identical issuance streams, the equation-based validator
// accepts at least as many counts as every greedy policy (it is exactly
// the feasibility test; greedy is a heuristic assignment).
class GreedyDominanceTest : public ::testing::TestWithParam<GreedyPolicy> {};

TEST_P(GreedyDominanceTest, EquationValidatorAcceptsAtLeastAsMuch) {
  const GreedyPolicy policy = GetParam();
  for (uint64_t seed : {11u, 22u, 33u}) {
    WorkloadConfig config = PaperSweepConfig(10, seed);
    config.num_records = 0;
    config.aggregate_min = 200;
    config.aggregate_max = 800;
    WorkloadGenerator generator(config);
    Result<Workload> workload = generator.GenerateLicensesOnly();
    ASSERT_TRUE(workload.ok());

    Result<std::unique_ptr<IssuanceService>> equations =
        IssuanceService::Create(workload->licenses.get());
    Result<GreedyOnlineValidator> greedy = GreedyOnlineValidator::Create(
        workload->licenses.get(), policy, seed);
    ASSERT_TRUE(equations.ok());
    ASSERT_TRUE(greedy.ok());

    Rng rng(seed * 7);
    int64_t equation_counts = 0;
    for (int i = 0; i < 1500; ++i) {
      const int parent = static_cast<int>(
          rng.UniformInt(0, workload->licenses->size() - 1));
      const License usage =
          generator.DrawUsageLicense(*workload, parent, &rng, i);
      const Result<OnlineDecision> a = (*equations)->TryIssue(usage);
      const Result<GreedyDecision> b = greedy->TryIssue(usage);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      if (a->accepted()) {
        equation_counts += usage.aggregate_count();
      }
      // Anything greedy accepts, the equation validator accepted too (its
      // feasibility is implied by the witness assignment greedy found —
      // and both saw the same history prefix only if... histories diverge,
      // so compare totals below instead of per-issue).
    }
    EXPECT_GE(equation_counts, greedy->accepted_counts())
        << GreedyPolicyName(policy) << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GreedyDominanceTest,
    ::testing::Values(GreedyPolicy::kFirst, GreedyPolicy::kRandom,
                      GreedyPolicy::kLargestRemaining,
                      GreedyPolicy::kSmallestRemaining));

}  // namespace
}  // namespace geolic
