// The paper's grouped pipeline (grouping, tree division, per-group
// validation) as reached through Validate's grouped modes.
#include "validation/validate.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/gain.h"
#include "core/grouping.h"
#include "test_util.h"
#include "workload/workload.h"

namespace geolic {
namespace {

using testing::IntervalSchema;
using testing::MakeRedistribution;

constexpr ValidateOptions kGrouped = {.mode = ValidationMode::kGrouped};

// Two disjoint clusters of licenses with a shared-budget structure.
LicenseCatalog TwoClusterSet(const ConstraintSchema& schema) {
  LicenseCatalog set(&schema);
  GEOLIC_CHECK(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 100)).ok());
  GEOLIC_CHECK(
      set.Add(MakeRedistribution(schema, "LD2", {{10, 30}}, 100)).ok());
  GEOLIC_CHECK(
      set.Add(MakeRedistribution(schema, "LD3", {{100, 120}}, 100)).ok());
  return set;
}

TEST(GroupedValidatorTest, CleanLogValidates) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = TwoClusterSet(schema);
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b011), 50).ok());
  ASSERT_TRUE(tree.Insert(testing::Mask(0b100), 70).ok());
  const Result<ValidationOutcome> result =
      Validate(set, std::move(tree), kGrouped);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report.all_valid());
  EXPECT_EQ(result->group_count, 2);
  EXPECT_EQ(result->group_sizes, (std::vector<int>{2, 1}));
  // (2^2 − 1) + (2^1 − 1) = 4 equations instead of 7.
  EXPECT_EQ(result->report.equations_evaluated, 4u);
}

TEST(GroupedValidatorTest, ViolationReportedInOriginalIndexes) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = TwoClusterSet(schema);
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b100), 150).ok());  // L3 over its 100 budget.
  const Result<ValidationOutcome> result =
      Validate(set, std::move(tree), kGrouped);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->report.violations.size(), 1u);
  // L3 is local index 0 of group 1; the report must say original L3.
  EXPECT_EQ(result->report.violations[0].set, testing::Mask(0b100));
  EXPECT_EQ(result->report.violations[0].lhs, 150);
  EXPECT_EQ(result->report.violations[0].rhs, 100);
}

TEST(GroupedValidatorTest, FromLogConvenience) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = TwoClusterSet(schema);
  LogStore log;
  ASSERT_TRUE(log.Append(LogRecord{"LU1", testing::Mask(0b011), 60}).ok());
  ASSERT_TRUE(log.Append(LogRecord{"LU2", testing::Mask(0b001), 50}).ok());
  const Result<ValidationOutcome> result = Validate(set, log, kGrouped);
  ASSERT_TRUE(result.ok());
  // C⟨{L1}⟩ = 50 ≤ 100, C⟨{L1,L2}⟩ = 110 ≤ 200, C⟨{L2}⟩ = 0.
  EXPECT_TRUE(result->report.all_valid());
}

TEST(GroupedValidatorTest, TimingFieldsPopulated) {
  const ConstraintSchema schema = IntervalSchema(1);
  const LicenseCatalog set = TwoClusterSet(schema);
  const Result<ValidationOutcome> result =
      Validate(set, ValidationTree(), kGrouped);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->division_micros, 0.0);
  EXPECT_GE(result->validation_micros, 0.0);
}

// The paper's core correctness claim (Theorem 2): removing the redundant
// cross-group equations never changes the verdict. Property-tested on
// generated workloads: the grouped pipeline and the baseline exhaustive
// engine must agree on every violation.
class EquivalencePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalencePropertyTest, GroupedMatchesBaseline) {
  const int n = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    WorkloadConfig config = PaperSweepConfig(n, seed);
    config.num_records = 400;
    // Squeeze aggregates so violations actually occur in some runs.
    config.aggregate_min = 50;
    config.aggregate_max = 400;
    WorkloadGenerator generator(config);
    Result<Workload> workload = generator.Generate();
    ASSERT_TRUE(workload.ok());

    const Result<ValidationTree> baseline_tree =
        ValidationTree::BuildFromLog(workload->log);
    ASSERT_TRUE(baseline_tree.ok());
    const Result<ValidationOutcome> baseline =
        Validate(*baseline_tree, workload->licenses->AggregateCounts(),
                 {.mode = ValidationMode::kExhaustive});
    ASSERT_TRUE(baseline.ok());

    Result<ValidationTree> grouped_tree =
        ValidationTree::BuildFromLog(workload->log);
    ASSERT_TRUE(grouped_tree.ok());
    const Result<ValidationOutcome> grouped =
        Validate(*workload->licenses, *std::move(grouped_tree), kGrouped);
    ASSERT_TRUE(grouped.ok());

    // Theorem 2: identical violation sets (the baseline also reports
    // redundant superset equations; every *group-internal* violation must
    // match, and every baseline violation must be implied by some grouped
    // violation — i.e. contain a violated group-internal set).
    //
    // Stronger, directly checkable form: violations whose set lies inside
    // one group must be identical on both sides.
    const LicenseGrouping grouping =
        LicenseGrouping::FromLicenses(*workload->licenses);
    std::vector<EquationResult> baseline_in_group;
    for (const EquationResult& violation : baseline->report.violations) {
      const int group = grouping.GroupOf((violation.set).Lowest());
      if (violation.set.IsSubsetOf(grouping.GroupMask(group))) {
        baseline_in_group.push_back(violation);
      }
    }
    auto by_set = [](const EquationResult& a, const EquationResult& b) {
      return a.set < b.set;
    };
    std::vector<EquationResult> grouped_violations =
        grouped->report.violations;
    std::sort(grouped_violations.begin(), grouped_violations.end(), by_set);
    std::sort(baseline_in_group.begin(), baseline_in_group.end(), by_set);
    ASSERT_EQ(grouped_violations.size(), baseline_in_group.size())
        << "n=" << n << " seed=" << seed;
    for (size_t i = 0; i < grouped_violations.size(); ++i) {
      EXPECT_EQ(grouped_violations[i].set, baseline_in_group[i].set);
      EXPECT_EQ(grouped_violations[i].lhs, baseline_in_group[i].lhs);
      EXPECT_EQ(grouped_violations[i].rhs, baseline_in_group[i].rhs);
    }

    // Overall verdict agrees (violated iff violated).
    EXPECT_EQ(baseline->report.all_valid(), grouped->report.all_valid());

    // Cross-check every baseline violation is explained by a group one.
    for (const EquationResult& violation : baseline->report.violations) {
      bool explained = false;
      for (const EquationResult& group_violation : grouped_violations) {
        if ((group_violation.set).IsSubsetOf(violation.set)) {
          explained = true;
          break;
        }
      }
      EXPECT_TRUE(explained) << "unexplained baseline violation "
                             << (violation.set).ToString();
    }

    // Equation-count bookkeeping matches the gain formula inputs.
    EXPECT_EQ(grouped->report.equations_evaluated,
              GroupedEquationCount(grouped->group_sizes));
    EXPECT_EQ(baseline->report.equations_evaluated,
              EquationCount(workload->licenses->size()));
  }
}

INSTANTIATE_TEST_SUITE_P(LicenseCounts, EquivalencePropertyTest,
                         ::testing::Values(1, 2, 4, 6, 8, 10, 12, 14));

}  // namespace
}  // namespace geolic
