#include "validation/validate.h"

#include <gtest/gtest.h>

#include "util/random.h"

#include "test_util.h"

namespace geolic {
namespace {

// Adapters over the Validate facade (the pre-facade bare entry points
// ValidateExhaustive/ValidateExhaustiveLimited/ValidateZeta were folded
// into Validate; see validation/validate.h).
Result<ValidationReport> RunExhaustive(
    const ValidationTree& tree, const std::vector<int64_t>& aggregates) {
  ValidateOptions options;
  options.mode = ValidationMode::kExhaustive;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

ValidationTree TreeOf(
    const std::vector<std::pair<LicenseSet, int64_t>>& entries) {
  ValidationTree tree;
  for (const auto& [set, count] : entries) {
    GEOLIC_CHECK(tree.Insert(set, count).ok());
  }
  return tree;
}

TEST(ExhaustiveValidatorTest, EmptyInputsAreValid) {
  ValidationTree tree;
  const Result<ValidationReport> report = RunExhaustive(tree, {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->all_valid());
  EXPECT_EQ(report->equations_evaluated, 0u);
}

TEST(ExhaustiveValidatorTest, EvaluatesAllEquations) {
  const ValidationTree tree = TreeOf({{testing::Mask(0b1), 5}});
  const Result<ValidationReport> report =
      RunExhaustive(tree, {10, 10, 10});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->equations_evaluated, 7u);  // 2^3 - 1.
  EXPECT_TRUE(report->all_valid());
}

TEST(ExhaustiveValidatorTest, DetectsSingleLicenseOverflow) {
  const ValidationTree tree = TreeOf({{testing::Mask(0b1), 15}});
  const Result<ValidationReport> report = RunExhaustive(tree, {10, 100});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->violations.size(), 1u);
  EXPECT_EQ(report->violations[0].set, testing::Mask(0b1));
  EXPECT_EQ(report->violations[0].lhs, 15);
  EXPECT_EQ(report->violations[0].rhs, 10);
  EXPECT_FALSE(report->violations[0].valid());
}

TEST(ExhaustiveValidatorTest, DetectsPairwiseOverflowOnly) {
  // Individually fine (8 ≤ 10, 7 ≤ 10) but {L1} ∪ {L2} issued 15 + counts
  // on the pair 6 = 21 > A[{L1,L2}] = 20.
  const ValidationTree tree = TreeOf({{testing::Mask(0b01), 8}, {testing::Mask(0b10), 7}, {testing::Mask(0b11), 6}});
  const Result<ValidationReport> report = RunExhaustive(tree, {10, 10});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->violations.size(), 1u);
  EXPECT_EQ(report->violations[0].set, testing::Mask(0b11));
  EXPECT_EQ(report->violations[0].lhs, 21);
  EXPECT_EQ(report->violations[0].rhs, 20);
}

TEST(ExhaustiveValidatorTest, BoundaryEqualityIsValid) {
  const ValidationTree tree = TreeOf({{testing::Mask(0b1), 10}});
  const Result<ValidationReport> report = RunExhaustive(tree, {10});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->all_valid());
}

TEST(ExhaustiveValidatorTest, ViolationInSupersetEquationsToo) {
  // Overflow on {L1} also shows in {L1,L2} if A2 doesn't absorb it.
  const ValidationTree tree = TreeOf({{testing::Mask(0b01), 25}});
  const Result<ValidationReport> report = RunExhaustive(tree, {10, 5});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->violations.size(), 2u);
  EXPECT_EQ(report->violations[0].set, testing::Mask(0b01));
  EXPECT_EQ(report->violations[1].set, testing::Mask(0b11));
  EXPECT_EQ(report->violations[1].rhs, 15);
}

TEST(ExhaustiveValidatorTest, RejectsTreeBeyondAggregateArray) {
  const ValidationTree tree = TreeOf({{testing::Mask(0b100), 5}});
  const Result<ValidationReport> report = RunExhaustive(tree, {10, 10});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExhaustiveValidatorTest, RejectsMoreThan64Licenses) {
  ValidationTree tree;
  const Result<ValidationReport> report =
      RunExhaustive(tree, std::vector<int64_t>(65, 10));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCapacityExceeded);
}

TEST(ExhaustiveValidatorTest, ReportToString) {
  const ValidationTree tree = TreeOf({{testing::Mask(0b1), 15}});
  const Result<ValidationReport> report = RunExhaustive(tree, {10});
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->ToString().find("C<{L1}> = 15 > A[{L1}] = 10"),
            std::string::npos);
  ValidationReport ok_report;
  ok_report.equations_evaluated = 31;
  EXPECT_EQ(ok_report.ToString(), "OK (31 equations)");
}

TEST(LhsFromMergedCountsTest, SumsSubsetsOnly) {
  std::unordered_map<LicenseSet, int64_t> merged = {
      {testing::Mask(0b001), 5},
      {testing::Mask(0b011), 7},
      {testing::Mask(0b100), 9},
      {testing::Mask(0b111), 11}};
  EXPECT_EQ(testing::LhsFromMergedCounts(merged, testing::Mask(0b011)), 12);
  EXPECT_EQ(testing::LhsFromMergedCounts(merged, testing::Mask(0b111)), 32);
  EXPECT_EQ(testing::LhsFromMergedCounts(merged, testing::Mask(0b100)), 9);
  EXPECT_EQ(testing::LhsFromMergedCounts(merged, testing::Mask(0b010)), 0);
}

// Property: validator verdicts match a direct evaluation of every equation
// from merged counts, on random logs and aggregates.
class ExhaustivePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustivePropertyTest, MatchesDirectEvaluation) {
  const int n = GetParam();
  Rng rng(5150 + static_cast<uint64_t>(n));
  for (int trial = 0; trial < 20; ++trial) {
    LogStore store;
    ValidationTree tree;
    const int records = 100;
    for (int r = 0; r < records; ++r) {
      const LicenseSet set =
          (LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n)) |
          LicenseSet::Singleton(static_cast<int>(rng.UniformInt(0, n - 1)));
      const int64_t count = rng.UniformInt(1, 40);
      ASSERT_TRUE(store.Append(LogRecord{"", set, count}).ok());
      ASSERT_TRUE(tree.Insert(set, count).ok());
    }
    // Aggregates tight enough that some violations occur.
    std::vector<int64_t> aggregates;
    for (int j = 0; j < n; ++j) {
      aggregates.push_back(rng.UniformInt(50, 600));
    }
    const Result<ValidationReport> report =
        RunExhaustive(tree, aggregates);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->equations_evaluated, (uint64_t{1} << n) - 1);

    const auto merged = store.MergedCounts();
    std::vector<EquationResult> expected;
    for (uint64_t word = 1; word <= ((uint64_t{1} << n) - 1); ++word) {
      const LicenseSet set = LicenseSet::FromWord(word);
      const int64_t lhs = testing::LhsFromMergedCounts(merged, set);
      int64_t rhs = 0;
      for (int j = 0; j < n; ++j) {
        if ((set).Contains(j)) {
          rhs += aggregates[static_cast<size_t>(j)];
        }
      }
      if (lhs > rhs) {
        expected.push_back(EquationResult{set, lhs, rhs});
      }
    }
    ASSERT_EQ(report->violations.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(report->violations[i].set, expected[i].set);
      EXPECT_EQ(report->violations[i].lhs, expected[i].lhs);
      EXPECT_EQ(report->violations[i].rhs, expected[i].rhs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LicenseCounts, ExhaustivePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

}  // namespace
}  // namespace geolic
