// Validate with num_threads > 1: sharded equation ranges (exhaustive mode)
// and concurrently validated groups (grouped mode).
#include "validation/validate.h"

#include <gtest/gtest.h>

#include "workload/workload.h"

namespace geolic {
namespace {

ValidateOptions Exhaustive(int threads) {
  return {.mode = ValidationMode::kExhaustive, .num_threads = threads};
}

TEST(ParallelValidatorTest, EmptyInputs) {
  ValidationTree tree;
  const Result<ValidationOutcome> outcome =
      Validate(tree, {}, Exhaustive(4));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->report.all_valid());
}

TEST(ParallelValidatorTest, RejectsBadInputs) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(3), 1).ok());
  EXPECT_FALSE(Validate(tree, {10, 10}, Exhaustive(4)).ok());
  EXPECT_FALSE(
      Validate(tree, std::vector<int64_t>(65, 1), Exhaustive(4)).ok());
}

// Property: the parallel exhaustive engine produces a byte-identical
// report to the serial one, for every thread count.
class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceTest, MatchesSequential) {
  const int threads = GetParam();
  for (int n : {1, 2, 5, 9, 13}) {
    WorkloadConfig config = PaperSweepConfig(n, 37);
    config.num_records = 600;
    config.aggregate_min = 50;
    config.aggregate_max = 600;  // Violations likely.
    Result<Workload> workload = WorkloadGenerator(config).Generate();
    ASSERT_TRUE(workload.ok());
    const Result<ValidationTree> tree =
        ValidationTree::BuildFromLog(workload->log);
    ASSERT_TRUE(tree.ok());
    const std::vector<int64_t> aggregates =
        workload->licenses->AggregateCounts();

    const Result<ValidationOutcome> sequential =
        Validate(*tree, aggregates, Exhaustive(1));
    const Result<ValidationOutcome> parallel =
        Validate(*tree, aggregates, Exhaustive(threads));
    ASSERT_TRUE(sequential.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->report.equations_evaluated,
              sequential->report.equations_evaluated);
    EXPECT_EQ(parallel->report.nodes_visited,
              sequential->report.nodes_visited);
    ASSERT_EQ(parallel->report.violations.size(),
              sequential->report.violations.size());
    for (size_t i = 0; i < parallel->report.violations.size(); ++i) {
      EXPECT_EQ(parallel->report.violations[i].set,
                sequential->report.violations[i].set);
      EXPECT_EQ(parallel->report.violations[i].lhs,
                sequential->report.violations[i].lhs);
      EXPECT_EQ(parallel->report.violations[i].rhs,
                sequential->report.violations[i].rhs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ParallelGroupedTest, MatchesSequentialGrouped) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    WorkloadConfig config = PaperSweepConfig(12, seed);
    config.num_records = 900;
    config.aggregate_min = 50;
    config.aggregate_max = 600;
    Result<Workload> workload = WorkloadGenerator(config).Generate();
    ASSERT_TRUE(workload.ok());

    Result<ValidationTree> tree1 =
        ValidationTree::BuildFromLog(workload->log);
    Result<ValidationTree> tree2 =
        ValidationTree::BuildFromLog(workload->log);
    ASSERT_TRUE(tree1.ok());
    ASSERT_TRUE(tree2.ok());

    const Result<ValidationOutcome> sequential =
        Validate(*workload->licenses, *std::move(tree1),
                 {.mode = ValidationMode::kGrouped});
    const Result<ValidationOutcome> parallel =
        Validate(*workload->licenses, *std::move(tree2),
                 {.mode = ValidationMode::kGrouped, .num_threads = 4});
    ASSERT_TRUE(sequential.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->group_count, sequential->group_count);
    EXPECT_EQ(parallel->group_sizes, sequential->group_sizes);
    EXPECT_EQ(parallel->report.equations_evaluated,
              sequential->report.equations_evaluated);
    ASSERT_EQ(parallel->report.violations.size(),
              sequential->report.violations.size());
    for (size_t i = 0; i < parallel->report.violations.size(); ++i) {
      EXPECT_EQ(parallel->report.violations[i].set,
                sequential->report.violations[i].set);
      EXPECT_EQ(parallel->report.violations[i].lhs,
                sequential->report.violations[i].lhs);
    }
  }
}

}  // namespace
}  // namespace geolic
