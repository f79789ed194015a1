
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "validation/validate.h"
#include "util/random.h"
#include "workload/workload.h"

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

Result<ValidationReport> RunZeta(const ValidationTree& tree,
                                 const std::vector<int64_t>& aggregates) {
  ValidateOptions options;
  options.mode = ValidationMode::kZeta;
  Result<ValidationOutcome> outcome = Validate(tree, aggregates, options);
  if (!outcome.ok()) return outcome.status();
  return std::move(outcome->report);
}

TEST(ZetaValidatorTest, EmptyInputsAreValid) {
  ValidationTree tree;
  const Result<ValidationReport> report = RunZeta(tree, {});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->all_valid());
  EXPECT_EQ(report->equations_evaluated, 0u);
}

TEST(ZetaValidatorTest, MatchesHandComputedExample) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b01), 8).ok());
  ASSERT_TRUE(tree.Insert(testing::Mask(0b10), 7).ok());
  ASSERT_TRUE(tree.Insert(testing::Mask(0b11), 6).ok());
  const Result<ValidationReport> report = RunZeta(tree, {10, 10});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->equations_evaluated, 3u);
  ASSERT_EQ(report->violations.size(), 1u);
  EXPECT_EQ(report->violations[0].set, testing::Mask(0b11));
  EXPECT_EQ(report->violations[0].lhs, 21);
  EXPECT_EQ(report->violations[0].rhs, 20);
}

TEST(ZetaValidatorTest, RespectsDenseCap) {
  ValidationTree tree;
  const Result<ValidationReport> report =
      RunZeta(tree, std::vector<int64_t>(kMaxDenseN + 4, 10));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCapacityExceeded);
}

TEST(ZetaValidatorTest, RejectsTreeBeyondAggregates) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(5), 1).ok());
  EXPECT_FALSE(RunZeta(tree, {10, 10}).ok());
}

// Property: zeta validator reproduces the exhaustive validator exactly —
// same equation count, same violations in the same order — on paper-style
// workloads.
class ZetaEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ZetaEquivalenceTest, MatchesExhaustive) {
  const int n = GetParam();
  for (uint64_t seed : {11u, 22u}) {
    WorkloadConfig config = PaperSweepConfig(n, seed);
    config.num_records = 500;
    config.aggregate_min = 50;
    config.aggregate_max = 500;  // Tight → violations happen.
    Result<Workload> workload = WorkloadGenerator(config).Generate();
    ASSERT_TRUE(workload.ok());
    const Result<ValidationTree> tree =
        ValidationTree::BuildFromLog(workload->log);
    ASSERT_TRUE(tree.ok());
    const std::vector<int64_t> aggregates =
        workload->licenses->AggregateCounts();

    const Result<ValidationReport> exhaustive =
        RunExhaustive(*tree, aggregates);
    const Result<ValidationReport> zeta = RunZeta(*tree, aggregates);
    ASSERT_TRUE(exhaustive.ok());
    ASSERT_TRUE(zeta.ok());
    EXPECT_EQ(zeta->equations_evaluated, exhaustive->equations_evaluated);
    ASSERT_EQ(zeta->violations.size(), exhaustive->violations.size());
    for (size_t i = 0; i < zeta->violations.size(); ++i) {
      EXPECT_EQ(zeta->violations[i].set, exhaustive->violations[i].set);
      EXPECT_EQ(zeta->violations[i].lhs, exhaustive->violations[i].lhs);
      EXPECT_EQ(zeta->violations[i].rhs, exhaustive->violations[i].rhs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LicenseCounts, ZetaEquivalenceTest,
                         ::testing::Values(1, 2, 4, 8, 12, 16));

// Property: on random dense logs too (not just geometry-consistent ones).
TEST(ZetaValidatorPropertyTest, MatchesExhaustiveOnRandomLogs) {
  Rng rng(808);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 14));
    ValidationTree tree;
    for (int r = 0; r < 200; ++r) {
      const LicenseSet set =
          (LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n)) |
          LicenseSet::Singleton(static_cast<int>(rng.UniformInt(0, n - 1)));
      ASSERT_TRUE(tree.Insert(set, rng.UniformInt(1, 40)).ok());
    }
    std::vector<int64_t> aggregates;
    for (int j = 0; j < n; ++j) {
      aggregates.push_back(rng.UniformInt(100, 2000));
    }
    const Result<ValidationReport> exhaustive =
        RunExhaustive(tree, aggregates);
    const Result<ValidationReport> zeta = RunZeta(tree, aggregates);
    ASSERT_TRUE(exhaustive.ok());
    ASSERT_TRUE(zeta.ok());
    ASSERT_EQ(zeta->violations.size(), exhaustive->violations.size());
    for (size_t i = 0; i < zeta->violations.size(); ++i) {
      EXPECT_EQ(zeta->violations[i].set, exhaustive->violations[i].set);
      EXPECT_EQ(zeta->violations[i].lhs, exhaustive->violations[i].lhs);
    }
  }
}

// On a log's merged per-set counts C[S]: the zeta of the histogram is every
// equation LHS C<T> — how the service derives a dense scope's C<T> table
// from its C[S] table at every epoch build.
TEST(ZetaTransformTest, TurnsMergedCountsIntoEveryEquationLhs) {
  Rng rng(testing::TestSeed(1718));
  for (int trial = 0; trial < 12; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    LogStore log;
    for (int r = 0; r < 500; ++r) {
      LogRecord record;
      record.issued_license_id = "LU" + std::to_string(r);
      record.set =
          (LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n)) |
          LicenseSet::Singleton(static_cast<int>(rng.UniformInt(0, n - 1)));
      record.count = rng.UniformInt(1, 1000);
      ASSERT_TRUE(log.Append(std::move(record)).ok());
    }
    const std::unordered_map<LicenseSet, int64_t> merged = log.MergedCounts();
    std::vector<int64_t> histogram(size_t{1} << n);
    for (const auto& [set, count] : merged) {
      histogram[set.Word(0)] = count;
    }
    std::vector<int64_t> table = histogram;
    ZetaTransform(table);
    for (uint64_t t = 0; t < table.size(); ++t) {
      ASSERT_EQ(table[t],
                testing::LhsFromMergedCounts(merged, LicenseSet::FromWord(t)))
          << "n = " << n;
    }
  }
}

// Against naive subset sums at every size the service and the grouped
// engine use, including the sizes below the 4-entry blocks: N = 0–14.
TEST(ZetaTransformTest, EqualsNaiveSubsetSums) {
  Rng rng(testing::TestSeed(0x2E7A));
  for (int n = 0; n <= 14; ++n) {
    std::vector<int64_t> counts(size_t{1} << n);
    for (int64_t& count : counts) {
      count = rng.Bernoulli(0.3) ? 0 : rng.UniformInt(-1000, 1000);
    }
    std::vector<int64_t> table = counts;
    ZetaTransform(table);
    for (size_t t = 0; t < table.size(); ++t) {
      int64_t want = 0;
      for (size_t sub = t;; sub = (sub - 1) & t) {
        want += counts[sub];
        if (sub == 0) {
          break;
        }
      }
      ASSERT_EQ(table[t], want) << "n = " << n << ", T = " << t;
    }
  }
}

// Every equation RHS A[T] against its members' naive sum, N = 0–14.
TEST(FillAggregateTableTest, EqualsNaiveSums) {
  Rng rng(testing::TestSeed(0xA66));
  for (int n = 0; n <= 14; ++n) {
    std::vector<int64_t> values(static_cast<size_t>(n));
    for (int64_t& value : values) {
      value = rng.UniformInt(0, int64_t{1} << 40);
    }
    std::vector<int64_t> table(size_t{1} << n, -1);
    FillAggregateTable(values, table);
    for (size_t t = 0; t < table.size(); ++t) {
      int64_t want = 0;
      for (int i = 0; i < n; ++i) {
        if ((t >> i) & 1) {
          want += values[static_cast<size_t>(i)];
        }
      }
      ASSERT_EQ(table[t], want) << "n = " << n << ", T = " << t;
    }
  }
}

}  // namespace
}  // namespace geolic
