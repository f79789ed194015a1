#include "bench/frequency_order.h"

#include <algorithm>

#include <gtest/gtest.h>

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

TEST(LicensePermutationTest, IdentityByDefault) {
  LicensePermutation permutation(5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(permutation.ToNew(i), i);
    EXPECT_EQ(permutation.ToOld(i), i);
  }
  EXPECT_EQ(permutation.MapMask(testing::Mask(0b10110)), testing::Mask(0b10110));
  EXPECT_EQ(permutation.UnmapMask(testing::Mask(0b10110)), testing::Mask(0b10110));
}

TEST(LicensePermutationTest, OrdersByFrequencyDescending) {
  LogStore log;
  // L3 appears 3×, L1 2×, L2 1×.
  ASSERT_TRUE(log.Append(LogRecord{"a", testing::Mask(0b101), 1}).ok());
  ASSERT_TRUE(log.Append(LogRecord{"b", testing::Mask(0b100), 1}).ok());
  ASSERT_TRUE(log.Append(LogRecord{"c", testing::Mask(0b111), 1}).ok());
  const Result<LicensePermutation> permutation =
      LicensePermutation::ByDescendingFrequency(log, 3);
  ASSERT_TRUE(permutation.ok());
  EXPECT_EQ(permutation->ToNew(2), 0);  // L3 hottest.
  EXPECT_EQ(permutation->ToNew(0), 1);  // L1 next.
  EXPECT_EQ(permutation->ToNew(1), 2);  // L2 coldest.
  EXPECT_EQ(permutation->ToOld(0), 2);
}

TEST(LicensePermutationTest, TiesBreakByOriginalIndex) {
  LogStore log;
  ASSERT_TRUE(log.Append(LogRecord{"a", testing::Mask(0b11), 1}).ok());
  const Result<LicensePermutation> permutation =
      LicensePermutation::ByDescendingFrequency(log, 3);
  ASSERT_TRUE(permutation.ok());
  EXPECT_EQ(permutation->ToNew(0), 0);
  EXPECT_EQ(permutation->ToNew(1), 1);
  EXPECT_EQ(permutation->ToNew(2), 2);  // Unseen license stays last.
}

TEST(LicensePermutationTest, RejectsOutOfRangeLogRecords) {
  // A record mentioning license index 4 cannot relabel a 3-license domain:
  // silently dropping it (the old behavior) would undercount frequencies
  // and send downstream MapMask into out-of-range array reads.
  LogStore log;
  ASSERT_TRUE(log.Append(LogRecord{"a", testing::Mask(0b011), 1}).ok());
  ASSERT_TRUE(log.Append(LogRecord{"b", testing::Mask(0b10001), 1}).ok());
  const Result<LicensePermutation> permutation =
      LicensePermutation::ByDescendingFrequency(log, 3);
  ASSERT_FALSE(permutation.ok());
  EXPECT_EQ(permutation.status().code(), StatusCode::kInvalidArgument);
}

TEST(LicensePermutationTest, MaskRoundTrip) {
  LogStore log;
  ASSERT_TRUE(log.Append(LogRecord{"a", testing::Mask(0b10000), 1}).ok());
  const Result<LicensePermutation> permutation =
      LicensePermutation::ByDescendingFrequency(log, 5);
  ASSERT_TRUE(permutation.ok());
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const LicenseSet mask =
        LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(5);
    EXPECT_EQ(permutation->UnmapMask(permutation->MapMask(mask)), mask);
    EXPECT_EQ(permutation->MapMask(mask).Size(), (mask).Size());
  }
}

TEST(LicensePermutationTest, MapValuesReorders) {
  LogStore log;
  ASSERT_TRUE(log.Append(LogRecord{"a", testing::Mask(0b100), 1}).ok());  // L3 hottest.
  const Result<LicensePermutation> permutation =
      LicensePermutation::ByDescendingFrequency(log, 3);
  ASSERT_TRUE(permutation.ok());
  // Aggregates (10, 20, 30) in original order → relabeled order starts
  // with L3's 30.
  EXPECT_EQ(permutation->MapValues({10, 20, 30}),
            (std::vector<int64_t>{30, 10, 20}));
}

TEST(FrequencyOrderedValidationTest, MatchesPlainOrdering) {
  for (uint64_t seed : {41u, 42u}) {
    WorkloadConfig config = PaperSweepConfig(12, seed);
    config.num_records = 800;
    config.aggregate_min = 50;
    config.aggregate_max = 500;
    Result<Workload> workload = WorkloadGenerator(config).Generate();
    ASSERT_TRUE(workload.ok());
    const std::vector<int64_t> aggregates =
        workload->licenses->AggregateCounts();

    const Result<ValidationTree> plain_tree =
        ValidationTree::BuildFromLog(workload->log);
    ASSERT_TRUE(plain_tree.ok());
    const Result<ValidationReport> plain =
        RunExhaustive(*plain_tree, aggregates);
    ASSERT_TRUE(plain.ok());

    // Validate in relabeled space, then translate violation sets back.
    const Result<LicensePermutation> permutation =
        LicensePermutation::ByDescendingFrequency(workload->log, 12);
    ASSERT_TRUE(permutation.ok());
    const Result<ValidationTree> ordered_tree =
        BuildFrequencyOrderedTree(workload->log, *permutation);
    ASSERT_TRUE(ordered_tree.ok());
    const Result<ValidationReport> ordered =
        RunExhaustive(*ordered_tree, permutation->MapValues(aggregates));
    ASSERT_TRUE(ordered.ok());
    EXPECT_EQ(ordered->equations_evaluated, plain->equations_evaluated);

    // Same violation multisets (order differs: relabeled enumeration).
    auto key = [](const EquationResult& e) { return e.set; };
    std::vector<EquationResult> a = plain->violations;
    std::vector<EquationResult> b = ordered->violations;
    for (EquationResult& violation : b) {
      violation.set = permutation->UnmapMask(violation.set);
    }
    ASSERT_EQ(a.size(), b.size());
    std::sort(a.begin(), a.end(), [&](const auto& x, const auto& y) {
      return key(x) < key(y);
    });
    std::sort(b.begin(), b.end(), [&](const auto& x, const auto& y) {
      return key(x) < key(y);
    });
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].set, b[i].set);
      EXPECT_EQ(a[i].lhs, b[i].lhs);
      EXPECT_EQ(a[i].rhs, b[i].rhs);
    }
  }
}

TEST(FrequencyOrderedValidationTest, TreeNeverLargerThanIndexOrder) {
  // The point of frequency ordering: hot licenses near the root share
  // prefixes, so the tree has at most as many nodes on skewed logs.
  Rng rng(515);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 12;
    LogStore log;
    // Skewed: license n−1 (cold index, hot in reality) is in every set.
    for (int r = 0; r < 300; ++r) {
      LicenseSet set = LicenseSet::Singleton(n - 1);
      for (int j = 0; j + 1 < n; ++j) {
        if (rng.Bernoulli(0.15)) {
          set |= LicenseSet::Singleton(j);
        }
      }
      ASSERT_TRUE(log.Append(LogRecord{"", set, 1}).ok());
    }
    const Result<ValidationTree> plain = ValidationTree::BuildFromLog(log);
    ASSERT_TRUE(plain.ok());
    const Result<LicensePermutation> permutation =
        LicensePermutation::ByDescendingFrequency(log, n);
    ASSERT_TRUE(permutation.ok());
    const Result<ValidationTree> ordered =
        BuildFrequencyOrderedTree(log, *permutation);
    ASSERT_TRUE(ordered.ok());
    ASSERT_TRUE(ordered->CheckInvariants().ok());
    EXPECT_LE(ordered->NodeCount(), plain->NodeCount());
    EXPECT_EQ(ordered->TotalCount(), plain->TotalCount());
  }
}

}  // namespace
}  // namespace geolic
