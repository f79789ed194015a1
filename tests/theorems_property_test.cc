// Randomised property tests for the paper's formal results, on arbitrary
// generated geometry (not just the worked examples):
//
//   Theorem 1    — no common overlap region ⇒ C[S] ≡ 0 in any honest log.
//   Corollary 1.1 — sets mixing licenses from non-overlapping groups have
//                  zero counts, hence never appear in logs or trees.
//   Theorem 2    — the equation of a group-mixing set is the sum of its
//                  per-group restrictions (LHS and RHS).
//   Section 4.1  — no validation-tree branch crosses groups.
#include <gtest/gtest.h>

#include "core/grouping.h"
#include "core/instance_validator.h"
#include "licensing/license_catalog.h"
#include "test_util.h"
#include "validation/validation_tree.h"
#include "workload/workload.h"

namespace geolic {
namespace {

struct GeneratedCase {
  std::unique_ptr<Workload> workload;
  LicenseGrouping grouping;
  ValidationTree tree;
};

GeneratedCase Generate(int n, uint64_t seed) {
  WorkloadConfig config = PaperSweepConfig(n, seed);
  config.num_records = 800;
  Result<Workload> workload = WorkloadGenerator(config).Generate();
  GEOLIC_CHECK(workload.ok());
  GeneratedCase out{std::make_unique<Workload>(*std::move(workload)),
                    LicenseGrouping::FromGroupOf({}),
                    ValidationTree()};
  out.grouping = LicenseGrouping::FromLicenses(*out.workload->licenses);
  Result<ValidationTree> tree =
      ValidationTree::BuildFromLog(out.workload->log);
  GEOLIC_CHECK(tree.ok());
  out.tree = *std::move(tree);
  return out;
}

class TheoremsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TheoremsPropertyTest, Theorem1NoCommonRegionMeansZeroCount) {
  const int n = GetParam();
  GeneratedCase generated =
      Generate(n, testing::TestSeed(1000) + static_cast<uint64_t>(n));
  Rng rng(testing::TestSeed(5) + static_cast<uint64_t>(n));
  const auto merged = generated.workload->log.MergedCounts();
  for (int trial = 0; trial < 500; ++trial) {
    LicenseSet set = LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n);
    if (set.Empty()) {
      continue;
    }
    std::vector<HyperRect> rects;
    for (int index : (set).ToIndexes()) {
      rects.push_back(generated.workload->licenses->at(index).rect());
    }
    const Result<HyperRect> region = HyperRect::CommonRegion(rects);
    ASSERT_TRUE(region.ok());
    if (region->IsEmpty()) {
      // Theorem 1: this exact set can never be logged.
      EXPECT_EQ(merged.find(set), merged.end()) << (set).ToString();
      EXPECT_EQ(generated.tree.CountOf(set), 0);
    } else if (merged.contains(set)) {
      EXPECT_GT(merged.at(set), 0);
    }
  }
}

TEST_P(TheoremsPropertyTest, Corollary11GroupMixingSetsNeverLogged) {
  const int n = GetParam();
  GeneratedCase generated =
      Generate(n, testing::TestSeed(2000) + static_cast<uint64_t>(n));
  if (generated.grouping.group_count() < 2) {
    GTEST_SKIP() << "workload produced a single group";
  }
  for (const auto& [set, count] : generated.workload->log.MergedCounts()) {
    const int group = generated.grouping.GroupOf((set).Lowest());
    EXPECT_TRUE(set.IsSubsetOf(generated.grouping.GroupMask(group)))
        << "logged set " << (set).ToString() << " mixes groups";
  }
}

TEST_P(TheoremsPropertyTest, Theorem2EquationDecomposesAcrossGroups) {
  const int n = GetParam();
  GeneratedCase generated =
      Generate(n, testing::TestSeed(3000) + static_cast<uint64_t>(n));
  const LicenseGrouping& grouping = generated.grouping;
  Rng rng(testing::TestSeed(17) + static_cast<uint64_t>(n));
  for (int trial = 0; trial < 300; ++trial) {
    const LicenseSet s =
        LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n);
    if (s.Empty()) {
      continue;
    }
    // Split S into its per-group restrictions S_k = S ∩ G_k.
    int64_t lhs_sum = 0;
    int64_t rhs_sum = 0;
    for (int k = 0; k < grouping.group_count(); ++k) {
      const LicenseSet restricted = s & grouping.GroupMask(k);
      if (restricted.Empty()) {
        continue;
      }
      lhs_sum += generated.tree.SumSubsets(restricted);
      rhs_sum += generated.workload->licenses->AggregateSum(restricted);
    }
    // Theorem 2: C⟨S⟩ = Σ C⟨S_k⟩ and A[S] = Σ A[S_k].
    EXPECT_EQ(generated.tree.SumSubsets(s), lhs_sum) << (s).ToString();
    EXPECT_EQ(generated.workload->licenses->AggregateSum(s), rhs_sum);
  }
}

TEST_P(TheoremsPropertyTest, Section41NoBranchCrossesGroups) {
  const int n = GetParam();
  GeneratedCase generated =
      Generate(n, testing::TestSeed(4000) + static_cast<uint64_t>(n));
  const LicenseGrouping& grouping = generated.grouping;
  // Every node's path-set (reported by ForEachSet plus implied prefixes)
  // stays within one group. ForEachSet only reports counted nodes; prefix
  // sets are subsets of those, so checking counted sets suffices.
  generated.tree.ForEachSet([&](LicenseSet set, int64_t count) {
    EXPECT_GT(count, 0);
    const int group = grouping.GroupOf((set).Lowest());
    EXPECT_TRUE(set.IsSubsetOf(grouping.GroupMask(group)))
        << (set).ToString();
  });
}

TEST_P(TheoremsPropertyTest, SatisfyingSetsAreAlwaysPairwiseOverlapping) {
  // Foundation for "S always lies in one group": all licenses containing
  // the same usage rectangle mutually overlap (they share that region).
  const int n = GetParam();
  WorkloadConfig config = PaperSweepConfig(n, testing::TestSeed(5000));
  config.num_records = 0;
  WorkloadGenerator generator(config);
  Result<Workload> workload = generator.GenerateLicensesOnly();
  ASSERT_TRUE(workload.ok());
  const SoaInstanceValidator validator(workload->licenses.get());
  Rng rng(testing::TestSeed(23));
  for (int trial = 0; trial < 200; ++trial) {
    const int parent = static_cast<int>(
        rng.UniformInt(0, workload->licenses->size() - 1));
    const License usage =
        generator.DrawUsageLicense(*workload, parent, &rng, trial);
    const LicenseSet set = validator.SatisfyingSet(usage);
    const std::vector<int> members = (set).ToIndexes();
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        EXPECT_TRUE(workload->licenses->at(members[i])
                        .OverlapsWith(workload->licenses->at(members[j])));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LicenseCounts, TheoremsPropertyTest,
                         ::testing::Values(5, 10, 18, 26, 35));

}  // namespace
}  // namespace geolic
