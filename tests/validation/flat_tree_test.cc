#include "validation/flat_tree.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"
#include "validation/validation_tree.h"

namespace geolic {
namespace {

// Random tree over `n` licenses with `records` inserted sets.
ValidationTree RandomTree(Rng* rng, int n, int records) {
  ValidationTree tree;
  for (int r = 0; r < records; ++r) {
    const LicenseSet set =
        (LicenseSet::FromWord(rng->Next()) & LicenseSet::Full(n));
    if (set.Empty()) {
      continue;
    }
    EXPECT_TRUE(tree.Insert(set, rng->UniformInt(1, 50)).ok());
  }
  return tree;
}

TEST(FlatTreeTest, EmptyTree) {
  const ValidationTree tree;
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  EXPECT_EQ(flat.NodeCount(), 0u);
  EXPECT_EQ(flat.TotalCount(), 0);
  EXPECT_TRUE(flat.PresentLicenses().Empty());
  EXPECT_EQ(flat.SumSubsets(LicenseSet::Full(8)), 0);
  EXPECT_EQ(flat.SumSubsetsNoAccel(LicenseSet::Full(8)), 0);
  EXPECT_EQ(flat.CountOf(testing::Mask(0b101)), 0);
  int calls = 0;
  flat.ForEachSet([&calls](LicenseSet, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(FlatTreeTest, SingleLicense) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b1), 7).ok());
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  EXPECT_EQ(flat.NodeCount(), 1u);
  EXPECT_EQ(flat.TotalCount(), 7);
  EXPECT_EQ(flat.PresentLicenses(), testing::Mask(0b1));
  EXPECT_EQ(flat.CountOf(testing::Mask(0b1)), 7);
  EXPECT_EQ(flat.CountOf(testing::Mask(0b10)), 0);
  EXPECT_EQ(flat.SumSubsets(testing::Mask(0b1)), 7);
  EXPECT_EQ(flat.SumSubsets(testing::Mask(0b10)), 0);
  EXPECT_EQ(flat.SumSubsets(testing::Mask(0b11)), 7);
  EXPECT_GT(flat.MemoryBytes(), 0u);
}

TEST(FlatTreeTest, PaperExampleMatchesPointerTree) {
  // The paper's running example log (table 1 shape).
  ValidationTree tree;
  const std::vector<std::pair<LicenseSet, int64_t>> records = {
      {testing::Mask(0b0001), 100}, {testing::Mask(0b0011), 50}, {testing::Mask(0b0111), 25}, {testing::Mask(0b0010), 80},
      {testing::Mask(0b0110), 40},  {testing::Mask(0b0100), 60}, {testing::Mask(0b1100), 30}, {testing::Mask(0b1000), 90},
  };
  for (const auto& [set, count] : records) {
    ASSERT_TRUE(tree.Insert(set, count).ok());
  }
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  EXPECT_EQ(flat.NodeCount(), tree.NodeCount());
  EXPECT_EQ(flat.TotalCount(), tree.TotalCount());
  EXPECT_EQ(flat.PresentLicenses(), tree.PresentLicenses());
  for (uint64_t word = 0; word <= 0b1111u; ++word) {
    const LicenseSet set = LicenseSet::FromWord(word);
    EXPECT_EQ(flat.SumSubsets(set), tree.SumSubsets(set)) << set;
    EXPECT_EQ(flat.SumSubsetsNoAccel(set), tree.SumSubsets(set)) << set;
    EXPECT_EQ(flat.CountOf(set), tree.CountOf(set)) << set;
  }
}

// The tentpole equivalence fuzz: over 1k random logs, the flat compile
// must agree with the pointer tree on every query surface.
TEST(FlatTreeTest, FuzzMatchesPointerTree) {
  Rng rng(testing::TestSeed(20260806));
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 16));
    const int records = static_cast<int>(rng.UniformInt(0, 40));
    const ValidationTree tree = RandomTree(&rng, n, records);
    const FlatValidationTree flat = FlatValidationTree::Compile(tree);

    ASSERT_EQ(flat.NodeCount(), tree.NodeCount());
    ASSERT_EQ(flat.TotalCount(), tree.TotalCount());
    ASSERT_EQ(flat.PresentLicenses(), tree.PresentLicenses());

    // Random query masks, deliberately allowed to spill beyond the n
    // licenses actually present.
    for (int q = 0; q < 16; ++q) {
      const LicenseSet set =
          LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(std::min(n + 2, 16));
      ASSERT_EQ(flat.SumSubsets(set), tree.SumSubsets(set))
          << "trial " << trial << " set " << (set).ToString();
      ASSERT_EQ(flat.SumSubsetsNoAccel(set), tree.SumSubsets(set))
          << "trial " << trial << " set " << (set).ToString();
      ASSERT_EQ(flat.CountOf(set), tree.CountOf(set))
          << "trial " << trial << " set " << (set).ToString();
    }
  }
}

TEST(FlatTreeTest, FuzzMatchesMergedCountsReference) {
  // Independent oracle: LHS from merged log counts, not the pointer tree.
  Rng rng(testing::TestSeed(77));
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    ValidationTree tree;
    std::unordered_map<LicenseSet, int64_t> merged;
    for (int r = 0; r < 30; ++r) {
      const LicenseSet set =
          LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n);
      if (set.Empty()) {
        continue;
      }
      const int64_t count = rng.UniformInt(1, 9);
      ASSERT_TRUE(tree.Insert(set, count).ok());
      merged[set] += count;
    }
    const FlatValidationTree flat = FlatValidationTree::Compile(tree);
    for (int q = 0; q < 32; ++q) {
      const LicenseSet set =
          LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n);
      ASSERT_EQ(flat.SumSubsets(set),
                testing::LhsFromMergedCounts(merged, set));
    }
  }
}

TEST(FlatTreeTest, BatchMatchesScalar) {
  Rng rng(testing::TestSeed(11));
  const ValidationTree tree = RandomTree(&rng, 12, 200);
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  std::vector<LicenseSet> sets;
  for (int i = 0; i < 300; ++i) {
    sets.push_back(LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(12));
  }
  std::vector<int64_t> sums(sets.size(), -1);
  uint64_t batch_nodes = 0;
  flat.SumSubsetsBatch(sets, sums, &batch_nodes);
  uint64_t scalar_nodes = 0;
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sums[i], flat.SumSubsets(sets[i], &scalar_nodes)) << i;
  }
  EXPECT_EQ(batch_nodes, scalar_nodes);
}

TEST(FlatTreeTest, ForEachSetMatchesPointerTree) {
  Rng rng(testing::TestSeed(5));
  const ValidationTree tree = RandomTree(&rng, 14, 300);
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  std::vector<std::pair<LicenseSet, int64_t>> from_tree;
  std::vector<std::pair<LicenseSet, int64_t>> from_flat;
  tree.ForEachSet([&from_tree](LicenseSet set, int64_t count) {
    from_tree.emplace_back(set, count);
  });
  flat.ForEachSet([&from_flat](LicenseSet set, int64_t count) {
    from_flat.emplace_back(set, count);
  });
  EXPECT_EQ(from_tree, from_flat);  // Same preorder, same values.
}

TEST(FlatTreeTest, CoveredSubtreePruningTouchesFewerNodes) {
  Rng rng(testing::TestSeed(13));
  const ValidationTree tree = RandomTree(&rng, 16, 2000);
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  // On the full set every top-level subtree is wholly covered, so the
  // pruned scan touches exactly the top-level slots while the pointer
  // descent visits every node — the figure-7 dense-overlap win.
  uint64_t full_pointer = 0;
  uint64_t full_flat = 0;
  const int64_t pointer_sum = tree.SumSubsets(LicenseSet::Full(16), &full_pointer);
  const int64_t flat_sum = flat.SumSubsets(LicenseSet::Full(16), &full_flat);
  EXPECT_EQ(flat_sum, pointer_sum);
  EXPECT_LT(full_flat, full_pointer);
  // And the no-accelerator scan touches at least one slot per node-skip
  // decision; it must agree on the sum regardless.
  EXPECT_EQ(flat.SumSubsetsNoAccel(LicenseSet::Full(16)), pointer_sum);
}

TEST(FlatTreeTest, CompileIsASnapshot) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b11), 5).ok());
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  ASSERT_TRUE(tree.Insert(testing::Mask(0b11), 5).ok());  // Mutate after compile.
  EXPECT_EQ(flat.SumSubsets(testing::Mask(0b11)), 5);     // Snapshot unchanged.
  EXPECT_EQ(tree.SumSubsets(testing::Mask(0b11)), 10);
}

}  // namespace
}  // namespace geolic
