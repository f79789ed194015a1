#include "validation/validation_tree.h"

#include <memory>
#include <unordered_map>

#include <gtest/gtest.h>

#include "util/random.h"

#include "test_util.h"

namespace geolic {
namespace {

// The paper's Table 2 log (0-based masks).
LogStore PaperLog() {
  LogStore store;
  struct Row {
    const char* id;
    uint64_t mask;
    int64_t count;
  };
  const Row kRows[] = {
      {"LU1", 0b00011, 800}, {"LU2", 0b00010, 400}, {"LU3", 0b00011, 40},
      {"LU4", 0b01011, 30},  {"LU5", 0b10100, 800}, {"LU6", 0b10000, 20},
  };
  for (const Row& row : kRows) {
    LogRecord record;
    record.issued_license_id = row.id;
    record.set = LicenseSet::FromWord(row.mask);
    record.count = row.count;
    GEOLIC_CHECK(store.Append(std::move(record)).ok());
  }
  return store;
}

TEST(ValidationTreeTest, EmptyTree) {
  ValidationTree tree;
  EXPECT_EQ(tree.NodeCount(), 0u);
  EXPECT_EQ(tree.TotalCount(), 0);
  EXPECT_EQ(tree.SumSubsets(LicenseSet::Full(10)), 0);
  EXPECT_TRUE(tree.PresentLicenses().Empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(ValidationTreeTest, InsertRejectsEmptySetAndBadCount) {
  ValidationTree tree;
  EXPECT_FALSE(tree.Insert(testing::Mask(0), 10).ok());
  EXPECT_FALSE(tree.Insert(testing::Mask(0b1), 0).ok());
  EXPECT_FALSE(tree.Insert(testing::Mask(0b1), -3).ok());
}

TEST(ValidationTreeTest, InsertAccumulatesCounts) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b11), 800).ok());
  ASSERT_TRUE(tree.Insert(testing::Mask(0b11), 40).ok());
  EXPECT_EQ(tree.CountOf(testing::Mask(0b11)), 840);
  EXPECT_EQ(tree.CountOf(testing::Mask(0b01)), 0);   // Prefix node exists, count 0.
  EXPECT_EQ(tree.CountOf(testing::Mask(0b10)), 0);   // Absent set.
  EXPECT_EQ(tree.NodeCount(), 2u);    // L1 → L2 chain, no duplicates.
}

TEST(ValidationTreeTest, BuildsPaperFigure1Tree) {
  const Result<ValidationTree> tree = ValidationTree::BuildFromLog(PaperLog());
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());

  // Figure 1: counts 840 ({L1,L2}), 400 ({L2}), 30 ({L1,L2,L4}),
  // 800 ({L3,L5}), 20 ({L5}).
  EXPECT_EQ(tree->CountOf(testing::Mask(0b00011)), 840);
  EXPECT_EQ(tree->CountOf(testing::Mask(0b00010)), 400);
  EXPECT_EQ(tree->CountOf(testing::Mask(0b01011)), 30);
  EXPECT_EQ(tree->CountOf(testing::Mask(0b10100)), 800);
  EXPECT_EQ(tree->CountOf(testing::Mask(0b10000)), 20);
  // Prefix nodes carry zero counts.
  EXPECT_EQ(tree->CountOf(testing::Mask(0b00001)), 0);
  EXPECT_EQ(tree->CountOf(testing::Mask(0b00100)), 0);

  // Tree shape: root children L1, L2, L3, L5; L1→L2→L4 chain; L3→L5.
  // Total nodes: L1, L1.L2, L1.L2.L4, L2, L3, L3.L5, L5 = 7.
  EXPECT_EQ(tree->NodeCount(), 7u);
  EXPECT_EQ(tree->TotalCount(), 2090);
  EXPECT_EQ(tree->PresentLicenses(), testing::Mask(0b11111));
}

TEST(ValidationTreeTest, ToStringRendersFigure1) {
  const Result<ValidationTree> tree = ValidationTree::BuildFromLog(PaperLog());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->ToString(),
            "L1:0\n"
            "  L2:840\n"
            "    L4:30\n"
            "L2:400\n"
            "L3:0\n"
            "  L5:800\n"
            "L5:20\n");
}

TEST(ValidationTreeTest, SumSubsetsMatchesPaperEquationExamples) {
  const Result<ValidationTree> tree = ValidationTree::BuildFromLog(PaperLog());
  ASSERT_TRUE(tree.ok());
  // C⟨{L1,L2}⟩ = C[{L1}] + C[{L2}] + C[{L1,L2}] = 0 + 400 + 840 = 1240.
  EXPECT_EQ(tree->SumSubsets(testing::Mask(0b00011)), 1240);
  // C⟨{L2}⟩ = 400.
  EXPECT_EQ(tree->SumSubsets(testing::Mask(0b00010)), 400);
  // C⟨{L1,L2,L4}⟩ adds the 30.
  EXPECT_EQ(tree->SumSubsets(testing::Mask(0b01011)), 1270);
  // C⟨{L3,L5}⟩ = 800 + 20.
  EXPECT_EQ(tree->SumSubsets(testing::Mask(0b10100)), 820);
  // Full set.
  EXPECT_EQ(tree->SumSubsets(testing::Mask(0b11111)), 2090);
  // A set missing L2 sees nothing from the {L1,L2} branch.
  EXPECT_EQ(tree->SumSubsets(testing::Mask(0b00001)), 0);
  EXPECT_EQ(tree->SumSubsets(testing::Mask(0b01001)), 0);
}

TEST(ValidationTreeTest, SumSubsetsReportsNodesVisited) {
  const Result<ValidationTree> tree = ValidationTree::BuildFromLog(PaperLog());
  ASSERT_TRUE(tree.ok());
  uint64_t visited = 0;
  tree->SumSubsets(testing::Mask(0b00011), &visited);
  // Visits L1, L1.L2, L2 (not L4, L3, L5 branches).
  EXPECT_EQ(visited, 3u);
  visited = 0;
  tree->SumSubsets(testing::Mask(0b11111), &visited);
  EXPECT_EQ(visited, tree->NodeCount());
}

TEST(ValidationTreeTest, ChildrenStayOrderedRegardlessOfInsertOrder) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(5), 1).ok());
  ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(1), 1).ok());
  ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(3), 1).ok());
  ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(0), 1).ok());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  const ValidationTreeNode& root = tree.root();
  ASSERT_EQ(root.children.size(), 4u);
  EXPECT_EQ(root.children[0]->index, 0);
  EXPECT_EQ(root.children[1]->index, 1);
  EXPECT_EQ(root.children[2]->index, 3);
  EXPECT_EQ(root.children[3]->index, 5);
}

TEST(ValidationTreeTest, HighIndexLicenses) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(63), 7).ok());
  ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(63) | LicenseSet::Singleton(0), 5).ok());
  EXPECT_EQ(tree.CountOf(LicenseSet::Singleton(63)), 7);
  EXPECT_EQ(tree.SumSubsets(LicenseSet::FromWord(~uint64_t{0})), 12);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(ValidationTreeTest, MemoryBytesGrowsWithNodes) {
  ValidationTree small;
  ASSERT_TRUE(small.Insert(testing::Mask(0b1), 1).ok());
  ValidationTree large;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(large.Insert(LicenseSet::Full(i % 10 + 1), 1).ok());
  }
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

TEST(ValidationTreeTest, MemoryBytesIncludesRootNode) {
  // The root is heap-allocated like every other node; an empty tree is one
  // node's payload, never zero. Pins the figure-10 accounting — division
  // grows storage by exactly one root payload per extra tree.
  const ValidationTree empty;
  EXPECT_EQ(empty.MemoryBytes(), sizeof(ValidationTreeNode));
  ValidationTree one;
  ASSERT_TRUE(one.Insert(testing::Mask(0b1), 1).ok());
  EXPECT_GE(one.MemoryBytes(),
            2 * sizeof(ValidationTreeNode) +
                sizeof(std::unique_ptr<ValidationTreeNode>));
}

// Property: for random logs, SumSubsets(S) computed by tree traversal
// equals the brute-force sum over merged counts, for many random S.
class TreeSumPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeSumPropertyTest, TraversalMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(9000 + static_cast<uint64_t>(n));
  LogStore store;
  for (int r = 0; r < 500; ++r) {
    LogRecord record;
    record.set =
        (LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n)) | LicenseSet::Singleton(
            static_cast<int>(rng.UniformInt(0, n - 1)));
    record.count = rng.UniformInt(1, 50);
    ASSERT_TRUE(store.Append(std::move(record)).ok());
  }
  const Result<ValidationTree> tree = ValidationTree::BuildFromLog(store);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_EQ(tree->TotalCount(), store.TotalCount());

  const auto merged = store.MergedCounts();
  for (int trial = 0; trial < 300; ++trial) {
    const LicenseSet set =
        LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(n);
    EXPECT_EQ(tree->SumSubsets(set),
              testing::LhsFromMergedCounts(merged, set))
        << "set=" << (set).ToString();
  }
  // Every stored set's exact count matches.
  for (const auto& [set, count] : merged) {
    EXPECT_EQ(tree->CountOf(set), count);
  }
}

INSTANTIATE_TEST_SUITE_P(LicenseCounts, TreeSumPropertyTest,
                         ::testing::Values(1, 2, 5, 10, 20, 40, 64));

// A chain of `depth` single-child nodes below the root. Built without
// Insert, so the depth is not bounded by the license count.
ValidationTree DeepChain(int depth) {
  ValidationTree tree;
  ValidationTreeNode* node = tree.mutable_root();
  for (int level = 0; level < depth; ++level) {
    auto child = std::make_unique<ValidationTreeNode>();
    child->index = level;
    child->count = 1;
    ValidationTreeNode* child_ptr = child.get();
    node->children.push_back(std::move(child));
    node = child_ptr;
  }
  return tree;
}

// Regression: the invariant checker, the counters and the destructor
// used to recurse once per level, and a ~100k-deep chain blew the stack.
TEST(ValidationTreeTest, HundredThousandDeepChainIsWalkedIteratively) {
  constexpr int kDepth = 100000;
  const ValidationTree chain = DeepChain(kDepth);
  EXPECT_EQ(chain.NodeCount(), static_cast<size_t>(kDepth));
  EXPECT_EQ(chain.TotalCount(), kDepth);
  EXPECT_TRUE(chain.CheckInvariants().ok());
}  // `chain` is destroyed here — teardown must be iterative too.

TEST(ValidationTreeTest, DeepChainMoveAssignTearsDownIteratively) {
  ValidationTree tree = DeepChain(100000);
  // Move-assign drops the old deep chain; the default member-wise
  // unique_ptr teardown would recurse per level.
  tree = DeepChain(3);
  EXPECT_EQ(tree.NodeCount(), 3u);
}

TEST(ValidationTreeTest, ForEachSetListsExactlyMergedCounts) {
  const Result<ValidationTree> tree = ValidationTree::BuildFromLog(PaperLog());
  ASSERT_TRUE(tree.ok());
  std::unordered_map<LicenseSet, int64_t> sets;
  tree->ForEachSet([&sets](LicenseSet set, int64_t count) {
    sets[set] = count;
  });
  EXPECT_EQ(sets.size(), 5u);
  EXPECT_EQ(sets.at(testing::Mask(0b00011)), 840);
  EXPECT_EQ(sets.at(testing::Mask(0b10000)), 20);
  // Prefix nodes with zero count (e.g. {L1}) are not reported.
  EXPECT_EQ(sets.find(testing::Mask(0b00001)), sets.end());
}

}  // namespace
}  // namespace geolic
