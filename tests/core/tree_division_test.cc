#include "core/tree_division.h"

#include <gtest/gtest.h>

#include "validation/validate.h"
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

// Components {L1, L2, L4} and {L3, L5} (the paper's figure 2 groups).
LicenseGrouping PaperGrouping() {
  ComponentSet components;
  components.components = {testing::Mask(0b01011), testing::Mask(0b10100)};
  components.component_of = {0, 0, 1, 0, 1};
  return LicenseGrouping::FromGroupOf(std::move(components.component_of));
}

// The paper's figure 1 validation tree.
ValidationTree PaperTree() {
  ValidationTree tree;
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b00011), 840).ok());
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b00010), 400).ok());
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b01011), 30).ok());
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b10100), 800).ok());
  GEOLIC_CHECK(tree.Insert(testing::Mask(0b10000), 20).ok());
  return tree;
}

TEST(TreeDivisionTest, DividesPaperTreeIntoFigure4) {
  const LicenseGrouping grouping = PaperGrouping();
  const Result<std::vector<ValidationTree>> parts =
      DivideValidationTree(PaperTree(), grouping);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 2u);

  // First tree: branches L1→L2(840)→L4(30) and L2(400); still original
  // indexes (figure 4, before modification).
  const ValidationTree& first = (*parts)[0];
  EXPECT_EQ(first.CountOf(testing::Mask(0b00011)), 840);
  EXPECT_EQ(first.CountOf(testing::Mask(0b00010)), 400);
  EXPECT_EQ(first.CountOf(testing::Mask(0b01011)), 30);
  EXPECT_EQ(first.NodeCount(), 4u);
  EXPECT_TRUE(testing::TreeInvariantsHold(first));

  // Second tree: L3→L5(800) and L5(20).
  const ValidationTree& second = (*parts)[1];
  EXPECT_EQ(second.CountOf(testing::Mask(0b10100)), 800);
  EXPECT_EQ(second.CountOf(testing::Mask(0b10000)), 20);
  EXPECT_EQ(second.NodeCount(), 3u);
  EXPECT_TRUE(testing::TreeInvariantsHold(second));
}

TEST(TreeDivisionTest, NoNodesCreatedOrLost) {
  // The paper's figure 10 claim: division creates no nodes beyond the g
  // roots, so total node count is preserved.
  ValidationTree original = PaperTree();
  const size_t original_nodes = original.NodeCount();
  const int64_t original_total = original.TotalCount();
  const Result<std::vector<ValidationTree>> parts =
      DivideValidationTree(std::move(original), PaperGrouping());
  ASSERT_TRUE(parts.ok());
  size_t total_nodes = 0;
  int64_t total_count = 0;
  for (const ValidationTree& part : *parts) {
    total_nodes += part.NodeCount();
    total_count += part.TotalCount();
  }
  EXPECT_EQ(total_nodes, original_nodes);
  EXPECT_EQ(total_count, original_total);
}

TEST(TreeDivisionTest, ReindexProducesFigure5) {
  const LicenseGrouping grouping = PaperGrouping();
  Result<std::vector<ValidationTree>> parts =
      DivideValidationTree(PaperTree(), grouping);
  ASSERT_TRUE(parts.ok());
  ASSERT_TRUE(ReindexTree(grouping, 1, &(*parts)[1]).ok());
  // Figure 5: indexes 3 and 5 become 1 and 2 (0-based 0 and 1 here).
  const ValidationTree& second = (*parts)[1];
  EXPECT_EQ(second.CountOf(testing::Mask(0b01)), 0);    // L3 → local L1, prefix node.
  EXPECT_EQ(second.CountOf(testing::Mask(0b11)), 800);  // {L3,L5} → local {L1,L2}.
  EXPECT_EQ(second.CountOf(testing::Mask(0b10)), 20);   // {L5} → local {L2}.
  EXPECT_TRUE(testing::TreeInvariantsHold(second));
}

TEST(TreeDivisionTest, DivideAndReindexProducesValidatableParts) {
  const LicenseGrouping grouping = PaperGrouping();
  const std::vector<int64_t> aggregates = {2000, 1000, 3000, 4000, 2000};
  const Result<DividedTrees> divided =
      DivideAndReindex(PaperTree(), grouping, aggregates);
  ASSERT_TRUE(divided.ok());
  ASSERT_EQ(divided->trees.size(), 2u);
  EXPECT_EQ(divided->aggregates[0], (std::vector<int64_t>{2000, 1000, 4000}));
  EXPECT_EQ(divided->aggregates[1], (std::vector<int64_t>{3000, 2000}));

  // Each (tree, A_k) pair plugs into Algorithm 2.
  const Result<ValidationReport> first =
      RunExhaustive(divided->trees[0], divided->aggregates[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->equations_evaluated, 7u);  // 2^3 - 1.
  EXPECT_TRUE(first->all_valid());
  const Result<ValidationReport> second =
      RunExhaustive(divided->trees[1], divided->aggregates[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->equations_evaluated, 3u);  // 2^2 - 1.
  EXPECT_TRUE(second->all_valid());
}

TEST(TreeDivisionTest, RejectsBranchSpanningGroups) {
  // A log set {L1, L3} crosses the two groups — impossible for honest logs
  // (Theorem 1) and rejected by division.
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b00101), 10).ok());
  const Result<std::vector<ValidationTree>> parts =
      DivideValidationTree(std::move(tree), PaperGrouping());
  ASSERT_FALSE(parts.ok());
  EXPECT_EQ(parts.status().code(), StatusCode::kInternal);
}

TEST(TreeDivisionTest, RejectsUnknownLicenseIndex) {
  // The second tree puts good branches before the bad one: division must
  // check every branch before it moves any, or the rejected tree is left
  // with null children for its destructor.
  for (const std::vector<uint64_t>& masks :
       {std::vector<uint64_t>{}, std::vector<uint64_t>{0b00011, 0b00100}}) {
    ValidationTree tree;
    for (uint64_t mask : masks) {
      ASSERT_TRUE(tree.Insert(testing::Mask(mask), 10).ok());
    }
    ASSERT_TRUE(tree.Insert(LicenseSet::Singleton(9), 10).ok());
    const Result<std::vector<ValidationTree>> parts =
        DivideValidationTree(std::move(tree), PaperGrouping());
    EXPECT_FALSE(parts.ok());
  }
}

TEST(TreeDivisionTest, EmptyTreeDividesIntoEmptyParts) {
  const Result<std::vector<ValidationTree>> parts =
      DivideValidationTree(ValidationTree(), PaperGrouping());
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 2u);
  EXPECT_EQ((*parts)[0].NodeCount(), 0u);
  EXPECT_EQ((*parts)[1].NodeCount(), 0u);
}

TEST(TreeDivisionTest, ReindexRejectsBadGroupIndex) {
  ValidationTree tree;
  EXPECT_FALSE(ReindexTree(PaperGrouping(), 9, &tree).ok());
  EXPECT_FALSE(ReindexTree(PaperGrouping(), -1, &tree).ok());
}

// Property: on random logs consistent with a random grouping, division +
// reindex preserves every per-group equation LHS.
TEST(TreeDivisionPropertyTest, LhsPreservedUnderDivision) {
  Rng rng(31337);
  for (int trial = 0; trial < 30; ++trial) {
    // Random partition of 12 licenses into 1..4 groups.
    const int n = 12;
    const int g = static_cast<int>(rng.UniformInt(1, 4));
    ComponentSet components;
    components.component_of.resize(n);
    components.components.assign(static_cast<size_t>(g), LicenseSet());
    // Ensure group k is entered at its smallest vertex in ascending order:
    // assign randomly then renumber by smallest member.
    std::vector<int> assignment(n);
    for (int v = 0; v < n; ++v) {
      assignment[static_cast<size_t>(v)] =
          static_cast<int>(rng.UniformInt(0, g - 1));
    }
    std::vector<int> renumber(static_cast<size_t>(g), -1);
    int next = 0;
    for (int v = 0; v < n; ++v) {
      int& target = renumber[static_cast<size_t>(
          assignment[static_cast<size_t>(v)])];
      if (target == -1) {
        target = next++;
      }
    }
    components.components.assign(static_cast<size_t>(next), LicenseSet());
    for (int v = 0; v < n; ++v) {
      const int k = renumber[static_cast<size_t>(
          assignment[static_cast<size_t>(v)])];
      components.component_of[static_cast<size_t>(v)] = k;
      components.components[static_cast<size_t>(k)] |= LicenseSet::Singleton(v);
    }
    const LicenseGrouping grouping =
        LicenseGrouping::FromGroupOf(components.component_of);

    // Random log: every record's set stays within one group.
    ValidationTree tree;
    LogStore store;
    for (int r = 0; r < 200; ++r) {
      const int k = static_cast<int>(
          rng.UniformInt(0, grouping.group_count() - 1));
      const LicenseSet group_mask = grouping.GroupMask(k);
      LicenseSet set = LicenseSet::FromWord(rng.Next()) & group_mask;
      if (set.Empty()) {
        set = LicenseSet::Singleton((group_mask).Lowest());
      }
      const int64_t count = rng.UniformInt(1, 30);
      ASSERT_TRUE(tree.Insert(set, count).ok());
      ASSERT_TRUE(store.Append(LogRecord{"", set, count}).ok());
    }

    std::vector<int64_t> aggregates(static_cast<size_t>(n), 1000);
    const Result<DividedTrees> divided =
        DivideAndReindex(std::move(tree), grouping, aggregates);
    ASSERT_TRUE(divided.ok());

    const auto merged = store.MergedCounts();
    for (int k = 0; k < grouping.group_count(); ++k) {
      const ValidationTree& part =
          divided->trees[static_cast<size_t>(k)];
      ASSERT_TRUE(testing::TreeInvariantsHold(part));
      // For every subset of the group's local mask, the divided tree's LHS
      // equals the brute-force LHS over original-index merged counts.
      const int nk = grouping.GroupSize(k);
      for (uint64_t local_word = 1;
           local_word <= ((uint64_t{1} << nk) - 1); ++local_word) {
        const LicenseSet local = LicenseSet::FromWord(local_word);
        const LicenseSet original =
            grouping.LocalToOriginalMask(k, local);
        EXPECT_EQ(part.SumSubsets(local),
                  testing::LhsFromMergedCounts(merged, original));
      }
    }
  }
}

}  // namespace
}  // namespace geolic
