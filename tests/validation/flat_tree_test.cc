#include "validation/flat_tree.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "bench/flat_tree_reference.h"
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

// Random tree over `n` licenses, any width: each mask word is a sparse
// random word, so coverage and descent both occur.
ValidationTree RandomWideTree(Rng* rng, int n, int records) {
  ValidationTree tree;
  for (int r = 0; r < records; ++r) {
    LicenseSet set;
    for (int w = 0; w * 64 < n; ++w) {
      uint64_t word = rng->Next();
      if ((w + 1) * 64 > n) {
        word &= (uint64_t{1} << (n % 64)) - 1;
      }
      word &= rng->Next() & rng->Next();
      for (uint64_t bits = word; bits != 0; bits &= bits - 1) {
        set.Add(w * 64 + std::countr_zero(bits));
      }
    }
    if (set.Empty()) {
      continue;
    }
    EXPECT_TRUE(tree.Insert(set, rng->UniformInt(1, 50)).ok());
  }
  return tree;
}

// `count` random queries over `n` licenses; about 40% are dense, which
// drives the covered-subtree summarize.
std::vector<LicenseSet> RandomWideQueries(Rng* rng, int n, size_t count) {
  std::vector<LicenseSet> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    LicenseSet set;
    for (int w = 0; w * 64 < n; ++w) {
      uint64_t word = rng->Next();
      if ((w + 1) * 64 > n) {
        word &= (uint64_t{1} << (n % 64)) - 1;
      }
      if (rng->Bernoulli(0.4)) {
        word |= rng->Next();
      }
      for (uint64_t bits = word; bits != 0; bits &= bits - 1) {
        set.Add(w * 64 + std::countr_zero(bits));
      }
    }
    queries.push_back(set);
  }
  return queries;
}

// One equation through the batch scan: a batch of one.
int64_t SumOne(const FlatValidationTree& flat, const LicenseSet& set) {
  int64_t sum = -1;
  flat.SumSubsetsBatch({&set, 1}, {&sum, 1});
  return sum;
}

// The compile's (set, count) pairs, in preorder.
std::vector<std::pair<LicenseSet, int64_t>> SetsOf(const auto& tree) {
  std::vector<std::pair<LicenseSet, int64_t>> sets;
  tree.ForEachSet([&sets](const LicenseSet& set, int64_t count) {
    sets.emplace_back(set, count);
  });
  return sets;
}

TEST(FlatTreeTest, EmptyTree) {
  const ValidationTree tree;
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  EXPECT_EQ(flat.NodeCount(), 0u);
  EXPECT_EQ(flat.TotalCount(), 0);
  EXPECT_TRUE(flat.PresentLicenses().Empty());
  EXPECT_EQ(SumOne(flat, LicenseSet::Full(8)), 0);
  EXPECT_EQ(ReferenceSumSubsets(flat, LicenseSet::Full(8)), 0);
  EXPECT_EQ(ReferenceSumSubsetsNoAccel(flat, LicenseSet::Full(8)), 0);
  EXPECT_TRUE(SetsOf(flat).empty());
}

TEST(FlatTreeTest, SingleLicense) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b1), 7).ok());
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  EXPECT_EQ(flat.NodeCount(), 1u);
  EXPECT_EQ(flat.TotalCount(), 7);
  EXPECT_EQ(flat.PresentLicenses(), testing::Mask(0b1));
  EXPECT_EQ(SetsOf(flat), SetsOf(tree));
  EXPECT_EQ(SumOne(flat, testing::Mask(0b1)), 7);
  EXPECT_EQ(SumOne(flat, testing::Mask(0b10)), 0);
  EXPECT_EQ(SumOne(flat, testing::Mask(0b11)), 7);
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
  EXPECT_EQ(SetsOf(flat), SetsOf(tree));
  for (uint64_t word = 0; word <= 0b1111u; ++word) {
    const LicenseSet set = LicenseSet::FromWord(word);
    EXPECT_EQ(SumOne(flat, set), tree.SumSubsets(set)) << set;
    EXPECT_EQ(ReferenceSumSubsets(flat, set), tree.SumSubsets(set)) << set;
    EXPECT_EQ(ReferenceSumSubsetsNoAccel(flat, set), tree.SumSubsets(set))
        << set;
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
    ASSERT_EQ(SetsOf(flat), SetsOf(tree)) << "trial " << trial;

    // Random query masks, deliberately allowed to spill beyond the n
    // licenses actually present.
    std::vector<LicenseSet> sets;
    for (int q = 0; q < 16; ++q) {
      sets.push_back(LicenseSet::FromWord(rng.Next()) &
                     LicenseSet::Full(std::min(n + 2, 16)));
    }
    std::vector<int64_t> sums(sets.size());
    flat.SumSubsetsBatch(sets, sums);
    for (size_t q = 0; q < sets.size(); ++q) {
      const LicenseSet& set = sets[q];
      ASSERT_EQ(sums[q], tree.SumSubsets(set))
          << "trial " << trial << " set " << (set).ToString();
      ASSERT_EQ(ReferenceSumSubsets(flat, set), tree.SumSubsets(set))
          << "trial " << trial << " set " << (set).ToString();
      ASSERT_EQ(ReferenceSumSubsetsNoAccel(flat, set), tree.SumSubsets(set))
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
      ASSERT_EQ(SumOne(flat, set), testing::LhsFromMergedCounts(merged, set));
    }
  }
}

// The batch against the pointer tree (sums), the per-query pruned scan and
// the generic-width batch reference (sums and nodes_visited), on `sets`.
// One slot past the batch must stay unwritten.
void ExpectBatchMatchesReferences(const ValidationTree& tree,
                                  const FlatValidationTree& flat,
                                  const std::vector<LicenseSet>& sets,
                                  const std::string& label) {
  std::vector<int64_t> sums(sets.size() + 1, -1);
  std::vector<int64_t> wide_sums(sets.size());
  uint64_t batch_nodes = 0;
  uint64_t wide_nodes = 0;
  flat.SumSubsetsBatch(sets, sums, &batch_nodes);
  ReferenceSumSubsetsBatchWide(flat, sets, wide_sums, &wide_nodes);
  uint64_t scalar_nodes = 0;
  for (size_t i = 0; i < sets.size(); ++i) {
    const int64_t want = tree.SumSubsets(sets[i]);
    ASSERT_EQ(sums[i], want) << label << " i=" << i;
    ASSERT_EQ(ReferenceSumSubsets(flat, sets[i], &scalar_nodes), want)
        << label << " i=" << i;
    ASSERT_EQ(wide_sums[i], want) << label << " i=" << i;
  }
  EXPECT_EQ(sums[sets.size()], -1) << label;
  EXPECT_EQ(batch_nodes, scalar_nodes) << label;
  EXPECT_EQ(wide_nodes, scalar_nodes) << label;
}

// The batch at sizes around the 64-lane chunk (empty, one, one short of a
// chunk, one chunk, one past, two chunks and one past, and a long one;
// an empty batch writes nothing and adds no visits), then at every mask
// width the scan specializes: one word (N = 12, 48, 64), two (100, 128)
// and the runtime-width path (256), with full and partial last chunks.
TEST(FlatTreeTest, BatchMatchesScalar) {
  Rng rng(testing::TestSeed(11));
  const ValidationTree tree = RandomTree(&rng, 12, 200);
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  for (const size_t size : {0u, 1u, 63u, 64u, 65u, 129u, 300u}) {
    std::vector<LicenseSet> sets;
    for (size_t i = 0; i < size; ++i) {
      sets.push_back(LicenseSet::FromWord(rng.Next()) & LicenseSet::Full(12));
    }
    ExpectBatchMatchesReferences(tree, flat, sets,
                                 "size=" + std::to_string(size));
  }

  Rng wide_rng(testing::TestSeed(77002));
  for (const int n : {12, 48, 64, 100, 128, 256}) {
    for (int trial = 0; trial < 8; ++trial) {
      const ValidationTree wide_tree =
          RandomWideTree(&wide_rng, n, 40 + 20 * (trial % 3));
      const FlatValidationTree wide = FlatValidationTree::Compile(wide_tree);
      ASSERT_EQ(wide.MaskWords(), (n + 63) / 64) << "n=" << n;
      ExpectBatchMatchesReferences(
          wide_tree, wide,
          RandomWideQueries(&wide_rng, n, trial % 2 == 0 ? 192 : 67),
          "n=" + std::to_string(n) + " trial=" + std::to_string(trial));
    }
  }
}

TEST(FlatTreeTest, ForEachSetMatchesPointerTree) {
  Rng rng(testing::TestSeed(5));
  const ValidationTree tree = RandomTree(&rng, 14, 300);
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  EXPECT_EQ(SetsOf(flat), SetsOf(tree));  // Same preorder, same values.
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
  const LicenseSet full = LicenseSet::Full(16);
  int64_t flat_sum = -1;
  flat.SumSubsetsBatch({&full, 1}, {&flat_sum, 1}, &full_flat);
  EXPECT_EQ(flat_sum, pointer_sum);
  EXPECT_LT(full_flat, full_pointer);
  // And the no-accelerator scan touches at least one slot per node-skip
  // decision; it must agree on the sum regardless.
  EXPECT_EQ(ReferenceSumSubsetsNoAccel(flat, full), pointer_sum);
}

TEST(FlatTreeTest, CompileIsASnapshot) {
  ValidationTree tree;
  ASSERT_TRUE(tree.Insert(testing::Mask(0b11), 5).ok());
  const FlatValidationTree flat = FlatValidationTree::Compile(tree);
  ASSERT_TRUE(tree.Insert(testing::Mask(0b11), 5).ok());  // Mutate after compile.
  EXPECT_EQ(SumOne(flat, testing::Mask(0b11)), 5);        // Snapshot unchanged.
  EXPECT_EQ(tree.SumSubsets(testing::Mask(0b11)), 10);
}

}  // namespace
}  // namespace geolic
