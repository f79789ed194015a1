#include "core/dynamic_grouping.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/grouping.h"
#include "core/overlap_graph.h"
#include "licensing/license_catalog.h"
#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using testing::RandomRect;
using testing::Rect;

// One cell of a mixed catalog over a small domain, so overlaps and
// touching endpoints are common: a narrow interval, a union of up to three
// pieces, a category set near the low bit positions (its dimension-0 hull
// lands inside the interval domain, so kind-mismatched pairs reach the
// exact test), or an empty range of any kind.
ConstraintRange MixedRange(Rng* rng) {
  switch (rng->UniformIndex(6)) {
    case 0:
    case 1: {
      const int64_t lo = rng->UniformInt(0, 60);
      return ConstraintRange(Interval(lo, lo + rng->UniformInt(0, 12)));
    }
    case 2: {
      std::vector<Interval> pieces;
      const size_t count = 1 + rng->UniformIndex(3);
      for (size_t p = 0; p < count; ++p) {
        const int64_t lo = rng->UniformInt(0, 60);
        pieces.emplace_back(lo, lo + rng->UniformInt(0, 6));
      }
      return ConstraintRange(MultiInterval::FromIntervals(std::move(pieces)));
    }
    case 3:
    case 4:
      return ConstraintRange(CategorySet(rng->Next() & 0x3F));
    default:
      switch (rng->UniformIndex(3)) {
        case 0:
          return ConstraintRange(Interval::Empty());
        case 1:
          return ConstraintRange(MultiInterval::FromIntervals({}));
        default:
          return ConstraintRange(CategorySet::Empty());
      }
  }
}

HyperRect MixedRect(Rng* rng, int dims) {
  HyperRect rect;
  for (int d = 0; d < dims; ++d) {
    rect.AddDim(MixedRange(rng));
  }
  return rect;
}

void ExpectSameGrouping(const DynamicGrouping& actual,
                        const DynamicGrouping& expected,
                        const std::string& where) {
  const ComponentSet a = actual.Components();
  const ComponentSet e = expected.Components();
  EXPECT_EQ(a.components, e.components) << where;
  EXPECT_EQ(a.component_of, e.component_of) << where;
  EXPECT_EQ(actual.group_count(), expected.group_count()) << where;
  EXPECT_EQ(actual.merges(), expected.merges()) << where;
  EXPECT_EQ(actual.size(), expected.size()) << where;
}

TEST(DynamicGroupingTest, StartsEmpty) {
  DynamicGrouping grouping;
  EXPECT_EQ(grouping.size(), 0);
  EXPECT_EQ(grouping.group_count(), 0);
  EXPECT_EQ(grouping.merges(), 0);
}

TEST(DynamicGroupingTest, IsolatedLicensesEachOwnGroup) {
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());
  ASSERT_TRUE(grouping.AddLicense(Rect({{100, 110}})).ok());
  ASSERT_TRUE(grouping.AddLicense(Rect({{200, 210}})).ok());
  EXPECT_EQ(grouping.group_count(), 3);
  EXPECT_EQ(grouping.merges(), 0);
}

TEST(DynamicGroupingTest, OverlapJoinsGroup) {
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());
  ASSERT_TRUE(grouping.AddLicense(Rect({{5, 15}})).ok());
  EXPECT_EQ(grouping.group_count(), 1);
  EXPECT_EQ(grouping.GroupMaskOf(0), testing::Mask(0b11));
  EXPECT_EQ(grouping.GroupMaskOf(1), testing::Mask(0b11));
}

TEST(DynamicGroupingTest, BridgeLicenseMergesGroups) {
  // The paper's figure 6 narrative: a new license connected to licenses in
  // both existing groups collapses them into one.
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());
  ASSERT_TRUE(grouping.AddLicense(Rect({{100, 110}})).ok());
  EXPECT_EQ(grouping.group_count(), 2);
  ASSERT_TRUE(grouping.AddLicense(Rect({{5, 105}})).ok());  // Bridges both.
  EXPECT_EQ(grouping.group_count(), 1);
  EXPECT_EQ(grouping.merges(), 2);
  EXPECT_EQ(grouping.GroupMaskOf(0), testing::Mask(0b111));
}

TEST(DynamicGroupingTest, GroupCountCanStayGrowAndShrink) {
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());     // 1 group.
  EXPECT_EQ(grouping.group_count(), 1);
  ASSERT_TRUE(grouping.AddLicense(Rect({{50, 60}})).ok());    // Grows → 2.
  EXPECT_EQ(grouping.group_count(), 2);
  ASSERT_TRUE(grouping.AddLicense(Rect({{52, 58}})).ok());    // Stays → 2.
  EXPECT_EQ(grouping.group_count(), 2);
  ASSERT_TRUE(grouping.AddLicense(Rect({{5, 55}})).ok());     // Shrinks → 1.
  EXPECT_EQ(grouping.group_count(), 1);
}

TEST(DynamicGroupingTest, RejectsDimensionMismatchAndOverflow) {
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());
  EXPECT_FALSE(grouping.AddLicense(Rect({{0, 10}, {0, 10}})).ok());
  for (int i = 1; i < kMaxLicensesLarge; ++i) {
    ASSERT_TRUE(
        grouping.AddLicense(Rect({{i * 100, i * 100 + 10}})).ok());
  }
  EXPECT_EQ(grouping
                .AddLicense(Rect({{kMaxLicensesLarge * 100,
                                   kMaxLicensesLarge * 100 + 10}}))
                .status()
                .code(),
            StatusCode::kCapacityExceeded);
}

TEST(DynamicGroupingTest, ExpectedDimensionsCtorValidatesFirstLicense) {
  // Regression: the dimensionality check used to compare against the
  // previous license, so the FIRST insertion was never validated. With the
  // expected-dimensions constructor even license #1 must conform.
  DynamicGrouping grouping(2);
  EXPECT_FALSE(grouping.AddLicense(Rect({{0, 10}})).ok());
  EXPECT_EQ(grouping.size(), 0);
  EXPECT_EQ(grouping.group_count(), 0);
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}, {0, 10}})).ok());
  EXPECT_EQ(grouping.size(), 1);
}

TEST(DynamicGroupingTest, DefaultCtorLocksDimensionsOnFirstLicense) {
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}, {0, 10}})).ok());
  EXPECT_FALSE(grouping.AddLicense(Rect({{0, 10}})).ok());
  EXPECT_EQ(grouping.size(), 1);
}

TEST(DynamicGroupingTest, RemoveRenumbersDensely) {
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());     // 0
  ASSERT_TRUE(grouping.AddLicense(Rect({{5, 15}})).ok());     // 1: joins 0.
  ASSERT_TRUE(grouping.AddLicense(Rect({{100, 110}})).ok());  // 2: alone.
  ASSERT_TRUE(grouping.AddLicense(Rect({{200, 210}})).ok());  // 3
  ASSERT_TRUE(grouping.AddLicense(Rect({{205, 215}})).ok());  // 4: joins 3.
  ASSERT_EQ(grouping.group_count(), 3);
  ASSERT_TRUE(grouping.RemoveLicense(1).ok());
  // Survivors renumber densely (paper Algorithm 5): old 2→1, 3→2, 4→3.
  EXPECT_EQ(grouping.size(), 4);
  EXPECT_EQ(grouping.group_count(), 3);
  EXPECT_EQ(grouping.GroupMaskOf(0), testing::Mask(0b0001));
  EXPECT_EQ(grouping.GroupMaskOf(1), testing::Mask(0b0010));
  EXPECT_EQ(grouping.GroupMaskOf(2), testing::Mask(0b1100));
  EXPECT_EQ(grouping.GroupMaskOf(3), testing::Mask(0b1100));
}

TEST(DynamicGroupingTest, RemoveSplitsBridgedGroup) {
  // Inverse of the figure 6 merge: removing the bridge splits the group.
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());
  ASSERT_TRUE(grouping.AddLicense(Rect({{8, 20}})).ok());   // The bridge.
  ASSERT_TRUE(grouping.AddLicense(Rect({{18, 30}})).ok());
  ASSERT_EQ(grouping.group_count(), 1);
  ASSERT_TRUE(grouping.RemoveLicense(1).ok());
  EXPECT_EQ(grouping.size(), 2);
  EXPECT_EQ(grouping.group_count(), 2);
  EXPECT_EQ(grouping.GroupMaskOf(0), testing::Mask(0b01));
  EXPECT_EQ(grouping.GroupMaskOf(1), testing::Mask(0b10));
}

TEST(DynamicGroupingTest, RemoveRejectsOutOfRange) {
  DynamicGrouping grouping;
  EXPECT_FALSE(grouping.RemoveLicense(0).ok());
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());
  EXPECT_FALSE(grouping.RemoveLicense(-1).ok());
  EXPECT_FALSE(grouping.RemoveLicense(1).ok());
  EXPECT_EQ(grouping.size(), 1);
}

TEST(DynamicGroupingTest, RemoveToEmptyAndReuse) {
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());
  ASSERT_TRUE(grouping.AddLicense(Rect({{5, 15}})).ok());
  ASSERT_TRUE(grouping.RemoveLicense(1).ok());
  ASSERT_TRUE(grouping.RemoveLicense(0).ok());
  EXPECT_EQ(grouping.size(), 0);
  EXPECT_EQ(grouping.group_count(), 0);
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());
  EXPECT_EQ(grouping.size(), 1);
  EXPECT_EQ(grouping.group_count(), 1);
}

TEST(DynamicGroupingTest, QueriesDoNotMutate) {
  // Regression: read-side queries used to pay (and accumulate) per-call
  // work; repeated reads must return identical answers and leave the
  // structure untouched.
  DynamicGrouping grouping;
  ASSERT_TRUE(grouping.AddLicense(Rect({{0, 10}})).ok());
  ASSERT_TRUE(grouping.AddLicense(Rect({{5, 15}})).ok());
  ASSERT_TRUE(grouping.AddLicense(Rect({{100, 110}})).ok());
  const ComponentSet first = grouping.Components();
  const LicenseSet mask0 = grouping.GroupMaskOf(0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(grouping.Components().components, first.components);
    ASSERT_EQ(grouping.GroupMaskOf(0), mask0);
    ASSERT_EQ(grouping.group_count(), 2);
    ASSERT_EQ(grouping.size(), 3);
  }
}

TEST(DynamicGroupingTest, AddRemoveMatchesStaticRecomputation) {
  // Property: under random interleaved insertions and removals, the
  // incremental structure always equals a from-scratch recomputation.
  Rng rng(626262);
  for (int trial = 0; trial < 10; ++trial) {
    DynamicGrouping dynamic;
    std::vector<HyperRect> rects;
    for (int step = 0; step < 60; ++step) {
      if (rects.empty() || rng.Bernoulli(0.65)) {
        const HyperRect rect = RandomRect(&rng, 3, 60);
        ASSERT_TRUE(dynamic.AddLicense(rect).ok());
        rects.push_back(rect);
      } else {
        const int victim =
            static_cast<int>(rng.UniformIndex(rects.size()));
        ASSERT_TRUE(dynamic.RemoveLicense(victim).ok());
        rects.erase(rects.begin() + victim);
      }
      const ComponentSet expected =
          FindComponentsDfs(BuildOverlapGraphFromRects(rects));
      const ComponentSet actual = dynamic.Components();
      ASSERT_EQ(actual.components, expected.components)
          << "trial " << trial << " step " << step;
      ASSERT_EQ(actual.component_of, expected.component_of);
      ASSERT_EQ(dynamic.group_count(), expected.count());
    }
  }
}

TEST(DynamicGroupingTest, ComponentsMatchesStaticRecomputation) {
  // Property: after every insertion, Components() equals what a full
  // overlap-graph + DFS recomputation would produce.
  Rng rng(515151);
  for (int trial = 0; trial < 20; ++trial) {
    DynamicGrouping dynamic;
    std::vector<HyperRect> rects;
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < n; ++i) {
      const HyperRect rect = RandomRect(&rng, 3, 60);
      ASSERT_TRUE(dynamic.AddLicense(rect).ok());
      rects.push_back(rect);

      const ComponentSet expected =
          FindComponentsDfs(BuildOverlapGraphFromRects(rects));
      const ComponentSet actual = dynamic.Components();
      ASSERT_EQ(actual.components, expected.components)
          << "trial " << trial << " after " << i + 1 << " licenses";
      ASSERT_EQ(actual.component_of, expected.component_of);
      ASSERT_EQ(dynamic.group_count(), expected.count());
    }
  }
}

TEST(DynamicGroupingTest, BuildLinksClosedIntervalsThatOnlyTouch) {
  // [0,10] and [10,20] share the point 10; [21,30] touches neither.
  Result<DynamicGrouping> built = DynamicGrouping::Build(
      1, {Rect({{0, 10}}), Rect({{10, 20}}), Rect({{21, 30}})});
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->group_count(), 2);
  EXPECT_EQ(built->merges(), 1);
  EXPECT_EQ(built->GroupMaskOf(0), testing::Mask(0b011));
  EXPECT_EQ(built->GroupMaskOf(2), testing::Mask(0b100));
}

TEST(DynamicGroupingTest, BuildRejectsWhatAddLicenseRejects) {
  EXPECT_EQ(DynamicGrouping::Build(2, {Rect({{0, 10}, {0, 10}}),
                                       Rect({{0, 10}})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  std::vector<HyperRect> too_many(static_cast<size_t>(kMaxLicensesLarge) + 1,
                                  Rect({{0, 10}}));
  EXPECT_EQ(DynamicGrouping::Build(1, std::move(too_many)).status().code(),
            StatusCode::kCapacityExceeded);
  Result<DynamicGrouping> empty = DynamicGrouping::Build(3, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0);
  EXPECT_EQ(empty->group_count(), 0);
  // The dimensionality is fixed, as DynamicGrouping(3) would fix it.
  EXPECT_FALSE(empty->AddLicense(Rect({{0, 10}})).ok());
  EXPECT_TRUE(empty->AddLicense(Rect({{0, 10}, {0, 10}, {0, 10}})).ok());
}

TEST(DynamicGroupingTest, BuildEqualsIncrementalAndStaticGroupings) {
  // Property: on mixed catalogs (intervals, unions, categories,
  // kind-mismatched and empty cells, 0-3 dimensions, n = 0..200) the
  // sweep equals N AddLicense calls and FromLicenses, and stays equal to
  // the incremental grouping under one random removal sequence.
  Rng rng(testing::TestSeed(23232323));
  for (int trial = 0; trial < 120; ++trial) {
    const int dims = static_cast<int>(rng.UniformIndex(4));
    const int n = static_cast<int>(rng.UniformInt(0, 200));
    const ConstraintSchema schema = testing::IntervalSchema(dims);
    LicenseCatalog catalog(&schema);
    std::vector<HyperRect> rects;
    DynamicGrouping incremental(dims);
    for (int i = 0; i < n; ++i) {
      HyperRect rect = MixedRect(&rng, dims);
      ASSERT_TRUE(incremental.AddLicense(rect).ok());
      ASSERT_TRUE(catalog
                      .Add(License("L" + std::to_string(i), "K",
                                   LicenseType::kRedistribution,
                                   Permission::kPlay, rect, 10))
                      .ok());
      rects.push_back(std::move(rect));
    }
    Result<DynamicGrouping> built = DynamicGrouping::Build(dims, rects);
    ASSERT_TRUE(built.ok());
    const std::string where = "trial " + std::to_string(trial) + " (n=" +
                              std::to_string(n) + ", dims=" +
                              std::to_string(dims) + ")";
    ExpectSameGrouping(*built, incremental, where);
    const LicenseGrouping paper = LicenseGrouping::FromLicenses(catalog);
    const ComponentSet swept = built->Components();
    ASSERT_EQ(swept.components, paper.components().components) << where;
    ASSERT_EQ(swept.component_of, paper.components().component_of) << where;
    ASSERT_EQ(built->group_count(), paper.group_count()) << where;

    while (built->size() > 0) {
      const int victim =
          static_cast<int>(rng.UniformIndex(static_cast<size_t>(built->size())));
      ASSERT_TRUE(built->RemoveLicense(victim).ok());
      ASSERT_TRUE(incremental.RemoveLicense(victim).ok());
      ExpectSameGrouping(*built, incremental,
                         where + " after removing " + std::to_string(victim));
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace geolic
