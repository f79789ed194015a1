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

// A catalog's rects beside the grouping that reads them, as the service
// keeps its catalog beside its grouping: Add appends a rect and registers
// it (dropping it again when AddLicense refuses it), Remove drops a
// license from both.
struct Catalog {
  DynamicGrouping grouping;
  std::vector<HyperRect> rects;

  Result<int> Add(HyperRect rect) {
    rects.push_back(std::move(rect));
    Result<int> index = grouping.AddLicense(testing::RectPointers(rects));
    if (!index.ok()) {
      rects.pop_back();
    }
    return index;
  }

  Status Remove(int index) {
    GEOLIC_RETURN_IF_ERROR(grouping.RemoveLicense(index));
    rects.erase(rects.begin() + index);
    return Status::Ok();
  }
};

// Mask of the group containing license `index`.
LicenseSet GroupMaskOf(const DynamicGrouping& grouping, int index) {
  const ComponentSet components = grouping.Components();
  return components.components[static_cast<size_t>(
      components.component_of[static_cast<size_t>(index)])];
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
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  EXPECT_EQ(grouping.size(), 0);
  EXPECT_EQ(grouping.group_count(), 0);
  EXPECT_EQ(grouping.merges(), 0);
}

TEST(DynamicGroupingTest, IsolatedLicensesEachOwnGroup) {
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());
  ASSERT_TRUE(catalog.Add(Rect({{100, 110}})).ok());
  ASSERT_TRUE(catalog.Add(Rect({{200, 210}})).ok());
  EXPECT_EQ(grouping.group_count(), 3);
  EXPECT_EQ(grouping.merges(), 0);
}

TEST(DynamicGroupingTest, OverlapJoinsGroup) {
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());
  ASSERT_TRUE(catalog.Add(Rect({{5, 15}})).ok());
  EXPECT_EQ(grouping.group_count(), 1);
  EXPECT_EQ(GroupMaskOf(grouping, 0), testing::Mask(0b11));
  EXPECT_EQ(GroupMaskOf(grouping, 1), testing::Mask(0b11));
}

TEST(DynamicGroupingTest, BridgeLicenseMergesGroups) {
  // The paper's figure 6 narrative: a new license connected to licenses in
  // both existing groups collapses them into one.
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());
  ASSERT_TRUE(catalog.Add(Rect({{100, 110}})).ok());
  EXPECT_EQ(grouping.group_count(), 2);
  ASSERT_TRUE(catalog.Add(Rect({{5, 105}})).ok());  // Bridges both.
  EXPECT_EQ(grouping.group_count(), 1);
  EXPECT_EQ(grouping.merges(), 2);
  EXPECT_EQ(GroupMaskOf(grouping, 0), testing::Mask(0b111));
}

TEST(DynamicGroupingTest, GroupCountCanStayGrowAndShrink) {
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());     // 1 group.
  EXPECT_EQ(grouping.group_count(), 1);
  ASSERT_TRUE(catalog.Add(Rect({{50, 60}})).ok());    // Grows → 2.
  EXPECT_EQ(grouping.group_count(), 2);
  ASSERT_TRUE(catalog.Add(Rect({{52, 58}})).ok());    // Stays → 2.
  EXPECT_EQ(grouping.group_count(), 2);
  ASSERT_TRUE(catalog.Add(Rect({{5, 55}})).ok());     // Shrinks → 1.
  EXPECT_EQ(grouping.group_count(), 1);
}

TEST(DynamicGroupingTest, RejectsDimensionMismatchAndOverflow) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());
  EXPECT_FALSE(catalog.Add(Rect({{0, 10}, {0, 10}})).ok());
  for (int i = 1; i < kMaxLicensesLarge; ++i) {
    ASSERT_TRUE(catalog.Add(Rect({{i * 100, i * 100 + 10}})).ok());
  }
  EXPECT_EQ(catalog
                .Add(Rect({{kMaxLicensesLarge * 100,
                            kMaxLicensesLarge * 100 + 10}}))
                .status()
                .code(),
            StatusCode::kCapacityExceeded);
}

TEST(DynamicGroupingTest, ExpectedDimensionsCtorValidatesFirstLicense) {
  // Regression: the dimensionality check used to compare against the
  // previous license, so the FIRST insertion was never validated. With the
  // expected-dimensions constructor even license #1 must conform.
  Catalog catalog{DynamicGrouping(2), {}};
  const DynamicGrouping& grouping = catalog.grouping;
  EXPECT_FALSE(catalog.Add(Rect({{0, 10}})).ok());
  EXPECT_EQ(grouping.size(), 0);
  EXPECT_EQ(grouping.group_count(), 0);
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}, {0, 10}})).ok());
  EXPECT_EQ(grouping.size(), 1);
}

TEST(DynamicGroupingTest, DefaultCtorLocksDimensionsOnFirstLicense) {
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}, {0, 10}})).ok());
  EXPECT_FALSE(catalog.Add(Rect({{0, 10}})).ok());
  EXPECT_EQ(grouping.size(), 1);
}

TEST(DynamicGroupingTest, RemoveRenumbersDensely) {
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());     // 0
  ASSERT_TRUE(catalog.Add(Rect({{5, 15}})).ok());     // 1: joins 0.
  ASSERT_TRUE(catalog.Add(Rect({{100, 110}})).ok());  // 2: alone.
  ASSERT_TRUE(catalog.Add(Rect({{200, 210}})).ok());  // 3
  ASSERT_TRUE(catalog.Add(Rect({{205, 215}})).ok());  // 4: joins 3.
  ASSERT_EQ(grouping.group_count(), 3);
  ASSERT_TRUE(catalog.Remove(1).ok());
  // Survivors renumber densely (paper Algorithm 5): old 2→1, 3→2, 4→3.
  EXPECT_EQ(grouping.size(), 4);
  EXPECT_EQ(grouping.group_count(), 3);
  EXPECT_EQ(GroupMaskOf(grouping, 0), testing::Mask(0b0001));
  EXPECT_EQ(GroupMaskOf(grouping, 1), testing::Mask(0b0010));
  EXPECT_EQ(GroupMaskOf(grouping, 2), testing::Mask(0b1100));
  EXPECT_EQ(GroupMaskOf(grouping, 3), testing::Mask(0b1100));
}

TEST(DynamicGroupingTest, RemoveSplitsBridgedGroup) {
  // Inverse of the figure 6 merge: removing the bridge splits the group.
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());
  ASSERT_TRUE(catalog.Add(Rect({{8, 20}})).ok());   // The bridge.
  ASSERT_TRUE(catalog.Add(Rect({{18, 30}})).ok());
  ASSERT_EQ(grouping.group_count(), 1);
  ASSERT_TRUE(catalog.Remove(1).ok());
  EXPECT_EQ(grouping.size(), 2);
  EXPECT_EQ(grouping.group_count(), 2);
  EXPECT_EQ(GroupMaskOf(grouping, 0), testing::Mask(0b01));
  EXPECT_EQ(GroupMaskOf(grouping, 1), testing::Mask(0b10));
}

TEST(DynamicGroupingTest, RemoveRejectsOutOfRange) {
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  EXPECT_FALSE(catalog.Remove(0).ok());
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());
  EXPECT_FALSE(catalog.Remove(-1).ok());
  EXPECT_FALSE(catalog.Remove(1).ok());
  EXPECT_EQ(grouping.size(), 1);
}

TEST(DynamicGroupingTest, RemoveToEmptyAndReuse) {
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());
  ASSERT_TRUE(catalog.Add(Rect({{5, 15}})).ok());
  ASSERT_TRUE(catalog.Remove(1).ok());
  ASSERT_TRUE(catalog.Remove(0).ok());
  EXPECT_EQ(grouping.size(), 0);
  EXPECT_EQ(grouping.group_count(), 0);
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());
  EXPECT_EQ(grouping.size(), 1);
  EXPECT_EQ(grouping.group_count(), 1);
}

TEST(DynamicGroupingTest, RemoveCarriesOverlapsAcrossWordBoundaries) {
  // A chain — license i overlaps only i − 1 and i + 1 — is one group that
  // any lost overlap splits. Removing a low index shifts every higher
  // overlap down one bit, across the 64-bit words of the adjacency rows.
  std::vector<HyperRect> rects;
  for (int i = 0; i < 200; ++i) {
    rects.push_back(Rect({{10 * i, 10 * i + 10}}));
  }
  Result<DynamicGrouping> built =
      DynamicGrouping::Build(1, testing::RectPointers(rects));
  ASSERT_TRUE(built.ok());
  for (const int victim : {0, 0, 62, 125, 0}) {
    ASSERT_TRUE(built->RemoveLicense(victim).ok());
    rects.erase(rects.begin() + victim);
    const ComponentSet expected =
        FindComponentsDfs(BuildOverlapGraphFromRects(rects));
    const ComponentSet actual = built->Components();
    ASSERT_EQ(actual.components, expected.components) << "removed " << victim;
    ASSERT_EQ(actual.component_of, expected.component_of);
    ASSERT_EQ(built->group_count(), expected.count());
  }
}

TEST(DynamicGroupingTest, QueriesDoNotMutate) {
  // Regression: read-side queries used to pay (and accumulate) per-call
  // work; repeated reads must return identical answers and leave the
  // structure untouched.
  Catalog catalog;
  const DynamicGrouping& grouping = catalog.grouping;
  ASSERT_TRUE(catalog.Add(Rect({{0, 10}})).ok());
  ASSERT_TRUE(catalog.Add(Rect({{5, 15}})).ok());
  ASSERT_TRUE(catalog.Add(Rect({{100, 110}})).ok());
  const ComponentSet first = grouping.Components();
  const LicenseSet mask0 = GroupMaskOf(grouping, 0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(grouping.Components().components, first.components);
    ASSERT_EQ(GroupMaskOf(grouping, 0), mask0);
    ASSERT_EQ(grouping.group_count(), 2);
    ASSERT_EQ(grouping.size(), 3);
  }
}

TEST(DynamicGroupingTest, AddRemoveMatchesStaticRecomputation) {
  // Property: under random interleaved insertions and removals, the
  // incremental structure always equals a from-scratch recomputation.
  Rng rng(626262);
  for (int trial = 0; trial < 10; ++trial) {
    Catalog dynamic;
    std::vector<HyperRect> rects;
    for (int step = 0; step < 60; ++step) {
      if (rects.empty() || rng.Bernoulli(0.65)) {
        const HyperRect rect = RandomRect(&rng, 3, 60);
        ASSERT_TRUE(dynamic.Add(rect).ok());
        rects.push_back(rect);
      } else {
        const int victim =
            static_cast<int>(rng.UniformIndex(rects.size()));
        ASSERT_TRUE(dynamic.Remove(victim).ok());
        rects.erase(rects.begin() + victim);
      }
      const ComponentSet expected =
          FindComponentsDfs(BuildOverlapGraphFromRects(rects));
      const ComponentSet actual = dynamic.grouping.Components();
      ASSERT_EQ(actual.components, expected.components)
          << "trial " << trial << " step " << step;
      ASSERT_EQ(actual.component_of, expected.component_of);
      ASSERT_EQ(dynamic.grouping.group_count(), expected.count());
    }
  }
}

TEST(DynamicGroupingTest, ComponentsMatchesStaticRecomputation) {
  // Property: after every insertion, Components() equals what a full
  // overlap-graph + DFS recomputation would produce.
  Rng rng(515151);
  for (int trial = 0; trial < 20; ++trial) {
    Catalog dynamic;
    std::vector<HyperRect> rects;
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < n; ++i) {
      const HyperRect rect = RandomRect(&rng, 3, 60);
      ASSERT_TRUE(dynamic.Add(rect).ok());
      rects.push_back(rect);

      const ComponentSet expected =
          FindComponentsDfs(BuildOverlapGraphFromRects(rects));
      const ComponentSet actual = dynamic.grouping.Components();
      ASSERT_EQ(actual.components, expected.components)
          << "trial " << trial << " after " << i + 1 << " licenses";
      ASSERT_EQ(actual.component_of, expected.component_of);
      ASSERT_EQ(dynamic.grouping.group_count(), expected.count());
    }
  }
}

TEST(DynamicGroupingTest, BuildLinksClosedIntervalsThatOnlyTouch) {
  // [0,10] and [10,20] share the point 10; [21,30] touches neither.
  const std::vector<HyperRect> rects = {Rect({{0, 10}}), Rect({{10, 20}}),
                                        Rect({{21, 30}})};
  Result<DynamicGrouping> built = DynamicGrouping::Build(1, testing::RectPointers(rects));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->group_count(), 2);
  EXPECT_EQ(built->merges(), 1);
  EXPECT_EQ(GroupMaskOf(*built, 0), testing::Mask(0b011));
  EXPECT_EQ(GroupMaskOf(*built, 2), testing::Mask(0b100));
}

TEST(DynamicGroupingTest, BuildRejectsWhatAddLicenseRejects) {
  const std::vector<HyperRect> mixed = {Rect({{0, 10}, {0, 10}}),
                                        Rect({{0, 10}})};
  EXPECT_EQ(DynamicGrouping::Build(2, testing::RectPointers(mixed)).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<HyperRect> too_many(
      static_cast<size_t>(kMaxLicensesLarge) + 1, Rect({{0, 10}}));
  EXPECT_EQ(DynamicGrouping::Build(1, testing::RectPointers(too_many)).status().code(),
            StatusCode::kCapacityExceeded);
  Result<DynamicGrouping> empty = DynamicGrouping::Build(3, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0);
  EXPECT_EQ(empty->group_count(), 0);
  // The dimensionality is fixed, as DynamicGrouping(3) would fix it.
  const std::vector<HyperRect> flat = {Rect({{0, 10}})};
  EXPECT_FALSE(empty->AddLicense(testing::RectPointers(flat)).ok());
  const std::vector<HyperRect> solid = {Rect({{0, 10}, {0, 10}, {0, 10}})};
  EXPECT_TRUE(empty->AddLicense(testing::RectPointers(solid)).ok());
  // AddLicense reads the registered licenses' rects plus exactly one more.
  EXPECT_EQ(empty->AddLicense(testing::RectPointers(solid)).status().code(),
            StatusCode::kInvalidArgument);
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
    Catalog incremental{DynamicGrouping(dims), {}};
    for (int i = 0; i < n; ++i) {
      HyperRect rect = MixedRect(&rng, dims);
      ASSERT_TRUE(incremental.Add(rect).ok());
      ASSERT_TRUE(catalog
                      .Add(License("L" + std::to_string(i), "K",
                                   LicenseType::kRedistribution,
                                   Permission::kPlay, rect, 10))
                      .ok());
      rects.push_back(std::move(rect));
    }
    Result<DynamicGrouping> built =
        DynamicGrouping::Build(dims, testing::RectPointers(rects));
    ASSERT_TRUE(built.ok());
    const std::string where = "trial " + std::to_string(trial) + " (n=" +
                              std::to_string(n) + ", dims=" +
                              std::to_string(dims) + ")";
    ExpectSameGrouping(*built, incremental.grouping, where);
    // Read through the catalog's licenses, in place, as the service does.
    Result<DynamicGrouping> in_place =
        DynamicGrouping::Build(dims, catalog.Rects());
    ASSERT_TRUE(in_place.ok());
    ExpectSameGrouping(*in_place, *built, where + " in place");
    const LicenseGrouping paper = LicenseGrouping::FromLicenses(catalog);
    const ComponentSet swept = built->Components();
    ASSERT_EQ(swept.components, paper.Components().components) << where;
    ASSERT_EQ(swept.component_of, paper.Components().component_of) << where;
    ASSERT_EQ(built->group_count(), paper.group_count()) << where;

    while (built->size() > 0) {
      const int victim =
          static_cast<int>(rng.UniformIndex(static_cast<size_t>(built->size())));
      ASSERT_TRUE(built->RemoveLicense(victim).ok());
      ASSERT_TRUE(incremental.Remove(victim).ok());
      ExpectSameGrouping(*built, incremental.grouping,
                         where + " after removing " + std::to_string(victim));
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace geolic
