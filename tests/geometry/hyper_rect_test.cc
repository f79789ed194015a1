#include "geometry/hyper_rect.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using testing::RandomRect;
using testing::Rect;

TEST(HyperRectTest, ZeroDimensionalRectIsNonEmptyUnit) {
  HyperRect rect;
  EXPECT_EQ(rect.dimensions(), 0);
  EXPECT_FALSE(rect.IsEmpty());
  EXPECT_TRUE(rect.Contains(HyperRect()));
  EXPECT_TRUE(rect.Overlaps(HyperRect()));
}

TEST(HyperRectTest, EmptyWhenAnyDimensionEmpty) {
  HyperRect rect = Rect({{0, 10}, {5, 3}});
  EXPECT_TRUE(rect.IsEmpty());
  EXPECT_FALSE(Rect({{0, 10}, {3, 5}}).IsEmpty());
}

TEST(HyperRectTest, ContainsRequiresAllDimensions) {
  const HyperRect outer = Rect({{0, 10}, {0, 10}});
  EXPECT_TRUE(outer.Contains(Rect({{2, 8}, {3, 7}})));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(Rect({{2, 8}, {3, 11}})));
  EXPECT_FALSE(outer.Contains(Rect({{-1, 8}, {3, 7}})));
}

TEST(HyperRectTest, OverlapsRequiresAllDimensions) {
  // The paper's figure 2 point: rectangles overlap iff *every* constraint
  // dimension overlaps.
  const HyperRect a = Rect({{0, 10}, {0, 10}});
  EXPECT_TRUE(a.Overlaps(Rect({{5, 15}, {5, 15}})));
  EXPECT_FALSE(a.Overlaps(Rect({{5, 15}, {11, 15}})));  // Dim 2 disjoint.
  EXPECT_FALSE(a.Overlaps(Rect({{11, 15}, {5, 15}})));  // Dim 1 disjoint.
}

TEST(HyperRectTest, DimensionMismatchNeverRelates) {
  const HyperRect two = Rect({{0, 10}, {0, 10}});
  const HyperRect three = Rect({{0, 10}, {0, 10}, {0, 10}});
  EXPECT_FALSE(two.Contains(three));
  EXPECT_FALSE(three.Contains(two));
  EXPECT_FALSE(two.Overlaps(three));
  EXPECT_FALSE(two.Intersect(three).ok());
}

TEST(HyperRectTest, IntersectPerDimension) {
  const HyperRect a = Rect({{0, 10}, {0, 10}});
  const HyperRect b = Rect({{5, 15}, {-5, 5}});
  const Result<HyperRect> meet = a.Intersect(b);
  ASSERT_TRUE(meet.ok());
  EXPECT_EQ(meet->dim(0).interval(), Interval(5, 10));
  EXPECT_EQ(meet->dim(1).interval(), Interval(0, 5));
  EXPECT_FALSE(meet->IsEmpty());
}

TEST(HyperRectTest, IntersectDisjointIsEmpty) {
  const HyperRect a = Rect({{0, 4}, {0, 4}});
  const HyperRect b = Rect({{5, 9}, {0, 4}});
  const Result<HyperRect> meet = a.Intersect(b);
  ASSERT_TRUE(meet.ok());
  EXPECT_TRUE(meet->IsEmpty());
}

TEST(HyperRectTest, CommonRegionOfThree) {
  const std::vector<HyperRect> rects = {
      Rect({{0, 10}}), Rect({{5, 15}}), Rect({{8, 20}})};
  const Result<HyperRect> region = HyperRect::CommonRegion(rects);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->dim(0).interval(), Interval(8, 10));
}

TEST(HyperRectTest, CommonRegionEmptyWhenPairwiseOverlapButNoTriple) {
  // a∩b, b∩c, a∩c all non-empty, but a∩b∩c empty — the Theorem 1 situation
  // of licenses L1, L2, L3 in the paper's figure 2.
  const HyperRect a = Rect({{0, 10}, {0, 4}});
  const HyperRect b = Rect({{8, 20}, {0, 10}});
  const HyperRect c = Rect({{0, 10}, {6, 10}});
  ASSERT_TRUE(a.Overlaps(b));
  ASSERT_TRUE(b.Overlaps(c));
  ASSERT_FALSE(a.Overlaps(c));
  const Result<HyperRect> region = HyperRect::CommonRegion({a, b, c});
  ASSERT_TRUE(region.ok());
  EXPECT_TRUE(region->IsEmpty());
}

TEST(HyperRectTest, CommonRegionOfEmptyListFails) {
  EXPECT_FALSE(HyperRect::CommonRegion({}).ok());
}

TEST(HyperRectTest, ToString) {
  EXPECT_EQ(Rect({{0, 1}, {2, 3}}).ToString(), "[0, 1] x [2, 3]");
}

// Property: containment implies overlap (for non-empty rects); overlap is
// symmetric; intersect is the greatest lower bound.
TEST(HyperRectPropertyTest, RandomisedAlgebra) {
  Rng rng(777);
  for (int trial = 0; trial < 3000; ++trial) {
    const HyperRect a = RandomRect(&rng, 3, 40);
    const HyperRect b = RandomRect(&rng, 3, 40);
    EXPECT_EQ(a.Overlaps(b), b.Overlaps(a));
    if (a.Contains(b)) {
      EXPECT_TRUE(a.Overlaps(b));
    }
    const Result<HyperRect> meet = a.Intersect(b);
    ASSERT_TRUE(meet.ok());
    EXPECT_EQ(a.Overlaps(b), !meet->IsEmpty());
    if (!meet->IsEmpty()) {
      EXPECT_TRUE(a.Contains(*meet));
      EXPECT_TRUE(b.Contains(*meet));
    }
  }
}

// Property: a rectangle contains any rectangle drawn inside it.
TEST(HyperRectPropertyTest, SubRectanglesAreContained) {
  Rng rng(778);
  for (int trial = 0; trial < 2000; ++trial) {
    const HyperRect outer = RandomRect(&rng, 4, 100);
    std::vector<ConstraintRange> dims;
    for (int d = 0; d < 4; ++d) {
      const Interval& range = outer.dim(d).interval();
      const int64_t lo = rng.UniformInt(range.lo(), range.hi());
      const int64_t hi = rng.UniformInt(lo, range.hi());
      dims.push_back(ConstraintRange(Interval(lo, hi)));
    }
    EXPECT_TRUE(outer.Contains(HyperRect(dims)));
  }
}

}  // namespace
}  // namespace geolic
