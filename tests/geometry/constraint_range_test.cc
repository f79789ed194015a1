#include "geometry/constraint_range.h"

#include <gtest/gtest.h>

namespace geolic {
namespace {

TEST(ConstraintRangeTest, DefaultIsEmptyInterval) {
  ConstraintRange range;
  EXPECT_TRUE(range.is_interval());
  EXPECT_TRUE(range.empty());
}

TEST(ConstraintRangeTest, IntervalKind) {
  const ConstraintRange range{Interval(2, 8)};
  EXPECT_TRUE(range.is_interval());
  EXPECT_FALSE(range.is_categories());
  EXPECT_FALSE(range.empty());
  EXPECT_EQ(range.interval(), Interval(2, 8));
}

TEST(ConstraintRangeTest, CategoricalKind) {
  const ConstraintRange range{CategorySet(0b11)};
  EXPECT_TRUE(range.is_categories());
  EXPECT_FALSE(range.empty());
  EXPECT_EQ(range.categories().mask(), 0b11u);
  EXPECT_TRUE(ConstraintRange(CategorySet::Empty()).empty());
}

TEST(ConstraintRangeTest, IntervalContainsAndOverlaps) {
  const ConstraintRange outer{Interval(0, 10)};
  const ConstraintRange inner{Interval(3, 5)};
  const ConstraintRange disjoint{Interval(11, 20)};
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
  EXPECT_TRUE(outer.Overlaps(inner));
  EXPECT_FALSE(outer.Overlaps(disjoint));
}

TEST(ConstraintRangeTest, CategoricalContainsAndOverlaps) {
  const ConstraintRange big{CategorySet(0b111)};
  const ConstraintRange small{CategorySet(0b010)};
  const ConstraintRange other{CategorySet(0b1000)};
  EXPECT_TRUE(big.Contains(small));
  EXPECT_TRUE(big.Overlaps(small));
  EXPECT_FALSE(big.Overlaps(other));
}

TEST(ConstraintRangeTest, MixedKindsNeverRelate) {
  const ConstraintRange interval{Interval(0, 63)};
  const ConstraintRange categories{CategorySet(0b1)};
  EXPECT_FALSE(interval.Contains(categories));
  EXPECT_FALSE(categories.Contains(interval));
  EXPECT_FALSE(interval.Overlaps(categories));
  EXPECT_TRUE(interval.Intersect(categories).empty());
}

TEST(ConstraintRangeTest, IntersectMatchesKind) {
  const ConstraintRange a{Interval(0, 5)};
  const ConstraintRange b{Interval(3, 9)};
  EXPECT_EQ(a.Intersect(b).interval(), Interval(3, 5));

  const ConstraintRange c{CategorySet(0b110)};
  const ConstraintRange d{CategorySet(0b011)};
  EXPECT_EQ(c.Intersect(d).categories().mask(), 0b010u);
}

TEST(ConstraintRangeTest, BoundingIntervalForIntervalIsIdentity) {
  const ConstraintRange range{Interval(-3, 12)};
  EXPECT_EQ(range.BoundingInterval(), Interval(-3, 12));
}

TEST(ConstraintRangeTest, BoundingIntervalForCategoriesSpansBits) {
  // Bits 1 and 5 set → bounding interval [1, 5].
  const ConstraintRange range{CategorySet(0b100010)};
  EXPECT_EQ(range.BoundingInterval(), Interval(1, 5));
  EXPECT_TRUE(
      ConstraintRange(CategorySet::Empty()).BoundingInterval().empty());
}

TEST(ConstraintRangeTest, BoundingIntervalIsOverApproximation) {
  // {bit0, bit5} and {bit2} do not overlap as sets, but their bounding
  // intervals [0,5] and [2,2] do — a bounding-interval test yields
  // candidates only.
  const ConstraintRange sparse{CategorySet(0b100001)};
  const ConstraintRange middle{CategorySet(0b000100)};
  EXPECT_FALSE(sparse.Overlaps(middle));
  EXPECT_TRUE(sparse.BoundingInterval().Overlaps(middle.BoundingInterval()));
}

TEST(ConstraintRangeTest, ToString) {
  EXPECT_EQ(ConstraintRange(Interval(1, 2)).ToString(), "[1, 2]");
  EXPECT_EQ(ConstraintRange(CategorySet(0x5)).ToString(), "<cats:0x5>");
}

TEST(ConstraintRangeTest, Equality) {
  EXPECT_EQ(ConstraintRange(Interval(1, 2)), ConstraintRange(Interval(1, 2)));
  EXPECT_FALSE(ConstraintRange(Interval(1, 2)) ==
               ConstraintRange(Interval(1, 3)));
  EXPECT_FALSE(ConstraintRange(Interval(0, 0)) ==
               ConstraintRange(CategorySet(0b1)));
}

}  // namespace
}  // namespace geolic
