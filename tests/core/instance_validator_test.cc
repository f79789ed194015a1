#include "core/instance_validator.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace geolic {
namespace {

using testing::BruteForceSatisfyingSet;
using testing::IntervalSchema;
using testing::MakeRedistribution;
using testing::MakeUsage;

TEST(SoaInstanceValidatorTest, FindsAllContainingLicenses) {
  const ConstraintSchema schema = IntervalSchema(2);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD1", {{0, 20}, {0, 20}}, 1)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD2", {{5, 25}, {5, 25}}, 1)).ok());
  ASSERT_TRUE(
      set.Add(MakeRedistribution(schema, "LD3", {{50, 60}, {50, 60}}, 1))
          .ok());
  const SoaInstanceValidator validator(&set);

  // Inside LD1 and LD2.
  EXPECT_EQ(validator.SatisfyingSet(
                MakeUsage(schema, "LU1", {{6, 19}, {6, 19}}, 1)),
            testing::Mask(0b011));
  // Inside LD1 only.
  EXPECT_EQ(validator.SatisfyingSet(
                MakeUsage(schema, "LU2", {{0, 4}, {0, 4}}, 1)),
            testing::Mask(0b001));
  // Inside none (straddles LD1's edge) — the paper's invalid L_U^2 case.
  EXPECT_EQ(validator.SatisfyingSet(
                MakeUsage(schema, "LU3", {{15, 30}, {0, 4}}, 1)),
            testing::Mask(0));
  // Inside LD3 only.
  EXPECT_EQ(validator.SatisfyingSet(
                MakeUsage(schema, "LU4", {{55, 56}, {55, 56}}, 1)),
            testing::Mask(0b100));
}

TEST(SoaInstanceValidatorTest, EmptyCatalogSatisfiesNothing) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  const SoaInstanceValidator validator(&set);
  EXPECT_TRUE(
      validator.SatisfyingSet(MakeUsage(schema, "LU", {{0, 1}}, 1)).Empty());
}

// The one-compare precheck: a query for other content or another
// permission is contained by no license, however its geometry lies.
TEST(SoaInstanceValidatorTest, ContentOrPermissionMismatchSatisfiesNothing) {
  const ConstraintSchema schema = IntervalSchema(1);
  LicenseCatalog set(&schema);
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD1", {{0, 20}}, 1)).ok());
  ASSERT_TRUE(set.Add(MakeRedistribution(schema, "LD2", {{5, 25}}, 1)).ok());
  const SoaInstanceValidator validator(&set);
  const License inside = MakeUsage(schema, "LU", {{6, 10}}, 1);
  ASSERT_EQ(validator.SatisfyingSet(inside), testing::Mask(0b11));

  const License other_content("LU", "K2", LicenseType::kUsage,
                              Permission::kPlay, inside.rect(), 1);
  const License other_permission("LU", "K", LicenseType::kUsage,
                                 Permission::kCopy, inside.rect(), 1);
  EXPECT_TRUE(validator.SatisfyingSet(other_content).Empty());
  EXPECT_TRUE(validator.SatisfyingSet(other_permission).Empty());
  EXPECT_TRUE(BruteForceSatisfyingSet(set, other_content).Empty());
  EXPECT_TRUE(BruteForceSatisfyingSet(set, other_permission).Empty());
}

// Dimension d of the agreement schema is categorical when d % 3 == 1 and
// ordered otherwise, so every width from 2 up mixes the two kinds.
bool IsCategorical(int d) { return d % 3 == 1; }

ConstraintSchema MixedSchema(int dims) {
  ConstraintSchema schema;
  for (int d = 0; d < dims; ++d) {
    const std::string name = "C" + std::to_string(d + 1);
    const Status added =
        IsCategorical(d) ? schema.AddCategoricalDimension(
                               name, CategoryUniverse::WorldRegions())
                         : schema.AddIntervalDimension(name);
    GEOLIC_CHECK(added.ok());
  }
  return schema;
}

// A catalog cell. Ordered cells are an interval, a blackout window (an
// interval with a gap carved out), or rarely empty; categorical cells are
// a mask over the 19 world regions, rarely empty.
ConstraintRange CatalogCell(Rng* rng, bool categorical) {
  if (categorical) {
    return ConstraintRange(
        CategorySet(rng->Bernoulli(0.05) ? 0 : rng->Next() & 0x7FFFF));
  }
  if (rng->Bernoulli(0.05)) {
    return ConstraintRange(Interval::Empty());
  }
  const int64_t lo = rng->UniformInt(0, 80);
  const int64_t hi = lo + rng->UniformInt(0, 40);
  if (!rng->Bernoulli(0.3)) {
    return ConstraintRange(Interval(lo, hi));
  }
  const int64_t gap_lo = rng->UniformInt(lo, hi);
  const int64_t gap_hi = rng->UniformInt(gap_lo, hi);
  std::vector<Interval> windows;
  if (gap_lo > lo) {
    windows.emplace_back(lo, gap_lo - 1);
  }
  if (gap_hi < hi) {
    windows.emplace_back(gap_hi + 1, hi);
  }
  return ConstraintRange(MultiInterval::FromIntervals(std::move(windows)));
}

// A query cell. Most are drawn inside `parent` (a sub-interval of one of
// its windows, a subset of its regions) so that containment is common;
// the rest are random, some empty and some blackout unions themselves.
ConstraintRange QueryCell(Rng* rng, bool categorical,
                          const ConstraintRange& parent, bool inside) {
  if (categorical) {
    const uint64_t mask = inside ? parent.categories().mask() : 0x7FFFF;
    return ConstraintRange(CategorySet(mask & rng->Next()));
  }
  if (rng->Bernoulli(0.03)) {
    return ConstraintRange(Interval::Empty());
  }
  if (inside && !parent.empty()) {
    const std::vector<Interval> pieces =
        parent.is_interval() ? std::vector<Interval>{parent.interval()}
                             : parent.multi_interval().pieces();
    const Interval& piece = pieces[rng->UniformIndex(pieces.size())];
    const int64_t lo = rng->UniformInt(piece.lo(), piece.hi());
    return ConstraintRange(Interval(lo, rng->UniformInt(lo, piece.hi())));
  }
  const int64_t lo = rng->UniformInt(0, 110);
  const int64_t hi = lo + rng->UniformInt(0, 20);
  if (rng->Bernoulli(0.15) && hi - lo >= 2) {
    return ConstraintRange(MultiInterval::FromIntervals(
        {Interval(lo, lo), Interval(hi, hi)}));
  }
  return ConstraintRange(Interval(lo, hi));
}

// Property: the product's SoA lookup returns the brute-force
// InstanceContains set on random catalogs of 1–200 licenses (one, two and
// four result words), across dimensionalities, with categorical and
// blackout dimensions, empty cells on both sides, and queries for other
// content or another permission.
class InstanceBackendAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(InstanceBackendAgreementTest, SoaMatchesBruteForce) {
  const int dims = GetParam();
  const ConstraintSchema schema = MixedSchema(dims);
  Rng rng(86000 + static_cast<uint64_t>(dims));
  std::vector<int> sizes = {1, 2, 7, 40, 63, 64, 65, 127, 128, 129, 200};
  for (int extra = 0; extra < 4; ++extra) {
    sizes.push_back(static_cast<int>(rng.UniformInt(1, 200)));
  }
  int hits = 0;
  int high_word_hits = 0;
  for (const int n : sizes) {
    LicenseCatalog set(&schema);
    for (int i = 0; i < n; ++i) {
      HyperRect rect;
      for (int d = 0; d < dims; ++d) {
        rect.AddDim(CatalogCell(&rng, IsCategorical(d)));
      }
      ASSERT_TRUE(set.Add(License("LD" + std::to_string(i), "K",
                                  LicenseType::kRedistribution,
                                  Permission::kPlay, std::move(rect), 1))
                      .ok());
    }
    const SoaInstanceValidator validator(&set);
    for (int q = 0; q < 60; ++q) {
      const License& parent =
          set.at(static_cast<int>(rng.UniformInt(0, n - 1)));
      const bool inside = rng.Bernoulli(0.6);
      HyperRect rect;
      for (int d = 0; d < dims; ++d) {
        rect.AddDim(QueryCell(&rng, IsCategorical(d), parent.rect().dim(d),
                              inside));
      }
      const std::string content = rng.Bernoulli(0.05) ? "K2" : "K";
      const Permission permission =
          rng.Bernoulli(0.05) ? Permission::kCopy : Permission::kPlay;
      const License usage("LU", content, LicenseType::kUsage, permission,
                          std::move(rect), 1);
      const LicenseSet want = BruteForceSatisfyingSet(set, usage);
      ASSERT_EQ(validator.SatisfyingSet(usage), want)
          << "n=" << n << " q=" << q << " query=" << usage.rect().ToString();
      hits += want.Empty() ? 0 : 1;
      high_word_hits += !want.Empty() && want.Highest() >= 64 ? 1 : 0;
    }
  }
  // The draws reach the interesting cases: containment, and containment
  // by licenses past the first result word.
  EXPECT_GT(hits, 100);
  EXPECT_GT(high_word_hits, 20);
}

INSTANTIATE_TEST_SUITE_P(Dimensions, InstanceBackendAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 6));

}  // namespace
}  // namespace geolic
