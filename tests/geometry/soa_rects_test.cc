#include "geometry/soa_rects.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/hyper_rect.h"
#include "util/cpu_dispatch.h"
#include "util/license_set.h"
#include "util/random.h"

namespace geolic {
namespace {

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

std::vector<const HyperRect*> RectPointers(const std::vector<HyperRect>& rects) {
  std::vector<const HyperRect*> pointers;
  for (const HyperRect& rect : rects) {
    pointers.push_back(&rect);
  }
  return pointers;
}

// Every kernel tier the host can actually execute (scalar always; the
// wider tiers only where cpuid says so).
std::vector<simd::Tier> AvailableTiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::TierAvailable(simd::Tier::kAvx2)) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

// Bound values skewed toward the saturation edges: INT64 extremes and
// off-by-one neighbors show up often enough that the fail-closed sentinels
// and closed-interval comparisons get hit.
int64_t EdgyValue(Rng* rng) {
  switch (rng->UniformIndex(8)) {
    case 0:
      return kInt64Min;
    case 1:
      return kInt64Max;
    case 2:
      return kInt64Min + 1;
    case 3:
      return kInt64Max - 1;
    default:
      return rng->UniformInt(-100, 100);
  }
}

ConstraintRange RandomRange(Rng* rng) {
  switch (rng->UniformIndex(4)) {
    case 0: {  // Single interval (sometimes empty).
      if (rng->Bernoulli(0.1)) {
        return ConstraintRange(Interval::Empty());
      }
      int64_t a = EdgyValue(rng);
      int64_t b = EdgyValue(rng);
      if (a > b) {
        std::swap(a, b);
      }
      return ConstraintRange(Interval(a, b));
    }
    case 1: {  // Multi-interval union (1-3 pieces, may normalize to fewer).
      std::vector<Interval> pieces;
      const size_t count = 1 + rng->UniformIndex(3);
      for (size_t p = 0; p < count; ++p) {
        int64_t a = EdgyValue(rng);
        int64_t b = EdgyValue(rng);
        if (a > b) {
          std::swap(a, b);
        }
        pieces.emplace_back(a, b);
      }
      return ConstraintRange(MultiInterval::FromIntervals(std::move(pieces)));
    }
    case 2:  // Category set (sometimes empty).
      return ConstraintRange(
          CategorySet(rng->Bernoulli(0.15) ? 0 : rng->Next() & 0xFF));
    default: {  // Narrow interval: makes containment/overlap hits common.
      const int64_t lo = rng->UniformInt(-20, 20);
      return ConstraintRange(Interval(lo, lo + rng->UniformInt(0, 10)));
    }
  }
}

HyperRect RandomRect(Rng* rng, int dims) {
  HyperRect rect;
  for (int d = 0; d < dims; ++d) {
    rect.AddDim(RandomRange(rng));
  }
  return rect;
}

// 1k random (catalog, query) trials: every available tier's Containing /
// Overlapping must be bit-identical to the scalar HyperRect predicates.
TEST(SoaRectsTest, FuzzEquivalenceAcrossTiersMatchesHyperRect) {
  Rng rng(20260808);
  const std::vector<simd::Tier> tiers = AvailableTiers();
  ASSERT_FALSE(tiers.empty());
  for (int trial = 0; trial < 1000; ++trial) {
    const int dims = static_cast<int>(1 + rng.UniformIndex(20));
    const size_t n = 1 + rng.UniformIndex(70);  // Crosses the 64-bit word.
    std::vector<HyperRect> rects;
    rects.reserve(n);
    for (size_t j = 0; j < n; ++j) {
      // A sprinkle of wrong-dimensionality rects exercises the irregular
      // scalar-only path.
      const int rect_dims =
          rng.Bernoulli(0.05) ? dims + 1 : dims;
      rects.push_back(RandomRect(&rng, rect_dims));
    }
    const SoaRects soa = SoaRects::Build(RectPointers(rects));
    const HyperRect query = RandomRect(
        &rng, rng.Bernoulli(0.05) ? dims + 1 : dims);

    for (const simd::Tier tier : tiers) {
      uint64_t contain[kMaxLicenseWords];
      uint64_t overlap[kMaxLicenseWords];
      const simd::Kernels& kernels = simd::KernelsForTier(tier);
      soa.ContainingWithKernels(kernels, query, contain);
      soa.OverlappingWithKernels(kernels, query, overlap);
      for (size_t j = 0; j < n; ++j) {
        const bool got_contain = (contain[j / 64] >> (j % 64)) & 1;
        const bool got_overlap = (overlap[j / 64] >> (j % 64)) & 1;
        ASSERT_EQ(got_contain, rects[j].Contains(query))
            << "trial " << trial << " tier " << kernels.name << " rect " << j
            << " contains: rect=" << rects[j].ToString()
            << " query=" << query.ToString();
        ASSERT_EQ(got_overlap, rects[j].Overlaps(query))
            << "trial " << trial << " tier " << kernels.name << " rect " << j
            << " overlaps: rect=" << rects[j].ToString()
            << " query=" << query.ToString();
      }
      // Tail bits past n stay clear (callers hand the words to
      // LicenseSet::FromWords, which requires canonical padding).
      for (size_t j = n; j < SoaRects::WordsFor(n) * 64; ++j) {
        ASSERT_FALSE((contain[j / 64] >> (j % 64)) & 1);
        ASSERT_FALSE((overlap[j / 64] >> (j % 64)) & 1);
      }
    }
  }
}

TEST(SoaRectsTest, EmptyBuildMatchesEmptyCatalog) {
  const SoaRects soa = SoaRects::Build({});
  EXPECT_EQ(soa.size(), 0);
  uint64_t out[kMaxLicenseWords];
  HyperRect query;
  query.AddDim(ConstraintRange(Interval(0, 10)));
  soa.Containing(query, out);
  EXPECT_EQ(out[0], 0u);
  soa.Overlapping(query, out);
  EXPECT_EQ(out[0], 0u);
}

TEST(SoaRectsTest, MultiPieceCellsReCheckExactly) {
  // Catalog cell [0,10] ∪ [20,30]: the bounding interval [0,30] would
  // wrongly contain [12,15]; the exact re-check must clear it.
  std::vector<HyperRect> rects;
  HyperRect gap;
  gap.AddDim(ConstraintRange(
      MultiInterval::FromIntervals({Interval(0, 10), Interval(20, 30)})));
  rects.push_back(gap);
  const SoaRects soa = SoaRects::Build(RectPointers(rects));

  HyperRect inside_gap;
  inside_gap.AddDim(ConstraintRange(Interval(12, 15)));
  uint64_t out[kMaxLicenseWords];
  soa.Containing(inside_gap, out);
  EXPECT_EQ(out[0], 0u);
  // But the gap query still fails overlap, while [5,25] overlaps.
  soa.Overlapping(inside_gap, out);
  EXPECT_EQ(out[0], 0u);
  HyperRect spanning;
  spanning.AddDim(ConstraintRange(Interval(5, 25)));
  soa.Overlapping(spanning, out);
  EXPECT_EQ(out[0], 1u);
  soa.Containing(spanning, out);
  EXPECT_EQ(out[0], 0u);
  HyperRect in_piece;
  in_piece.AddDim(ConstraintRange(Interval(21, 29)));
  soa.Containing(in_piece, out);
  EXPECT_EQ(out[0], 1u);
}

TEST(SoaRectsTest, MajorityDimensionalityBreaksTiesTowardTheFirstRect) {
  const auto rect_of = [](int dims) {
    HyperRect rect;
    for (int d = 0; d < dims; ++d) {
      rect.AddDim(ConstraintRange(Interval(0, 10)));
    }
    return rect;
  };
  const auto majority = [&rect_of](const std::vector<int>& dims) {
    std::vector<HyperRect> rects;
    for (const int d : dims) {
      rects.push_back(rect_of(d));
    }
    return SoaRects::Build(RectPointers(rects)).dimensions();
  };
  EXPECT_EQ(majority({3, 2, 2, 3}), 3);     // Tie: rect 0 is seen first.
  EXPECT_EQ(majority({2, 3, 3, 2}), 2);
  EXPECT_EQ(majority({1, 0, 2, 0, 2}), 0);  // 0 and 2 tie; 0 comes first.
  EXPECT_EQ(majority({2, 3, 3}), 3);        // A strict majority wins.
  EXPECT_EQ(majority({0, 0}), 0);
  EXPECT_EQ(majority({}), 0);

  // The minority rects are answered by the scalar path, exactly.
  std::vector<HyperRect> rects = {rect_of(3), rect_of(2), rect_of(2),
                                  rect_of(3)};
  const SoaRects soa = SoaRects::Build(RectPointers(rects));
  uint64_t out[kMaxLicenseWords];
  soa.Containing(rect_of(2), out);
  EXPECT_EQ(out[0], 0b0110u);
  soa.Overlapping(rect_of(3), out);
  EXPECT_EQ(out[0], 0b1001u);
}

// A build reads each rect where its owner keeps it (as the instance
// validator reads a catalog's licenses) and keeps what it needs: once the
// owners are gone it answers every query as a build over copies does.
TEST(SoaRectsTest, BuildReadsRectsInPlaceAndOutlivesThem) {
  Rng rng(0x50A0);
  for (int trial = 0; trial < 200; ++trial) {
    const int dims = static_cast<int>(1 + rng.UniformIndex(6));
    const size_t n = 1 + rng.UniformIndex(140);  // Crosses two words.
    auto owners = std::make_unique<std::vector<HyperRect>>();
    for (size_t j = 0; j < n; ++j) {
      const int rect_dims = rng.Bernoulli(0.05) ? dims + 1 : dims;
      owners->push_back(RandomRect(&rng, rect_dims));
    }
    const std::vector<HyperRect> copies = *owners;
    const SoaRects in_place = SoaRects::Build(RectPointers(*owners));
    owners.reset();
    const SoaRects copied = SoaRects::Build(RectPointers(copies));
    ASSERT_EQ(in_place.dimensions(), copied.dimensions());
    for (int q = 0; q < 8; ++q) {
      const HyperRect query = RandomRect(&rng, dims);
      uint64_t got[kMaxLicenseWords];
      uint64_t want[kMaxLicenseWords];
      in_place.Containing(query, got);
      copied.Containing(query, want);
      for (size_t w = 0; w < copied.result_words(); ++w) {
        ASSERT_EQ(got[w], want[w]) << "trial " << trial << " word " << w;
      }
      in_place.Overlapping(query, got);
      copied.Overlapping(query, want);
      for (size_t w = 0; w < copied.result_words(); ++w) {
        ASSERT_EQ(got[w], want[w]) << "trial " << trial << " word " << w;
      }
    }
  }
}

}  // namespace
}  // namespace geolic
