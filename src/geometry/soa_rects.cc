#include "geometry/soa_rects.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/license_set.h"

namespace geolic {
namespace {

constexpr int64_t kFailLo = std::numeric_limits<int64_t>::max();
constexpr int64_t kFailHi = std::numeric_limits<int64_t>::min();

// Most frequent dimensionality — ties break toward the first rect whose
// dimensionality reaches the top count, and a uniform input (the only case
// the catalog produces) is just that value. One counting pass, then one
// pass for the tie-break.
int MajorityDims(std::span<const HyperRect* const> rects) {
  std::vector<size_t> count_of;
  size_t best_count = 0;
  for (const HyperRect* rect : rects) {
    const size_t dims = static_cast<size_t>(rect->dimensions());
    if (dims >= count_of.size()) {
      count_of.resize(dims + 1, 0);
    }
    best_count = std::max(best_count, ++count_of[dims]);
  }
  for (const HyperRect* rect : rects) {
    if (count_of[static_cast<size_t>(rect->dimensions())] == best_count) {
      return rect->dimensions();
    }
  }
  return 0;
}

inline void SetBit(uint64_t* words, size_t j) {
  words[j / 64] |= uint64_t{1} << (j % 64);
}

inline bool TestBit(const uint64_t* words, size_t j) {
  return (words[j / 64] >> (j % 64)) & 1;
}

inline void AndWords(uint64_t* out, const uint64_t* with, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    out[w] &= with[w];
  }
}

inline bool AllZero(const uint64_t* words, size_t count) {
  for (size_t w = 0; w < count; ++w) {
    if (words[w] != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

SoaRects SoaRects::Build(std::span<const HyperRect* const> rects) {
  GEOLIC_DCHECK(rects.size() <= static_cast<size_t>(kMaxLicensesLarge));
  SoaRects soa;
  soa.n_ = rects.size();
  soa.padded_ = ((rects.size() + simd::kColumnPad - 1) / simd::kColumnPad) *
                simd::kColumnPad;
  soa.padded_ = std::max(soa.padded_, simd::kColumnPad);
  soa.words_ = std::max<size_t>(WordsFor(rects.size()), 1);
  soa.dims_ = MajorityDims(rects);

  const size_t dims = static_cast<size_t>(soa.dims_);
  soa.lo_.assign(dims * soa.padded_, kFailLo);
  soa.hi_.assign(dims * soa.padded_, kFailHi);
  soa.cat_.assign(dims * soa.padded_, 0);
  soa.ordered_.assign(dims * soa.words_, 0);
  soa.nonempty_ordered_.assign(dims * soa.words_, 0);
  soa.category_.assign(dims * soa.words_, 0);
  soa.regular_.assign(soa.words_, 0);

  for (size_t j = 0; j < rects.size(); ++j) {
    const HyperRect& rect = *rects[j];
    if (rect.dimensions() != soa.dims_) {
      soa.irregular_.emplace_back(static_cast<uint32_t>(j), rect);
      continue;  // Fail-closed columns; the scalar check decides.
    }
    SetBit(soa.regular_.data(), j);
    bool needs_exact = false;
    for (int d = 0; d < soa.dims_; ++d) {
      const ConstraintRange& cell = rect.dim(d);
      const size_t col = soa.Col(d) + j;
      uint64_t* ordered_row = soa.ordered_.data() + soa.MaskRow(d);
      uint64_t* nonempty_row = soa.nonempty_ordered_.data() + soa.MaskRow(d);
      uint64_t* category_row = soa.category_.data() + soa.MaskRow(d);
      if (cell.is_categories()) {
        SetBit(category_row, j);
        soa.cat_[col] = cell.categories().mask();
        continue;
      }
      SetBit(ordered_row, j);
      if (cell.empty()) {
        continue;  // Fail sentinel stays; empty passes only empty queries,
                   // which skip the column sweep.
      }
      SetBit(nonempty_row, j);
      const Interval bounding = cell.BoundingInterval();
      soa.lo_[col] = bounding.lo();
      soa.hi_[col] = bounding.hi();
      if (cell.is_multi_interval() && cell.multi_interval().piece_count() > 1) {
        // The column holds the bounding interval of a union with gaps:
        // necessary but not sufficient — survivors re-check scalar.
        needs_exact = true;
      }
    }
    if (needs_exact) {
      soa.exact_.emplace_back(static_cast<uint32_t>(j), rect);
    }
  }
  return soa;
}

void SoaRects::ContainingWithKernels(const simd::Kernels& kernels,
                                     const HyperRect& query,
                                     uint64_t* out) const {
  std::copy_n(regular_.data(), words_, out);
  if (query.dimensions() != dims_) {
    std::fill_n(out, words_, 0);  // Mixed dimensionality never contains.
  } else {
    for (int d = 0; d < dims_ && !AllZero(out, words_); ++d) {
      const ConstraintRange& qd = query.dim(d);
      if (qd.is_categories()) {
        AndWords(out, category_.data() + MaskRow(d), words_);
        const uint64_t q_mask = qd.categories().mask();
        if (q_mask != 0) {
          kernels.mask_superset(cat_.data() + Col(d), n_, q_mask, out);
        }
        // Empty query set: contained in every category cell.
        continue;
      }
      AndWords(out, ordered_.data() + MaskRow(d), words_);
      if (qd.empty()) {
        continue;  // Empty is contained in every ordered cell.
      }
      // Union containment reduces to the union's bounding interval for
      // single-piece cells (exact); multi-piece cells re-check below.
      const Interval bounding = qd.BoundingInterval();
      kernels.interval_contain(lo_.data() + Col(d), hi_.data() + Col(d), n_,
                               bounding.lo(), bounding.hi(), out);
    }
    for (const auto& [slot, rect] : exact_) {
      if (TestBit(out, slot) && !rect.Contains(query)) {
        out[slot / 64] &= ~(uint64_t{1} << (slot % 64));
      }
    }
  }
  for (const auto& [slot, rect] : irregular_) {
    if (rect.Contains(query)) {
      SetBit(out, slot);
    }
  }
}

void SoaRects::OverlappingWithKernels(const simd::Kernels& kernels,
                                      const HyperRect& query,
                                      uint64_t* out) const {
  std::copy_n(regular_.data(), words_, out);
  if (query.dimensions() != dims_) {
    std::fill_n(out, words_, 0);
  } else {
    for (int d = 0; d < dims_ && !AllZero(out, words_); ++d) {
      const ConstraintRange& qd = query.dim(d);
      if (qd.empty()) {
        std::fill_n(out, words_, 0);  // Nothing overlaps an empty range.
        break;
      }
      if (qd.is_categories()) {
        AndWords(out, category_.data() + MaskRow(d), words_);
        kernels.mask_intersects(cat_.data() + Col(d), n_,
                                qd.categories().mask(), out);
        continue;
      }
      // Empty cells must fail here, and their (INT64_MAX, INT64_MIN)
      // sentinel would pass a full-range query — mask them out up front.
      AndWords(out, nonempty_ordered_.data() + MaskRow(d), words_);
      if (qd.is_interval()) {
        const Interval& piece = qd.interval();
        kernels.interval_overlap(lo_.data() + Col(d), hi_.data() + Col(d), n_,
                                 piece.lo(), piece.hi(), out);
        continue;
      }
      // Overlap distributes over a union: OR of the per-piece sweeps —
      // exact for single-piece cells.
      uint64_t dim_bits[kMaxLicenseWords] = {};
      uint64_t piece_bits[kMaxLicenseWords];
      for (const Interval& piece : qd.multi_interval().pieces()) {
        std::fill_n(piece_bits, words_, ~uint64_t{0});
        kernels.interval_overlap(lo_.data() + Col(d), hi_.data() + Col(d), n_,
                                 piece.lo(), piece.hi(), piece_bits);
        for (size_t w = 0; w < words_; ++w) {
          dim_bits[w] |= piece_bits[w];
        }
      }
      AndWords(out, dim_bits, words_);
    }
    for (const auto& [slot, rect] : exact_) {
      if (TestBit(out, slot) && !rect.Overlaps(query)) {
        out[slot / 64] &= ~(uint64_t{1} << (slot % 64));
      }
    }
  }
  for (const auto& [slot, rect] : irregular_) {
    if (rect.Overlaps(query)) {
      SetBit(out, slot);
    }
  }
}

}  // namespace geolic
