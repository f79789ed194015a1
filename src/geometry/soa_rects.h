#ifndef GEOLIC_GEOMETRY_SOA_RECTS_H_
#define GEOLIC_GEOMETRY_SOA_RECTS_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/hyper_rect.h"
#include "util/cpu_dispatch.h"

namespace geolic {

// Structure-of-arrays compile of N hyper-rectangles, built once (shard
// compile time) and queried per request: the instance containment/overlap
// fast-reject runs as contiguous per-dimension column sweeps through the
// runtime-dispatched SIMD kernels (util/simd_kernels.h) instead of N
// virtual-free but pointer-chasing HyperRect calls.
//
// Layout. Each dimension owns three padded columns over the N rects:
//   lo_/hi_   int64 interval bounds. Ordered cells store their bounding
//             interval; empty ordered cells and category cells store the
//             fail-closed sentinel (INT64_MAX, INT64_MIN).
//   cat_      uint64 category masks; 0 (fail-closed) for ordered cells.
// plus three per-dimension word masks classifying the cells: ordered_,
// nonempty_ordered_ and category_. A query dimension of the wrong kind
// clears the mismatched rects in one AND — the kind-mismatch rule of
// ConstraintRange (category never relates to ordered, not even empty).
//
// Exactness. The column test is exact for every cell except multi-piece
// ordered cells (a bounding interval over-approximates a union with gaps);
// those rects are listed in exact_ and re-checked with the scalar
// predicate only when they survive the column sweep. Multi-piece *query*
// dims are exact by construction: containment of a union reduces to its
// bounding interval, overlap is the OR of the per-piece sweeps. Rects
// whose dimensionality differs from the build's majority are kept aside
// and always checked scalar. Containing/Overlapping are therefore
// bit-identical to a HyperRect::Contains/Overlaps loop on every input —
// the property the fuzz equivalence test (tests/geometry/soa_rects_test)
// pins across all kernel tiers.
class SoaRects {
 public:
  SoaRects() = default;

  // Compiles `rects` (at most kMaxLicensesLarge of them), read in place:
  // the compile copies only the few rects its columns cannot answer
  // exactly (exact_, irregular_ below). Rect j keeps index j in every
  // query result.
  static SoaRects Build(std::span<const HyperRect* const> rects);

  int size() const { return static_cast<int>(n_); }
  int dimensions() const { return dims_; }

  // Words a result mask needs for n rects.
  static size_t WordsFor(size_t n) { return (n + 63) / 64; }
  size_t result_words() const { return words_; }

  // Sets bit j of `out` iff rects[j].Contains(query) — the paper's
  // instance-based validation predicate, exactly. `out` must have
  // result_words() entries (all are written).
  void Containing(const HyperRect& query, uint64_t* out) const {
    ContainingWithKernels(simd::ActiveKernels(), query, out);
  }

  // Sets bit j of `out` iff rects[j].Overlaps(query) — the paper's
  // overlapping-licenses predicate, exactly.
  void Overlapping(const HyperRect& query, uint64_t* out) const {
    OverlappingWithKernels(simd::ActiveKernels(), query, out);
  }

  // Explicit-tier variants for the equivalence tests and ablation A/B rows.
  void ContainingWithKernels(const simd::Kernels& kernels,
                             const HyperRect& query, uint64_t* out) const;
  void OverlappingWithKernels(const simd::Kernels& kernels,
                              const HyperRect& query, uint64_t* out) const;

 private:
  // Column base offset of dimension d (columns share one stride).
  size_t Col(int d) const { return static_cast<size_t>(d) * padded_; }
  size_t MaskRow(int d) const { return static_cast<size_t>(d) * words_; }

  size_t n_ = 0;
  size_t padded_ = 0;  // n_ rounded up to simd::kColumnPad (column stride).
  size_t words_ = 0;   // WordsFor(n_), min 1.
  int dims_ = 0;       // Majority dimensionality of the build.

  std::vector<int64_t> lo_;        // dims_ × padded_.
  std::vector<int64_t> hi_;        // dims_ × padded_.
  std::vector<uint64_t> cat_;      // dims_ × padded_.
  std::vector<uint64_t> ordered_;           // dims_ × words_.
  std::vector<uint64_t> nonempty_ordered_;  // dims_ × words_.
  std::vector<uint64_t> category_;          // dims_ × words_.
  std::vector<uint64_t> regular_;  // words_: rects with dims() == dims_.

  // Rects needing the scalar confirm after the column sweep (some
  // multi-piece ordered cell), by slot.
  std::vector<std::pair<uint32_t, HyperRect>> exact_;
  // Rects whose dimensionality differs from dims_ — always scalar.
  std::vector<std::pair<uint32_t, HyperRect>> irregular_;
};

}  // namespace geolic

#endif  // GEOLIC_GEOMETRY_SOA_RECTS_H_
