// AVX2 tier of the batched equation scan: 4 × int64 lanes per register
// pass. This translation unit is the only one in the validation library
// compiled with -mavx2 (see validation/CMakeLists.txt), so AVX2
// instructions never leak into code that runs before the dispatch probe.
// Only 64-bit integer compare/blend/add units are used — results are
// bit-identical to the scalar tier.

#include "validation/flat_tree_batch.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <array>

#include "validation/flat_tree_batch_scan.h"

namespace geolic {
namespace internal {
namespace {

// kNibbleMask[n] is the 4 × 64-bit lane mask spelled by nibble n — one
// aligned load replaces the broadcast/and/compare sequence that would
// otherwise rebuild the per-group on_path mask.
struct alignas(32) NibbleRow {
  uint64_t lane[4];
};
constexpr std::array<NibbleRow, 16> kNibbleMask = [] {
  std::array<NibbleRow, 16> rows{};
  for (int n = 0; n < 16; ++n) {
    for (int k = 0; k < 4; ++k) {
      rows[static_cast<size_t>(n)].lane[static_cast<size_t>(k)] =
          (n >> k) & 1 ? ~uint64_t{0} : 0;
    }
  }
  return rows;
}();

struct Avx2LaneOps {
  // The per-lane scalar test costs one load per mask word, so the wide
  // step amortizes sooner on multi-word compiles; single-word lanes are
  // cheap enough scalar that the crossover sits higher.
  static constexpr int LaneThreshold(int kwords) {
    return kwords == 1 ? 8 : 4;
  }

  template <int kWords>
  static uint64_t LaneStep(const uint64_t* mask, uint32_t words,
                           const uint64_t* qcol, uint64_t on_path,
                           int64_t node_sum, int64_t node_count,
                           int64_t* sums) {
    const uint32_t nw = kWords == 0 ? words : kWords;
    const __m256i v_zero = _mm256_setzero_si256();
    const __m256i v_sum = _mm256_set1_epi64x(node_sum);
    const __m256i v_count = _mm256_set1_epi64x(node_count);
    // The node's mask words broadcast once, outside the group loop.
    __m256i v_mask[kWords == 0 ? kMaxLicenseWords
                               : static_cast<size_t>(kWords)];
    for (uint32_t w = 0; w < nw; ++w) {
      v_mask[w] = _mm256_set1_epi64x(static_cast<int64_t>(mask[w]));
    }
    uint64_t covered = 0;
    // Fold each nibble's four bits onto its low bit, giving one marker
    // bit (at position 4k) per 4-lane group with any on_path lane; the
    // loop then bit-scans straight to active groups — no per-empty-group
    // branch to mispredict at mid densities.
    uint64_t active = on_path | (on_path >> 1);
    active |= active >> 2;
    active &= 0x1111111111111111u;
    // One register pass per active 4-lane group: all mask words fold into
    // a single stray accumulator and the covered test and the
    // sum-vs-count accumulate share its compare mask.
    for (; active != 0; active &= active - 1) {
      const size_t g = static_cast<size_t>(std::countr_zero(active));
      const unsigned nibble = (on_path >> g) & 0xF;
      __m256i stray = v_zero;
      for (uint32_t w = 0; w < nw; ++w) {
        const __m256i v_q = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(qcol + w * 64 + g));
        // Covered iff mask & ~q == 0 per word (andnot computes ~q & mask).
        stray = _mm256_or_si256(stray, _mm256_andnot_si256(v_q, v_mask[w]));
      }
      const __m256i cov_m = _mm256_cmpeq_epi64(stray, v_zero);
      const __m256i path_m = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kNibbleMask[nibble].lane));
      __m256i value = _mm256_blendv_epi8(v_count, v_sum, cov_m);
      value = _mm256_and_si256(value, path_m);
      __m256i* slot = reinterpret_cast<__m256i*>(sums + g);
      _mm256_storeu_si256(slot,
                          _mm256_add_epi64(_mm256_loadu_si256(slot), value));
      covered |= static_cast<uint64_t>(static_cast<unsigned>(
                     _mm256_movemask_pd(_mm256_castsi256_pd(cov_m))))
                 << g;
    }
    return on_path & ~covered;
  }
};

}  // namespace

uint64_t SumSubsetsBatchAvx2Tier(const FlatTreeBatchView& view,
                                 std::span<const LicenseSet> sets,
                                 std::span<int64_t> sums) {
  return BatchScanTier<Avx2LaneOps>(view, sets, sums);
}

}  // namespace internal
}  // namespace geolic

#else  // !defined(__AVX2__)

// Non-x86 (or AVX2-less) toolchain: the entry still links but degrades to
// the scalar tier; cpu_dispatch never selects AVX2 on such hosts.
namespace geolic {
namespace internal {
uint64_t SumSubsetsBatchAvx2Tier(const FlatTreeBatchView& view,
                                 std::span<const LicenseSet> sets,
                                 std::span<int64_t> sums) {
  return SumSubsetsBatchScalarTier(view, sets, sums);
}
}  // namespace internal
}  // namespace geolic

#endif  // defined(__AVX2__)
