#ifndef GEOLIC_VALIDATION_FLAT_TREE_BATCH_SCAN_H_
#define GEOLIC_VALIDATION_FLAT_TREE_BATCH_SCAN_H_

// Shared body of the 64-lane batched equation scan, included ONLY by the
// per-ISA tier translation units (flat_tree_batch_{scalar,avx2}.cc).
// Each tier instantiates BatchScan with its own LaneOps policy:
//
//   struct LaneOps {
//     // Smallest popcount(on_path) at which the wide lane step beats the
//     // in-loop per-lane bit scan for this tier (65 = never), given the
//     // compile-time mask width (0 = runtime width).
//     static constexpr int LaneThreshold(int kwords);
//     // Fused covered-test + sum-vs-count accumulate over every lane in
//     // `on_path`; returns the lanes that keep descending. Same contract
//     // as the in-loop scalar fallback below — tiers must be
//     // bit-identical in sums AND visit accounting. kWords is the
//     // compile-time mask width (0 = use the runtime `words` argument).
//     template <int kWords>
//     static uint64_t LaneStep(const uint64_t* mask, uint32_t words,
//                              const uint64_t* qcol, uint64_t on_path,
//                              int64_t node_sum, int64_t node_count,
//                              int64_t* sums);
//   };
//
// The policy is a template parameter so LaneStep inlines into the node
// loop — the whole scan is compiled under the tier's ISA flags and
// dispatch happens once per batch call (see flat_tree_batch.h). The mask
// width is specialized at compile time for the 1- and 2-word layouts
// (every catalog up to 128 licenses) so the per-word loops fully unroll;
// wider compiles take the runtime-width path.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "util/license_set.h"
#include "validation/flat_tree_batch.h"

namespace geolic {
namespace internal {

// 64 queries share one pruned preorder pass: lane q of the `alive` bitset
// says query q still descends the current subtree, so each node is loaded
// once per chunk instead of once per query, and every pruning decision
// (off-set skip, Theorem-1 skip, covered-subtree summarize) is taken per
// lane. Sums and nodes-touched accounting are per (node, query) and
// therefore bit-identical to scalar SumSubsets calls, independent of how
// callers chunk their equations or which tier runs the scan.
template <int kWords, typename LaneOps>
uint64_t BatchScan(const FlatTreeBatchView& view,
                   std::span<const LicenseSet> sets,
                   std::span<int64_t> sums) {
  const size_t size = view.size;
  const uint32_t words = kWords == 0 ? view.mask_words : kWords;
  uint64_t touched = 0;
  for (size_t base = 0; base < sets.size(); base += 64) {
    const size_t chunk = std::min<size_t>(64, sets.size() - base);
    const LicenseSet* chunk_sets = sets.data() + base;
    int64_t* chunk_sums = sums.data() + base;
    // qcol[w * 64 + q]: query q's word w — column-major so the lane step
    // reads one contiguous 64-entry column per mask word. Dead lanes stay
    // zero-extended; per-word tests never index past a narrow query. Only
    // the `words` columns in use are zeroed — blanket initialization of
    // the worst-case array is measurable per chunk.
    constexpr size_t kQueryWordSlots =
        64u * (kWords == 1 ? 1u : static_cast<size_t>(kMaxLicenseWords));
    uint64_t qcol[kQueryWordSlots];
    std::fill_n(qcol, static_cast<size_t>(words) * 64, uint64_t{0});
    for (size_t q = 0; q < chunk; ++q) {
      for (uint32_t w = 0; w < words; ++w) {
        qcol[w * 64 + q] = chunk_sets[q].Word(static_cast<int>(w));
      }
    }
    // Lane sums accumulate in a dense local array (the lane step's unit
    // of work) and copy out once per chunk.
    int64_t lane_sums[64] = {};
    // member[j]: lanes whose query set contains license j. Only the
    // prefix up to the highest present index is ever read; query licenses
    // beyond it can't match any node and are skipped.
    uint64_t member[kMaxLicensesLarge];
    std::fill_n(member, view.member_span, uint64_t{0});
    for (size_t q = 0; q < chunk; ++q) {
      for (int idx : chunk_sets[q].Indexes()) {
        if (static_cast<uint32_t>(idx) < view.member_span) {
          member[static_cast<size_t>(idx)] |= uint64_t{1} << q;
        }
      }
    }
    // (subtree end, lanes to restore on leaving that subtree). Depth is
    // bounded by kMaxLicensesLarge (path indexes strictly increase), so
    // the frame array tops out at ~16 KiB of stack — fine for the worker
    // threads this runs on; revisit before raising kMaxLicensesLarge.
    std::pair<uint32_t, uint64_t> stack[kMaxLicensesLarge + 1];
    size_t depth = 0;
    uint64_t alive = chunk == 64 ? ~uint64_t{0} : (uint64_t{1} << chunk) - 1;
    size_t i = 0;
    while (i < size) {
      while (depth > 0 && stack[depth - 1].first == i) {
        alive = stack[--depth].second;
      }
      touched += static_cast<uint64_t>(std::popcount(alive));
      const uint64_t on_path = alive & member[view.index[i]];
      if (on_path == 0) {
        i = view.subtree_end[i];
        continue;
      }
      const uint64_t* mask = &view.subtree_mask_words[i * words];
      const int64_t node_count = view.count[i];
      const int64_t node_sum = view.subtree_sum[i];
      uint64_t descend;
      if (std::popcount(on_path) >= LaneOps::LaneThreshold(kWords)) {
        // Enough lanes on this path for the wide step to win: whole lane
        // groups are tested in vector registers, all mask words folded
        // into one stray accumulator, and the sum-vs-count accumulate
        // splits off the same compare mask.
        descend = LaneOps::template LaneStep<kWords>(
            mask, words, qcol, on_path, node_sum, node_count, lane_sums);
      } else {
        descend = 0;
        for (uint64_t lanes = on_path; lanes != 0; lanes &= lanes - 1) {
          const size_t q = static_cast<size_t>(std::countr_zero(lanes));
          bool covered;
          if constexpr (kWords == 1) {
            covered = (mask[0] & ~qcol[q]) == 0;
          } else {
            covered = true;
            for (uint32_t w = 0; w < words; ++w) {
              covered = covered && (mask[w] & ~qcol[w * 64 + q]) == 0;
            }
          }
          if (covered) {
            lane_sums[q] += node_sum;  // Covered: summarize, stop here.
          } else {
            lane_sums[q] += node_count;
            descend |= uint64_t{1} << q;
          }
        }
      }
      if (descend == 0 || view.subtree_end[i] == i + 1) {
        i = view.subtree_end[i];
        continue;
      }
      stack[depth++] = {view.subtree_end[i], alive};
      alive = descend;
      ++i;
    }
    for (size_t q = 0; q < chunk; ++q) {
      chunk_sums[q] = lane_sums[q];
    }
  }
  return touched;
}

// Branches the runtime mask width into the compile-time specializations
// (`single_word` is the caller's mask_words == 1 flag).
template <typename LaneOps>
uint64_t BatchScanTier(const FlatTreeBatchView& view, bool single_word,
                       std::span<const LicenseSet> sets,
                       std::span<int64_t> sums) {
  if (single_word) {
    return BatchScan<1, LaneOps>(view, sets, sums);
  }
  if (view.mask_words == 2) {
    return BatchScan<2, LaneOps>(view, sets, sums);
  }
  return BatchScan<0, LaneOps>(view, sets, sums);
}

}  // namespace internal
}  // namespace geolic

#endif  // GEOLIC_VALIDATION_FLAT_TREE_BATCH_SCAN_H_
