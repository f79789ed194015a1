#ifndef GEOLIC_VALIDATION_FLAT_TREE_BATCH_H_
#define GEOLIC_VALIDATION_FLAT_TREE_BATCH_H_

// The 64-lane batched equation scan behind FlatValidationTree::
// SumSubsetsBatch (flat_tree.cc), over a borrowed view of the tree's
// compiled columns. The mask width is specialized at compile time for the
// 1- and 2-word layouts (every catalog up to 128 licenses), so the
// per-word loops fully unroll; wider compiles take the runtime-width path
// (kWords = 0). Outside flat_tree.cc only the ablation's generic-width
// reference (bench/flat_tree_reference.cc) instantiates the scan, pinned
// to that runtime-width path.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "util/license_set.h"

namespace geolic {
namespace internal {

// Borrowed view of FlatValidationTree's compiled columns: what the batch
// scan reads, and what the reference scans that gate it read
// (bench/flat_tree_reference.h). Pointers borrow from the tree; the view
// must not outlive it.
struct FlatTreeBatchView {
  const int32_t* index;
  const int64_t* count;
  const uint32_t* subtree_end;
  const uint64_t* subtree_mask_words;  // size × mask_words, row-major.
  const int64_t* subtree_sum;
  size_t size;           // Node count (preorder slots).
  uint32_t mask_words;   // Words per sliced subtree mask.
  uint32_t member_span;  // 1 + highest present license index.
};

// 64 queries share one pruned preorder pass: lane q of the `alive` bitset
// says query q still descends the current subtree, so each node is loaded
// once per chunk instead of once per query, and every pruning decision
// (off-set skip, Theorem-1 skip, covered-subtree summarize) is taken per
// lane. Writes sums[i] for i < sets.size() and returns the number of
// (node, lane) visits after pruning, the batch's nodes_visited increment.
// Sums and that count are per (node, query), so they equal the per-query
// pruned scan's however callers chunk their equations. kWords is the
// compile-time mask width (0 = use view.mask_words).
template <int kWords>
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
    // qcol[w * 64 + q]: query q's word w, column-major. Dead lanes stay
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
    // Lane sums accumulate in a dense local array and copy out once per
    // chunk.
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
      uint64_t descend = 0;
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

}  // namespace internal
}  // namespace geolic

#endif  // GEOLIC_VALIDATION_FLAT_TREE_BATCH_H_
