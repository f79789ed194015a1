#ifndef GEOLIC_VALIDATION_FLAT_TREE_BATCH_H_
#define GEOLIC_VALIDATION_FLAT_TREE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/license_set.h"

namespace geolic {
namespace internal {

// Borrowed view of FlatValidationTree's compiled columns, handed to the
// per-ISA batch-scan translation units (flat_tree_batch_*.cc). The batch
// scan is compiled whole per tier — dispatch happens once per SumSubsets-
// Batch call, not once per node, so the tier's lane step inlines into the
// node loop instead of sitting behind a per-node indirect call (which
// costs more than the vector step saves). Pointers borrow from the tree;
// the view must not outlive it.
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

// One batched-scan entry point per ISA tier. Each writes sums[i] for
// i < sets.size() and returns the number of (node, lane) visits after
// pruning — the batch's nodes_visited increment. `single_word` selects
// the mask_words == 1 fast path; passing false forces the generic
// word-sliced scan (the wide-reference equivalence gate uses this).
// Results are bit-identical across tiers by construction. The AVX2 entry
// must only be called on hosts where util/cpu_dispatch.h reports the tier
// available; on toolchains built without the ISA it degrades to the
// scalar tier.
uint64_t SumSubsetsBatchScalarTier(const FlatTreeBatchView& view,
                                   bool single_word,
                                   std::span<const LicenseSet> sets,
                                   std::span<int64_t> sums);
uint64_t SumSubsetsBatchAvx2Tier(const FlatTreeBatchView& view,
                                 bool single_word,
                                 std::span<const LicenseSet> sets,
                                 std::span<int64_t> sums);

// Equivalence-gating reference: the scalar tier's scan pinned to the
// fully generic runtime-width path, bypassing the 1- and 2-word
// compile-time specializations the entries above pick automatically.
uint64_t SumSubsetsBatchGenericReference(const FlatTreeBatchView& view,
                                         std::span<const LicenseSet> sets,
                                         std::span<int64_t> sums);

}  // namespace internal
}  // namespace geolic

#endif  // GEOLIC_VALIDATION_FLAT_TREE_BATCH_H_
