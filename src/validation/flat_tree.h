#ifndef GEOLIC_VALIDATION_FLAT_TREE_H_
#define GEOLIC_VALIDATION_FLAT_TREE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "validation/validation_tree.h"
#include "util/license_set.h"

namespace geolic {

namespace internal {
struct FlatTreeBatchView;
}  // namespace internal

// Read-only arena compile of a ValidationTree, built once per offline run
// and queried for every validation equation. The pointer tree stays the
// mutable build/admission structure; this is the equation hot path.
//
// Layout: nodes in preorder (root excluded) as structure-of-arrays columns,
// so an equation is a forward scan over contiguous memory instead of a
// pointer chase:
//
//   slot        0    1    2  ...                 (preorder position)
//   index_      license index of the node
//   count_      C of the exact set spelled by the node's path
//   subtree_end_  one past the node's last descendant — [i, subtree_end_[i])
//                 is the node's whole subtree, so a subtree skip is `i =
//                 subtree_end_[i]`
//   subtree_mask_words_  node's index ∪ every license index below it,
//                 word-sliced: slot i's mask is the mask_words_ u64 words at
//                 [i * mask_words_, (i+1) * mask_words_), zero-padded to the
//                 compile-wide width. mask_words_ == 1 whenever every present
//                 license index is < 64, and the scan then takes a
//                 single-word fast path identical to the historical u64
//                 column.
//   subtree_sum_  node's count + every count below it
//
// The two precomputed columns turn the ref [10] descent into a pruned scan:
//
//   * subtree_mask[i] & set == 0  ⇒ no node below i can lie inside `set`
//     (the per-query form of Theorem 1: no overlap ⇒ contributes nothing)
//     — skip the subtree after reading one cache line.
//   * subtree_mask[i] ⊆ set  ⇒ every path through i stays inside `set` —
//     add subtree_sum_[i] and skip, one add for a whole covered region.
//
// `nodes_visited` semantics differ from the pointer tree by design: the
// flat tree reports *nodes touched after pruning* per equation — every
// preorder slot whose columns were read, counting a skipped or summarized
// subtree as the single slot that decided it. Sums are always exactly
// equal to the pointer tree's; visit counts are not comparable across
// layouts (the pointer walk counts only nodes it descends into, while the
// flat scan also counts the slot that takes each skip decision).
//
// SumSubsetsBatch is the only query: a single equation is a batch of one.
// The per-query scans it is gated against (sums and nodes_visited) live
// with the ablation that times them, bench/flat_tree_reference.h.
class FlatValidationTree {
 public:
  // An empty compile (no nodes); every equation sums to 0.
  FlatValidationTree() = default;

  // Compiles a snapshot of `tree`. O(nodes); the result is immutable and
  // safe to query from any number of threads concurrently.
  static FlatValidationTree Compile(const ValidationTree& tree);

  // LHS of the validation equation (the paper's C⟨S⟩) for every entry of
  // `sets`: sums[i] = ValidationTree::SumSubsets(sets[i]) on the
  // compiled-from tree, exactly. Up to 64 equations share a single pruned
  // pass over the arena: each node is loaded once per 64-query chunk and
  // pruning decisions are taken per query via a 64-bit lane mask — the
  // shape of the exhaustive and grouped validator loops
  // (validation/flat_tree_batch.h). If `nodes_visited` is non-null, the
  // nodes touched after pruning, summed over the equations, are added to
  // it; sums and that count are the same however callers chunk. `sums`
  // must have at least sets.size() entries; an empty batch writes nothing.
  void SumSubsetsBatch(std::span<const LicenseSet> sets,
                       std::span<int64_t> sums,
                       uint64_t* nodes_visited = nullptr) const;

  // Borrowed view of the compiled columns (validation/flat_tree_batch.h),
  // valid while this tree lives: what the batch scan reads, and what the
  // reference scans that gate it read.
  internal::FlatTreeBatchView BatchView() const;

  // Number of nodes (the pointer tree's NodeCount, root excluded).
  size_t NodeCount() const { return index_.size(); }

  // Sum of all node counts (equals the log's total count).
  int64_t TotalCount() const { return total_count_; }

  // Mask of every license index present in the tree.
  LicenseSet PresentLicenses() const { return present_; }

  // Words per sliced subtree mask (1 unless some present index is ≥ 64).
  int MaskWords() const { return static_cast<int>(mask_words_); }

  // Exact heap footprint of the five columns — the flat-layout entry of
  // the figure-10 storage comparison.
  size_t MemoryBytes() const;

  // Invokes `fn(set, count)` for every node with a non-zero count, in
  // preorder — same visit order and values as the pointer tree.
  void ForEachSet(
      const std::function<void(const LicenseSet&, int64_t)>& fn) const;

 private:
  std::vector<int32_t> index_;
  std::vector<int64_t> count_;
  std::vector<uint32_t> subtree_end_;
  std::vector<uint64_t> subtree_mask_words_;  // NodeCount() × mask_words_.
  std::vector<int64_t> subtree_sum_;
  uint32_t mask_words_ = 1;
  // 1 + the highest license index present — the prefix of the batch
  // scan's per-chunk membership table that actually needs zeroing.
  uint32_t member_span_ = 0;
  int64_t total_count_ = 0;
  LicenseSet present_;
};

}  // namespace geolic

#endif  // GEOLIC_VALIDATION_FLAT_TREE_H_
