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
// so one SumSubsets query is a forward scan over contiguous memory instead
// of a pointer chase:
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
// flat tree reports *nodes touched after pruning* — every preorder slot
// whose columns were read, counting a skipped or summarized subtree as the
// single slot that decided it. Sums are always exactly equal to the
// pointer tree's; visit counts are not comparable across layouts (the
// pointer walk counts only nodes it descends into, while the flat scan
// also counts the slot that takes each skip decision), so the two columns
// in the ablation measure different work units.
class FlatValidationTree {
 public:
  // An empty compile (no nodes); SumSubsets returns 0 for every set.
  FlatValidationTree() = default;

  // Compiles a snapshot of `tree`. O(nodes); the result is immutable and
  // safe to query from any number of threads concurrently.
  static FlatValidationTree Compile(const ValidationTree& tree);

  // LHS of the validation equation for `set` (the paper's C⟨S⟩), exactly
  // equal to ValidationTree::SumSubsets on the compiled-from tree. If
  // `nodes_visited` is non-null, the number of nodes touched after pruning
  // is added to it.
  int64_t SumSubsets(const LicenseSet& set,
                     uint64_t* nodes_visited = nullptr) const;

  // Ablation baseline: the same contiguous scan with only the structural
  // ref [10] rule (skip a subtree when the node's index ∉ set), no
  // mask/sum accelerators. Isolates layout gains from pruning gains.
  int64_t SumSubsetsNoAccel(const LicenseSet& set,
                            uint64_t* nodes_visited = nullptr) const;

  // Evaluates one equation per entry of `sets` (sums[i] = SumSubsets(
  // sets[i])) with up to 64 equations sharing a single pruned pass over
  // the arena: each node is loaded once per 64-query chunk and pruning
  // decisions are taken per query via a 64-bit lane mask — the shape of
  // the exhaustive and grouped validator loops. When enough lanes are on
  // a node's path, the fused covered-test-and-accumulate lane step runs
  // in vector registers. The whole scan is compiled once per ISA tier
  // (validation/flat_tree_batch_*.cc) and dispatched per call via
  // util/cpu_dispatch.h, so the hot loop never pays a per-node indirect
  // call; results and nodes-visited accounting stay bit-identical to
  // per-query SumSubsets calls regardless of tier or how callers chunk.
  // `sums` must have at least sets.size() entries.
  void SumSubsetsBatch(std::span<const LicenseSet> sets,
                       std::span<int64_t> sums,
                       uint64_t* nodes_visited = nullptr) const;

  // The same batch scan pinned to the scalar lane tier (the per-lane
  // bitmask loop always runs — what GEOLIC_FORCE_SCALAR dispatches to);
  // only the lane step differs from SumSubsetsBatch.
  void SumSubsetsBatchScalar(std::span<const LicenseSet> sets,
                             std::span<int64_t> sums,
                             uint64_t* nodes_visited = nullptr) const;

  // Equivalence-gating references: the generic word-sliced implementations,
  // forced even when the compile is single-word (and, for the batch, pinned
  // to the scalar kernel tier). Bit-identical to SumSubsets/SumSubsetsBatch
  // by construction; tests run both paths over the same equations to gate
  // the inline fast path against the wide one.
  int64_t SumSubsetsWideReference(const LicenseSet& set,
                                  uint64_t* nodes_visited = nullptr) const;
  void SumSubsetsBatchWideReference(std::span<const LicenseSet> sets,
                                    std::span<int64_t> sums,
                                    uint64_t* nodes_visited = nullptr) const;

  // Exact count stored for `set` (0 if the set never appeared in the log).
  int64_t CountOf(const LicenseSet& set) const;

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
  template <bool kSingleWord>
  int64_t SumSubsetsImpl(const LicenseSet& set, uint64_t* nodes_visited) const;

  // Column-pointer view handed to the per-tier batch-scan entry points.
  internal::FlatTreeBatchView BatchView() const;

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
