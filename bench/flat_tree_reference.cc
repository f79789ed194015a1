#include "bench/flat_tree_reference.h"

#include "validation/flat_tree_batch.h"

namespace geolic {
namespace {

void AddVisits(uint64_t* nodes_visited, uint64_t touched) {
  if (nodes_visited != nullptr) {
    *nodes_visited += touched;
  }
}

template <bool kSingleWord>
int64_t PrunedScan(const internal::FlatTreeBatchView& view,
                   const LicenseSet& set, uint64_t* nodes_visited) {
  const uint32_t words = kSingleWord ? 1 : view.mask_words;
  uint64_t set_words[kMaxLicenseWords];
  for (uint32_t w = 0; w < words; ++w) {
    set_words[w] = set.Word(static_cast<int>(w));
  }
  int64_t sum = 0;
  uint64_t touched = 0;
  size_t i = 0;
  while (i < view.size) {
    ++touched;
    const uint64_t* mask = &view.subtree_mask_words[i * words];
    bool covered = true;
    bool empty = true;
    for (uint32_t w = 0; w < words; ++w) {
      const uint64_t inter = mask[w] & set_words[w];
      covered = covered && inter == mask[w];
      empty = empty && inter == 0;
    }
    if (covered) {
      // Fully covered region: one add replaces the whole descent. Every
      // leaf whose index is in `set` lands here too.
      sum += view.subtree_sum[i];
      i = view.subtree_end[i];
    } else if (empty || !set.Contains(view.index[i])) {
      // Theorem 1 (nothing below overlaps `set`), or the node's index is
      // off-set, which every path through it spells (ref [10]).
      i = view.subtree_end[i];
    } else {
      sum += view.count[i];
      ++i;
    }
  }
  AddVisits(nodes_visited, touched);
  return sum;
}

}  // namespace

int64_t ReferenceSumSubsets(const FlatValidationTree& flat,
                            const LicenseSet& set, uint64_t* nodes_visited) {
  return flat.MaskWords() == 1
             ? PrunedScan<true>(flat.BatchView(), set, nodes_visited)
             : PrunedScan<false>(flat.BatchView(), set, nodes_visited);
}

int64_t ReferenceSumSubsetsWide(const FlatValidationTree& flat,
                                const LicenseSet& set,
                                uint64_t* nodes_visited) {
  return PrunedScan<false>(flat.BatchView(), set, nodes_visited);
}

int64_t ReferenceSumSubsetsNoAccel(const FlatValidationTree& flat,
                                   const LicenseSet& set,
                                   uint64_t* nodes_visited) {
  const internal::FlatTreeBatchView view = flat.BatchView();
  int64_t sum = 0;
  uint64_t touched = 0;
  size_t i = 0;
  while (i < view.size) {
    ++touched;
    if (!set.Contains(view.index[i])) {
      i = view.subtree_end[i];
      continue;
    }
    sum += view.count[i];
    ++i;
  }
  AddVisits(nodes_visited, touched);
  return sum;
}

void ReferenceSumSubsetsBatchWide(const FlatValidationTree& flat,
                                  std::span<const LicenseSet> sets,
                                  std::span<int64_t> sums,
                                  uint64_t* nodes_visited) {
  AddVisits(nodes_visited,
            internal::BatchScan<0>(flat.BatchView(), sets, sums));
}

}  // namespace geolic
