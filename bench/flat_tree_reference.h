#ifndef GEOLIC_BENCH_FLAT_TREE_REFERENCE_H_
#define GEOLIC_BENCH_FLAT_TREE_REFERENCE_H_

#include <cstdint>
#include <span>

#include "util/license_set.h"
#include "validation/flat_tree.h"

namespace geolic {

// The flat tree's reference scans: what FlatValidationTree::SumSubsetsBatch
// is gated against in sums and nodes_visited, and the engines the
// ablation_flat_tree ablation times beside it. They read the compiled
// columns through FlatValidationTree::BatchView().
//
// Each adds its nodes touched after pruning to `*nodes_visited` when that
// is non-null, counted as the batch counts them.

// One equation by the pruned scan: a forward pass over the preorder
// columns that skips a subtree whose mask misses `set` (Theorem 1) or
// whose index is off-set (ref [10]), and adds a subtree's sum in one step
// when its mask lies inside `set`. Takes the single-word fast path when
// the compile's masks are one word; ReferenceSumSubsetsWide forces the
// generic word-sliced path whatever the width.
int64_t ReferenceSumSubsets(const FlatValidationTree& flat,
                            const LicenseSet& set,
                            uint64_t* nodes_visited = nullptr);
int64_t ReferenceSumSubsetsWide(const FlatValidationTree& flat,
                                const LicenseSet& set,
                                uint64_t* nodes_visited = nullptr);

// The same contiguous scan with only the structural ref [10] rule (skip a
// subtree when the node's index ∉ set), no mask/sum accelerators: isolates
// the layout gain from the pruning gain.
int64_t ReferenceSumSubsetsNoAccel(const FlatValidationTree& flat,
                                   const LicenseSet& set,
                                   uint64_t* nodes_visited = nullptr);

// The batch scan pinned to the runtime-width path, bypassing the 1- and
// 2-word specializations SumSubsetsBatch picks.
void ReferenceSumSubsetsBatchWide(const FlatValidationTree& flat,
                                  std::span<const LicenseSet> sets,
                                  std::span<int64_t> sums,
                                  uint64_t* nodes_visited = nullptr);

}  // namespace geolic

#endif  // GEOLIC_BENCH_FLAT_TREE_REFERENCE_H_
