// Scalar tier of the batched equation scan: the portable tier the vector
// tiers are gated against, and the tier GEOLIC_FORCE_SCALAR pins.
// Compiled with the project's baseline flags (no ISA extensions).

#include "validation/flat_tree_batch.h"
#include "validation/flat_tree_batch_scan.h"

namespace geolic {
namespace internal {

uint64_t SumSubsetsBatchScalarTier(const FlatTreeBatchView& view,
                                   std::span<const LicenseSet> sets,
                                   std::span<int64_t> sums) {
  return BatchScanTier<ScalarLaneOps>(view, sets, sums);
}

}  // namespace internal
}  // namespace geolic
