#ifndef GEOLIC_CORE_DYNAMIC_GROUPING_H_
#define GEOLIC_CORE_DYNAMIC_GROUPING_H_

#include <vector>

#include "geometry/hyper_rect.h"
#include "graph/connected_components.h"
#include "util/license_set.h"
#include "util/status.h"

namespace geolic {

// Incrementally maintained license grouping. The paper's Figure 6
// discussion: when a distributor acquires redistribution license L_D^{N+1},
// the group count stays (connects to one group), grows (connects to none),
// or shrinks (bridges several). Rebuilding the overlap graph and re-running
// DFS on every acquisition costs O(N²) overlap tests; this class maintains
// the components under insertion with union-find, paying only O(N) overlap
// tests per new license. Ablated against full recomputation in
// bench/ablation_dynamic_grouping.
//
// Removal (revoke / expiry) renumbers the survivors densely — license
// `index` disappears and every higher index shifts down by one, matching
// the paper's Algorithm 5 index convention. The overlap edges discovered at
// insertion time are cached per license, so a removal rebuilds the
// union-find from the cached adjacency masks without re-running any
// geometry tests.
//
// A whole catalog is grouped at once by Build, a sort-and-sweep over
// dimension 0 that runs the exact overlap test only on pairs whose
// dimension-0 hulls intersect: O(N log N + such pairs) instead of the
// N(N−1)/2 tests of N AddLicense calls, with the same result.
class DynamicGrouping {
 public:
  // Dimensionality is fixed by the first license added.
  DynamicGrouping() = default;

  // Dimensionality is fixed up front; every AddLicense — including the
  // first — is validated against it.
  explicit DynamicGrouping(int expected_dimensions);

  // The grouping N AddLicense calls on DynamicGrouping(dimensions) would
  // leave — the same neighbours, components, group count and merges —
  // built in one sweep. Fails as AddLicense would on a rect of another
  // dimensionality or on more than kMaxLicensesLarge rects.
  static Result<DynamicGrouping> Build(int dimensions,
                                       std::vector<HyperRect> rects);

  // Registers the next license's hyper-rectangle; returns its index.
  // The number of overlap tests performed equals the current size.
  Result<int> AddLicense(const HyperRect& rect);

  // Removes license `index`; indexes above it shift down by one. No
  // geometry retests: components are rebuilt from cached adjacency.
  Status RemoveLicense(int index);

  int size() const { return static_cast<int>(rects_.size()); }

  // Current number of groups.
  int group_count() const { return groups_; }

  // Mask of the group containing license `index`.
  LicenseSet GroupMaskOf(int index) const;

  // All groups, ordered by smallest member — identical to what
  // FindComponentsDfs would produce on the full overlap graph.
  ComponentSet Components() const;

  // Total group merges performed so far (a bridge license causes ≥ 1).
  int merges() const { return merges_; }

  const std::vector<HyperRect>& rects() const { return rects_; }

 private:
  // -1 until fixed by the constructor argument or the first license.
  int expected_dimensions_ = -1;
  std::vector<HyperRect> rects_;
  // Overlap neighbours of each license (no self bit), maintained
  // symmetrically by AddLicense and compacted by RemoveLicense.
  std::vector<LicenseSet> neighbors_;
  // Sized to `size()` — grown one element per AddLicense, rebuilt from
  // `neighbors_` on removal.
  UnionFind union_find_;
  int groups_ = 0;
  int merges_ = 0;
};

}  // namespace geolic

#endif  // GEOLIC_CORE_DYNAMIC_GROUPING_H_
