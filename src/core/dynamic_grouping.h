#ifndef GEOLIC_CORE_DYNAMIC_GROUPING_H_
#define GEOLIC_CORE_DYNAMIC_GROUPING_H_

#include <cstdint>
#include <span>
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
// insertion time are cached as one adjacency bit row per license, so a
// removal rebuilds the union-find from them without re-running any
// geometry tests.
//
// The grouping holds no geometry: Build and AddLicense read the rects of
// the caller's catalog in place, and the catalog stays their only owner,
// so a copy of the grouping (a reconfiguration's scratch copy) copies the
// adjacency rows and the union-find, in one allocation each.
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
  // leave — the same components, group count and merges — built in one
  // sweep over `rects`. Fails as AddLicense would on a rect of another
  // dimensionality or on more than kMaxLicensesLarge rects.
  static Result<DynamicGrouping> Build(
      int dimensions, std::span<const HyperRect* const> rects);

  // Registers *rects[size()], the next license, and returns its index:
  // `rects` is the catalog with the newcomer last, and rects[0..size())
  // are the licenses already registered. The number of overlap tests
  // performed equals the current size.
  Result<int> AddLicense(std::span<const HyperRect* const> rects);

  // Removes license `index`; indexes above it shift down by one. No
  // geometry retests: components are rebuilt from the adjacency rows.
  Status RemoveLicense(int index);

  int size() const { return union_find_.ElementCount(); }

  // Current number of groups.
  int group_count() const { return groups_; }

  // Group of every license, groups numbered in order of their smallest
  // member — Components().component_of, without the member masks.
  std::vector<int> GroupOf() const;

  // All groups, ordered by smallest member — identical to what
  // FindComponentsDfs would produce on the full overlap graph.
  ComponentSet Components() const;

  // Total group merges performed so far (a bridge license causes ≥ 1).
  int merges() const { return merges_; }

 private:
  uint64_t* Row(int v) {
    return adjacency_.data() + static_cast<size_t>(v) * row_words_;
  }
  // Records the overlap of licenses u and v in both rows.
  void Link(int u, int v);

  // -1 until fixed by the constructor argument or the first license.
  int expected_dimensions_ = -1;
  // Overlap neighbours (no self bit): license v's row is the row_words_
  // words at adjacency_[v · row_words_]. Rows widen by a word when the
  // licenses outgrow them and keep their width on removal.
  std::vector<uint64_t> adjacency_;
  size_t row_words_ = 0;
  // Sized to `size()` — grown one element per AddLicense, rebuilt from
  // `adjacency_` on removal.
  UnionFind union_find_;
  int groups_ = 0;
  int merges_ = 0;
};

}  // namespace geolic

#endif  // GEOLIC_CORE_DYNAMIC_GROUPING_H_
