#ifndef GEOLIC_CORE_GROUPING_H_
#define GEOLIC_CORE_GROUPING_H_

#include <span>
#include <vector>

#include "graph/connected_components.h"
#include "licensing/license_catalog.h"
#include "util/license_set.h"
#include "util/status.h"

namespace geolic {

// The grouping of N redistribution licenses into g mutually non-overlapping
// groups (connected components of the overlap graph), plus the index
// machinery of the paper's Algorithm 5: each license's position inside its
// group (`position_k`), used to renumber divided validation trees so group
// k's indexes run 0..N_k−1.
class LicenseGrouping {
 public:
  // Groups `licenses` by geometric overlap (builds the overlap graph and
  // runs Algorithm 3's DFS).
  static LicenseGrouping FromLicenses(const LicenseCatalog& licenses);

  // Groups from each license's group number: `group_of[i]` is license
  // i's group, groups numbered 0..g−1 in order of their smallest member
  // (a ComponentSet's component_of, or DynamicGrouping::GroupOf).
  static LicenseGrouping FromGroupOf(std::vector<int> group_of);

  int num_licenses() const {
    return static_cast<int>(group_of_.size());
  }
  // g — the number of groups.
  int group_count() const { return static_cast<int>(offsets_.size()) - 1; }
  // N_k — licenses in group k.
  int GroupSize(int group) const {
    return offsets_[static_cast<size_t>(group) + 1] -
           offsets_[static_cast<size_t>(group)];
  }
  // Original indexes of group k's licenses, ascending (Algorithm 5's
  // position order).
  std::span<const int> Members(int group) const {
    return std::span<const int>(members_).subspan(
        static_cast<size_t>(offsets_[static_cast<size_t>(group)]),
        static_cast<size_t>(GroupSize(group)));
  }
  // Mask of the licenses in group k (original indexes).
  LicenseSet GroupMask(int group) const;
  // Group of license `index`.
  int GroupOf(int index) const {
    return group_of_[static_cast<size_t>(index)];
  }
  // Position of license `index` inside its group (0-based; ascending with
  // the original index, as Algorithm 5 assigns positions in index order).
  int PositionOf(int index) const {
    return position_[static_cast<size_t>(index)];
  }
  // Original license index of position `position` in group `group`.
  int OriginalIndexOf(int group, int position) const {
    return members_[static_cast<size_t>(
        offsets_[static_cast<size_t>(group)] + position)];
  }

  // Translates a mask over group `group`'s local positions back to original
  // license indexes.
  LicenseSet LocalToOriginalMask(int group, LicenseSet local) const;

  // Translates a mask of original indexes (which must all lie in `group`)
  // to local positions.
  Result<LicenseSet> OriginalToLocalMask(int group, LicenseSet mask) const;

  // Algorithm 5's A_k: per-group aggregate array in local position order,
  // derived from the full array A (A[j] = aggregate of license j).
  Result<std::vector<int64_t>> GroupAggregates(
      int group, const std::vector<int64_t>& aggregates) const;

  // The groups as a component set (member masks and component_of).
  ComponentSet Components() const;

 private:
  LicenseGrouping(std::vector<int> group_of, int group_count);

  std::vector<int> group_of_;  // Per original index.
  std::vector<int> position_;  // Per original index.
  // Every license, group by group, ascending within a group: group k's
  // members are members_[offsets_[k], offsets_[k + 1]).
  std::vector<int> members_;
  std::vector<int> offsets_;  // group_count() + 1 entries.
};

}  // namespace geolic

#endif  // GEOLIC_CORE_GROUPING_H_
