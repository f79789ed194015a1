#include "core/grouping.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/overlap_graph.h"

namespace geolic {

LicenseGrouping LicenseGrouping::FromLicenses(const LicenseCatalog& licenses) {
  return FromGroupOf(
      FindComponentsDfs(BuildOverlapGraph(licenses)).component_of);
}

LicenseGrouping LicenseGrouping::FromRects(
    const std::vector<HyperRect>& rects) {
  return FromGroupOf(
      FindComponentsDfs(BuildOverlapGraphFromRects(rects)).component_of);
}

LicenseGrouping LicenseGrouping::FromGroupOf(std::vector<int> group_of) {
  const int groups =
      group_of.empty() ? 0 : *std::ranges::max_element(group_of) + 1;
  return LicenseGrouping(std::move(group_of), groups);
}

LicenseGrouping::LicenseGrouping(std::vector<int> group_of, int group_count)
    : group_of_(std::move(group_of)),
      position_(group_of_.size()),
      members_(group_of_.size()),
      offsets_(static_cast<size_t>(group_count) + 1, 0) {
  // A counting sort by group. Scanning ascending, a license's position
  // is the count of its group's members met so far — Algorithm 5 walks
  // j = 1..N and assigns positions p = 1, 2, ... in that order.
  for (size_t i = 0; i < group_of_.size(); ++i) {
    GEOLIC_DCHECK(group_of_[i] >= 0 && group_of_[i] < group_count);
    position_[i] = offsets_[static_cast<size_t>(group_of_[i]) + 1]++;
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  for (size_t i = 0; i < group_of_.size(); ++i) {
    members_[static_cast<size_t>(
        offsets_[static_cast<size_t>(group_of_[i])] + position_[i])] =
        static_cast<int>(i);
  }
}

LicenseSet LicenseGrouping::GroupMask(int group) const {
  LicenseSet mask;
  for (const int index : Members(group)) {
    mask.Add(index);
  }
  return mask;
}

ComponentSet LicenseGrouping::Components() const {
  ComponentSet out;
  out.component_of = group_of_;
  out.components.reserve(static_cast<size_t>(group_count()));
  for (int k = 0; k < group_count(); ++k) {
    out.components.push_back(GroupMask(k));
  }
  return out;
}

LicenseSet LicenseGrouping::LocalToOriginalMask(int group,
                                                 LicenseSet local) const {
  const std::span<const int> members = Members(group);
  LicenseSet original;
  for (int position : local.Indexes()) {
    GEOLIC_DCHECK(position < static_cast<int>(members.size()));
    original |= LicenseSet::Singleton(members[static_cast<size_t>(position)]);
  }
  return original;
}

Result<LicenseSet> LicenseGrouping::OriginalToLocalMask(
    int group, LicenseSet mask) const {
  if (group < 0 || group >= group_count()) {
    return Status::OutOfRange("group index out of range: " +
                              std::to_string(group));
  }
  if (!mask.IsSubsetOf(GroupMask(group))) {
    return Status::InvalidArgument("mask " + (mask).ToString() +
                                   " is not contained in group " +
                                   std::to_string(group));
  }
  LicenseSet local;
  for (int index : mask.Indexes()) {
    local |= LicenseSet::Singleton(PositionOf(index));
  }
  return local;
}

Result<std::vector<int64_t>> LicenseGrouping::GroupAggregates(
    int group, const std::vector<int64_t>& aggregates) const {
  if (group < 0 || group >= group_count()) {
    return Status::OutOfRange("group index out of range: " +
                              std::to_string(group));
  }
  if (aggregates.size() < static_cast<size_t>(num_licenses())) {
    return Status::InvalidArgument(
        "aggregate array smaller than the number of licenses");
  }
  const std::span<const int> members = Members(group);
  std::vector<int64_t> out;
  out.reserve(members.size());
  for (int original : members) {
    out.push_back(aggregates[static_cast<size_t>(original)]);
  }
  return out;
}

}  // namespace geolic
