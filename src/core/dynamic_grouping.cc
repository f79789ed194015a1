#include "core/dynamic_grouping.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace geolic {

DynamicGrouping::DynamicGrouping(int expected_dimensions)
    : expected_dimensions_(expected_dimensions) {
  GEOLIC_CHECK(expected_dimensions >= 0);
}

Result<DynamicGrouping> DynamicGrouping::Build(int dimensions,
                                               std::vector<HyperRect> rects) {
  if (rects.size() > static_cast<size_t>(kMaxLicensesLarge)) {
    return Status::CapacityExceeded(
        "dynamic grouping supports at most " +
        std::to_string(kMaxLicensesLarge) + " licenses");
  }
  for (const HyperRect& rect : rects) {
    if (rect.dimensions() != dimensions) {
      return Status::InvalidArgument(
          "license dimensionality disagrees with the grouping's dimensions");
    }
  }
  DynamicGrouping grouping(dimensions);
  const int n = static_cast<int>(rects.size());
  grouping.rects_ = std::move(rects);
  grouping.neighbors_.resize(static_cast<size_t>(n));
  grouping.union_find_ = UnionFind(n);
  // Overlapping rects overlap in dimension 0, so their dimension-0 hulls
  // meet (a shared point or category lies in both); a rect empty there
  // overlaps nothing. Zero-dimensional rects all overlap: one hull each
  // spanning everything. Sorted by hull start, the candidates of `a` are
  // the run of later hulls starting at or before a's end.
  struct Hull {
    int64_t lo;
    int64_t hi;
    int index;
  };
  std::vector<Hull> hulls;
  hulls.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Interval hull =
        dimensions == 0
            ? Interval(std::numeric_limits<int64_t>::min(),
                       std::numeric_limits<int64_t>::max())
            : grouping.rects_[static_cast<size_t>(i)].dim(0).BoundingInterval();
    if (!hull.empty()) {
      hulls.push_back({hull.lo(), hull.hi(), i});
    }
  }
  std::sort(hulls.begin(), hulls.end(),
            [](const Hull& x, const Hull& y) { return x.lo < y.lo; });
  for (size_t a = 0; a < hulls.size(); ++a) {
    for (size_t b = a + 1; b < hulls.size() && hulls[b].lo <= hulls[a].hi;
         ++b) {
      const int i = hulls[a].index;
      const int j = hulls[b].index;
      if (grouping.rects_[static_cast<size_t>(i)].Overlaps(
              grouping.rects_[static_cast<size_t>(j)])) {
        grouping.neighbors_[static_cast<size_t>(i)].Add(j);
        grouping.neighbors_[static_cast<size_t>(j)].Add(i);
        if (grouping.union_find_.Union(i, j)) {
          ++grouping.merges_;
        }
      }
    }
  }
  grouping.groups_ = n - grouping.merges_;
  return grouping;
}

Result<int> DynamicGrouping::AddLicense(const HyperRect& rect) {
  if (size() >= kMaxLicensesLarge) {
    return Status::CapacityExceeded(
        "dynamic grouping supports at most " +
        std::to_string(kMaxLicensesLarge) + " licenses");
  }
  if (expected_dimensions_ < 0) {
    expected_dimensions_ = rect.dimensions();
  } else if (rect.dimensions() != expected_dimensions_) {
    return Status::InvalidArgument(
        "license dimensionality disagrees with the grouping's dimensions");
  }
  const int index = union_find_.AddElement();
  ++groups_;  // The newcomer starts as its own group…
  LicenseSet adjacent;
  for (int other = 0; other < index; ++other) {
    if (rect.Overlaps(rects_[static_cast<size_t>(other)])) {
      adjacent.Add(other);
      neighbors_[static_cast<size_t>(other)].Add(index);
      if (union_find_.Union(index, other)) {
        --groups_;  // …and loses one group per component it bridges.
        ++merges_;
      }
    }
  }
  rects_.push_back(rect);
  neighbors_.push_back(std::move(adjacent));
  return index;
}

Status DynamicGrouping::RemoveLicense(int index) {
  if (index < 0 || index >= size()) {
    return Status::InvalidArgument("license index out of range");
  }
  rects_.erase(rects_.begin() + index);
  neighbors_.erase(neighbors_.begin() + index);
  for (LicenseSet& mask : neighbors_) {
    mask = mask.WithIndexErased(index);
  }
  // Union-find forests do not support deletion; rebuild from the cached
  // adjacency masks. O(E α(N)) with no geometry retests.
  UnionFind rebuilt(size());
  for (int v = 0; v < size(); ++v) {
    for (int u : neighbors_[static_cast<size_t>(v)].Indexes()) {
      if (u < v) {
        rebuilt.Union(u, v);
      }
    }
  }
  groups_ = rebuilt.SetCount();
  union_find_ = std::move(rebuilt);
  return Status::Ok();
}

LicenseSet DynamicGrouping::GroupMaskOf(int index) const {
  GEOLIC_CHECK(index >= 0 && index < size());
  const int root = union_find_.FindRoot(index);
  LicenseSet mask;
  for (int v = 0; v < size(); ++v) {
    if (union_find_.FindRoot(v) == root) {
      mask.Add(v);
    }
  }
  return mask;
}

ComponentSet DynamicGrouping::Components() const {
  ComponentSet out;
  out.component_of.assign(static_cast<size_t>(size()), -1);
  std::vector<int> component_of_root(static_cast<size_t>(size()), -1);
  for (int v = 0; v < size(); ++v) {
    const int root = union_find_.FindRoot(v);
    int& k = component_of_root[static_cast<size_t>(root)];
    if (k == -1) {
      k = static_cast<int>(out.components.size());
      out.components.push_back(LicenseSet());
    }
    out.components[static_cast<size_t>(k)] |= LicenseSet::Singleton(v);
    out.component_of[static_cast<size_t>(v)] = k;
  }
  return out;
}

}  // namespace geolic
