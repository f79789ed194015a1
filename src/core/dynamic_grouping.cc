#include "core/dynamic_grouping.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/grouping.h"

namespace geolic {
namespace {

// Deletes bit `index` from a row of `words` words: every higher bit
// shifts down by one, as the indexes above a removed license do.
void EraseBit(uint64_t* row, size_t words, int index) {
  const size_t first = static_cast<size_t>(index / 64);
  const uint64_t below = (uint64_t{1} << (index % 64)) - 1;
  row[first] = (row[first] & below) | ((row[first] >> 1) & ~below);
  for (size_t w = first; w + 1 < words; ++w) {
    row[w] |= row[w + 1] << 63;
    row[w + 1] >>= 1;
  }
}

}  // namespace

DynamicGrouping::DynamicGrouping(int expected_dimensions)
    : expected_dimensions_(expected_dimensions) {
  GEOLIC_CHECK(expected_dimensions >= 0);
}

Result<DynamicGrouping> DynamicGrouping::Build(
    int dimensions, std::span<const HyperRect* const> rects) {
  if (rects.size() > static_cast<size_t>(kMaxLicensesLarge)) {
    return Status::CapacityExceeded(
        "dynamic grouping supports at most " +
        std::to_string(kMaxLicensesLarge) + " licenses");
  }
  for (const HyperRect* rect : rects) {
    if (rect->dimensions() != dimensions) {
      return Status::InvalidArgument(
          "license dimensionality disagrees with the grouping's dimensions");
    }
  }
  DynamicGrouping grouping(dimensions);
  const int n = static_cast<int>(rects.size());
  grouping.union_find_ = UnionFind(n);
  grouping.row_words_ = (rects.size() + 63) / 64;
  grouping.adjacency_.assign(rects.size() * grouping.row_words_, 0);
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
            : rects[static_cast<size_t>(i)]->dim(0).BoundingInterval();
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
      if (rects[static_cast<size_t>(i)]->Overlaps(
              *rects[static_cast<size_t>(j)])) {
        grouping.Link(i, j);
        if (grouping.union_find_.Union(i, j)) {
          ++grouping.merges_;
        }
      }
    }
  }
  grouping.groups_ = n - grouping.merges_;
  return grouping;
}

Result<int> DynamicGrouping::AddLicense(
    std::span<const HyperRect* const> rects) {
  if (size() >= kMaxLicensesLarge) {
    return Status::CapacityExceeded(
        "dynamic grouping supports at most " +
        std::to_string(kMaxLicensesLarge) + " licenses");
  }
  if (rects.size() != static_cast<size_t>(size()) + 1) {
    return Status::InvalidArgument(
        "AddLicense needs the registered licenses' rects plus the new one");
  }
  const HyperRect& rect = *rects.back();
  if (expected_dimensions_ < 0) {
    expected_dimensions_ = rect.dimensions();
  } else if (rect.dimensions() != expected_dimensions_) {
    return Status::InvalidArgument(
        "license dimensionality disagrees with the grouping's dimensions");
  }
  const int index = union_find_.AddElement();
  const size_t words = static_cast<size_t>(index) / 64 + 1;
  if (words > row_words_) {
    std::vector<uint64_t> wider(static_cast<size_t>(index) * words, 0);
    for (int v = 0; v < index; ++v) {
      std::copy_n(Row(v), row_words_,
                  wider.data() + static_cast<size_t>(v) * words);
    }
    adjacency_ = std::move(wider);
    row_words_ = words;
  }
  adjacency_.resize(adjacency_.size() + row_words_, 0);
  ++groups_;  // The newcomer starts as its own group…
  for (int other = 0; other < index; ++other) {
    if (rect.Overlaps(*rects[static_cast<size_t>(other)])) {
      Link(other, index);
      if (union_find_.Union(index, other)) {
        --groups_;  // …and loses one group per component it bridges.
        ++merges_;
      }
    }
  }
  return index;
}

Status DynamicGrouping::RemoveLicense(int index) {
  if (index < 0 || index >= size()) {
    return Status::InvalidArgument("license index out of range");
  }
  // Drop the license's row, then its bit from every other row.
  adjacency_.erase(
      adjacency_.begin() + static_cast<ptrdiff_t>(
                               static_cast<size_t>(index) * row_words_),
      adjacency_.begin() + static_cast<ptrdiff_t>(
                               static_cast<size_t>(index + 1) * row_words_));
  const int n = size() - 1;
  for (int v = 0; v < n; ++v) {
    EraseBit(Row(v), row_words_, index);
  }
  // Union-find forests do not support deletion; rebuild from the cached
  // adjacency rows. O(N·words + E α(N)) with no geometry retests.
  UnionFind rebuilt(n);
  for (int v = 0; v < n; ++v) {
    const uint64_t* row = Row(v);
    for (size_t w = 0; w < row_words_; ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const int u = static_cast<int>(w * 64) + std::countr_zero(bits);
        if (u < v) {  // Each edge once.
          rebuilt.Union(u, v);
        }
      }
    }
  }
  groups_ = rebuilt.SetCount();
  union_find_ = std::move(rebuilt);
  return Status::Ok();
}

std::vector<int> DynamicGrouping::GroupOf() const {
  // Scanning ascending, a group's first member seen is its smallest, so
  // groups number in that order. The root's own entry holds the group
  // number: the root is a member, so its final entry is that number too.
  std::vector<int> group_of(static_cast<size_t>(size()), -1);
  int groups = 0;
  for (int v = 0; v < size(); ++v) {
    int& root_group =
        group_of[static_cast<size_t>(union_find_.FindRoot(v))];
    if (root_group == -1) {
      root_group = groups++;
    }
    group_of[static_cast<size_t>(v)] = root_group;
  }
  return group_of;
}

ComponentSet DynamicGrouping::Components() const {
  return LicenseGrouping::FromGroupOf(GroupOf()).Components();
}

void DynamicGrouping::Link(int u, int v) {
  Row(u)[v / 64] |= uint64_t{1} << (v % 64);
  Row(v)[u / 64] |= uint64_t{1} << (u % 64);
}

}  // namespace geolic
