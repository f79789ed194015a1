#ifndef GEOLIC_BENCH_RECT_GROUPING_H_
#define GEOLIC_BENCH_RECT_GROUPING_H_

#include <vector>

#include "core/grouping.h"
#include "geometry/hyper_rect.h"
#include "graph/adjacency_matrix.h"
#include "graph/connected_components.h"

namespace geolic {

// BuildOverlapGraph and LicenseGrouping::FromLicenses at the level of raw
// hyper-rectangles: the reference groupings that the incremental grouping
// (DynamicGrouping) and the service's epoch build are checked against,
// from rects copied out of a catalog or drawn by a generator.

inline AdjacencyMatrix BuildOverlapGraphFromRects(
    const std::vector<HyperRect>& rects) {
  const int n = static_cast<int>(rects.size());
  AdjacencyMatrix graph(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rects[static_cast<size_t>(i)].Overlaps(
              rects[static_cast<size_t>(j)])) {
        graph.AddEdge(i, j);
      }
    }
  }
  return graph;
}

// Algorithm 3's DFS over the rects' overlap graph.
inline LicenseGrouping GroupingFromRects(const std::vector<HyperRect>& rects) {
  return LicenseGrouping::FromGroupOf(
      FindComponentsDfs(BuildOverlapGraphFromRects(rects)).component_of);
}

}  // namespace geolic

#endif  // GEOLIC_BENCH_RECT_GROUPING_H_
