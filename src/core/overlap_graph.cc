#include "core/overlap_graph.h"

namespace geolic {

AdjacencyMatrix BuildOverlapGraph(const LicenseCatalog& licenses) {
  const int n = licenses.size();
  AdjacencyMatrix graph(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (licenses.at(i).OverlapsWith(licenses.at(j))) {
        graph.AddEdge(i, j);
      }
    }
  }
  return graph;
}

}  // namespace geolic
