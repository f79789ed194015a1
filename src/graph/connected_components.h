#ifndef GEOLIC_GRAPH_CONNECTED_COMPONENTS_H_
#define GEOLIC_GRAPH_CONNECTED_COMPONENTS_H_

#include <vector>

#include "graph/adjacency_matrix.h"
#include "util/license_set.h"

namespace geolic {

// Result of grouping the vertices of an undirected graph into connected
// components. Components are numbered in order of their smallest vertex
// (the paper's Algorithm 3 scans vertices ascending, so component 0 holds
// vertex 0, etc.).
struct ComponentSet {
  // Bitmask of vertices per component; size = number of components g.
  std::vector<LicenseSet> components;
  // Component index of each vertex; size = number of vertices.
  std::vector<int> component_of;

  int count() const { return static_cast<int>(components.size()); }
  int SizeOf(int component) const {
    return components[static_cast<size_t>(component)].Size();
  }
};

// Paper Algorithm 3 ("Group Formation"): recursive depth-first search over
// the adjacency matrix producing the Group / GroupSize arrays. This is the
// faithful transcription; the returned ComponentSet packages the same
// information (`components[k]` is row k of Group as a bitmask,
// `SizeOf(k)` is GroupSize[k]). Requires ≤ kMaxLicensesLarge vertices.
ComponentSet FindComponentsDfs(const AdjacencyMatrix& graph);

// Disjoint-set forest over 0..n-1 with union by rank and path compression.
class UnionFind {
 public:
  UnionFind() : UnionFind(0) {}
  explicit UnionFind(int n);

  // Representative of x's set.
  int Find(int x);

  // Representative of x's set without path compression — usable from const
  // contexts. Union by rank bounds the walk to O(log n) even when no
  // compressing Find has run.
  int FindRoot(int x) const;

  // Merges the sets of a and b; returns true if they were distinct.
  bool Union(int a, int b);

  // Appends a new element as a singleton set; returns its index.
  int AddElement();

  // Number of elements in the forest.
  int ElementCount() const { return static_cast<int>(parent_.size()); }

  // Number of disjoint sets remaining.
  int SetCount() const { return set_count_; }

 private:
  std::vector<int> parent_;
  std::vector<int> rank_;
  int set_count_;
};

}  // namespace geolic

#endif  // GEOLIC_GRAPH_CONNECTED_COMPONENTS_H_
