#include "graph/connected_components.h"

#include <algorithm>
#include <numeric>

namespace geolic {
namespace {

// Subroutine Depth_first(i, k) of Algorithm 3: marks vertex i as visited,
// adds it to group k, and recurses into unvisited neighbours.
//
// Note: the paper's pseudo-code scans neighbours "for j=i+1 to N". Read
// literally that drops components connected only through a lower-indexed
// hub (edges 2-0 and 2-1 with no 0-1 edge: the walk 0→2 never looks back
// down to 1, wrongly splitting {0,1,2}). A DFS must scan *all* neighbours,
// so we treat the bound as a transcription slip and scan j = 1..N;
// bench/ablation_components (ctest ablation_components_smoke) cross-checks
// this against union-find.
void DepthFirst(const AdjacencyMatrix& graph, int i, int k,
                std::vector<int>* visited, ComponentSet* out) {
  out->components[static_cast<size_t>(k)] |= LicenseSet::Singleton(i);
  out->component_of[static_cast<size_t>(i)] = k;
  (*visited)[static_cast<size_t>(i)] = 1;
  for (int j = 0; j < graph.num_vertices(); ++j) {
    if (graph.HasEdge(i, j) && (*visited)[static_cast<size_t>(j)] == 0) {
      DepthFirst(graph, j, k, visited, out);
    }
  }
}

}  // namespace

ComponentSet FindComponentsDfs(const AdjacencyMatrix& graph) {
  const int n = graph.num_vertices();
  GEOLIC_CHECK(n <= kMaxLicensesLarge);
  ComponentSet out;
  out.component_of.assign(static_cast<size_t>(n), -1);
  std::vector<int> visited(static_cast<size_t>(n), 0);
  int g = 0;
  for (int i = 0; i < n; ++i) {
    if (visited[static_cast<size_t>(i)] == 0) {
      out.components.push_back(LicenseSet());
      DepthFirst(graph, i, g, &visited, &out);
      ++g;
    }
  }
  return out;
}

UnionFind::UnionFind(int n)
    : parent_(static_cast<size_t>(n)),
      rank_(static_cast<size_t>(n), 0),
      set_count_(n) {
  GEOLIC_CHECK(n >= 0);
  std::iota(parent_.begin(), parent_.end(), 0);
}

int UnionFind::Find(int x) {
  int root = x;
  while (parent_[static_cast<size_t>(root)] != root) {
    root = parent_[static_cast<size_t>(root)];
  }
  // Path compression.
  while (parent_[static_cast<size_t>(x)] != root) {
    const int next = parent_[static_cast<size_t>(x)];
    parent_[static_cast<size_t>(x)] = root;
    x = next;
  }
  return root;
}

int UnionFind::FindRoot(int x) const {
  int root = x;
  while (parent_[static_cast<size_t>(root)] != root) {
    root = parent_[static_cast<size_t>(root)];
  }
  return root;
}

int UnionFind::AddElement() {
  const int index = static_cast<int>(parent_.size());
  parent_.push_back(index);
  rank_.push_back(0);
  ++set_count_;
  return index;
}

bool UnionFind::Union(int a, int b) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) {
    return false;
  }
  if (rank_[static_cast<size_t>(ra)] < rank_[static_cast<size_t>(rb)]) {
    std::swap(ra, rb);
  }
  parent_[static_cast<size_t>(rb)] = ra;
  if (rank_[static_cast<size_t>(ra)] == rank_[static_cast<size_t>(rb)]) {
    ++rank_[static_cast<size_t>(ra)];
  }
  --set_count_;
  return true;
}

}  // namespace geolic
