// Ablation: connected-component algorithms for group formation — the
// paper's recursive DFS (Algorithm 3) versus an explicit-stack DFS versus
// union-find, across overlap-graph densities at N = 64. Before timing,
// each alternative is checked against the DFS on 50 random graphs of its
// density (ctest ablation_components_smoke runs it at
// --benchmark_min_time=0.01).
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/connected_components.h"
#include "util/check.h"
#include "util/random.h"

namespace geolic {
namespace {

// The explicit-stack DFS alternative: FindComponentsDfs's result with no
// recursion.
ComponentSet FindComponentsIterative(const AdjacencyMatrix& graph) {
  const int n = graph.num_vertices();
  GEOLIC_CHECK(n <= kMaxLicensesLarge);
  ComponentSet out;
  out.component_of.assign(static_cast<size_t>(n), -1);
  std::vector<bool> visited(static_cast<size_t>(n), false);
  std::vector<int> stack;
  for (int start = 0; start < n; ++start) {
    if (visited[static_cast<size_t>(start)]) {
      continue;
    }
    const int k = static_cast<int>(out.components.size());
    out.components.push_back(LicenseSet());
    stack.push_back(start);
    visited[static_cast<size_t>(start)] = true;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      out.components[static_cast<size_t>(k)] |= LicenseSet::Singleton(v);
      out.component_of[static_cast<size_t>(v)] = k;
      for (int j = 0; j < n; ++j) {
        if (graph.HasEdge(v, j) && !visited[static_cast<size_t>(j)]) {
          visited[static_cast<size_t>(j)] = true;
          stack.push_back(j);
        }
      }
    }
  }
  return out;
}

// The union-find alternative: union every edge, then number components
// by their smallest member to match the DFS ordering.
ComponentSet FindComponentsUnionFind(const AdjacencyMatrix& graph) {
  const int n = graph.num_vertices();
  GEOLIC_CHECK(n <= kMaxLicensesLarge);
  UnionFind uf(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (graph.HasEdge(i, j)) {
        uf.Union(i, j);
      }
    }
  }
  ComponentSet out;
  out.component_of.assign(static_cast<size_t>(n), -1);
  std::vector<int> component_of_root(static_cast<size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    int& k = component_of_root[static_cast<size_t>(uf.Find(v))];
    if (k == -1) {
      k = static_cast<int>(out.components.size());
      out.components.push_back(LicenseSet());
    }
    out.components[static_cast<size_t>(k)] |= LicenseSet::Singleton(v);
    out.component_of[static_cast<size_t>(v)] = k;
  }
  return out;
}

AdjacencyMatrix RandomGraph(int n, double density, uint64_t seed) {
  Rng rng(seed);
  AdjacencyMatrix graph(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(density)) {
        graph.AddEdge(i, j);
      }
    }
  }
  return graph;
}

// `find` must return FindComponentsDfs's components, numbered alike, on
// the timed graph (seed 11) and 49 more of the same density; the DFS's
// components must partition the vertices.
template <typename Find>
void CheckAgainstDfs(Find find, double density) {
  constexpr int kN = 64;
  for (uint64_t seed = 11; seed < 61; ++seed) {
    const AdjacencyMatrix graph = RandomGraph(kN, density, seed);
    const ComponentSet expected = FindComponentsDfs(graph);
    const ComponentSet got = find(graph);
    GEOLIC_CHECK(got.components == expected.components);
    GEOLIC_CHECK(got.component_of == expected.component_of);
    LicenseSet all;
    for (const LicenseSet& component : expected.components) {
      GEOLIC_CHECK((all & component).Empty());
      all |= component;
    }
    GEOLIC_CHECK(all == LicenseSet::Full(kN));
  }
}

// density per mille on the benchmark arg to keep integer args.
void BM_ComponentsDfs(benchmark::State& state) {
  const AdjacencyMatrix graph =
      RandomGraph(64, static_cast<double>(state.range(0)) / 1000.0, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindComponentsDfs(graph));
  }
}
BENCHMARK(BM_ComponentsDfs)->Arg(5)->Arg(20)->Arg(100)->Arg(500);

void BM_ComponentsIterative(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  CheckAgainstDfs(FindComponentsIterative, density);
  const AdjacencyMatrix graph = RandomGraph(64, density, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindComponentsIterative(graph));
  }
}
BENCHMARK(BM_ComponentsIterative)->Arg(5)->Arg(20)->Arg(100)->Arg(500);

void BM_ComponentsUnionFind(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  CheckAgainstDfs(FindComponentsUnionFind, density);
  const AdjacencyMatrix graph = RandomGraph(64, density, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindComponentsUnionFind(graph));
  }
}
BENCHMARK(BM_ComponentsUnionFind)->Arg(5)->Arg(20)->Arg(100)->Arg(500);

}  // namespace
}  // namespace geolic

BENCHMARK_MAIN();
