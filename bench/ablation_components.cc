// Ablation: connected-component algorithms for group formation — the
// paper's recursive DFS (Algorithm 3) versus an explicit-stack DFS versus
// union-find, across overlap-graph densities at N = 64.
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
  const AdjacencyMatrix graph =
      RandomGraph(64, static_cast<double>(state.range(0)) / 1000.0, 11);
  const ComponentSet expected = FindComponentsDfs(graph);
  const ComponentSet got = FindComponentsIterative(graph);
  GEOLIC_CHECK(got.components == expected.components);
  GEOLIC_CHECK(got.component_of == expected.component_of);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindComponentsIterative(graph));
  }
}
BENCHMARK(BM_ComponentsIterative)->Arg(5)->Arg(20)->Arg(100)->Arg(500);

void BM_ComponentsUnionFind(benchmark::State& state) {
  const AdjacencyMatrix graph =
      RandomGraph(64, static_cast<double>(state.range(0)) / 1000.0, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindComponentsUnionFind(graph));
  }
}
BENCHMARK(BM_ComponentsUnionFind)->Arg(5)->Arg(20)->Arg(100)->Arg(500);

}  // namespace
}  // namespace geolic

BENCHMARK_MAIN();
