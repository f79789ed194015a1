#include "graph/connected_components.h"

#include <gtest/gtest.h>


namespace geolic {
namespace {

TEST(ConnectedComponentsTest, EmptyGraph) {
  AdjacencyMatrix graph(0);
  const ComponentSet components = FindComponentsDfs(graph);
  EXPECT_EQ(components.count(), 0);
}

TEST(ConnectedComponentsTest, IsolatedVerticesEachOwnComponent) {
  AdjacencyMatrix graph(4);
  const ComponentSet components = FindComponentsDfs(graph);
  EXPECT_EQ(components.count(), 4);
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(components.component_of[static_cast<size_t>(v)], v);
    EXPECT_EQ(components.components[static_cast<size_t>(v)],
              LicenseSet::Singleton(v));
    EXPECT_EQ(components.SizeOf(v), 1);
  }
}

TEST(ConnectedComponentsTest, FullyConnectedIsOneComponent) {
  AdjacencyMatrix graph(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) {
      graph.AddEdge(i, j);
    }
  }
  const ComponentSet components = FindComponentsDfs(graph);
  EXPECT_EQ(components.count(), 1);
  EXPECT_EQ(components.components[0], LicenseSet::Full(5));
  EXPECT_EQ(components.SizeOf(0), 5);
}

TEST(ConnectedComponentsTest, PaperFigure3Groups) {
  // Edges L1-L2, L1-L4, L3-L5 → groups {L1, L2, L4} and {L3, L5}, exactly
  // the Group rows (1,1,0,1,0) and (0,0,1,0,1) of Section 3.3.
  AdjacencyMatrix graph(5);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 3);
  graph.AddEdge(2, 4);
  const ComponentSet components = FindComponentsDfs(graph);
  ASSERT_EQ(components.count(), 2);
  EXPECT_EQ(components.components[0], LicenseSet::FromWord(0b01011));  // {L1, L2, L4}
  EXPECT_EQ(components.components[1], LicenseSet::FromWord(0b10100));  // {L3, L5}
  EXPECT_EQ(components.SizeOf(0), 3);
  EXPECT_EQ(components.SizeOf(1), 2);
  EXPECT_EQ(components.component_of, (std::vector<int>{0, 0, 1, 0, 1}));
}

TEST(ConnectedComponentsTest, ChainIsOneComponent) {
  AdjacencyMatrix graph(6);
  for (int i = 0; i + 1 < 6; ++i) {
    graph.AddEdge(i, i + 1);
  }
  EXPECT_EQ(FindComponentsDfs(graph).count(), 1);
}

TEST(ConnectedComponentsTest, IndirectConnectionViaLowerIndex) {
  // 2-0 and 2-1: vertices 0 and 1 connect only through 2. A literal
  // reading of Algorithm 3's "for j=i+1" scan would wrongly split this
  // component; the corrected full neighbour scan must find one component.
  AdjacencyMatrix graph(3);
  graph.AddEdge(2, 0);
  graph.AddEdge(2, 1);
  const ComponentSet components = FindComponentsDfs(graph);
  EXPECT_EQ(components.count(), 1);
  EXPECT_EQ(components.components[0], LicenseSet::FromWord(0b111));
}

TEST(ConnectedComponentsTest, ComponentsOrderedBySmallestVertex) {
  AdjacencyMatrix graph(6);
  graph.AddEdge(3, 5);
  graph.AddEdge(1, 2);
  const ComponentSet components = FindComponentsDfs(graph);
  ASSERT_EQ(components.count(), 4);
  EXPECT_EQ(components.components[0], LicenseSet::Singleton(0));
  EXPECT_EQ(components.components[1], LicenseSet::FromWord(0b000110));  // {1, 2}
  EXPECT_EQ(components.components[2], LicenseSet::FromWord(0b101000));  // {3, 5}
  EXPECT_EQ(components.components[3], LicenseSet::Singleton(4));
}


TEST(UnionFindTest, Basics) {
  UnionFind uf(5);
  EXPECT_EQ(uf.SetCount(), 5);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_EQ(uf.SetCount(), 4);
  EXPECT_EQ(uf.Find(0), uf.Find(1));
  EXPECT_NE(uf.Find(0), uf.Find(2));
  EXPECT_TRUE(uf.Union(3, 4));
  EXPECT_TRUE(uf.Union(0, 4));
  EXPECT_EQ(uf.SetCount(), 2);
  EXPECT_EQ(uf.Find(1), uf.Find(3));
}

TEST(UnionFindTest, PathCompressionKeepsAnswersStable) {
  UnionFind uf(100);
  for (int i = 0; i + 1 < 100; ++i) {
    uf.Union(i, i + 1);
  }
  EXPECT_EQ(uf.SetCount(), 1);
  const int root = uf.Find(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(uf.Find(i), root);
  }
}

}  // namespace
}  // namespace geolic
