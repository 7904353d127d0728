#include "csr/degree.hpp"

#include <gtest/gtest.h>

#include "csr/builder.hpp"
#include "graph/generators.hpp"

namespace pcq::csr {
namespace {

using graph::EdgeList;
using graph::VertexId;

TEST(DegreeStats, UniformRing) {
  EdgeList g;
  for (VertexId v = 0; v < 100; ++v) g.push_back({v, (v + 1) % 100});
  g.sort(2);
  const CsrGraph csr = build_csr_from_sorted(g, 100, 2);
  const DegreeStats s = degree_stats(csr, 4);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_NEAR(s.gini, 0.0, 1e-9);  // perfectly equal degrees
}

TEST(DegreeStats, StarGraphInequality) {
  EdgeList g;
  for (VertexId v = 1; v < 100; ++v) g.push_back({0, v});
  g.sort(2);
  const CsrGraph csr = build_csr_from_sorted(g, 100, 2);
  const DegreeStats s = degree_stats(csr, 4);
  EXPECT_EQ(s.max, 99u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_GT(s.gini, 0.9);  // extreme concentration
}

TEST(DegreeStats, EmptyGraph) {
  const DegreeStats s = degree_stats(CsrGraph{}, 4);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(DegreeStats, MeanIsEdgesOverNodes) {
  EdgeList g = graph::erdos_renyi(200, 5000, 99, 4);
  g.sort(4);
  const CsrGraph csr = build_csr_from_sorted(g, 200, 4);
  const DegreeStats s = degree_stats(csr, 4);
  EXPECT_NEAR(s.mean, 5000.0 / 200, 1e-9);
}

TEST(DegreeHistogram, BucketsPartitionNodes) {
  EdgeList g = graph::rmat(512, 20'000, 0.57, 0.19, 0.19, 101, 4);
  g.sort(4);
  const CsrGraph csr = build_csr_from_sorted(g, 512, 4);
  const auto hist = degree_histogram_log2(csr);
  std::uint64_t total = 0;
  for (auto c : hist) total += c;
  EXPECT_EQ(total, 512u);
}

TEST(DegreeHistogram, KnownBuckets) {
  // Degrees: node0 -> 1 edge (bucket 0), node1 -> 2 (bucket 1),
  // node2 -> 5 (bucket 2), nodes 3 and 4 -> 0 (bucket 0). Node 2's edges
  // reach destination 4, so the graph has 5 nodes.
  EdgeList g;
  g.push_back({0, 1});
  for (VertexId i = 0; i < 2; ++i) g.push_back({1, i});
  for (VertexId i = 0; i < 5; ++i) g.push_back({2, i});
  g.sort(2);
  const CsrGraph csr = build_csr_from_sorted(g, 5, 2);
  const auto hist = degree_histogram_log2(csr);
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 3u);  // degrees 0, 0 and 1
  EXPECT_EQ(hist[1], 1u);  // degree 2
  EXPECT_EQ(hist[2], 1u);  // degree 5 in [4, 8)
}

}  // namespace
}  // namespace pcq::csr
