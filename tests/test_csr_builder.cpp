#include "csr/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "graph/baselines.hpp"
#include "graph/generators.hpp"

namespace pcq::csr {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

/// The paper's running example: Table I's 10-node graph, upper triangle
/// (Figure 1).
EdgeList figure1_graph() {
  return EdgeList({{0, 5}, {1, 6}, {1, 7}, {2, 7}, {3, 8}, {3, 9}, {4, 9}});
}

TEST(CsrBuilder, Figure1DegreeArrayAndNeighbors) {
  const CsrGraph csr = build_csr_from_sorted(figure1_graph(), 10, 4);
  EXPECT_EQ(csr.num_nodes(), 10u);
  EXPECT_EQ(csr.num_edges(), 7u);
  // Degrees of the upper triangular rows: 1 2 1 2 1 0 0 0 0 0.
  const std::vector<std::uint32_t> expected_deg{1, 2, 1, 2, 1, 0, 0, 0, 0, 0};
  for (VertexId u = 0; u < 10; ++u) EXPECT_EQ(csr.degree(u), expected_deg[u]);
  // Neighbour list in Figure 1: 5 6 7 7 8 9 9.
  const std::vector<VertexId> expected_cols{5, 6, 7, 7, 8, 9, 9};
  for (std::size_t i = 0; i < expected_cols.size(); ++i)
    EXPECT_EQ(csr.columns()[i], expected_cols[i]);
}

TEST(CsrBuilder, EmptyGraph) {
  const CsrGraph csr = build_csr_from_sorted(EdgeList{}, 5, 4);
  EXPECT_EQ(csr.num_nodes(), 5u);
  EXPECT_EQ(csr.num_edges(), 0u);
  for (VertexId u = 0; u < 5; ++u) EXPECT_TRUE(csr.neighbors(u).empty());
}

TEST(CsrBuilder, SingleEdge) {
  const CsrGraph csr = build_csr_from_sorted(EdgeList({{3, 7}}), 0, 8);
  EXPECT_EQ(csr.num_nodes(), 8u);
  EXPECT_EQ(csr.degree(3), 1u);
  EXPECT_TRUE(csr.has_edge(3, 7));
  EXPECT_FALSE(csr.has_edge(7, 3));
}

TEST(CsrBuilder, ParallelEqualsSequentialReference) {
  EdgeList g = graph::rmat(1 << 10, 30'000, 0.57, 0.19, 0.19, 3, 4);
  g.sort(4);
  const CsrGraph ref = build_csr_sequential(g, 1 << 10);
  for (int p : {1, 2, 4, 8, 16, 64}) {
    const CsrGraph par = build_csr_from_sorted(g, 1 << 10, p);
    ASSERT_EQ(par.num_edges(), ref.num_edges()) << "p=" << p;
    EXPECT_TRUE(std::equal(par.offsets().begin(), par.offsets().end(),
                           ref.offsets().begin()))
        << "p=" << p;
    EXPECT_TRUE(std::equal(par.columns().begin(), par.columns().end(),
                           ref.columns().begin()))
        << "p=" << p;
  }
}

TEST(CsrBuilder, UnsortedConvenienceBuildSorts) {
  EdgeList g({{5, 1}, {0, 2}, {5, 0}, {3, 3}});
  const CsrGraph csr = build_csr(g, 0, 4);
  EXPECT_EQ(csr.neighbors(5)[0], 0u);
  EXPECT_EQ(csr.neighbors(5)[1], 1u);
  EXPECT_TRUE(csr.has_edge(3, 3));
}

TEST(CsrBuilder, NeighborsMatchAdjacencyListOracle) {
  EdgeList g = graph::erdos_renyi(300, 5000, 17, 4);
  g.sort(4);
  g.dedupe();
  const graph::AdjacencyListGraph oracle(g, 300);
  const CsrGraph csr = build_csr_from_sorted(g, 300, 8);
  for (VertexId u = 0; u < 300; ++u) {
    const auto expect = oracle.neighbors(u);
    const auto got = csr.neighbors(u);
    ASSERT_EQ(got.size(), expect.size()) << "u=" << u;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()));
  }
}

TEST(CsrBuilder, TimingsPopulated) {
  EdgeList g = graph::rmat(512, 20'000, 0.57, 0.19, 0.19, 5, 4);
  g.sort(4);
  CsrBuildTimings t;
  build_csr_from_sorted(g, 512, 4, &t);
  EXPECT_GE(t.degree, 0.0);
  EXPECT_GE(t.scan, 0.0);
  EXPECT_GE(t.fill, 0.0);
  EXPECT_GT(t.total(), 0.0);
}

TEST(CsrGraph, OffsetsAreMonotone) {
  EdgeList g = graph::rmat(256, 10'000, 0.57, 0.19, 0.19, 7, 4);
  g.sort(4);
  const CsrGraph csr = build_csr_from_sorted(g, 256, 8);
  const auto offs = csr.offsets();
  EXPECT_TRUE(std::is_sorted(offs.begin(), offs.end()));
  EXPECT_EQ(offs.front(), 0u);
  EXPECT_EQ(offs.back(), csr.num_edges());
}

TEST(CsrGraph, SizeBytesAccounting) {
  const CsrGraph csr = build_csr_from_sorted(figure1_graph(), 10, 2);
  EXPECT_EQ(csr.size_bytes(), 11 * 8 + 7 * 4u);
}

// Property: build across (graph shape, thread count) equals the reference.
class BuilderProperty
    : public testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(BuilderProperty, ParallelEqualsReference) {
  const auto [m, threads] = GetParam();
  EdgeList g = graph::rmat(512, m, 0.57, 0.19, 0.19, m + threads, 4);
  g.sort(4);
  const CsrGraph ref = build_csr_sequential(g, 512);
  const CsrGraph par = build_csr_from_sorted(g, 512, threads);
  EXPECT_TRUE(std::equal(par.offsets().begin(), par.offsets().end(),
                         ref.offsets().begin()));
  EXPECT_TRUE(std::equal(par.columns().begin(), par.columns().end(),
                         ref.columns().begin()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuilderProperty,
    testing::Combine(testing::Values<std::size_t>(1, 2, 100, 1000, 50'000),
                     testing::Values(1, 2, 4, 8, 16, 64)));

// --- packed build straight from the edge list ------------------------------
//
// build_bitpacked_csr_from_sorted packs iA and jA without a plain CSR in
// between; its storage words must equal packing the sequential reference
// build, at every processor count.

void expect_storage_equal(const bits::FixedWidthArray& got,
                          const bits::FixedWidthArray& want, int p) {
  ASSERT_EQ(got.size(), want.size()) << "p=" << p;
  ASSERT_EQ(got.width(), want.width()) << "p=" << p;
  const auto g = got.bits().words();
  const auto w = want.bits().words();
  EXPECT_TRUE(std::equal(g.begin(), g.end(), w.begin(), w.end()))
      << "p=" << p;
}

void expect_packed_build_matches_reference(const EdgeList& list,
                                           VertexId num_nodes) {
  const BitPackedCsr ref =
      BitPackedCsr::from_csr(build_csr_sequential(list, num_nodes), 1);
  for (int p : {1, 2, 3, 4, 16}) {
    const BitPackedCsr got = build_bitpacked_csr_from_sorted(list, num_nodes, p);
    ASSERT_EQ(got.num_nodes(), ref.num_nodes()) << "p=" << p;
    ASSERT_EQ(got.num_edges(), ref.num_edges()) << "p=" << p;
    expect_storage_equal(got.packed_offsets(), ref.packed_offsets(), p);
    expect_storage_equal(got.packed_columns(), ref.packed_columns(), p);
  }
}

TEST(PackedBuild, StorageEqualsPackedSequentialReference) {
  EdgeList g = graph::rmat(1 << 12, 40'000, 0.57, 0.19, 0.19, 11, 4);
  g.sort(4);
  expect_packed_build_matches_reference(g, 0);
  expect_packed_build_matches_reference(g, 1 << 12);
}

TEST(PackedBuild, EmptyList) {
  expect_packed_build_matches_reference(EdgeList{}, 0);
  expect_packed_build_matches_reference(EdgeList{}, 7);
}

TEST(PackedBuild, DeclaredNodeCountAboveLargestId) {
  // 300 declared nodes, ids below 40: trailing empty rows, and jA is as
  // wide as the declared range (9 bits), not the used one (6 bits).
  EdgeList g = graph::rmat(40, 2'000, 0.57, 0.19, 0.19, 5, 2);
  g.sort(2);
  expect_packed_build_matches_reference(g, 300);
  EXPECT_EQ(build_bitpacked_csr_from_sorted(g, 300, 4).column_bits(), 9u);
}

TEST(PackedBuild, HubRowSpanningEveryChunk) {
  // One source owns every edge, so its run crosses every chunk boundary of
  // the degree count and its row covers every packing block, with a few
  // leaf rows on either side.
  std::vector<graph::Edge> edges{{0, 1}, {0, 2}};
  for (VertexId v = 0; v < 5'000; ++v) edges.push_back({3, v});
  edges.push_back({9, 4});
  const EdgeList g(std::move(edges));
  ASSERT_TRUE(g.is_sorted());
  expect_packed_build_matches_reference(g, 0);
}

}  // namespace
}  // namespace pcq::csr
