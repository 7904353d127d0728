#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "csr/builder.hpp"
#include "csr/degree.hpp"

namespace pcq::graph {
namespace {

TEST(ErdosRenyi, CountsAndBounds) {
  const EdgeList g = erdos_renyi(100, 5000, 1, 4);
  EXPECT_EQ(g.size(), 5000u);
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, 100u);
    EXPECT_LT(e.v, 100u);
    EXPECT_NE(e.u, e.v);
  }
}

TEST(ErdosRenyi, DeterministicAcrossThreadCounts) {
  const EdgeList a = erdos_renyi(1000, 20'000, 7, 1);
  const EdgeList b = erdos_renyi(1000, 20'000, 7, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

TEST(ErdosRenyi, DifferentSeedsDiffer) {
  const EdgeList a = erdos_renyi(1000, 1000, 1, 4);
  const EdgeList b = erdos_renyi(1000, 1000, 2, 4);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.edges()[i] != b.edges()[i]) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Rmat, CountsAndBounds) {
  const EdgeList g = rmat(1 << 10, 10'000, 0.57, 0.19, 0.19, 3, 4);
  EXPECT_EQ(g.size(), 10'000u);
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, 1u << 10);
    EXPECT_LT(e.v, 1u << 10);
    EXPECT_NE(e.u, e.v);
  }
}

TEST(Rmat, NonPowerOfTwoNodeCount) {
  const EdgeList g = rmat(1000, 5000, 0.57, 0.19, 0.19, 5, 4);
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, 1000u);
    EXPECT_LT(e.v, 1000u);
  }
}

TEST(Rmat, SkewedDegreesUnlikeUniform) {
  // R-MAT with social skew must concentrate edges far more than G(n, m):
  // compare max degree and Gini coefficient.
  const int n = 1 << 12;
  const std::size_t m = 50'000;
  EdgeList r = rmat(n, m, 0.57, 0.19, 0.19, 11, 4);
  EdgeList e = erdos_renyi(n, m, 11, 4);
  r.sort(4);
  e.sort(4);
  const auto stats_r =
      csr::degree_stats(csr::build_csr_from_sorted(r, n, 4), 4);
  const auto stats_e =
      csr::degree_stats(csr::build_csr_from_sorted(e, n, 4), 4);
  EXPECT_GT(stats_r.max, stats_e.max * 3);
  EXPECT_GT(stats_r.gini, stats_e.gini + 0.1);
}

TEST(Rmat, DeterministicAcrossThreadCounts) {
  const EdgeList a = rmat(512, 10'000, 0.57, 0.19, 0.19, 9, 1);
  const EdgeList b = rmat(512, 10'000, 0.57, 0.19, 0.19, 9, 16);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

TEST(BarabasiAlbert, CountsAndPreferentialSkew) {
  const EdgeList g = barabasi_albert(2000, 3, 13);
  EXPECT_EQ(g.size(), 1u + 3u * 1998u);
  EXPECT_LE(g.num_nodes(), 2000u);
  for (const Edge& e : g.edges()) EXPECT_NE(e.u, e.v);
  // Early nodes accumulate degree: node 0/1 should beat the median node.
  std::vector<int> degree(2000, 0);
  for (const Edge& e : g.edges()) {
    ++degree[e.u];
    ++degree[e.v];
  }
  EXPECT_GT(degree[0] + degree[1], 40);
}

TEST(WattsStrogatz, BetaZeroIsRingLattice) {
  const EdgeList g = watts_strogatz(100, 2, 0.0, 1, 4);
  EXPECT_EQ(g.size(), 200u);
  for (const Edge& e : g.edges()) {
    const unsigned fwd = (e.v + 100 - e.u) % 100;
    EXPECT_TRUE(fwd == 1 || fwd == 2) << e.u << "->" << e.v;
  }
}

TEST(WattsStrogatz, BetaOneRewiresMostEdges) {
  const EdgeList g = watts_strogatz(1000, 2, 1.0, 2, 4);
  std::size_t lattice_edges = 0;
  for (const Edge& e : g.edges()) {
    const unsigned fwd = (e.v + 1000 - e.u) % 1000;
    if (fwd == 1 || fwd == 2) ++lattice_edges;
  }
  EXPECT_LT(lattice_edges, g.size() / 10);
}

TEST(PlantedPartition, MostEdgesIntraBlock) {
  const EdgeList g = planted_partition(1000, 20'000, 10, 0.9, 7, 4);
  EXPECT_EQ(g.size(), 20'000u);
  std::size_t intra = 0;
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, 1000u);
    EXPECT_NE(e.u, e.v);
    if (e.u % 10 == e.v % 10) ++intra;
  }
  // p_intra = 0.9 plus the ~10% of random edges that land intra anyway.
  EXPECT_GT(intra, g.size() * 85 / 100);
  EXPECT_LT(intra, g.size() * 97 / 100);
}

TEST(PlantedPartition, ZeroIntraIsNearUniform) {
  const EdgeList g = planted_partition(1000, 20'000, 10, 0.0, 9, 4);
  std::size_t intra = 0;
  for (const Edge& e : g.edges())
    if (e.u % 10 == e.v % 10) ++intra;
  EXPECT_NEAR(static_cast<double>(intra), g.size() * 0.1, g.size() * 0.02);
}

TEST(PlantedPartition, DeterministicAcrossThreads) {
  const EdgeList a = planted_partition(500, 5000, 5, 0.8, 11, 1);
  const EdgeList b = planted_partition(500, 5000, 5, 0.8, 11, 8);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

TEST(EvolvingGraph, SortedBoundedAndDeterministic) {
  const TemporalEdgeList a = evolving_graph(500, 20'000, 16, 4, 1);
  EXPECT_EQ(a.size(), 20'000u);
  EXPECT_TRUE(a.is_sorted());
  EXPECT_LE(a.num_frames(), 16u);
  for (const TemporalEdge& e : a.edges()) {
    EXPECT_LT(e.u, 500u);
    EXPECT_LT(e.v, 500u);
    EXPECT_LT(e.t, 16u);
  }
  const TemporalEdgeList b = evolving_graph(500, 20'000, 16, 4, 8);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

TEST(Presets, FourPaperGraphs) {
  const auto& presets = paper_presets();
  ASSERT_EQ(presets.size(), 4u);
  EXPECT_EQ(presets[0].name, "LiveJournal");
  EXPECT_EQ(presets[0].nodes, 4'847'571u);
  EXPECT_EQ(presets[0].edges, 68'993'773u);
  EXPECT_EQ(presets[2].name, "Orkut");
  EXPECT_EQ(presets[2].edges, 117'185'083u);
}

TEST(Presets, LookupByNameCaseInsensitive) {
  EXPECT_EQ(preset_by_name("pokec").nodes, 1'632'803u);
  EXPECT_EQ(preset_by_name("WEBNOTREDAME").edges, 1'497'134u);
}

TEST(PresetsDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(preset_by_name("friendster"), "unknown graph preset");
}

TEST(Presets, ScaledInstantiationIsSortedAndSized) {
  const GraphPreset& p = preset_by_name("WebNotreDame");
  const EdgeList g = make_preset_graph(p, 0.01, 42, 4);
  EXPECT_TRUE(g.is_sorted());
  EXPECT_NEAR(static_cast<double>(g.size()), p.edges * 0.01, 2.0);
  EXPECT_LE(g.num_nodes(), static_cast<VertexId>(p.nodes * 0.01) + 1);
}

}  // namespace
}  // namespace pcq::graph
