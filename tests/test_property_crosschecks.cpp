// Seed-parameterized cross-structure property suite.
//
// For a sweep of generator seeds (i.e. structurally different graphs),
// asserts the global invariants that tie the library together:
//   * every static structure answers identically,
//   * every temporal structure answers identically,
//   * compression is lossless (round trips through the packed forms),
//   * derived quantities (degree sums) are consistent across independent
//     implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "csr/builder.hpp"
#include "dyn/hybrid.hpp"
#include "graph/baselines.hpp"
#include "graph/generators.hpp"
#include "graph/k2tree.hpp"
#include "graph/webgraph.hpp"
#include "tcsr/cas_index.hpp"
#include "tcsr/contact_index.hpp"
#include "tcsr/edgelog.hpp"
#include "tcsr/tcsr.hpp"
#include "util/rng.hpp"

namespace pcq {
namespace {

using graph::EdgeList;
using graph::TemporalEdgeList;
using graph::TimeFrame;
using graph::VertexId;

class StaticCrossCheck : public testing::TestWithParam<std::uint64_t> {};

TEST_P(StaticCrossCheck, FiveStructuresOneTruth) {
  const std::uint64_t seed = GetParam();
  constexpr VertexId kN = 300;
  EdgeList list = graph::rmat(kN, 6000, 0.57, 0.19, 0.19, seed, 4);
  list.sort(4);
  list.dedupe();

  const csr::CsrGraph plain = csr::build_csr_from_sorted(list, kN, 4);
  const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, 4);
  const graph::GapZetaGraph zeta =
      graph::GapZetaGraph::build_from_sorted(list, kN, 3, 4);
  const graph::K2Tree k2 = graph::K2Tree::build(list, kN, 4, 4);
  const graph::AdjacencyListGraph adj(list, kN);
  // The mutable tier: a packed base of every other edge, the rest added as
  // one batch, so its answers come through both the base and delta paths.
  EdgeList base_half;
  std::vector<graph::Edge> delta_half;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i % 2 == 0)
      base_half.push_back(list.edges()[i]);
    else
      delta_half.push_back(list.edges()[i]);
  }
  dyn::HybridGraph hybrid(
      csr::build_bitpacked_csr_from_sorted(base_half, kN, 4));
  ASSERT_EQ(hybrid.add_edges(delta_half, 4), delta_half.size());
  const dyn::HybridGraph::View mutable_view = hybrid.view();

  // Degree sums agree everywhere.
  std::uint64_t deg_sum = 0;
  for (VertexId u = 0; u < kN; ++u) deg_sum += plain.degree(u);
  EXPECT_EQ(deg_sum, list.size());
  EXPECT_EQ(mutable_view.num_edges(), list.size());
  EXPECT_EQ(k2.num_edges(), list.size());

  util::SplitMix64 rng(seed ^ 0xabcdef);
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(kN));
    const auto v = static_cast<VertexId>(rng.next_below(kN));
    const bool expect = adj.has_edge(u, v);
    ASSERT_EQ(plain.has_edge(u, v), expect);
    ASSERT_EQ(packed.has_edge(u, v), expect);
    ASSERT_EQ(zeta.has_edge(u, v), expect);
    ASSERT_EQ(k2.has_edge(u, v), expect);
    ASSERT_EQ(mutable_view.has_edge(u, v), expect);
  }
  for (VertexId u = 0; u < kN; u += 17) {
    const auto row = plain.neighbors(u);
    const std::vector<VertexId> expect(row.begin(), row.end());
    ASSERT_EQ(packed.neighbors(u), expect);
    ASSERT_EQ(zeta.neighbors(u), expect);
    ASSERT_EQ(k2.neighbors(u), expect);
    ASSERT_EQ(mutable_view.neighbors(u), expect);
  }
}

TEST_P(StaticCrossCheck, CompressionIsLossless) {
  const std::uint64_t seed = GetParam();
  EdgeList list = graph::erdos_renyi(200, 3000, seed, 4);
  list.sort(4);
  list.dedupe();
  const csr::CsrGraph plain = csr::build_csr_from_sorted(list, 200, 4);
  const csr::CsrGraph back =
      csr::BitPackedCsr::from_csr(plain, 4).to_csr();
  EXPECT_TRUE(std::equal(back.offsets().begin(), back.offsets().end(),
                         plain.offsets().begin()));
  EXPECT_TRUE(std::equal(back.columns().begin(), back.columns().end(),
                         plain.columns().begin()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticCrossCheck,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

class TemporalCrossCheck : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TemporalCrossCheck, SixStructuresOneTruth) {
  const std::uint64_t seed = GetParam();
  constexpr VertexId kN = 80;
  constexpr TimeFrame kT = 10;
  const TemporalEdgeList events =
      seed % 2 == 0
          ? graph::evolving_graph(kN, 3000, kT, seed, 4)
          : graph::evolving_graph_churn(kN, 1500, kT, 150, 0.4, seed);

  const auto tcsr = tcsr::DifferentialTcsr::build(events, kN, kT, 4);
  const auto cas = tcsr::CasIndex::build(events, kN, 4);
  const auto contact = tcsr::ContactIndex::build(events, kN, kT, 4);
  const auto edgelog = tcsr::EdgeLog::build(events, kN, kT, 4);

  util::SplitMix64 rng(seed * 31 + 7);
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(kN));
    const auto v = static_cast<VertexId>(rng.next_below(kN));
    const auto t = static_cast<TimeFrame>(rng.next_below(kT));
    const bool expect = tcsr.edge_active(u, v, t);
    ASSERT_EQ(cas.edge_active(u, v, t), expect) << u << "," << v << "@" << t;
    ASSERT_EQ(contact.edge_active(u, v, t), expect);
    ASSERT_EQ(edgelog.edge_active(u, v, t), expect);
  }
  for (VertexId u = 0; u < kN; u += 13) {
    for (TimeFrame t = 0; t < kT; t += 4) {
      const auto expect = tcsr.neighbors_at(u, t);
      ASSERT_EQ(cas.neighbors_at(u, t), expect);
      ASSERT_EQ(contact.neighbors_at(u, t), expect);
      ASSERT_EQ(edgelog.neighbors_at(u, t), expect);
    }
  }
}

TEST_P(TemporalCrossCheck, SnapshotsEqualAccumulatedDeltas) {
  const std::uint64_t seed = GetParam();
  const TemporalEdgeList events = graph::evolving_graph(60, 2000, 8, seed, 4);
  const auto tcsr = tcsr::DifferentialTcsr::build(events, 60, 8, 4);
  const auto snaps = tcsr.all_snapshots(4);
  // Edge count of each snapshot equals what per-frame reconstruction says.
  for (TimeFrame t = 0; t < 8; ++t) {
    const auto snap = tcsr.snapshot_at(t, 4);
    ASSERT_EQ(snap.num_edges(), snaps[t].size()) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemporalCrossCheck,
                         testing::Values(2u, 3u, 5u, 7u, 11u, 13u));

}  // namespace
}  // namespace pcq
