// End-to-end integration tests: the full paper pipeline — generate (or
// load) an edge list, sort, build the bit-packed CSR in parallel, query it,
// run analytics, and round-trip through disk — at multiple thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "algos/bfs.hpp"
#include "algos/components.hpp"
#include "algos/pagerank.hpp"
#include "algos/stats.hpp"
#include "csr/builder.hpp"
#include "csr/query.hpp"
#include "dyn/hybrid.hpp"
#include "graph/baselines.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/k2tree.hpp"
#include "graph/webgraph.hpp"
#include "tcsr/baselines.hpp"
#include "tcsr/tcsr.hpp"
#include "util/rng.hpp"

namespace pcq {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::TemporalEdgeList;
using graph::VertexId;

TEST(Integration, MiniTableTwoPipeline) {
  // A miniature of the Table II experiment on every preset: generate at a
  // small scale, build at several thread counts, check invariants the
  // paper's table relies on (identical output, CSR smaller than the edge
  // list).
  for (const auto& preset : graph::paper_presets()) {
    const EdgeList list = graph::make_preset_graph(preset, 0.002, 42, 4);
    ASSERT_TRUE(list.is_sorted());
    const VertexId n = list.num_nodes();

    csr::CsrBuildTimings timings;
    const csr::BitPackedCsr ref =
        csr::build_bitpacked_csr_from_sorted(list, n, 1, &timings);
    EXPECT_LT(ref.size_bytes(), list.size_bytes()) << preset.name;
    for (int p : {4, 16}) {
      const csr::BitPackedCsr packed =
          csr::build_bitpacked_csr_from_sorted(list, n, p);
      EXPECT_TRUE(packed.packed_offsets() == ref.packed_offsets())
          << preset.name << " p=" << p;
      EXPECT_TRUE(packed.packed_columns() == ref.packed_columns())
          << preset.name << " p=" << p;
    }
  }
}

TEST(Integration, QueriesAgreeAcrossAllStructures) {
  // CSR, bit-packed CSR, adjacency list and edge list must answer every
  // query identically — the premise of the paper's S1 comparison.
  EdgeList list = graph::rmat(1 << 10, 30'000, 0.57, 0.19, 0.19, 7, 4);
  list.sort(4);
  list.dedupe();
  const VertexId n = 1 << 10;

  const csr::CsrGraph plain = csr::build_csr_from_sorted(list, n, 4);
  const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, 4);
  const graph::AdjacencyListGraph adj(list, n);
  const graph::EdgeListGraph raw(list);

  util::SplitMix64 rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    const bool expect = adj.has_edge(u, v);
    EXPECT_EQ(plain.has_edge(u, v), expect);
    EXPECT_EQ(packed.has_edge(u, v), expect);
    EXPECT_EQ(raw.has_edge(u, v), expect);
    EXPECT_EQ(csr::edge_exists_intra_row(packed, u, v, 4), expect);
  }
}

TEST(Integration, DiskRoundTripThenFullPipeline) {
  const auto dir = std::filesystem::temp_directory_path() / "pcq_integration";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "graph.txt").string();

  EdgeList original = graph::rmat(512, 10'000, 0.57, 0.19, 0.19, 11, 4);
  graph::save_snap_text(original, path);
  EdgeList loaded = graph::load_snap_text(path);
  loaded.sort(4);
  original.sort(4);

  const csr::BitPackedCsr a =
      csr::build_bitpacked_csr_from_sorted(loaded, 512, 4);
  const csr::BitPackedCsr b =
      csr::build_bitpacked_csr_from_sorted(original, 512, 4);
  EXPECT_TRUE(a.packed_columns() == b.packed_columns());
  std::filesystem::remove_all(dir);
}

TEST(Integration, AnalyticsOnPackedEqualsPlain) {
  EdgeList list = graph::rmat(1 << 9, 15'000, 0.57, 0.19, 0.19, 13, 4);
  list.symmetrize();
  list.sort(4);
  list.dedupe();
  const VertexId n = 1 << 9;
  const csr::CsrGraph plain = csr::build_csr_from_sorted(list, n, 4);
  const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, 4);

  EXPECT_EQ(algos::bfs(packed, 0, 4), algos::bfs(plain, 0, 4));

  const auto labels = algos::connected_components_label_prop(plain, 4);
  EXPECT_EQ(labels, algos::connected_components_union_find(plain));

  const auto pr = algos::pagerank(plain, {}, 4);
  EXPECT_NEAR(std::accumulate(pr.scores.begin(), pr.scores.end(), 0.0), 1.0,
              1e-6);
}

TEST(Integration, TemporalPipelineEndToEnd) {
  // Build every temporal structure from one workload and cross-validate on
  // a query battery, then confirm the size ordering DESIGN.md documents.
  const TemporalEdgeList events = graph::evolving_graph(128, 8000, 16, 17, 4);
  const auto tcsr = tcsr::DifferentialTcsr::build(events, 128, 16, 4);
  const auto snaps = tcsr::SnapshotSequence::build(events, 128, 16, 4);
  const auto evelog = tcsr::EveLog::build(events, 128, 4);

  util::SplitMix64 rng(19);
  for (int i = 0; i < 500; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(128));
    const auto v = static_cast<VertexId>(rng.next_below(128));
    const auto t = static_cast<graph::TimeFrame>(rng.next_below(16));
    const bool expect = tcsr.edge_active(u, v, t);
    EXPECT_EQ(snaps.edge_active(u, v, t), expect);
    EXPECT_EQ(evelog.edge_active(u, v, t), expect);
  }

  // Reconstructed final snapshot equals the snapshot-sequence's last frame.
  const csr::CsrGraph last = tcsr.snapshot_at(15, 4);
  for (VertexId u = 0; u < 128; u += 9) {
    auto a = last.neighbors(u);
    const auto b = snaps.neighbors_at(u, 15);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << u;
  }
}

TEST(Integration, SixtyFourThreadOversubscription) {
  // The paper's largest configuration (p = 64) on every pipeline stage —
  // exercises chunk logic far past the physical core count.
  EdgeList list = graph::rmat(1 << 10, 50'000, 0.57, 0.19, 0.19, 23, 64);
  list.sort(64);
  const csr::BitPackedCsr packed =
      csr::build_bitpacked_csr_from_sorted(list, 1 << 10, 64);
  const csr::BitPackedCsr ref =
      csr::build_bitpacked_csr_from_sorted(list, 1 << 10, 1);
  EXPECT_TRUE(packed.packed_columns() == ref.packed_columns());

  std::vector<VertexId> nodes(1000);
  util::SplitMix64 rng(29);
  for (auto& u : nodes) u = static_cast<VertexId>(rng.next_below(1 << 10));
  const auto rows = csr::batch_neighbors(packed, nodes, 64);
  const csr::CsrGraph plain = packed.to_csr();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto expect = plain.neighbors(nodes[i]);
    ASSERT_EQ(rows[i].size(), expect.size());
    EXPECT_TRUE(std::equal(rows[i].begin(), rows[i].end(), expect.begin()));
  }
}

TEST(Integration, AllCompressedStructuresAgreeOnQueries) {
  // The full comparator spectrum — plain CSR, bit-packed CSR, gap+zeta,
  // k²-tree, the mutable hybrid tier — answers one query battery
  // identically.
  EdgeList list = graph::rmat(1 << 9, 12'000, 0.57, 0.19, 0.19, 37, 4);
  list.sort(4);
  list.dedupe();
  const VertexId n = 1 << 9;
  const csr::CsrGraph plain = csr::build_csr_from_sorted(list, n, 4);
  const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, 4);
  const graph::GapZetaGraph zeta =
      graph::GapZetaGraph::build_from_sorted(list, n, 3, 4);
  const graph::K2Tree k2 = graph::K2Tree::build(list, n, 2, 4);
  // Hybrid: a packed base of every other edge, the rest added as one
  // batch, so its answers come through both the base and delta paths.
  EdgeList base_half;
  std::vector<Edge> delta_half;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i % 2 == 0)
      base_half.push_back(list.edges()[i]);
    else
      delta_half.push_back(list.edges()[i]);
  }
  dyn::HybridGraph hybrid(
      csr::build_bitpacked_csr_from_sorted(base_half, n, 4));
  ASSERT_EQ(hybrid.add_edges(delta_half, 4), delta_half.size());
  const dyn::HybridGraph::View mutable_view = hybrid.view();
  EXPECT_EQ(mutable_view.num_edges(), list.size());

  util::SplitMix64 rng(39);
  for (int i = 0; i < 1500; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    const bool expect = plain.has_edge(u, v);
    ASSERT_EQ(packed.has_edge(u, v), expect) << u << "," << v;
    ASSERT_EQ(zeta.has_edge(u, v), expect) << u << "," << v;
    ASSERT_EQ(k2.has_edge(u, v), expect) << u << "," << v;
    ASSERT_EQ(mutable_view.has_edge(u, v), expect) << u << "," << v;
  }
  for (VertexId u = 0; u < n; u += 31) {
    const auto expect = plain.neighbors(u);
    const std::vector<VertexId> expect_v(expect.begin(), expect.end());
    EXPECT_EQ(packed.neighbors(u), expect_v);
    EXPECT_EQ(zeta.neighbors(u), expect_v);
    EXPECT_EQ(k2.neighbors(u), expect_v);
    EXPECT_EQ(mutable_view.neighbors(u), expect_v);
  }
}

TEST(Integration, DegreeDistributionSurvivesCompression) {
  // Stats computed on the unpacked form of the packed CSR equal stats on
  // the plain CSR — compression is lossless for analytics.
  EdgeList list = graph::make_preset_graph(
      graph::preset_by_name("WebNotreDame"), 0.02, 31, 4);
  const csr::CsrGraph plain =
      csr::build_csr_from_sorted(list, list.num_nodes(), 4);
  const csr::BitPackedCsr packed = csr::BitPackedCsr::from_csr(plain, 4);
  const auto a = algos::degree_stats(plain, 4);
  const auto b = algos::degree_stats(packed.to_csr(), 4);
  EXPECT_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.gini, b.gini);
}

}  // namespace
}  // namespace pcq
