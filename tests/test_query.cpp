#include "csr/query.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "csr/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace pcq::csr {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

struct QueryFixture {
  QueryFixture() {
    EdgeList g = graph::rmat(512, 20'000, 0.57, 0.19, 0.19, 21, 4);
    g.sort(4);
    g.dedupe();
    plain = build_csr_from_sorted(g, 512, 4);
    packed = BitPackedCsr::from_csr(plain, 4);
  }
  CsrGraph plain;
  BitPackedCsr packed;
};

const QueryFixture& fixture() {
  static const QueryFixture f;
  return f;
}

std::vector<VertexId> random_nodes(std::size_t count, std::uint64_t seed) {
  pcq::util::SplitMix64 rng(seed);
  std::vector<VertexId> nodes(count);
  for (auto& u : nodes) u = static_cast<VertexId>(rng.next_below(512));
  return nodes;
}

std::vector<Edge> random_edge_queries(std::size_t count, std::uint64_t seed) {
  const auto& f = fixture();
  pcq::util::SplitMix64 rng(seed);
  std::vector<Edge> qs(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.next_bool(0.5)) {
      // Half the queries hit real edges.
      const auto u = static_cast<VertexId>(rng.next_below(512));
      const auto row = f.plain.neighbors(u);
      if (!row.empty()) {
        qs[i] = {u, row[rng.next_below(row.size())]};
        continue;
      }
    }
    qs[i] = {static_cast<VertexId>(rng.next_below(512)),
             static_cast<VertexId>(rng.next_below(512))};
  }
  return qs;
}

// --- Algorithm 6 -----------------------------------------------------------

TEST(BatchNeighbors, MatchesPlainRows) {
  const auto& f = fixture();
  const auto nodes = random_nodes(200, 1);
  const auto result = batch_neighbors(f.packed, nodes, 4);
  ASSERT_EQ(result.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto expect = f.plain.neighbors(nodes[i]);
    ASSERT_EQ(result[i].size(), expect.size()) << "query " << i;
    EXPECT_TRUE(std::equal(result[i].begin(), result[i].end(), expect.begin()));
  }
}

TEST(BatchNeighbors, EmptyQueryArray) {
  EXPECT_TRUE(batch_neighbors(fixture().packed, {}, 4).empty());
}

TEST(BatchNeighbors, DuplicateQueriesAnsweredIndependently) {
  const auto& f = fixture();
  const std::vector<VertexId> nodes{7, 7, 7};
  const auto result = batch_neighbors(f.packed, nodes, 4);
  const auto expect = f.plain.neighbors(7);
  for (const auto& row : result) {
    ASSERT_EQ(row.size(), expect.size());
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expect.begin()));
  }
}

TEST(BatchNeighborsFlat, MatchesNestedResult) {
  const auto& f = fixture();
  const auto nodes = random_nodes(300, 11);
  const auto nested = batch_neighbors(f.packed, nodes, 4);
  for (int p : {1, 2, 4, 8, 64}) {
    const auto flat = batch_neighbors_flat(f.packed, nodes, p);
    ASSERT_EQ(flat.offsets.size(), nodes.size() + 1);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto row = flat.row(i);
      ASSERT_EQ(row.size(), nested[i].size()) << "p=" << p << " i=" << i;
      EXPECT_TRUE(std::equal(row.begin(), row.end(), nested[i].begin()));
    }
  }
}

TEST(BatchNeighborsFlat, EmptyBatch) {
  const auto flat = batch_neighbors_flat(fixture().packed, {}, 4);
  EXPECT_EQ(flat.offsets, (std::vector<std::uint64_t>{0}));
  EXPECT_TRUE(flat.values.empty());
}

TEST(BatchNeighborsFlat, IsolatedNodesGetEmptyRows) {
  const CsrGraph csr = build_csr_from_sorted(EdgeList({{0, 1}}), 10, 2);
  const BitPackedCsr packed = BitPackedCsr::from_csr(csr, 2);
  const std::vector<VertexId> nodes{5, 0, 7};
  const auto flat = batch_neighbors_flat(packed, nodes, 4);
  EXPECT_TRUE(flat.row(0).empty());
  ASSERT_EQ(flat.row(1).size(), 1u);
  EXPECT_EQ(flat.row(1)[0], 1u);
  EXPECT_TRUE(flat.row(2).empty());
}

// --- Algorithm 7 -----------------------------------------------------------

TEST(BatchEdgeExistence, MatchesPlainHasEdge) {
  const auto& f = fixture();
  const auto queries = random_edge_queries(500, 3);
  const auto result = batch_edge_existence(f.packed, queries, 4);
  ASSERT_EQ(result.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(result[i] != 0, f.plain.has_edge(queries[i].u, queries[i].v))
        << queries[i].u << "->" << queries[i].v;
  }
}

TEST(BatchEdgeExistence, MixOfHitsAndMisses) {
  const auto queries = random_edge_queries(500, 5);
  const auto result = batch_edge_existence(fixture().packed, queries, 8);
  const std::size_t hits =
      static_cast<std::size_t>(std::count(result.begin(), result.end(), 1));
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, queries.size());
}

TEST(BatchEdgeExistence, BinarySearchMatchesLinear) {
  const auto& f = fixture();
  const auto queries = random_edge_queries(500, 13);
  const auto linear =
      batch_edge_existence(f.packed, queries, 4, RowSearch::kLinear);
  for (int p : {1, 2, 4, 8}) {
    const auto binary =
        batch_edge_existence(f.packed, queries, p, RowSearch::kBinary);
    ASSERT_EQ(binary.size(), linear.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      EXPECT_EQ(binary[i], linear[i])
          << "p=" << p << " " << queries[i].u << "->" << queries[i].v;
  }
}

// --- Algorithm 8 -----------------------------------------------------------

TEST(IntraRowEdgeExistence, LinearMatchesOracle) {
  const auto& f = fixture();
  const auto queries = random_edge_queries(300, 7);
  for (const Edge& q : queries) {
    EXPECT_EQ(edge_exists_intra_row(f.packed, q.u, q.v, 4, RowSearch::kLinear),
              f.plain.has_edge(q.u, q.v));
  }
}

TEST(IntraRowEdgeExistence, BinaryMatchesLinear) {
  const auto& f = fixture();
  const auto queries = random_edge_queries(300, 9);
  for (const Edge& q : queries) {
    EXPECT_EQ(edge_exists_intra_row(f.packed, q.u, q.v, 4, RowSearch::kBinary),
              edge_exists_intra_row(f.packed, q.u, q.v, 4, RowSearch::kLinear));
  }
}

TEST(IntraRowEdgeExistence, EmptyRow) {
  // Build a graph with an isolated node and query it.
  const CsrGraph csr = build_csr_from_sorted(EdgeList({{0, 1}}), 10, 2);
  const BitPackedCsr packed = BitPackedCsr::from_csr(csr, 2);
  EXPECT_FALSE(edge_exists_intra_row(packed, 5, 1, 4));
}

TEST(IntraRowEdgeExistence, FirstAndLastNeighbor) {
  const auto& f = fixture();
  VertexId u = 0;
  std::uint32_t best = 0;
  for (VertexId c = 0; c < 512; ++c)
    if (f.plain.degree(c) > best) {
      best = f.plain.degree(c);
      u = c;
    }
  const auto row = f.plain.neighbors(u);
  ASSERT_GE(row.size(), 2u);
  for (int p : {1, 2, 4, 8}) {
    EXPECT_TRUE(edge_exists_intra_row(f.packed, u, row.front(), p));
    EXPECT_TRUE(edge_exists_intra_row(f.packed, u, row.back(), p));
    EXPECT_TRUE(
        edge_exists_intra_row(f.packed, u, row.front(), p, RowSearch::kBinary));
    EXPECT_TRUE(
        edge_exists_intra_row(f.packed, u, row.back(), p, RowSearch::kBinary));
  }
}

TEST(IntraRowEdgeExistence, EarlyExitOnHugeRow) {
  // A star hub with a row far longer than the 1024-element poll stride:
  // every chunk runs the polling loop, and hits anywhere in the row
  // (first, middle, last, absent) must stay correct at every thread count.
  constexpr VertexId kLeaves = 200'000;
  EdgeList star;
  star.reserve(kLeaves);
  for (VertexId v = 1; v <= kLeaves; ++v) star.push_back({0, v});
  const CsrGraph csr = build_csr_from_sorted(star, kLeaves + 1, 4);
  const BitPackedCsr packed = BitPackedCsr::from_csr(csr, 4);
  for (int p : {1, 2, 4, 8}) {
    EXPECT_TRUE(edge_exists_intra_row(packed, 0, 1, p)) << "p=" << p;
    EXPECT_TRUE(edge_exists_intra_row(packed, 0, kLeaves / 2, p)) << "p=" << p;
    EXPECT_TRUE(edge_exists_intra_row(packed, 0, kLeaves, p)) << "p=" << p;
    EXPECT_FALSE(edge_exists_intra_row(packed, 1, 0, p)) << "p=" << p;
    EXPECT_FALSE(edge_exists_intra_row(packed, 0, kLeaves + 1, p))
        << "p=" << p;
  }
}

TEST(IntraRowEdgeExistence, SameAnswersAroundTheSerialThreshold) {
  // Rows just below two grains are searched serially; rows just above
  // split across processors (at least kIntraRowMinGrain elements each).
  // Neighbours are the even ids, so odd ids are misses inside the row.
  const std::size_t two = 2 * kIntraRowMinGrain;
  for (std::size_t deg : {two - 1, two + 1, 4 * kIntraRowMinGrain + 1}) {
    EdgeList star;
    star.reserve(deg);
    for (std::size_t k = 0; k < deg; ++k)
      star.push_back({0, static_cast<VertexId>(2 * k)});
    const auto n = static_cast<VertexId>(2 * deg + 1);
    const BitPackedCsr packed = build_bitpacked_csr_from_sorted(star, n, 4);
    const auto last = static_cast<VertexId>(2 * (deg - 1));
    const std::vector<VertexId> probes{0,        1,        last / 2,
                                       last / 2 + 1,      last - 1,
                                       last,     last + 1, n - 1};
    for (const VertexId v : probes) {
      const bool want = packed.has_edge(0, v);
      for (int p : {1, 2, 4, 16}) {
        EXPECT_EQ(edge_exists_intra_row(packed, 0, v, p, RowSearch::kLinear),
                  want)
            << "deg=" << deg << " v=" << v << " p=" << p;
        EXPECT_EQ(edge_exists_intra_row(packed, 0, v, p, RowSearch::kBinary),
                  want)
            << "deg=" << deg << " v=" << v << " p=" << p;
      }
    }
  }
}

// Property sweep: every algorithm at every thread count equals the oracle.
class QueryThreadSweep : public testing::TestWithParam<int> {};

TEST_P(QueryThreadSweep, AllAlgorithmsMatchOracle) {
  const int p = GetParam();
  const auto& f = fixture();
  const auto nodes = random_nodes(64, 100 + p);
  const auto nbrs = batch_neighbors(f.packed, nodes, p);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto expect = f.plain.neighbors(nodes[i]);
    ASSERT_EQ(nbrs[i].size(), expect.size());
    EXPECT_TRUE(std::equal(nbrs[i].begin(), nbrs[i].end(), expect.begin()));
  }
  const auto queries = random_edge_queries(128, 200 + p);
  const auto exist = batch_edge_existence(f.packed, queries, p);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const bool oracle = f.plain.has_edge(queries[i].u, queries[i].v);
    EXPECT_EQ(exist[i] != 0, oracle);
    EXPECT_EQ(edge_exists_intra_row(f.packed, queries[i].u, queries[i].v, p),
              oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, QueryThreadSweep,
                         testing::Values(1, 2, 3, 4, 8, 16, 64));

}  // namespace
}  // namespace pcq::csr
