// Quickstart: the paper's running example, end to end.
//
// Builds the 10-node graph of Table I (as its upper triangle, exactly
// Figure 1), constructs the bit-packed CSR in parallel, prints the two CSR
// arrays, and runs each of the Section V query algorithms on it.
//
//   $ ./quickstart
#include <cstdio>

#include "csr/builder.hpp"
#include "csr/query.hpp"
#include "graph/edge_list.hpp"
#include "util/format.hpp"

int main() {
  using namespace pcq;
  using graph::Edge;
  using graph::VertexId;

  // Table I's upper triangle: (0,5) (1,6) (1,7) (2,7) (3,8) (3,9) (4,9).
  graph::EdgeList list({{0, 5}, {1, 6}, {1, 7}, {2, 7}, {3, 8}, {3, 9}, {4, 9}});
  std::printf("Input: %zu edges over %u nodes (Table I, upper triangle)\n\n",
              list.size(), list.num_nodes());

  // Parallel construction (Algorithms 1-4) with 4 "processors".
  csr::CsrBuildTimings timings;
  const csr::BitPackedCsr packed =
      csr::build_bitpacked_csr_from_sorted(list, 10, /*num_threads=*/4,
                                           &timings);

  // Figure 1's two arrays.
  std::printf("Degree array (iA, cumulative): ");
  for (VertexId u = 0; u <= 10; ++u)
    std::printf("%llu ", static_cast<unsigned long long>(packed.offset(u)));
  std::printf("\nNeighbor list (jA):            ");
  for (std::size_t i = 0; i < packed.num_edges(); ++i)
    std::printf("%u ", packed.column(i));
  std::printf("\n\n");

  std::printf("Bit widths: iA %u bits/entry, jA %u bits/entry -> %s total\n",
              packed.offset_bits(), packed.column_bits(),
              util::human_bytes(packed.size_bytes()).c_str());
  std::printf("Raw edge list was %s.\n\n",
              util::human_bytes(list.size_bytes()).c_str());

  // Algorithm 6: batch neighbourhood queries.
  const std::vector<VertexId> users{1, 3};
  const auto rows = csr::batch_neighbors(packed, users, 4);
  for (std::size_t i = 0; i < users.size(); ++i) {
    std::printf("neighbors(%u) = { ", users[i]);
    for (VertexId v : rows[i]) std::printf("%u ", v);
    std::printf("}\n");
  }

  // Algorithm 7: batch edge existence.
  const std::vector<Edge> queries{{1, 7}, {2, 9}, {4, 9}};
  const auto exists = csr::batch_edge_existence(packed, queries, 4);
  for (std::size_t i = 0; i < queries.size(); ++i)
    std::printf("edge (%u, %u): %s\n", queries[i].u, queries[i].v,
                exists[i] ? "present" : "absent");

  // Algorithm 8: one query, the row split across processors.
  std::printf("intra-row search for (3, 9): %s\n",
              csr::edge_exists_intra_row(packed, 3, 9, 4) ? "present"
                                                          : "absent");
  // The packed build has no fill phase: pack writes jA from the list.
  std::printf("\nConstruction phases: degree %.1f us, scan %.1f us, "
              "pack %.1f us\n",
              timings.degree * 1e6, timings.scan * 1e6, timings.pack * 1e6);
  return 0;
}
