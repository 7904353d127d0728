// Parallel CSR construction — the paper's §III pipeline.
//
// From a source-sorted edge list:
//   1. degree array via run counting (Algorithms 2 + 3), straight over the
//      sources edges[i].u of the list,
//   2. cumulative offsets via the chunked prefix sum (Algorithm 1),
//   3. column array: with the list sorted by source, jA is exactly the
//      destination column of the input. The plain build copies it in
//      parallel; the bit-packed build packs edges[i].v straight into the
//      final bit array (Algorithm 4), so it materialises no plain CSR.
//
// Each step reports its wall time through CsrBuildTimings; the Table II /
// Figure 6 / Figure 7 harnesses sweep `num_threads` over the paper's
// p ∈ {1, 4, 8, 16, 64} and the analytic scaling model (bench/model) is
// calibrated from these per-phase numbers.
#pragma once

#include "csr/bitpacked_csr.hpp"
#include "csr/csr_graph.hpp"
#include "graph/edge_list.hpp"

namespace pcq::csr {

/// Per-phase wall times (seconds) of one construction run.
struct CsrBuildTimings {
  double degree = 0;  ///< Algorithms 2 + 3
  double scan = 0;    ///< Algorithm 1 over the degree array
  double fill = 0;    ///< column copy (0 for the bit-packed build)
  double pack = 0;    ///< Algorithm 4 (bit-packed builds only)

  [[nodiscard]] double total() const { return degree + scan + fill + pack; }
};

/// Builds a plain CSR from a (u, v)-sorted edge list with `num_threads`
/// processors. `num_nodes` == 0 derives the node count from the list.
CsrGraph build_csr_from_sorted(const graph::EdgeList& list,
                               graph::VertexId num_nodes, int num_threads,
                               CsrBuildTimings* timings = nullptr);

/// Convenience: parallel-sorts a copy of the list first, then builds.
CsrGraph build_csr(graph::EdgeList list, graph::VertexId num_nodes,
                   int num_threads, CsrBuildTimings* timings = nullptr);

/// Full paper pipeline: sorted edge list -> bit-packed CSR. Degrees and
/// offsets as in the plain build, then Algorithm 4 packs iA from the
/// offsets and jA from the list's destinations (no column copy: `fill` is
/// 0, the column work is in `pack`). This is the configuration Table II
/// times; storage-equal to BitPackedCsr::from_csr of the plain build.
BitPackedCsr build_bitpacked_csr_from_sorted(const graph::EdgeList& list,
                                             graph::VertexId num_nodes,
                                             int num_threads,
                                             CsrBuildTimings* timings = nullptr);

/// Fully sequential reference build (validation baseline; equals the
/// parallel result bit-for-bit).
CsrGraph build_csr_sequential(const graph::EdgeList& list,
                              graph::VertexId num_nodes);

}  // namespace pcq::csr
