// Parallel degree-array computation — Algorithms 2 and 3.
//
// Input: the source-node column of a source-sorted edge list. The array is
// split into one contiguous chunk per processor. Because the input is
// sorted, equal source ids form consecutive runs, and a run can cross a
// chunk boundary only at a chunk's *front*. Each processor therefore:
//
//   * counts its first run into a per-processor spill slot
//     (globalTempDegree[pid] in the paper) — that run may belong to the
//     left neighbour's node;
//   * counts every other run directly into the shared degree array — no
//     atomics are needed, because for any node at most one chunk sees its
//     run as a non-first run (every other fragment of that run is some
//     chunk's first run and goes to a spill slot).
//
// After a sync, the spill slots are merged back (Algorithm 3, Figure 3):
// globalDegArray[first node of chunk c] += globalTempDegree[c]. The merge
// is O(p) and done sequentially, which also handles the corner case the
// paper glosses over — a run longer than an entire chunk contributes
// several spill slots to the same node.
//
// Also here: the degree-distribution summaries `pcq stats` prints, which
// show the heavy-tailed skew the synthetic graphs must share with the
// SNAP originals (DESIGN.md's workload validation).
#pragma once

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "csr/csr_graph.hpp"
#include "graph/types.hpp"
#include "obs/trace.hpp"
#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/threads.hpp"
#include "util/check.hpp"

namespace pcq::csr {

/// Computes the degree of each node from `n` sorted source ids, where
/// source_of(i) is the source endpoint of edge i (Algorithms 2 + 3). The
/// projection lets the builder count runs straight off its edge records.
/// `num_nodes` sizes the result.
template <typename SourceFn>
std::vector<std::uint32_t> parallel_degree_by(std::size_t n,
                                              SourceFn&& source_of,
                                              graph::VertexId num_nodes,
                                              int num_threads) {
  using graph::VertexId;
  PCQ_DCHECK(std::ranges::is_sorted(std::views::iota(std::size_t{0}, n), {},
                                    source_of));
  const auto p = static_cast<std::size_t>(pcq::par::clamp_threads(num_threads));
  const std::size_t chunks = pcq::par::num_nonempty_chunks(n, p);

  std::vector<std::uint32_t> degrees(num_nodes, 0);
  // globalTempDegree: one spill slot per processor for its first run.
  std::vector<std::uint32_t> temp(chunks, 0);

  // Algorithm 2, one invocation per chunk. The join at the end of
  // parallel_for_chunks is Algorithm 3's sync().
  {
    PCQ_TRACE_SCOPE("degree.count", chunks);
    pcq::par::parallel_for_chunks(
        n, static_cast<int>(chunks),
        [&](std::size_t c, pcq::par::ChunkRange r) {
          std::size_t i = r.begin;
          // First run -> spill slot: it may continue the left neighbour's
          // final run (lines 2-4 of Algorithm 2).
          const VertexId first = source_of(i);
          std::uint32_t run = 0;
          while (i < r.end && source_of(i) == first) {
            ++run;
            ++i;
          }
          temp[c] = run;
          // Remaining runs start inside this chunk, so this chunk is the
          // unique direct writer for their nodes (lines 5-7).
          while (i < r.end) {
            const VertexId node = source_of(i);
            PCQ_DCHECK(node < num_nodes);
            run = 0;
            while (i < r.end && source_of(i) == node) {
              ++run;
              ++i;
            }
            degrees[node] = run;
          }
        });
  }

  // Algorithm 3 merge (Figure 3): fold each chunk's spill slot into the
  // degree of the node at the chunk's front. Sequential — O(p) work — which
  // also makes runs spanning multiple whole chunks (several spill slots,
  // one node) correct without atomics.
  {
    PCQ_TRACE_SCOPE("degree.merge", chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      const VertexId front = source_of(pcq::par::chunk_range(n, chunks, c).begin);
      // The direct-write loop bounds-checks every run head, but a chunk
      // whose *first* node is out of range only ever reaches this merge.
      PCQ_DCHECK_MSG(front < num_nodes,
                     "source id outside declared vertex range");
      degrees[front] += temp[c];
    }
  }
  return degrees;
}

/// parallel_degree_by over a source-id array: `sources[i]` is the source
/// endpoint of edge i. Aborts in debug builds if the input is not sorted.
inline std::vector<std::uint32_t> parallel_degree_from_sorted(
    std::span<const graph::VertexId> sources, graph::VertexId num_nodes,
    int num_threads) {
  return parallel_degree_by(
      sources.size(), [sources](std::size_t i) { return sources[i]; },
      num_nodes, num_threads);
}

/// Sequential run-counting baseline (the S5 ablation's reference).
std::vector<std::uint32_t> sequential_degree_from_sorted(
    std::span<const graph::VertexId> sources, graph::VertexId num_nodes);

struct DegreeStats {
  std::uint32_t min = 0;
  std::uint32_t max = 0;
  double mean = 0;
  double p50 = 0;   ///< median degree
  double p99 = 0;   ///< 99th percentile degree
  double gini = 0;  ///< inequality of the degree distribution, [0, 1)
};

DegreeStats degree_stats(const CsrGraph& g, int num_threads);

/// Log2-bucketed degree histogram: result[k] = #nodes with degree in
/// [2^k, 2^(k+1)) (bucket 0 additionally holds degree-0 nodes).
std::vector<std::uint64_t> degree_histogram_log2(const CsrGraph& g);

}  // namespace pcq::csr
