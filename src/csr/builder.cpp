#include "csr/builder.hpp"

#include <algorithm>

#include "csr/degree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel_for.hpp"
#include "par/prefix_sum.hpp"
#include "par/reduce.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pcq::csr {

using graph::EdgeList;
using graph::VertexId;

namespace {

/// Phases 1 and 2, shared by both builds: the degree array by Algorithms
/// 2 + 3, run straight over the sorted sources edges[i].u, then the offsets
/// by the chunked prefix sum (Algorithm 1). Derives the node count when
/// `num_nodes` is 0.
std::vector<std::uint64_t> build_offsets(std::span<const graph::Edge> edges,
                                         VertexId& num_nodes, int num_threads,
                                         CsrBuildTimings* timings) {
  if (num_nodes == 0 && !edges.empty()) {
    num_nodes = 1 + pcq::par::parallel_map_reduce(
                        edges.size(), VertexId{0}, num_threads,
                        [](VertexId a, VertexId b) { return std::max(a, b); },
                        [edges](std::size_t i) {
                          return std::max(edges[i].u, edges[i].v);
                        });
  }
  pcq::obs::MetricsRegistry::global().counter("csr.builds").add(1);
  pcq::util::Timer timer;

  std::vector<std::uint32_t> degrees;
  {
    PCQ_TRACE_SCOPE("csr.degree", edges.size());
    degrees = parallel_degree_by(
        edges.size(), [edges](std::size_t i) { return edges[i].u; },
        num_nodes, num_threads);
  }
  if (timings) timings->degree = timer.seconds();

  timer.restart();
  std::vector<std::uint64_t> offsets;
  {
    PCQ_TRACE_SCOPE("csr.scan", degrees.size());
    offsets = pcq::par::offsets_from_degrees(degrees, num_threads);
  }
  // Contract: the scan's cumulative total must equal the edge count, or
  // every row slice downstream is wrong (the degree/scan chunk-merge
  // arithmetic is exactly what debug-check builds re-verify here).
  PCQ_DCHECK_MSG(offsets.back() == edges.size(),
                 "prefix sum of degrees != edge count");
  if (timings) timings->scan = timer.seconds();
  return offsets;
}

}  // namespace

CsrGraph build_csr_from_sorted(const EdgeList& list, VertexId num_nodes,
                               int num_threads, CsrBuildTimings* timings) {
  PCQ_DCHECK(list.is_sorted());
  const auto edges = list.edges();
  std::vector<std::uint64_t> offsets =
      build_offsets(edges, num_nodes, num_threads, timings);

  // Phase 3: with the input sorted by source, the column array is the
  // destination column verbatim — a parallel copy.
  pcq::util::Timer timer;
  std::vector<VertexId> columns(edges.size());
  {
    PCQ_TRACE_SCOPE("csr.fill", edges.size());
    pcq::par::parallel_for(edges.size(), num_threads, [&](std::size_t i) {
      PCQ_DCHECK_MSG(edges[i].v < num_nodes,
                     "edge destination outside declared vertex range");
      columns[i] = edges[i].v;
    });
  }
  if (timings) timings->fill = timer.seconds();

  return CsrGraph(std::move(offsets), std::move(columns));
}

CsrGraph build_csr(EdgeList list, VertexId num_nodes, int num_threads,
                   CsrBuildTimings* timings) {
  list.sort(num_threads);
  return build_csr_from_sorted(list, num_nodes, num_threads, timings);
}

BitPackedCsr build_bitpacked_csr_from_sorted(const EdgeList& list,
                                             VertexId num_nodes,
                                             int num_threads,
                                             CsrBuildTimings* timings) {
  PCQ_DCHECK(list.is_sorted());
  const auto edges = list.edges();
  const std::vector<std::uint64_t> offsets =
      build_offsets(edges, num_nodes, num_threads, timings);
  if (timings) timings->fill = 0;  // jA is packed from the list, not copied

  // Phase 3 + Algorithm 4: iA from the offsets, jA straight from the
  // destination column of the sorted list.
  pcq::util::Timer timer;
  BitPackedCsr packed;
  {
    PCQ_TRACE_SCOPE("csr.pack", edges.size());
    packed = BitPackedCsr::from_parts(
        num_nodes, edges.size(),
        pcq::bits::FixedWidthArray::pack_with_width(
            offsets, pcq::bits::bits_for(edges.size()), num_threads),
        pcq::bits::FixedWidthArray::pack_with_width(
            edges.size(), column_bits_for(num_nodes), num_threads,
            [&](std::size_t i) {
              PCQ_DCHECK_MSG(edges[i].v < num_nodes,
                             "edge destination outside declared vertex range");
              return edges[i].v;
            }));
  }
  if (timings) timings->pack = timer.seconds();
  return packed;
}

CsrGraph build_csr_sequential(const EdgeList& list, VertexId num_nodes) {
  PCQ_DCHECK(list.is_sorted());
  if (num_nodes == 0) num_nodes = list.num_nodes();
  const auto edges = list.edges();

  std::vector<std::uint64_t> offsets(num_nodes + 1, 0);
  for (const auto& e : edges) ++offsets[e.u + 1];
  for (std::size_t i = 1; i <= num_nodes; ++i) offsets[i] += offsets[i - 1];

  std::vector<VertexId> columns(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) columns[i] = edges[i].v;
  return CsrGraph(std::move(offsets), std::move(columns));
}

}  // namespace pcq::csr
