#include "csr/weighted.hpp"

#include <algorithm>

#include "csr/bitpacked_csr.hpp"
#include "csr/degree.hpp"
#include "par/parallel_for.hpp"
#include "par/prefix_sum.hpp"
#include "util/check.hpp"

namespace pcq::csr {

using graph::VertexId;
using graph::WeightedEdge;

WeightedCsr WeightedCsr::build_from_sorted(std::span<const WeightedEdge> edges,
                                           VertexId num_nodes,
                                           int num_threads) {
  PCQ_DCHECK(std::is_sorted(edges.begin(), edges.end()));
  if (num_nodes == 0) {
    VertexId max_id = 0;
    for (const auto& e : edges) max_id = std::max({max_id, e.u, e.v});
    num_nodes = edges.empty() ? 0 : max_id + 1;
  }

  // Same pipeline as the unweighted builder: degree (Alg. 2/3) over the
  // sources, offsets (Alg. 1), then parallel copies of the jA *and* vA
  // columns.
  const auto degrees = parallel_degree_by(
      edges.size(), [edges](std::size_t i) { return edges[i].u; }, num_nodes,
      num_threads);
  auto offsets = pcq::par::offsets_from_degrees(degrees, num_threads);

  std::vector<VertexId> columns(edges.size());
  std::vector<std::uint32_t> weights(edges.size());
  pcq::par::parallel_for(edges.size(), num_threads, [&](std::size_t i) {
    columns[i] = edges[i].v;
    weights[i] = edges[i].w;
  });

  WeightedCsr out;
  out.csr_ = CsrGraph(std::move(offsets), std::move(columns));
  out.weights_ = std::move(weights);
  return out;
}

std::span<const std::uint32_t> WeightedCsr::weights(VertexId u) const {
  const auto offs = csr_.offsets();
  return {weights_.data() + offs[u], weights_.data() + offs[u + 1]};
}

bool WeightedCsr::edge_weight(VertexId u, VertexId v,
                              std::uint32_t* weight_out) const {
  const auto row = csr_.neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return false;
  const std::size_t index =
      csr_.offsets()[u] + static_cast<std::size_t>(it - row.begin());
  if (weight_out) *weight_out = weights_[index];
  return true;
}

BitPackedWeightedCsr BitPackedWeightedCsr::from_weighted_csr(
    const WeightedCsr& csr, int num_threads) {
  BitPackedWeightedCsr out;
  out.num_nodes_ = csr.num_nodes();
  out.num_edges_ = csr.num_edges();

  const auto offs = csr.structure().offsets();
  out.offsets_ = pcq::bits::FixedWidthArray::pack_with_width(
      offs, pcq::bits::bits_for(csr.num_edges()), num_threads);

  const auto cols = csr.structure().columns();
  out.columns_ = pcq::bits::FixedWidthArray::pack_with_width(
      cols.size(), column_bits_for(csr.num_nodes()), num_threads,
      [cols](std::size_t i) { return cols[i]; });

  const auto ws = csr.weight_array();
  out.weights_ = pcq::bits::FixedWidthArray::pack(
      ws.size(), num_threads, [ws](std::size_t i) { return ws[i]; });
  return out;
}

bool BitPackedWeightedCsr::edge_weight(VertexId u, VertexId v,
                                       std::uint32_t* weight_out) const {
  std::uint64_t lo = offset(u), hi = offset(u + 1);
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const VertexId c = column(mid);
    if (c == v) {
      if (weight_out) *weight_out = weight(mid);
      return true;
    }
    if (c < v)
      lo = mid + 1;
    else
      hi = mid;
  }
  return false;
}

}  // namespace pcq::csr
