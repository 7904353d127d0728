#include "csr/degree.hpp"

namespace pcq::csr {

using graph::VertexId;

std::vector<std::uint32_t> sequential_degree_from_sorted(
    std::span<const VertexId> sources, VertexId num_nodes) {
  std::vector<std::uint32_t> degrees(num_nodes, 0);
  std::size_t i = 0;
  const std::size_t n = sources.size();
  while (i < n) {
    const VertexId node = sources[i];
    PCQ_DCHECK(node < num_nodes);
    std::uint32_t run = 0;
    while (i < n && sources[i] == node) {
      ++run;
      ++i;
    }
    degrees[node] = run;
  }
  return degrees;
}

}  // namespace pcq::csr
