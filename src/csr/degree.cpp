#include "csr/degree.hpp"

#include <bit>
#include <numeric>

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

DegreeStats degree_stats(const CsrGraph& g, int num_threads) {
  const VertexId n = g.num_nodes();
  DegreeStats stats;
  if (n == 0) return stats;

  std::vector<std::uint32_t> degrees(n);
  pcq::par::parallel_for(n, num_threads, [&](std::size_t u) {
    degrees[u] = g.degree(static_cast<VertexId>(u));
  });
  std::sort(degrees.begin(), degrees.end());

  stats.min = degrees.front();
  stats.max = degrees.back();
  const std::uint64_t total =
      std::accumulate(degrees.begin(), degrees.end(), std::uint64_t{0});
  stats.mean = static_cast<double>(total) / n;
  stats.p50 = degrees[n / 2];
  stats.p99 = degrees[static_cast<std::size_t>(n * 0.99)];

  // Gini over the sorted degrees: G = (2 * sum(i * d_i) / (n * sum d)) -
  // (n + 1) / n, with 1-based i.
  if (total > 0) {
    double weighted = 0;
    for (std::size_t i = 0; i < degrees.size(); ++i)
      weighted += static_cast<double>(i + 1) * degrees[i];
    stats.gini = 2.0 * weighted / (static_cast<double>(n) *
                                   static_cast<double>(total)) -
                 (static_cast<double>(n) + 1.0) / n;
  }
  return stats;
}

std::vector<std::uint64_t> degree_histogram_log2(const CsrGraph& g) {
  std::vector<std::uint64_t> buckets;
  for (VertexId u = 0; u < g.num_nodes(); ++u) {
    const std::uint32_t d = g.degree(u);
    const unsigned k = d == 0 ? 0 : static_cast<unsigned>(std::bit_width(d) - 1);
    if (buckets.size() <= k) buckets.resize(k + 1, 0);
    ++buckets[k];
  }
  return buckets;
}

}  // namespace pcq::csr
