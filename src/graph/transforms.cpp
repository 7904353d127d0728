#include "graph/transforms.hpp"

#include <algorithm>
#include <numeric>

#include "par/parallel_for.hpp"
#include "par/radix_sort.hpp"
#include "util/check.hpp"

namespace pcq::graph {

EdgeList transpose(const EdgeList& list, int num_threads) {
  std::vector<Edge> reversed(list.size());
  const auto edges = list.edges();
  pcq::par::parallel_for(edges.size(), num_threads, [&](std::size_t i) {
    reversed[i] = {edges[i].v, edges[i].u};
  });
  return EdgeList(std::move(reversed));
}

RelabelResult relabel_by_degree(const EdgeList& list, VertexId num_nodes,
                                int num_threads) {
  if (num_nodes == 0) num_nodes = list.num_nodes();
  const auto edges = list.edges();

  // Out-degree histogram (input need not be sorted, so run-counting does
  // not apply; per-thread histograms avoid atomics).
  std::vector<std::uint32_t> degree(num_nodes, 0);
  for (const Edge& e : edges) ++degree[e.u];

  // Sort node ids by (degree desc, id asc) via a single radix pass on the
  // packed key (~degree, id).
  std::vector<std::uint64_t> keyed(num_nodes);
  pcq::par::parallel_for(num_nodes, num_threads, [&](std::size_t u) {
    keyed[u] = (static_cast<std::uint64_t>(~degree[u]) << 32) | u;
  });
  pcq::par::parallel_radix_sort_u64(keyed, num_threads);

  RelabelResult result;
  result.old_id.resize(num_nodes);
  result.new_id.resize(num_nodes);
  pcq::par::parallel_for(num_nodes, num_threads, [&](std::size_t rank) {
    const auto old_id = static_cast<VertexId>(keyed[rank] & 0xffffffffu);
    result.old_id[rank] = old_id;
    result.new_id[old_id] = static_cast<VertexId>(rank);
  });

  std::vector<Edge> rewritten(edges.size());
  pcq::par::parallel_for(edges.size(), num_threads, [&](std::size_t i) {
    rewritten[i] = {result.new_id[edges[i].u], result.new_id[edges[i].v]};
  });
  result.list = EdgeList(std::move(rewritten));
  return result;
}

EdgeList induced_subgraph(const EdgeList& list,
                          std::span<const std::uint8_t> keep, int num_threads,
                          std::vector<VertexId>* old_id_out) {
  // Dense renumbering of the kept nodes (prefix sum over the keep mask).
  std::vector<VertexId> new_id(keep.size(), 0);
  VertexId next = 0;
  std::vector<VertexId> old_id;
  for (std::size_t u = 0; u < keep.size(); ++u) {
    if (keep[u]) {
      new_id[u] = next++;
      old_id.push_back(static_cast<VertexId>(u));
    }
  }
  if (old_id_out) *old_id_out = std::move(old_id);

  // Parallel filter: per-chunk survivors, then concatenate.
  const auto edges = list.edges();
  const auto p = static_cast<std::size_t>(pcq::par::clamp_threads(num_threads));
  const std::size_t chunks = pcq::par::num_nonempty_chunks(edges.size(), p);
  std::vector<std::vector<Edge>> kept(chunks == 0 ? 1 : chunks);
  pcq::par::parallel_for_chunks(
      edges.size(), static_cast<int>(p), [&](std::size_t c, pcq::par::ChunkRange r) {
        std::vector<Edge> local;
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const Edge& e = edges[i];
          PCQ_DCHECK(e.u < keep.size() && e.v < keep.size());
          if (keep[e.u] && keep[e.v])
            local.push_back({new_id[e.u], new_id[e.v]});
        }
        kept[c] = std::move(local);
      });

  EdgeList out;
  std::size_t total = 0;
  for (const auto& local : kept) total += local.size();
  out.reserve(total);
  for (const auto& local : kept)
    for (const Edge& e : local) out.push_back(e);
  return out;
}

}  // namespace pcq::graph
