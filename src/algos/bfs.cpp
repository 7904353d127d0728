#include "algos/bfs.hpp"

#include <atomic>

#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "util/check.hpp"

namespace pcq::algos {

using graph::VertexId;

namespace {

/// Shared level-synchronous frontier loop; `row_for` materialises the
/// neighbour row of a node (span for plain CSR, decoded buffer for packed).
template <typename Graph, typename RowFn>
std::vector<std::uint32_t> bfs_impl(const Graph& g, VertexId source,
                                    int num_threads, RowFn&& row_for) {
  const VertexId n = g.num_nodes();
  PCQ_CHECK(source < n);
  // Per-thread next-frontier buffers avoid a contended shared vector; the
  // claim on dist[] uses a CAS so each node is discovered exactly once.
  std::vector<std::atomic<std::uint32_t>> dist_atomic(n);
  for (auto& d : dist_atomic) d.store(kUnreachable, std::memory_order_relaxed);
  dist_atomic[source].store(0, std::memory_order_relaxed);

  std::vector<VertexId> frontier{source};
  std::uint32_t level = 0;

  while (!frontier.empty()) {
    ++level;
    const auto p = static_cast<std::size_t>(pcq::par::clamp_threads(num_threads));
    const std::size_t chunks = pcq::par::num_nonempty_chunks(frontier.size(), p);
    std::vector<std::vector<VertexId>> next(chunks == 0 ? 1 : chunks);
    pcq::par::parallel_for_chunks(
        frontier.size(), static_cast<int>(p),
        [&](std::size_t c, pcq::par::ChunkRange r) {
          std::vector<VertexId> local;
          for (std::size_t i = r.begin; i < r.end; ++i) {
            for (VertexId v : row_for(frontier[i])) {
              std::uint32_t expected = kUnreachable;
              if (dist_atomic[v].compare_exchange_strong(
                      expected, level, std::memory_order_relaxed)) {
                local.push_back(v);
              }
            }
          }
          next[c] = std::move(local);
        });
    frontier.clear();
    for (auto& local : next)
      frontier.insert(frontier.end(), local.begin(), local.end());
  }
  std::vector<std::uint32_t> dist(n);
  for (VertexId v = 0; v < n; ++v)
    dist[v] = dist_atomic[v].load(std::memory_order_relaxed);
  return dist;
}

}  // namespace

std::vector<std::uint32_t> bfs(const csr::CsrGraph& g, VertexId source,
                               int num_threads) {
  return bfs_impl(g, source, num_threads,
                  [&](VertexId u) { return g.neighbors(u); });
}

std::vector<std::uint32_t> bfs(const csr::BitPackedCsr& g, VertexId source,
                               int num_threads) {
  // Rows stream through the word-wise cursor on demand: no decode buffer,
  // and never the whole column array.
  return bfs_impl(g, source, num_threads,
                  [&](VertexId u) { return g.row_cursor(u); });
}

}  // namespace pcq::algos
