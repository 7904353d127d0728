#include "algos/sssp.hpp"

#include <algorithm>
#include <atomic>
#include <queue>

#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/threads.hpp"
#include "util/check.hpp"

namespace pcq::algos {

using graph::VertexId;

std::vector<std::uint64_t> sssp_dijkstra(const csr::WeightedCsr& g,
                                         VertexId source) {
  const VertexId n = g.num_nodes();
  PCQ_CHECK(source < n);
  std::vector<std::uint64_t> dist(n, kInfDistance);
  dist[source] = 0;

  using Entry = std::pair<std::uint64_t, VertexId>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;  // stale entry
    const auto row = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const std::uint64_t nd = d + ws[i];
      if (nd < dist[row[i]]) {
        dist[row[i]] = nd;
        heap.push({nd, row[i]});
      }
    }
  }
  return dist;
}

std::vector<std::uint64_t> sssp_bellman_ford(const csr::WeightedCsr& g,
                                             VertexId source,
                                             int num_threads) {
  const VertexId n = g.num_nodes();
  PCQ_CHECK(source < n);
  std::vector<std::atomic<std::uint64_t>> dist(n);
  for (auto& d : dist) d.store(kInfDistance, std::memory_order_relaxed);
  dist[source].store(0, std::memory_order_relaxed);

  std::vector<VertexId> frontier{source};
  while (!frontier.empty()) {
    const auto p = static_cast<std::size_t>(pcq::par::clamp_threads(num_threads));
    const std::size_t chunks =
        pcq::par::num_nonempty_chunks(frontier.size(), p);
    std::vector<std::vector<VertexId>> next(chunks == 0 ? 1 : chunks);
    pcq::par::parallel_for_chunks(
        frontier.size(), static_cast<int>(p),
        [&](std::size_t c, pcq::par::ChunkRange r) {
          std::vector<VertexId> local;
          for (std::size_t i = r.begin; i < r.end; ++i) {
            const VertexId v = frontier[i];
            const std::uint64_t dv = dist[v].load(std::memory_order_relaxed);
            const auto row = g.neighbors(v);
            const auto ws = g.weights(v);
            for (std::size_t j = 0; j < row.size(); ++j) {
              const VertexId u = row[j];
              const std::uint64_t nd = dv + ws[j];
              // CAS-min: claim the improvement; whoever lowers the value
              // enqueues u (duplicates across rounds are de-duplicated by
              // the staleness of later relaxations).
              std::uint64_t cur = dist[u].load(std::memory_order_relaxed);
              while (nd < cur) {
                if (dist[u].compare_exchange_weak(cur, nd,
                                                  std::memory_order_relaxed)) {
                  local.push_back(u);
                  break;
                }
              }
            }
          }
          next[c] = std::move(local);
        });
    frontier.clear();
    for (auto& local : next)
      frontier.insert(frontier.end(), local.begin(), local.end());
    // Deduplicate the next frontier (a node improved by several threads
    // appears several times; one relaxation suffices).
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
  }

  std::vector<std::uint64_t> out(n);
  for (VertexId v = 0; v < n; ++v)
    out[v] = dist[v].load(std::memory_order_relaxed);
  return out;
}

}  // namespace pcq::algos
