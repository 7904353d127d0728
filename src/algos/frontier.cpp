#include "algos/frontier.hpp"

#include <algorithm>
#include <atomic>

#include "algos/bfs.hpp"  // kUnreachable

#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/threads.hpp"
#include "util/check.hpp"

namespace pcq::algos {

using graph::VertexId;

VertexSubset VertexSubset::single(VertexId universe, VertexId v) {
  PCQ_CHECK(v < universe);
  VertexSubset s(universe);
  s.sparse_ = {v};
  s.count_ = 1;
  return s;
}

VertexSubset VertexSubset::from_ids(VertexId universe,
                                    std::vector<VertexId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  VertexSubset s(universe);
  s.count_ = ids.size();
  s.sparse_ = std::move(ids);
  return s;
}

bool VertexSubset::contains(VertexId v) const {
  if (dense_valid_) return dense_[v] != 0;
  return std::binary_search(sparse_.begin(), sparse_.end(), v);
}

std::vector<VertexId> VertexSubset::ids() const {
  if (sparse_valid_) return sparse_;
  std::vector<VertexId> out;
  out.reserve(count_);
  for (VertexId v = 0; v < universe_; ++v)
    if (dense_[v]) out.push_back(v);
  return out;
}

void VertexSubset::to_dense() {
  if (dense_valid_) return;
  dense_.assign(universe_, 0);
  for (VertexId v : sparse_) dense_[v] = 1;
  dense_valid_ = true;
}

void VertexSubset::to_sparse() {
  if (sparse_valid_) return;
  sparse_ = ids();
  sparse_valid_ = true;
}

FrontierEngine::FrontierEngine(const csr::CsrGraph& out_graph,
                               const csr::CsrGraph& in_graph, int num_threads)
    : out_(out_graph), in_(in_graph), threads_(num_threads) {
  PCQ_CHECK(out_.num_nodes() == in_.num_nodes());
}

VertexSubset FrontierEngine::edge_map(
    const VertexSubset& frontier,
    const std::function<bool(VertexId, VertexId)>& update,
    const std::function<bool(VertexId)>& cond) {
  const VertexId n = out_.num_nodes();
  PCQ_CHECK(frontier.universe() == n);
  VertexSubset result(n);
  if (frontier.empty()) return result;

  // Direction choice (Ligra's heuristic): out-degree mass of the frontier
  // versus a fraction of |E|.
  std::uint64_t frontier_degree = 0;
  for (VertexId v : frontier.ids()) frontier_degree += out_.degree(v);
  const bool pull = frontier_degree > out_.num_edges() / 20;

  if (!pull) {
    // Sparse push: expand each frontier vertex's out-row.
    const auto src = frontier.ids();
    const auto p = static_cast<std::size_t>(pcq::par::clamp_threads(threads_));
    const std::size_t chunks = pcq::par::num_nonempty_chunks(src.size(), p);
    std::vector<std::vector<VertexId>> next(chunks == 0 ? 1 : chunks);
    pcq::par::parallel_for_chunks(
        src.size(), static_cast<int>(p),
        [&](std::size_t c, pcq::par::ChunkRange r) {
          std::vector<VertexId> local;
          for (std::size_t i = r.begin; i < r.end; ++i) {
            const VertexId u = src[i];
            for (VertexId v : out_.neighbors(u)) {
              if (cond(v) && update(u, v)) local.push_back(v);
            }
          }
          next[c] = std::move(local);
        });
    std::vector<VertexId> merged;
    for (auto& local : next)
      merged.insert(merged.end(), local.begin(), local.end());
    return VertexSubset::from_ids(n, std::move(merged));
  }

  // Dense pull: every candidate scans its in-row for a frontier member.
  VertexSubset dense_frontier = frontier;
  dense_frontier.to_dense();
  std::vector<std::uint8_t> claimed(n, 0);
  std::atomic<std::size_t> claimed_count{0};
  pcq::par::parallel_for(n, threads_, [&](std::size_t vi) {
    const auto v = static_cast<VertexId>(vi);
    if (!cond(v)) return;
    for (VertexId u : in_.neighbors(v)) {
      if (!dense_frontier.contains(u)) continue;
      if (update(u, v)) {
        claimed[vi] = 1;
        claimed_count.fetch_add(1, std::memory_order_relaxed);
        break;  // claimed once; stop pulling
      }
      if (!cond(v)) break;  // condition flipped by another claim
    }
  });
  result.dense_ = std::move(claimed);
  result.dense_valid_ = true;
  result.sparse_valid_ = false;
  result.count_ = claimed_count.load(std::memory_order_relaxed);
  return result;
}

void FrontierEngine::vertex_map(const VertexSubset& subset,
                                const std::function<void(VertexId)>& fn) const {
  const auto ids = subset.ids();
  pcq::par::parallel_for(ids.size(), threads_,
                         [&](std::size_t i) { fn(ids[i]); });
}

VertexSubset FrontierEngine::vertex_filter(
    const VertexSubset& subset,
    const std::function<bool(VertexId)>& pred) const {
  std::vector<VertexId> kept;
  for (VertexId v : subset.ids())
    if (pred(v)) kept.push_back(v);
  return VertexSubset::from_ids(subset.universe(), std::move(kept));
}

std::vector<std::uint32_t> bfs_frontier(const csr::CsrGraph& g,
                                        VertexId source, int num_threads) {
  const VertexId n = g.num_nodes();
  PCQ_CHECK(source < n);
  std::vector<std::atomic<std::uint32_t>> dist(n);
  for (auto& d : dist) d.store(kUnreachable, std::memory_order_relaxed);
  dist[source].store(0, std::memory_order_relaxed);

  FrontierEngine engine(g, g, num_threads);  // symmetric-graph traversal
  VertexSubset frontier = VertexSubset::single(n, source);
  std::uint32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    frontier = engine.edge_map(
        frontier,
        [&](VertexId, VertexId v) {
          std::uint32_t expected = kUnreachable;
          return dist[v].compare_exchange_strong(expected, level,
                                                 std::memory_order_relaxed);
        },
        [&](VertexId v) {
          return dist[v].load(std::memory_order_relaxed) == kUnreachable;
        });
  }
  std::vector<std::uint32_t> out(n);
  for (VertexId v = 0; v < n; ++v)
    out[v] = dist[v].load(std::memory_order_relaxed);
  return out;
}

std::vector<VertexId> cc_frontier(const csr::CsrGraph& g, int num_threads) {
  const VertexId n = g.num_nodes();
  std::vector<std::atomic<VertexId>> label(n);
  for (VertexId v = 0; v < n; ++v) label[v].store(v, std::memory_order_relaxed);

  FrontierEngine engine(g, g, num_threads);
  // Start with every vertex active; a vertex re-activates when its label
  // drops.
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  VertexSubset frontier = VertexSubset::from_ids(n, std::move(all));

  while (!frontier.empty()) {
    frontier = engine.edge_map(
        frontier,
        [&](VertexId u, VertexId v) {
          // Push u's label to v if smaller; claim v on any improvement.
          const VertexId lu = label[u].load(std::memory_order_relaxed);
          VertexId lv = label[v].load(std::memory_order_relaxed);
          bool improved = false;
          while (lu < lv) {
            if (label[v].compare_exchange_weak(lv, lu,
                                               std::memory_order_relaxed)) {
              improved = true;
              break;
            }
          }
          return improved;
        },
        [](VertexId) { return true; });
  }

  std::vector<VertexId> out(n);
  for (VertexId v = 0; v < n; ++v) out[v] = label[v].load(std::memory_order_relaxed);
  return out;
}

}  // namespace pcq::algos
