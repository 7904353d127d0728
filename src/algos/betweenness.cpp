#include "algos/betweenness.hpp"

#include <algorithm>
#include <vector>

#include "par/parallel_for.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pcq::algos {

using graph::VertexId;

namespace {

/// One Brandes source iteration: BFS computes shortest-path counts, then
/// dependencies are accumulated walking the BFS order backwards.
/// Adds this source's contributions into `score`.
void brandes_from_source(const csr::CsrGraph& g, VertexId s,
                         std::vector<double>& score,
                         std::vector<std::uint32_t>& dist,
                         std::vector<double>& sigma,
                         std::vector<double>& delta,
                         std::vector<VertexId>& order) {
  const VertexId n = g.num_nodes();
  constexpr std::uint32_t kUnset = ~std::uint32_t{0};
  dist.assign(n, kUnset);
  sigma.assign(n, 0.0);
  delta.assign(n, 0.0);
  order.clear();

  dist[s] = 0;
  sigma[s] = 1.0;
  std::size_t head = 0;
  order.push_back(s);
  while (head < order.size()) {
    const VertexId v = order[head++];
    for (VertexId w : g.neighbors(v)) {
      if (dist[w] == kUnset) {
        dist[w] = dist[v] + 1;
        order.push_back(w);
      }
      if (dist[w] == dist[v] + 1) sigma[w] += sigma[v];
    }
  }

  // Dependency accumulation in reverse BFS order: for each predecessor v
  // of w (dist[v] + 1 == dist[w]),
  // delta[v] += sigma[v] / sigma[w] * (1 + delta[w]).
  for (std::size_t i = order.size(); i-- > 1;) {  // skip the source itself
    const VertexId w = order[i];
    for (VertexId v : g.neighbors(w)) {
      if (dist[v] + 1 == dist[w]) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
    }
    if (w != s) score[w] += delta[w];
  }
}

std::vector<double> run_sources(const csr::CsrGraph& g,
                                const std::vector<VertexId>& sources,
                                int num_threads) {
  const VertexId n = g.num_nodes();

  // Coarse-grained, with thread-count-invariant accumulation (the repo-wide
  // bit-for-bit contract): sources are split into a FIXED number of
  // contiguous chunks whose boundaries depend only on the source count —
  // never on p — each chunk accumulates its own partial serially in source
  // order, processors take contiguous runs of whole chunks, and the final
  // reduction walks chunks in index order. The grouping of the
  // floating-point sums is therefore identical whatever p is; a
  // per-processor partial would regroup the non-associative additions.
  constexpr std::size_t kMaxChunks = 32;
  const std::size_t k = std::min(sources.size(), kMaxChunks);
  std::vector<double> score(n, 0.0);
  if (k == 0) return score;
  std::vector<std::vector<double>> partial(k, std::vector<double>(n, 0.0));
  pcq::par::parallel_for_chunks(
      k, num_threads, [&](std::size_t, pcq::par::ChunkRange chunks) {
        std::vector<std::uint32_t> dist;
        std::vector<double> sigma, delta;
        std::vector<VertexId> order;
        for (std::size_t c = chunks.begin; c < chunks.end; ++c) {
          const auto [begin, end] =
              pcq::par::chunk_range(sources.size(), k, c);
          for (std::size_t i = begin; i < end; ++i)
            brandes_from_source(g, sources[i], partial[c], dist, sigma,
                                delta, order);
        }
      });

  for (const auto& part : partial)
    for (VertexId v = 0; v < n; ++v) score[v] += part[v];
  return score;
}

}  // namespace

std::vector<double> betweenness_exact(const csr::CsrGraph& g,
                                      int num_threads) {
  std::vector<VertexId> sources(g.num_nodes());
  for (VertexId v = 0; v < g.num_nodes(); ++v) sources[v] = v;
  return run_sources(g, sources, num_threads);
}

std::vector<double> betweenness_sampled(const csr::CsrGraph& g,
                                        std::size_t samples,
                                        std::uint64_t seed, int num_threads) {
  const VertexId n = g.num_nodes();
  PCQ_CHECK(n > 0);
  pcq::util::SplitMix64 rng(seed);
  std::vector<VertexId> sources(samples);
  for (auto& s : sources) s = static_cast<VertexId>(rng.next_below(n));
  std::vector<double> score = run_sources(g, sources, num_threads);
  const double scale =
      samples == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(samples);
  for (double& x : score) x *= scale;
  return score;
}

}  // namespace pcq::algos
