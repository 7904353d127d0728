#include "csr/degree.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/threads.hpp"
#include "util/check.hpp"

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

std::vector<std::uint32_t> parallel_degree_from_sorted(
    std::span<const VertexId> sources, VertexId num_nodes, int num_threads) {
  const std::size_t n = sources.size();
  PCQ_DCHECK(std::is_sorted(sources.begin(), sources.end()));

  const auto p = static_cast<std::size_t>(pcq::par::clamp_threads(num_threads));
  const std::size_t chunks = pcq::par::num_nonempty_chunks(n, p);
  if (chunks <= 1) return sequential_degree_from_sorted(sources, num_nodes);

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
          const VertexId first = sources[i];
          std::uint32_t run = 0;
          while (i < r.end && sources[i] == first) {
            ++run;
            ++i;
          }
          temp[c] = run;
          // Remaining runs start inside this chunk, so this chunk is the
          // unique direct writer for their nodes (lines 5-7).
          while (i < r.end) {
            const VertexId node = sources[i];
            PCQ_DCHECK(node < num_nodes);
            run = 0;
            while (i < r.end && sources[i] == node) {
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
      const auto r = pcq::par::chunk_range(n, chunks, c);
      // The direct-write loop bounds-checks every run head, but a chunk
      // whose *first* node is out of range only ever reaches this merge.
      PCQ_DCHECK_MSG(sources[r.begin] < num_nodes,
                     "source id outside declared vertex range");
      degrees[sources[r.begin]] += temp[c];
    }
  }
  return degrees;
}

}  // namespace pcq::csr
