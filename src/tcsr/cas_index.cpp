#include "tcsr/cas_index.hpp"

#include <algorithm>

#include "par/parallel_for.hpp"
#include "par/prefix_sum.hpp"
#include "par/radix_sort.hpp"
#include "util/check.hpp"

namespace pcq::tcsr {

using graph::TemporalEdge;
using graph::TimeFrame;
using graph::VertexId;

CasIndex CasIndex::build(const graph::TemporalEdgeList& events,
                         VertexId num_nodes, int num_threads) {
  if (num_nodes == 0) num_nodes = events.num_nodes();
  CasIndex index;

  // CAS ordering: by source, then time, then target. Radix on the packed
  // (u, t) key is stable, so a prior (t, u, v) sort's v-order within equal
  // (u, t) survives — but the input order is unconstrained, so sort fully.
  std::vector<TemporalEdge> evs(events.edges().begin(), events.edges().end());
  pcq::par::parallel_radix_sort(
      std::span<TemporalEdge>(evs), num_threads, [](const TemporalEdge& e) {
        return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
      });
  pcq::par::parallel_radix_sort(
      std::span<TemporalEdge>(evs), num_threads, [](const TemporalEdge& e) {
        return (static_cast<std::uint64_t>(e.u) << 32) | e.t;
      });

  // Per-vertex slice offsets (degree-count + scan, the usual pipeline).
  std::vector<std::uint32_t> counts(num_nodes, 0);
  for (const TemporalEdge& e : evs) ++counts[e.u];
  index.offsets_ = pcq::par::offsets_from_degrees(counts, num_threads);

  // Column arrays.
  std::vector<std::uint32_t> targets(evs.size());
  pcq::par::parallel_for(evs.size(), num_threads,
                         [&](std::size_t i) { targets[i] = evs[i].v; });
  index.times_ = pcq::bits::FixedWidthArray::pack(
      evs.size(), num_threads, [&](std::size_t i) { return evs[i].t; });
  index.targets_ = pcq::bits::WaveletTree::build(targets, num_nodes);
  return index;
}

std::size_t CasIndex::time_boundary(VertexId u, TimeFrame t) const {
  // Binary search within u's slice for the first event with time > t.
  std::size_t lo = offsets_[u], hi = offsets_[u + 1];
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (times_.get(mid) <= t)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

bool CasIndex::edge_active(VertexId u, VertexId v, TimeFrame t) const {
  PCQ_DCHECK(u < num_nodes());
  const std::size_t begin = offsets_[u];
  const std::size_t end = time_boundary(u, t);
  return targets_.count(begin, end, v) % 2 == 1;
}

std::vector<VertexId> CasIndex::neighbors_at(VertexId u, TimeFrame t) const {
  PCQ_DCHECK(u < num_nodes());
  const std::size_t begin = offsets_[u];
  const std::size_t end = time_boundary(u, t);
  std::vector<VertexId> out;
  targets_.for_each_distinct(begin, end,
                             [&](std::uint32_t symbol, std::size_t count) {
                               if (count % 2 == 1)
                                 out.push_back(static_cast<VertexId>(symbol));
                             });
  return out;  // ascending: the enumeration is in symbol order
}

std::size_t CasIndex::size_bytes() const {
  return offsets_.size() * sizeof(std::uint64_t) + times_.size_bytes() +
         targets_.size_bytes();
}

}  // namespace pcq::tcsr
