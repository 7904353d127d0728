#include "tcsr/baselines.hpp"

#include <algorithm>

#include "csr/builder.hpp"
#include "par/parallel_for.hpp"
#include "tcsr/tcsr.hpp"
#include "util/check.hpp"

namespace pcq::tcsr {

using graph::TemporalEdgeList;
using graph::TimeFrame;
using graph::VertexId;

SnapshotSequence SnapshotSequence::build(const TemporalEdgeList& events,
                                         VertexId num_nodes,
                                         TimeFrame num_frames,
                                         int num_threads) {
  if (num_nodes == 0) num_nodes = events.num_nodes();
  if (num_frames == 0) num_frames = events.num_frames();

  // Reuse the differential pipeline to get per-frame snapshots, then pack
  // each full snapshot instead of each delta.
  DifferentialTcsr tcsr =
      DifferentialTcsr::build(events, num_nodes, num_frames, num_threads);
  std::vector<SortedEdgeSet> snaps = tcsr.all_snapshots(num_threads);

  SnapshotSequence seq;
  seq.snapshots_.resize(snaps.size());
  pcq::par::parallel_for(snaps.size(), num_threads, [&](std::size_t t) {
    graph::EdgeList list(std::move(snaps[t]).take());
    const csr::CsrGraph csr = csr::build_csr_sequential(list, num_nodes);
    seq.snapshots_[t] = csr::BitPackedCsr::from_csr(csr, 1);
  });
  return seq;
}

std::size_t SnapshotSequence::size_bytes() const {
  std::size_t bytes = 0;
  for (const auto& s : snapshots_) bytes += s.size_bytes();
  return bytes;
}

EveLog EveLog::build(const TemporalEdgeList& events, VertexId num_nodes,
                     int num_threads) {
  if (num_nodes == 0) num_nodes = events.num_nodes();
  const auto evs = events.edges();

  // Bucket events per source vertex, preserving time order (input is
  // (t, u, v)-sorted, so per-vertex order stays chronological).
  std::vector<std::vector<std::pair<TimeFrame, VertexId>>> buckets(num_nodes);
  for (const auto& e : evs) buckets[e.u].emplace_back(e.t, e.v);

  EveLog log;
  log.logs_.resize(num_nodes);
  pcq::par::parallel_for(num_nodes, num_threads, [&](std::size_t u) {
    const auto& bucket = buckets[u];
    if (bucket.empty()) return;
    std::vector<std::uint64_t> times(bucket.size());
    for (std::size_t i = 0; i < bucket.size(); ++i) times[i] = bucket[i].first;
    log.logs_[u].times = pcq::bits::GapEncodedSequence::encode(
        times, pcq::bits::GapCodec::kDelta);
    log.logs_[u].neighbors = pcq::bits::FixedWidthArray::pack_with_width(
        bucket.size(), csr::column_bits_for(num_nodes), 1,
        [&bucket](std::size_t i) { return bucket[i].second; });
  });
  return log;
}

bool EveLog::edge_active(VertexId u, VertexId v, TimeFrame t) const {
  PCQ_DCHECK(u < logs_.size());
  const VertexLog& log = logs_[u];
  // "To determine if an arc is active ... it is necessary to sequentially
  // read the log of events" (§II) — decode and replay.
  const std::vector<std::uint64_t> times = log.times.decode();
  bool active = false;
  for (std::size_t i = 0; i < times.size() && times[i] <= t; ++i)
    if (log.neighbors.get(i) == v) active = !active;
  return active;
}

std::vector<VertexId> EveLog::neighbors_at(VertexId u, TimeFrame t) const {
  PCQ_DCHECK(u < logs_.size());
  const VertexLog& log = logs_[u];
  const std::vector<std::uint64_t> times = log.times.decode();
  std::vector<VertexId> active;
  for (std::size_t i = 0; i < times.size() && times[i] <= t; ++i) {
    const auto v = static_cast<VertexId>(log.neighbors.get(i));
    auto it = std::find(active.begin(), active.end(), v);
    if (it == active.end())
      active.push_back(v);
    else
      active.erase(it);
  }
  std::sort(active.begin(), active.end());
  return active;
}

std::size_t EveLog::size_bytes() const {
  std::size_t bytes = 0;
  for (const auto& log : logs_)
    bytes += log.times.size_bytes() + log.neighbors.size_bytes();
  return bytes;
}

}  // namespace pcq::tcsr
