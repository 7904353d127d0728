#include "tcsr/contact_index.hpp"

#include <algorithm>

#include "par/parallel_for.hpp"
#include "par/prefix_sum.hpp"
#include "par/radix_sort.hpp"
#include "util/check.hpp"

namespace pcq::tcsr {

using graph::TemporalEdge;
using graph::TimeFrame;
using graph::VertexId;

ContactIndex ContactIndex::build(const graph::TemporalEdgeList& events,
                                 VertexId num_nodes, TimeFrame num_frames,
                                 int num_threads) {
  if (num_nodes == 0) num_nodes = events.num_nodes();
  if (num_frames == 0) num_frames = events.num_frames();

  // Group events per edge: sort by (u, v, t). Two stable radix passes.
  std::vector<TemporalEdge> evs(events.edges().begin(), events.edges().end());
  pcq::par::parallel_radix_sort(
      std::span<TemporalEdge>(evs), num_threads,
      [](const TemporalEdge& e) { return std::uint64_t{e.t}; });
  pcq::par::parallel_radix_sort(
      std::span<TemporalEdge>(evs), num_threads, [](const TemporalEdge& e) {
        return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
      });

  // Convert toggle runs to maximal intervals. Consecutive equal (u, v)
  // events alternate on/off; an interval left open closes at the last
  // frame. Events repeated within one frame cancel pairwise.
  std::vector<Contact> contacts;
  std::size_t i = 0;
  while (i < evs.size()) {
    const VertexId u = evs[i].u, v = evs[i].v;
    bool active = false;
    TimeFrame begin = 0;
    std::size_t j = i;
    while (j < evs.size() && evs[j].u == u && evs[j].v == v) {
      // Collapse equal-frame repeats to their parity.
      const TimeFrame t = evs[j].t;
      std::size_t reps = 0;
      while (j < evs.size() && evs[j].u == u && evs[j].v == v && evs[j].t == t) {
        ++reps;
        ++j;
      }
      if (reps % 2 == 0) continue;  // even toggles cancel
      if (!active) {
        active = true;
        begin = t;
      } else {
        active = false;
        contacts.push_back({u, v, begin, static_cast<TimeFrame>(t - 1)});
      }
    }
    if (active)
      contacts.push_back(
          {u, v, begin, static_cast<TimeFrame>(num_frames - 1)});
    i = j;
  }

  ContactIndex index;
  std::vector<std::uint32_t> counts(num_nodes, 0);
  for (const Contact& c : contacts) ++counts[c.u];
  index.offsets_ = pcq::par::offsets_from_degrees(counts, num_threads);

  const auto pack_field = [&](auto Contact::*field) {
    return pcq::bits::FixedWidthArray::pack(
        contacts.size(), num_threads,
        [&](std::size_t k) { return contacts[k].*field; });
  };
  index.targets_ = pack_field(&Contact::v);
  index.begins_ = pack_field(&Contact::begin);
  index.ends_ = pack_field(&Contact::end);
  return index;
}

bool ContactIndex::edge_active(VertexId u, VertexId v, TimeFrame t) const {
  PCQ_DCHECK(u < num_nodes());
  // Binary search the (v, begin)-sorted slice for the last contact of v
  // with begin <= t, then check its end.
  std::size_t lo = offsets_[u], hi = offsets_[u + 1];
  // First narrow to the pair's subrange by target id.
  std::size_t pair_lo = lo, pair_hi = hi;
  {
    std::size_t a = lo, b = hi;
    while (a < b) {
      const std::size_t mid = a + (b - a) / 2;
      if (targets_.get(mid) < v)
        a = mid + 1;
      else
        b = mid;
    }
    pair_lo = a;
    a = pair_lo;
    b = hi;
    while (a < b) {
      const std::size_t mid = a + (b - a) / 2;
      if (targets_.get(mid) <= v)
        a = mid + 1;
      else
        b = mid;
    }
    pair_hi = a;
  }
  // Last interval starting at or before t.
  std::size_t a = pair_lo, b = pair_hi;
  while (a < b) {
    const std::size_t mid = a + (b - a) / 2;
    if (begins_.get(mid) <= t)
      a = mid + 1;
    else
      b = mid;
  }
  if (a == pair_lo) return false;  // every contact starts after t
  return ends_.get(a - 1) >= t;
}

std::vector<VertexId> ContactIndex::neighbors_at(VertexId u,
                                                 TimeFrame t) const {
  PCQ_DCHECK(u < num_nodes());
  std::vector<VertexId> out;
  for (std::size_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
    if (begins_.get(k) <= t && t <= ends_.get(k)) {
      const auto v = static_cast<VertexId>(targets_.get(k));
      // Contacts of one pair are disjoint intervals, so at most one can
      // contain t; slice order keeps output ascending.
      out.push_back(v);
    }
  }
  return out;
}

std::vector<ActivityInterval> ContactIndex::contacts(VertexId u,
                                                     VertexId v) const {
  std::vector<ActivityInterval> out;
  for (std::size_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
    if (targets_.get(k) == v)
      out.push_back({static_cast<TimeFrame>(begins_.get(k)),
                     static_cast<TimeFrame>(ends_.get(k))});
  }
  return out;
}

std::vector<Contact> ContactIndex::contacts_in_window(TimeFrame t_begin,
                                                      TimeFrame t_end) const {
  PCQ_CHECK(t_begin <= t_end);
  std::vector<Contact> out;
  const VertexId n = num_nodes();
  for (VertexId u = 0; u < n; ++u) {
    for (std::size_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
      const auto cb = static_cast<TimeFrame>(begins_.get(k));
      const auto ce = static_cast<TimeFrame>(ends_.get(k));
      if (cb <= t_end && ce >= t_begin)
        out.push_back({u, static_cast<VertexId>(targets_.get(k)), cb, ce});
    }
  }
  return out;
}

std::size_t ContactIndex::size_bytes() const {
  return offsets_.size() * sizeof(std::uint64_t) + targets_.size_bytes() +
         begins_.size_bytes() + ends_.size_bytes();
}

}  // namespace pcq::tcsr
