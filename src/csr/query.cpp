#include "csr/query.hpp"

#include <algorithm>
#include <atomic>

#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/prefix_sum.hpp"
#include "par/threads.hpp"

namespace pcq::csr {

using graph::Edge;
using graph::VertexId;

void batch_neighbors_into(const BitPackedCsr& csr,
                          std::span<const VertexId> query_nodes,
                          std::span<std::vector<VertexId>> out,
                          int num_threads) {
  PCQ_CHECK(out.size() == query_nodes.size());
  // Algorithm 9, first block: split the query array into p parts; each
  // processor runs Algorithm 6 on its [startI, endI) slice.
  pcq::par::parallel_for_chunks(
      query_nodes.size(), num_threads,
      [&](std::size_t, pcq::par::ChunkRange r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const VertexId u = query_nodes[i];
          PCQ_DCHECK_MSG(u < csr.num_nodes(),
                         "batch query node outside vertex range");
          // GetRowFromCSR(A, startingIndex, degree, numBits).
          std::vector<VertexId> row(csr.degree(u));
          csr.decode_row(u, row);
          out[i] = std::move(row);
        }
      });
}

std::vector<std::vector<VertexId>> batch_neighbors(
    const BitPackedCsr& csr, std::span<const VertexId> query_nodes,
    int num_threads) {
  std::vector<std::vector<VertexId>> result(query_nodes.size());
  batch_neighbors_into(csr, query_nodes, result, num_threads);
  return result;
}

void batch_degrees_into(const BitPackedCsr& csr,
                        std::span<const VertexId> query_nodes,
                        std::span<std::uint32_t> out, int num_threads) {
  PCQ_CHECK(out.size() == query_nodes.size());
  pcq::par::parallel_for_chunks(
      query_nodes.size(), num_threads,
      [&](std::size_t, pcq::par::ChunkRange r) {
        for (std::size_t i = r.begin; i < r.end; ++i)
          out[i] = csr.degree(query_nodes[i]);
      });
}

BatchNeighborsResult batch_neighbors_flat(
    const BitPackedCsr& csr, std::span<const VertexId> query_nodes,
    int num_threads) {
  BatchNeighborsResult result;
  const std::size_t q = query_nodes.size();

  // Pass 1: per-query degrees, then offsets by the chunked prefix sum.
  std::vector<std::uint32_t> degrees(q);
  pcq::par::parallel_for(q, num_threads, [&](std::size_t i) {
    degrees[i] = csr.degree(query_nodes[i]);
  });
  result.offsets = pcq::par::offsets_from_degrees(degrees, num_threads);

  // Pass 2: decode every row into its slot; rows are disjoint, so the
  // writes are race-free.
  result.values.resize(result.offsets.back());
  pcq::par::parallel_for_chunks(
      q, num_threads, [&](std::size_t, pcq::par::ChunkRange r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          std::span<VertexId> slot(result.values.data() + result.offsets[i],
                                   degrees[i]);
          csr.decode_row(query_nodes[i], slot);
        }
      });
  return result;
}

namespace {

/// Debug invariant behind RowSearch::kBinary: builder output is
/// column-sorted, so binary search over the packed row is sound.
[[maybe_unused]] bool row_is_sorted(const BitPackedCsr& csr, VertexId u) {
  pcq::bits::RowCursor cursor = csr.row_cursor(u);
  std::uint64_t prev = 0;
  bool first = true;
  while (!cursor.done()) {
    const std::uint64_t c = cursor.next();
    if (!first && c < prev) return false;
    prev = c;
    first = false;
  }
  return true;
}

}  // namespace

void batch_edge_existence_into(const BitPackedCsr& csr,
                               std::span<const Edge> query_edges,
                               std::span<std::uint8_t> out, int num_threads,
                               RowSearch search) {
  PCQ_CHECK(out.size() == query_edges.size());
  // Algorithm 9, second block: split the edge array into p parts; each
  // processor runs Algorithm 7 on its slice.
  pcq::par::parallel_for_chunks(
      query_edges.size(), num_threads,
      [&](std::size_t, pcq::par::ChunkRange r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          const auto [u, v] = query_edges[i];
          PCQ_DCHECK_MSG(u < csr.num_nodes(),
                         "batch query edge source outside vertex range");
          if (search == RowSearch::kBinary) {
            // Rows are sorted, so the packed binary search answers in
            // O(log deg) decodes instead of a full row scan.
            PCQ_DCHECK(row_is_sorted(csr, u));
            out[i] = csr.has_edge(u, v) ? 1 : 0;
            continue;
          }
          // uNeighs = GetRowFromCSR(...); then scan for v (Algorithm 7
          // lines 3-6), streamed through the cursor — no row buffer.
          bool found = false;
          for (pcq::bits::RowCursor row = csr.row_cursor(u); !row.done();) {
            if (row.next() == v) {
              found = true;
              break;
            }
          }
          out[i] = found ? 1 : 0;
        }
      });
}

std::vector<std::uint8_t> batch_edge_existence(
    const BitPackedCsr& csr, std::span<const Edge> query_edges,
    int num_threads, RowSearch search) {
  std::vector<std::uint8_t> result(query_edges.size(), 0);
  batch_edge_existence_into(csr, query_edges, result, num_threads, search);
  return result;
}

bool edge_exists_intra_row(const BitPackedCsr& csr, VertexId u, VertexId v,
                           int num_threads, RowSearch search) {
  const std::uint64_t row_begin = csr.offset(u);
  const auto deg = static_cast<std::size_t>(csr.offset(u + 1) - row_begin);
  if (deg == 0) return false;

  // Algorithm 9, third block: retrieve u's neighbourhood bounds, split the
  // row into p parts, and let every processor search its chunk. The packed
  // row is streamed through the word-wise cursor — no materialisation.
  // A row shorter than two grains is searched serially, with no fork.
  const auto p = std::min(
      static_cast<std::size_t>(pcq::par::clamp_threads(num_threads)),
      std::max<std::size_t>(1, deg / kIntraRowMinGrain));
  std::atomic<bool> found{false};
  // Re-checked every kPollStride elements so a hit in one chunk stops the
  // others mid-scan instead of only gating chunk entry.
  constexpr std::size_t kPollStride = 1024;
  pcq::par::parallel_for_chunks(
      deg, static_cast<int>(p), [&](std::size_t, pcq::par::ChunkRange r) {
        if (found.load(std::memory_order_relaxed)) return;  // early exit
        if (search == RowSearch::kLinear) {
          pcq::bits::RowCursor cursor =
              csr.packed_columns().cursor(row_begin + r.begin, r.size());
          std::size_t until_poll = kPollStride;
          while (!cursor.done()) {
            if (cursor.next() == v) {
              found.store(true, std::memory_order_relaxed);
              return;
            }
            if (--until_poll == 0) {
              if (found.load(std::memory_order_relaxed)) return;
              until_poll = kPollStride;
            }
          }
        } else {
          // Binary search within this processor's chunk (rows are sorted).
          std::size_t lo = r.begin, hi = r.end;
          while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            const VertexId c = csr.column(row_begin + mid);
            if (c == v) {
              found.store(true, std::memory_order_relaxed);
              return;
            }
            if (c < v)
              lo = mid + 1;
            else
              hi = mid;
          }
        }
      });
  return found.load(std::memory_order_relaxed);
}

}  // namespace pcq::csr
