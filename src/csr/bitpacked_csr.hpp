// Bit-packed CSR — §III-A3 / Algorithm 4.
//
// Both CSR arrays are fixed-width bit packed (the codec of ref [7]): the
// cumulative degree array iA in bits_for(num_edges) bits per entry and the
// column array jA in bits_for(num_nodes - 1) bits per entry. Fixed widths
// keep random access O(1) — row u is the packed slice
// [offset(u), offset(u+1)) of jA — so all the querying algorithms of
// Section V run directly on the compressed form, never decompressing more
// than the rows they touch.
//
// `decode_row` is the paper's GetRowFromCSR(A, startingIndex, degree,
// numBits) from ref [28]: it takes the packed bit array, a starting index,
// a count and the per-value bit width, and returns the decoded neighbour
// row.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bits/packed_array.hpp"
#include "csr/csr_graph.hpp"
#include "graph/types.hpp"

namespace pcq::csr {

/// Width of a jA entry for `num_nodes` vertices: bits_for(num_nodes - 1).
inline unsigned column_bits_for(graph::VertexId num_nodes) {
  return pcq::bits::bits_for(num_nodes == 0 ? 0 : num_nodes - 1);
}

class BitPackedCsr {
 public:
  BitPackedCsr() = default;

  /// Packs a plain CSR (Algorithm 4, applied once to iA and once to jA:
  /// each processor writes whole words of its own 64-element-aligned
  /// window of the final bit array, so there is no merge step).
  static BitPackedCsr from_csr(const CsrGraph& csr, int num_threads);

  /// Reassembles a structure from already-packed arrays (deserialization).
  /// `offsets` must hold num_nodes + 1 entries and `columns` num_edges.
  static BitPackedCsr from_parts(graph::VertexId num_nodes,
                                 std::size_t num_edges,
                                 pcq::bits::FixedWidthArray offsets,
                                 pcq::bits::FixedWidthArray columns) {
    PCQ_CHECK(offsets.size() == static_cast<std::size_t>(num_nodes) + 1);
    PCQ_CHECK(columns.size() == num_edges);
    BitPackedCsr out;
    out.num_nodes_ = num_nodes;
    out.num_edges_ = num_edges;
    out.offsets_ = std::move(offsets);
    out.columns_ = std::move(columns);
    return out;
  }

  [[nodiscard]] graph::VertexId num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// offset(u): index into jA of u's first neighbour.
  [[nodiscard]] std::uint64_t offset(graph::VertexId u) const {
    PCQ_DCHECK(u <= num_nodes_);
    return offsets_.get(u);
  }

  [[nodiscard]] std::uint32_t degree(graph::VertexId u) const {
    return static_cast<std::uint32_t>(offset(u + 1) - offset(u));
  }

  /// Both bounds of row u, decoded with one inline kernel call on the
  /// adjacent packed offsets instead of two out-of-line read_bits calls —
  /// this is per-row overhead on every decode, so it matters for the
  /// short rows that dominate social-network degree distributions.
  struct RowBounds {
    std::uint64_t begin;
    std::uint64_t end;
  };
  [[nodiscard]] RowBounds row_bounds(graph::VertexId u) const {
    PCQ_DCHECK(u < num_nodes_);
    std::uint64_t pair[2];
    offsets_.get_range_into(u, 2, pair);
    return {pair[0], pair[1]};
  }

  /// Decodes the single column entry at packed index i (jA[i]).
  [[nodiscard]] graph::VertexId column(std::uint64_t i) const {
    return static_cast<graph::VertexId>(columns_.get(i));
  }

  /// GetRowFromCSR: decodes u's neighbour row into `out`, which must have
  /// room for degree(u) values. Returns the row length. Runs the bulk
  /// word-streaming kernel straight into the VertexId buffer. Inline so
  /// per-row call overhead doesn't dominate short rows in batch decodes.
  std::size_t decode_row(graph::VertexId u, std::span<graph::VertexId> out) const {
    const RowBounds row = row_bounds(u);
    const auto deg = static_cast<std::size_t>(row.end - row.begin);
    PCQ_CHECK(out.size() >= deg);
    columns_.get_range_into(row.begin, deg, out.data());
    return deg;
  }

  /// Convenience allocation-returning variant.
  [[nodiscard]] std::vector<graph::VertexId> neighbors(graph::VertexId u) const;

  /// Streaming decoder over u's packed row — iterates the neighbours
  /// without materialising them (values are the packed column ids).
  [[nodiscard]] pcq::bits::RowCursor row_cursor(graph::VertexId u) const {
    const RowBounds row = row_bounds(u);
    return columns_.cursor(row.begin,
                           static_cast<std::size_t>(row.end - row.begin));
  }

  /// Binary search of u's packed row (rows are v-sorted by construction).
  /// Decodes O(log degree) packed values, not the whole row.
  [[nodiscard]] bool has_edge(graph::VertexId u, graph::VertexId v) const;

  /// Bits per iA entry / per jA entry (the paper's numBits).
  [[nodiscard]] unsigned offset_bits() const { return offsets_.width(); }
  [[nodiscard]] unsigned column_bits() const { return columns_.width(); }

  /// Payload footprint — Table II's "CSR" column.
  [[nodiscard]] std::size_t size_bytes() const {
    return offsets_.size_bytes() + columns_.size_bytes();
  }

  /// Expands back to a plain CSR (round-trip testing and interop); both
  /// arrays decode through the bulk kernel, chunked over `num_threads`.
  [[nodiscard]] CsrGraph to_csr(int num_threads = 1) const;

  [[nodiscard]] const pcq::bits::FixedWidthArray& packed_offsets() const {
    return offsets_;
  }
  [[nodiscard]] const pcq::bits::FixedWidthArray& packed_columns() const {
    return columns_;
  }

 private:
  graph::VertexId num_nodes_ = 0;
  std::size_t num_edges_ = 0;
  pcq::bits::FixedWidthArray offsets_;  // iA: n + 1 cumulative degrees
  pcq::bits::FixedWidthArray columns_;  // jA: m column ids
};

}  // namespace pcq::csr
