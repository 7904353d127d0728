#include "csr/bitpacked_csr.hpp"

#include "par/parallel_for.hpp"

namespace pcq::csr {

using graph::VertexId;

BitPackedCsr BitPackedCsr::from_csr(const CsrGraph& csr, int num_threads) {
  // Algorithm 4, once for the degree array iA and once for the column
  // array jA (packed straight from its 32-bit entries).
  const auto offs = csr.offsets();
  PCQ_DCHECK_MSG(offs.back() == csr.num_edges(),
                 "CSR final offset != edge count before packing");
  const auto cols = csr.columns();
  return from_parts(
      csr.num_nodes(), csr.num_edges(),
      pcq::bits::FixedWidthArray::pack_with_width(
          offs, pcq::bits::bits_for(csr.num_edges()), num_threads),
      pcq::bits::FixedWidthArray::pack_with_width(
          cols.size(), column_bits_for(csr.num_nodes()), num_threads,
          [cols](std::size_t i) { return cols[i]; }));
}

std::vector<VertexId> BitPackedCsr::neighbors(VertexId u) const {
  std::vector<VertexId> out(degree(u));
  decode_row(u, out);
  return out;
}

bool BitPackedCsr::has_edge(VertexId u, VertexId v) const {
  PCQ_DCHECK_MSG(u < num_nodes_, "has_edge source outside vertex range");
  std::uint64_t lo = offset(u);
  std::uint64_t hi = offset(u + 1);
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const VertexId c = column(mid);
    if (c == v) return true;
    if (c < v)
      lo = mid + 1;
    else
      hi = mid;
  }
  return false;
}

CsrGraph BitPackedCsr::to_csr(int num_threads) const {
  std::vector<std::uint64_t> offs = offsets_.unpack(num_threads);
  std::vector<VertexId> cols(num_edges_);
  pcq::par::parallel_for_chunks(
      num_edges_, num_threads, [&](std::size_t, pcq::par::ChunkRange r) {
        columns_.get_range_into(r.begin, r.size(), cols.data() + r.begin);
      });
  return CsrGraph(std::move(offs), std::move(cols));
}

}  // namespace pcq::csr
