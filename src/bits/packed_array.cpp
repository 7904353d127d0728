#include "bits/packed_array.hpp"

namespace pcq::bits {

FixedWidthArray FixedWidthArray::pack(std::span<const std::uint64_t> values,
                                      int num_threads) {
  return pack(values.size(), num_threads,
              [values](std::size_t i) { return values[i]; });
}

FixedWidthArray FixedWidthArray::pack_with_width(
    std::span<const std::uint64_t> values, unsigned width, int num_threads) {
  return pack_with_width(values.size(), width, num_threads,
                         [values](std::size_t i) { return values[i]; });
}

void FixedWidthArray::get_range(std::size_t begin, std::size_t count,
                                std::span<std::uint64_t> out) const {
  PCQ_CHECK(out.size() >= count);
  get_range_into(begin, count, out.data());
}

std::vector<std::uint64_t> FixedWidthArray::unpack(int num_threads) const {
  std::vector<std::uint64_t> out(size_);
  // Chunks decode disjoint element ranges; they may read (but never write)
  // a shared boundary word, so the kernel runs race-free in parallel.
  pcq::par::parallel_for_chunks(
      size_, num_threads, [&](std::size_t, pcq::par::ChunkRange r) {
        get_range_into(r.begin, r.size(), out.data() + r.begin);
      });
  return out;
}

}  // namespace pcq::bits
