// Fixed-width bit packing — the codec of the paper's reference [7]
// ("On Compressing Time-Evolving Networks", Gopal Krishna et al. 2021).
//
// Every integer in the array is stored in exactly `width` bits, where
// `width = bits_for(max value)`. Because the width is fixed, element i
// lives at bit offset i*width: random access needs no decoding of earlier
// elements, which is what makes the bit-packed CSR of Section III-A3
// queryable without decompression.
//
// `pack` follows Algorithm 4: the input is split into one chunk per
// processor and each processor packs its chunk into a private bit array
// "in a global location": its own window of the final array. Chunks are
// cut at multiples of 64 elements, and 64 elements of `width` bits are
// exactly `width` words, so no two processors share a word and nothing is
// left to merge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "bits/bitvector.hpp"
#include "bits/unpack.hpp"
#include "obs/trace.hpp"
#include "par/parallel_for.hpp"
#include "par/reduce.hpp"

namespace pcq::bits {

/// Overflow-checked size * width in bits. Header-supplied sizes can be
/// adversarial (anything near SIZE_MAX wraps a naive product and slips
/// past a `storage >= size * width` gate); refuse them outright.
inline std::size_t checked_packed_bits(std::size_t size, unsigned width) {
  PCQ_CHECK(width >= 1 && width <= 64);
  PCQ_CHECK_MSG(size <= std::numeric_limits<std::size_t>::max() / width,
                "packed size * width overflows");
  return size * width;
}

class FixedWidthArray {
 public:
  FixedWidthArray() = default;

  /// Packs `values` with the minimum width for its maximum element, using
  /// `num_threads` chunks (Algorithm 4).
  static FixedWidthArray pack(std::span<const std::uint64_t> values,
                              int num_threads);

  /// pack over value_of(i) for i in [0, n) (projection form, as below).
  template <typename ValueFn>
  static FixedWidthArray pack(std::size_t n, int num_threads,
                              ValueFn&& value_of) {
    const std::uint64_t max_value = pcq::par::parallel_map_reduce(
        n, std::uint64_t{0}, num_threads,
        [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); },
        [&](std::size_t i) -> std::uint64_t { return value_of(i); });
    return pack_with_width(n, bits_for(max_value), num_threads, value_of);
  }

  /// Packs with an explicit width; every value must fit in `width` bits.
  static FixedWidthArray pack_with_width(std::span<const std::uint64_t> values,
                                         unsigned width, int num_threads);

  /// Packs value_of(i) for i in [0, n) with an explicit width: the
  /// projection form, so callers pack 32-bit columns or edge endpoints
  /// without first widening them into a u64 copy. Values wider than
  /// `width` are masked (and refused by debug builds).
  template <typename ValueFn>
  static FixedWidthArray pack_with_width(std::size_t n, unsigned width,
                                         int num_threads, ValueFn&& value_of) {
    BitVector storage(checked_packed_bits(n, width));
    const auto words = storage.mutable_words();
    const std::uint64_t mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
    // Block b of 64 elements owns words [b * width, (b + 1) * width); each
    // chunk of whole blocks streams its values into its own words.
    const std::size_t blocks = (n + 63) / 64;
    PCQ_TRACE_SCOPE("pack.blocks", blocks);
    pcq::par::parallel_for_chunks(
        blocks, num_threads, [&](std::size_t, pcq::par::ChunkRange r) {
          std::uint64_t* out = words.data() + r.begin * width;
          std::uint64_t acc = 0;
          unsigned fill = 0;  // bits of acc already holding values
          const std::size_t end = std::min(r.end * 64, n);
          for (std::size_t i = r.begin * 64; i < end; ++i) {
            const auto value = static_cast<std::uint64_t>(value_of(i));
            PCQ_DCHECK(width == 64 || (value >> width) == 0);
            const std::uint64_t v = value & mask;
            acc |= v << fill;
            fill += width;
            if (fill >= 64) {
              *out++ = acc;
              fill -= 64;
              acc = fill == 0 ? 0 : v >> (width - fill);
            }
          }
          if (fill != 0) *out = acc;  // only the last block ends mid-word
        });
    return FixedWidthArray(std::move(storage), n, width);
  }

  /// Adopts already-packed storage (deserialization); storage must hold at
  /// least size * width bits (computed overflow-checked — a header-supplied
  /// size near SIZE_MAX must die here, not wrap past the gate).
  static FixedWidthArray from_bits(BitVector storage, std::size_t size,
                                   unsigned width) {
    PCQ_CHECK(storage.size() >= checked_packed_bits(size, width));
    return FixedWidthArray(std::move(storage), size, width);
  }

  /// Borrows already-packed storage the caller keeps alive (a mapped file
  /// payload): zero-copy construction over read-only words. Refuses (like
  /// from_bits, with overflow-checked arithmetic) a span shorter than
  /// size * width bits.
  static FixedWidthArray view(std::span<const std::uint64_t> storage,
                              std::size_t size, unsigned width) {
    const std::size_t nbits = checked_packed_bits(size, width);
    return FixedWidthArray(BitVector::view(storage, nbits), size, width);
  }

  /// Element count.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Bits per element.
  [[nodiscard]] unsigned width() const { return width_; }

  /// Payload bytes (what the compression benchmarks report).
  [[nodiscard]] std::size_t size_bytes() const { return storage_.size_bytes(); }

  /// Random access decode of element i.
  [[nodiscard]] std::uint64_t get(std::size_t i) const {
    PCQ_DCHECK(i < size_);
    return storage_.read_bits(i * width_, width_);
  }
  std::uint64_t operator[](std::size_t i) const { return get(i); }

  /// Decodes elements [begin, begin+count) into `out`. This is the bulk
  /// row decode behind GetRowFromCSR: neighbours of one node are `count`
  /// consecutive packed values. Runs the word-streaming kernel: each
  /// storage word is loaded once, not once per element.
  void get_range(std::size_t begin, std::size_t count,
                 std::span<std::uint64_t> out) const;

  /// get_range decoding into any integer type wide enough for the stored
  /// values (packed graph columns decode straight into VertexId buffers).
  /// The range check is phrased subtraction-side: `begin + count` can wrap
  /// for hostile (attacker-derived) arguments and slip past a naive gate.
  template <typename OutT>
  void get_range_into(std::size_t begin, std::size_t count, OutT* out) const {
    PCQ_CHECK(begin <= size_ && count <= size_ - begin);
    unpack_words(storage_.words().data(), begin * width_, width_, count, out);
  }

  /// Streaming decoder over [begin, begin+count) — no scratch buffer.
  /// Overflow-safe range gate, as in get_range_into.
  [[nodiscard]] RowCursor cursor(std::size_t begin, std::size_t count) const {
    PCQ_CHECK(begin <= size_ && count <= size_ - begin);
    return RowCursor(storage_.words().data(), begin * width_, width_, count);
  }

  /// Decodes the whole array; chunks the kernel across `num_threads`.
  [[nodiscard]] std::vector<std::uint64_t> unpack(int num_threads = 1) const;

  /// Underlying bit storage (exposed for the query algorithms, which the
  /// paper phrases in terms of "an array of unsigned bits A").
  [[nodiscard]] const BitVector& bits() const { return storage_; }

  friend bool operator==(const FixedWidthArray& a, const FixedWidthArray& b) {
    return a.size_ == b.size_ && a.width_ == b.width_ && a.storage_ == b.storage_;
  }

 private:
  FixedWidthArray(BitVector storage, std::size_t size, unsigned width)
      : storage_(std::move(storage)), size_(size), width_(width) {}

  BitVector storage_;
  std::size_t size_ = 0;
  unsigned width_ = 1;
};

}  // namespace pcq::bits
