#include "bits/packed_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace pcq::bits {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, unsigned width,
                                         std::uint64_t seed) {
  pcq::util::SplitMix64 rng(seed);
  std::vector<std::uint64_t> v(n);
  const std::uint64_t mask =
      width == 64 ? ~0ULL : ((std::uint64_t{1} << width) - 1);
  for (auto& x : v) x = rng.next() & mask;
  return v;
}

TEST(PackedArray, EmptyArray) {
  const auto packed = FixedWidthArray::pack({}, 4);
  EXPECT_EQ(packed.size(), 0u);
  EXPECT_TRUE(packed.empty());
  EXPECT_TRUE(packed.unpack().empty());
}

TEST(PackedArray, AutoWidthFromMax) {
  const std::vector<std::uint64_t> v{0, 5, 3, 7};
  const auto packed = FixedWidthArray::pack(v, 1);
  EXPECT_EQ(packed.width(), 3u);  // max is 7 -> 3 bits
  EXPECT_EQ(packed.unpack(), v);
}

TEST(PackedArray, AllZeros) {
  const std::vector<std::uint64_t> v(100, 0);
  const auto packed = FixedWidthArray::pack(v, 4);
  EXPECT_EQ(packed.width(), 1u);
  EXPECT_EQ(packed.unpack(), v);
  EXPECT_EQ(packed.size_bytes(), 16u);  // 100 bits -> 2 words
}

TEST(PackedArray, RandomAccessGet) {
  const auto v = random_values(1000, 17, 3);
  const auto packed = FixedWidthArray::pack_with_width(v, 17, 4);
  for (std::size_t i = 0; i < v.size(); i += 37) EXPECT_EQ(packed.get(i), v[i]);
  EXPECT_EQ(packed[999], v[999]);
}

TEST(PackedArray, GetRangeDecodesRow) {
  const auto v = random_values(500, 11, 9);
  const auto packed = FixedWidthArray::pack_with_width(v, 11, 4);
  std::vector<std::uint64_t> out(100);
  packed.get_range(123, 100, out);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], v[123 + i]);
}

TEST(PackedArray, Width64Values) {
  const auto v = random_values(257, 64, 5);
  const auto packed = FixedWidthArray::pack_with_width(v, 64, 4);
  EXPECT_EQ(packed.unpack(), v);
}

TEST(PackedArray, Width1Values) {
  const auto v = random_values(1000, 1, 7);
  const auto packed = FixedWidthArray::pack_with_width(v, 1, 8);
  EXPECT_EQ(packed.unpack(), v);
  EXPECT_EQ(packed.size_bytes(), 128u);  // 1000 bits -> 16 words
}

TEST(PackedArray, CompressionRatioIsWidthOver64) {
  // 1e4 values < 2^10 packed at 10 bits: ~6.4x smaller than raw u64.
  const auto v = random_values(10'000, 10, 11);
  const auto packed = FixedWidthArray::pack(v, 4);
  EXPECT_LE(packed.size_bytes(), 10'000 * 10 / 8 + 8);
  EXPECT_LT(packed.size_bytes() * 6, v.size() * sizeof(std::uint64_t));
}

TEST(PackedArray, ParallelEqualsSerial) {
  const auto v = random_values(10'000, 23, 13);
  const auto serial = FixedWidthArray::pack_with_width(v, 23, 1);
  const auto parallel = FixedWidthArray::pack_with_width(v, 23, 8);
  EXPECT_TRUE(serial == parallel);
}

// Algorithm 4 merge stress: widths that misalign chunk boundaries against
// 64-bit words in every possible way, swept across sizes and thread counts.
class PackedArrayMergeProperty
    : public testing::TestWithParam<std::tuple<unsigned, std::size_t, int>> {};

TEST_P(PackedArrayMergeProperty, ParallelPackRoundTrips) {
  const auto [width, n, threads] = GetParam();
  const auto v = random_values(n, width, width * 1000003 + n * 31 + threads);
  const auto packed = FixedWidthArray::pack_with_width(v, width, threads);
  ASSERT_EQ(packed.size(), n);
  EXPECT_EQ(packed.unpack(), v);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedArrayMergeProperty,
    testing::Combine(testing::Values(1u, 2u, 3u, 7u, 8u, 13u, 16u, 31u, 32u,
                                     33u, 63u, 64u),
                     testing::Values<std::size_t>(1, 2, 63, 64, 65, 1000),
                     testing::Values(2, 3, 4, 8, 64)));

// --- differential packing grid ---------------------------------------------
//
// Algorithm 4 splits the array at multiples of 64 elements so every
// processor writes whole words of its own window. The storage words (not
// just the decoded values) must equal a serial append_bits reference for
// every width, for sizes around the block and chunk boundaries, and for
// every processor count.

BitVector serial_reference(const std::vector<std::uint64_t>& v,
                           unsigned width) {
  BitVector bv;
  for (std::uint64_t x : v) bv.append_bits(x, width);
  return bv;
}

class PackingGrid : public testing::TestWithParam<int> {};

TEST_P(PackingGrid, StorageWordsEqualSerialAppendBits) {
  const int p = GetParam();
  const auto up = static_cast<std::size_t>(p);
  pcq::util::SplitMix64 rng(static_cast<std::uint64_t>(p) * 7919);
  for (unsigned width = 1; width <= 64; ++width) {
    for (std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, 64 * up - 1, 64 * up + 1,
          static_cast<std::size_t>(rng.next_below(64 * up * 3 + 200))}) {
      const auto v = random_values(n, width, width * 131 + n);
      const BitVector ref = serial_reference(v, width);
      const auto packed = FixedWidthArray::pack_with_width(v, width, p);
      ASSERT_EQ(packed.size(), n);
      ASSERT_EQ(packed.width(), width);
      const auto got = packed.bits().words();
      const auto want = ref.words();
      ASSERT_EQ(packed.bits().size(), ref.size())
          << "width=" << width << " n=" << n << " p=" << p;
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "width=" << width << " n=" << n << " p=" << p;
    }
  }
}

TEST_P(PackingGrid, ProjectionFormEqualsWidenedInput) {
  // Packing 32-bit values through the projection form must give the same
  // storage as widening them to u64 first.
  const int p = GetParam();
  for (unsigned width : {1u, 7u, 21u, 32u}) {
    const auto wide = random_values(64 * static_cast<std::size_t>(p) + 37,
                                    width, width);
    const std::vector<std::uint32_t> narrow(wide.begin(), wide.end());
    const auto projected = FixedWidthArray::pack_with_width(
        narrow.size(), width, p,
        [&](std::size_t i) { return narrow[i]; });
    EXPECT_EQ(projected, FixedWidthArray::pack_with_width(wide, width, 1))
        << "width=" << width << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Processors, PackingGrid,
                         testing::Values(1, 2, 3, 4, 7, 16, 64));

// --- word-streaming unpack kernel ------------------------------------------
//
// Hostile inputs for the bulk decoder: widths that never straddle (1),
// always fill a word (64), straddle every single boundary (63, 33), plus
// the byte-aligned fast paths (8/16/32) and empty ranges.

class UnpackKernelWidthSweep : public testing::TestWithParam<unsigned> {};

TEST_P(UnpackKernelWidthSweep, GetRangeMatchesPerElementGet) {
  const unsigned width = GetParam();
  const std::size_t n = 700;  // > 10 words at every width
  const auto v = random_values(n, width, width * 7919 + 1);
  const auto packed = FixedWidthArray::pack_with_width(v, width, 4);
  // Every (begin, count) alignment against the 64-bit words: sweeping the
  // start offset exercises a straddle at each possible bit position.
  std::vector<std::uint64_t> out(n);
  for (std::size_t begin = 0; begin < 130 && begin < n; ++begin) {
    const std::size_t count = std::min<std::size_t>(n - begin, 131);
    packed.get_range(begin, count, out);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(out[i], packed.get(begin + i))
          << "width=" << width << " begin=" << begin << " i=" << i;
  }
}

TEST_P(UnpackKernelWidthSweep, CursorStreamsWholeArray) {
  const unsigned width = GetParam();
  const auto v = random_values(513, width, width * 104729 + 3);
  const auto packed = FixedWidthArray::pack_with_width(v, width, 2);
  RowCursor cursor = packed.cursor(0, packed.size());
  std::size_t i = 0;
  while (!cursor.done()) {
    ASSERT_EQ(cursor.remaining(), v.size() - i);
    ASSERT_EQ(cursor.next(), v[i]) << "width=" << width << " i=" << i;
    ++i;
  }
  EXPECT_EQ(i, v.size());
}

TEST_P(UnpackKernelWidthSweep, CursorMidArrayStart) {
  const unsigned width = GetParam();
  const auto v = random_values(300, width, width * 31 + 17);
  const auto packed = FixedWidthArray::pack_with_width(v, width, 2);
  // Start the cursor at every offset in a word-straddling window.
  for (std::size_t begin : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                            std::size_t{65}, std::size_t{127}}) {
    RowCursor cursor = packed.cursor(begin, v.size() - begin);
    for (std::size_t i = begin; i < v.size(); ++i)
      ASSERT_EQ(cursor.next(), v[i]) << "width=" << width << " begin=" << begin;
    EXPECT_TRUE(cursor.done());
  }
}

INSTANTIATE_TEST_SUITE_P(HostileWidths, UnpackKernelWidthSweep,
                         testing::Values(1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u,
                                         31u, 32u, 33u, 63u, 64u));

TEST(UnpackKernel, EmptyRangeDecodesNothing) {
  const auto v = random_values(64, 13, 5);
  const auto packed = FixedWidthArray::pack_with_width(v, 13, 2);
  std::vector<std::uint64_t> out;
  packed.get_range(0, 0, out);     // empty prefix
  packed.get_range(64, 0, out);    // empty range at the very end
  packed.get_range(30, 0, out);    // empty mid-array range
  RowCursor cursor = packed.cursor(64, 0);
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(cursor.remaining(), 0u);
}

TEST(UnpackKernel, RangeEndingExactlyOnWordBoundary) {
  // 64 values of width 16 = 1024 bits = exactly 16 words: the final
  // element must not trigger a read past the last storage word.
  const auto v = random_values(64, 16, 23);
  const auto packed = FixedWidthArray::pack_with_width(v, 16, 1);
  EXPECT_EQ(packed.unpack(), v);
  std::vector<std::uint64_t> out(1);
  packed.get_range(63, 1, out);
  EXPECT_EQ(out[0], v[63]);
}

TEST(UnpackKernel, NarrowOutputTypeDecodesColumns) {
  const auto v = random_values(500, 17, 29);
  const auto packed = FixedWidthArray::pack_with_width(v, 17, 4);
  std::vector<std::uint32_t> out(500);
  packed.get_range_into(0, 500, out.data());
  for (std::size_t i = 0; i < 500; ++i)
    ASSERT_EQ(out[i], static_cast<std::uint32_t>(v[i]));
}

TEST(UnpackKernel, DifferentialRandomizedWidths) {
  // Randomised widths/sizes/slices: bulk decode vs per-element oracle.
  pcq::util::SplitMix64 rng(20260806);
  for (int round = 0; round < 50; ++round) {
    const auto width = static_cast<unsigned>(1 + rng.next_below(64));
    const std::size_t n = 1 + rng.next_below(2000);
    const auto v = random_values(n, width, rng.next());
    const auto packed = FixedWidthArray::pack_with_width(v, width, 4);
    const std::size_t begin = rng.next_below(n);
    const std::size_t count = 1 + rng.next_below(n - begin);
    std::vector<std::uint64_t> out(count);
    packed.get_range(begin, count, out);
    RowCursor cursor = packed.cursor(begin, count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], packed.get(begin + i))
          << "round=" << round << " width=" << width;
      ASSERT_EQ(cursor.next(), out[i]) << "round=" << round;
    }
  }
}

TEST(UnpackKernel, CursorRangeForYieldsAllValues) {
  const auto v = random_values(97, 11, 37);
  const auto packed = FixedWidthArray::pack_with_width(v, 11, 2);
  RowCursor cursor = packed.cursor(0, v.size());
  std::size_t i = 0;
  for (std::uint64_t x : cursor) ASSERT_EQ(x, v[i++]);
  EXPECT_EQ(i, v.size());
}

TEST(UnpackKernel, ParallelUnpackMatchesSerial) {
  const auto v = random_values(50'000, 21, 41);
  const auto packed = FixedWidthArray::pack_with_width(v, 21, 4);
  EXPECT_EQ(packed.unpack(1), v);
  for (int p : {2, 3, 8, 64}) EXPECT_EQ(packed.unpack(p), v) << "p=" << p;
}

// --- Hostile-width / hostile-argument regressions (SIMD tier audit) ------

TEST(UnpackKernel, Width32AllOnesThroughEveryPath) {
  // width == 32 is the shift-by-32 trap: `value >> (32 - width)` and
  // `mask = (1u << width) - 1` are both UB at 32 unless phrased in 64-bit
  // arithmetic. All-ones payloads make a wrapped mask decode to 0 loudly.
  std::vector<std::uint64_t> v(300, 0xFFFF'FFFFull);
  v[0] = 0;  // non-saturated sentinels on both ends of the run
  v[299] = 1;
  const auto packed = FixedWidthArray::pack_with_width(v, 32, 2);
  EXPECT_EQ(packed.unpack(), v);
  std::vector<std::uint32_t> out32(257);
  packed.get_range_into(1, 257, out32.data());  // odd begin: misaligned phase
  for (std::size_t i = 0; i < 257; ++i)
    ASSERT_EQ(out32[i], static_cast<std::uint32_t>(v[1 + i])) << "i=" << i;
  RowCursor cursor = packed.cursor(0, 300);
  for (std::size_t i = 0; i < 300; ++i) ASSERT_EQ(cursor.next(), v[i]);
}

TEST(UnpackKernel, CountZeroAtEveryBoundary) {
  // count == 0 must early-exit without touching `out` (nullptr is legal)
  // or reading storage — including begin == size(), the one-past-the-end
  // position a half-open caller naturally produces.
  const auto v = random_values(64, 13, 51);
  const auto packed = FixedWidthArray::pack_with_width(v, 13, 1);
  for (std::size_t begin : {std::size_t{0}, std::size_t{37}, v.size()}) {
    packed.get_range_into(begin, 0, static_cast<std::uint32_t*>(nullptr));
    RowCursor cursor = packed.cursor(begin, 0);
    EXPECT_TRUE(cursor.done()) << "begin=" << begin;
  }
}

TEST(UnpackKernel, OverflowingRangeArgumentsDie) {
  // begin + count wrapping past SIZE_MAX must hit the range gate, not
  // sneak through as a tiny sum and over-read storage.
  const auto v = random_values(16, 8, 77);
  const auto packed = FixedWidthArray::pack_with_width(v, 8, 1);
  const std::size_t kHuge = std::numeric_limits<std::size_t>::max();
  std::uint32_t sink[1];
  EXPECT_DEATH(packed.get_range_into(1, kHuge, sink), "PCQ_CHECK");
  EXPECT_DEATH((void)packed.cursor(8, kHuge - 4), "PCQ_CHECK");
  EXPECT_DEATH((void)packed.cursor(kHuge, 2), "PCQ_CHECK");
}

}  // namespace
}  // namespace pcq::bits
