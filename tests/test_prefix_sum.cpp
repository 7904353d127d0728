#include "par/prefix_sum.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace pcq::par {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed) {
  pcq::util::SplitMix64 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_below(1000);
  return v;
}

std::vector<std::uint64_t> reference_scan(std::vector<std::uint64_t> v) {
  std::partial_sum(v.begin(), v.end(), v.begin());
  return v;
}

TEST(SequentialScan, MatchesPartialSum) {
  auto v = random_values(257, 1);
  const auto expected = reference_scan(v);
  sequential_inclusive_scan(std::span<std::uint64_t>(v));
  EXPECT_EQ(v, expected);
}

TEST(ChunkedScan, EmptyAndSingleton) {
  std::vector<std::uint64_t> empty;
  chunked_inclusive_scan(std::span<std::uint64_t>(empty), 4);
  EXPECT_TRUE(empty.empty());

  std::vector<std::uint64_t> one{42};
  chunked_inclusive_scan(std::span<std::uint64_t>(one), 4);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{42}));
}

TEST(ChunkedScan, PaperFigure2Shape) {
  // Figure 2's walkthrough: chunked scan equals the sequential scan on a
  // small array with 4 chunks.
  std::vector<std::uint64_t> v{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8};
  const auto expected = reference_scan(v);
  chunked_inclusive_scan(std::span<std::uint64_t>(v), 4);
  EXPECT_EQ(v, expected);
}

TEST(ChunkedScan, MoreThreadsThanElements) {
  std::vector<std::uint64_t> v{1, 2, 3};
  const auto expected = reference_scan(v);
  chunked_inclusive_scan(std::span<std::uint64_t>(v), 64);
  EXPECT_EQ(v, expected);
}

TEST(ChunkedScan, GenericMonoidMax) {
  std::vector<std::uint64_t> v{3, 1, 7, 2, 9, 4, 9, 1};
  auto expected = v;
  for (std::size_t i = 1; i < expected.size(); ++i)
    expected[i] = std::max(expected[i - 1], expected[i]);
  chunked_inclusive_scan(std::span<std::uint64_t>(v), 3,
                         [](std::uint64_t a, std::uint64_t b) {
                           return std::max(a, b);
                         });
  EXPECT_EQ(v, expected);
}

TEST(ChunkedScan, GenericMonoidXor) {
  auto v = random_values(1000, 5);
  auto expected = v;
  for (std::size_t i = 1; i < expected.size(); ++i) expected[i] ^= expected[i - 1];
  chunked_inclusive_scan(std::span<std::uint64_t>(v), 8,
                         std::bit_xor<std::uint64_t>{});
  EXPECT_EQ(v, expected);
}

TEST(OffsetsFromDegrees, BasicShape) {
  // Paper Figure 1: degrees of the 10-node example's upper triangle.
  std::vector<std::uint32_t> degrees{1, 2, 1, 2, 1, 0, 0, 0, 0, 0};
  const auto offsets = offsets_from_degrees(degrees, 4);
  ASSERT_EQ(offsets.size(), 11u);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), 7u);  // total degree
  for (std::size_t i = 0; i < degrees.size(); ++i)
    EXPECT_EQ(offsets[i + 1] - offsets[i], degrees[i]);
}

TEST(OffsetsFromDegrees, EmptyDegrees) {
  const auto offsets = offsets_from_degrees({}, 4);
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0}));
}

TEST(OffsetsFromDegrees, NoOverflowAt32BitBoundary) {
  // Two nodes of degree 2^31 each: the sum needs 33 bits.
  std::vector<std::uint32_t> degrees{0x80000000u, 0x80000000u};
  const auto offsets = offsets_from_degrees(degrees, 2);
  EXPECT_EQ(offsets.back(), 0x100000000ull);
}

// Property sweep: chunked == sequential for every (size, threads) combo.
class ChunkedScanProperty
    : public testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ChunkedScanProperty, MatchesReference) {
  const auto [n, threads] = GetParam();
  auto v = random_values(n, 1234 + n + threads);
  const auto expected = reference_scan(v);
  chunked_inclusive_scan(std::span<std::uint64_t>(v), threads);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChunkedScanProperty,
    testing::Combine(testing::Values<std::size_t>(0, 1, 2, 3, 15, 16, 17, 100,
                                                  1023, 4096, 100003),
                     testing::Values(1, 2, 3, 4, 8, 16, 64)));

}  // namespace
}  // namespace pcq::par
