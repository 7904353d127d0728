#include "par/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "graph/types.hpp"
#include "util/rng.hpp"

namespace pcq::par {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed,
                                         std::uint64_t bound) {
  pcq::util::SplitMix64 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = bound == 0 ? rng.next() : rng.next_below(bound);
  return v;
}

TEST(RadixSort, EmptyAndSingle) {
  std::vector<std::uint64_t> empty;
  parallel_radix_sort_u64(empty, 4);
  EXPECT_TRUE(empty.empty());

  std::vector<std::uint64_t> one{7};
  parallel_radix_sort_u64(one, 4);
  EXPECT_EQ(one, (std::vector<std::uint64_t>{7}));
}

TEST(RadixSort, Full64BitKeys) {
  auto v = random_values(50'000, 1, 0);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_radix_sort_u64(v, 4);
  EXPECT_EQ(v, expected);
}

TEST(RadixSort, SmallKeysSkipDeadPasses) {
  // 8-bit keys: only one digit pass should be needed; correctness is what
  // we assert, the skip is a perf property exercised implicitly.
  auto v = random_values(10'000, 2, 256);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_radix_sort_u64(v, 8);
  EXPECT_EQ(v, expected);
}

TEST(RadixSort, AllEqualKeys) {
  std::vector<std::uint64_t> v(5000, 42);
  parallel_radix_sort_u64(v, 4);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](std::uint64_t x) { return x == 42; }));
}

TEST(RadixSort, AlreadySortedAndReverse) {
  std::vector<std::uint64_t> v(10'000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  auto expected = v;
  parallel_radix_sort_u64(v, 4);
  EXPECT_EQ(v, expected);
  std::reverse(v.begin(), v.end());
  parallel_radix_sort_u64(v, 4);
  EXPECT_EQ(v, expected);
}

TEST(RadixSort, StableForEqualKeys) {
  // Sort pairs by .first only; equal keys must keep insertion order.
  struct Item {
    std::uint32_t key;
    std::uint32_t seq;
  };
  pcq::util::SplitMix64 rng(5);
  std::vector<Item> items(20'000);
  for (std::uint32_t i = 0; i < items.size(); ++i)
    items[i] = {static_cast<std::uint32_t>(rng.next_below(16)), i};
  parallel_radix_sort(std::span<Item>(items), 4,
                      [](const Item& it) { return std::uint64_t{it.key}; });
  for (std::size_t i = 1; i < items.size(); ++i) {
    ASSERT_LE(items[i - 1].key, items[i].key);
    if (items[i - 1].key == items[i].key) {
      ASSERT_LT(items[i - 1].seq, items[i].seq);
    }
  }
}

TEST(RadixSort, EdgeKeyMatchesComparisonSort) {
  using graph::Edge;
  pcq::util::SplitMix64 rng(7);
  std::vector<Edge> edges(30'000);
  for (auto& e : edges)
    e = {static_cast<graph::VertexId>(rng.next()),
         static_cast<graph::VertexId>(rng.next())};
  auto expected = edges;
  std::sort(expected.begin(), expected.end());
  parallel_radix_sort(std::span<Edge>(edges), 8, [](const Edge& e) {
    return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
  });
  EXPECT_EQ(edges, expected);
}

// --- constant digits --------------------------------------------------------
//
// A digit that is the same in every key has one bucket holding all n keys;
// its scatter is skipped, so the number of live passes (and whether the
// result ends up in the ping-pong buffer) depends on the key set. Records
// carry their input position so stability is checked against
// std::stable_sort, not just the key order.

struct Record {
  std::uint64_t key;
  std::uint32_t seq;
  friend bool operator==(const Record&, const Record&) = default;
};

/// Random keys whose byte d is drawn from [0, 4) when bit d of `live_mask`
/// is set and fixed at `constant` otherwise (few values per live byte, so
/// equal keys are common and stability shows).
std::vector<Record> keys_with_digits(std::size_t n, unsigned live_mask,
                                     std::uint64_t constant,
                                     std::uint64_t seed) {
  pcq::util::SplitMix64 rng(seed);
  std::vector<Record> v(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t key = 0;
    for (unsigned d = 0; d < 8; ++d) {
      const std::uint64_t byte =
          (live_mask >> d) & 1 ? rng.next_below(4) : constant;
      key |= byte << (8 * d);
    }
    v[i] = {key, i};
  }
  return v;
}

void expect_matches_stable_sort(std::vector<Record> v, int threads) {
  auto expected = v;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Record& a, const Record& b) { return a.key < b.key; });
  parallel_radix_sort(std::span<Record>(v), threads,
                      [](const Record& r) { return r.key; });
  EXPECT_EQ(v, expected) << "threads=" << threads;
}

TEST(RadixSortConstantDigits, ConstantMiddleDigit) {
  // The edge-key shape: ids below 2^24 leave byte 3 of (u << 32) | v zero.
  // Here byte 3 is a non-zero constant, so the max-key cut-off cannot hide
  // it; bytes 0-2 and 4-6 are live: 6 live passes.
  for (int threads : {1, 3, 4, 16})
    expect_matches_stable_sort(keys_with_digits(20'000, 0x77, 0x5A, 1),
                               threads);
}

TEST(RadixSortConstantDigits, OddNumberOfLivePasses) {
  // Bytes 0, 2 and 4 live, bytes 1 and 3 constant: 3 live passes leave
  // the result in the buffer and take the copy-back path.
  for (int threads : {1, 2, 4, 7})
    expect_matches_stable_sort(keys_with_digits(20'000, 0x15, 0xC3, 2),
                               threads);
}

TEST(RadixSortConstantDigits, EvenNumberOfLivePasses) {
  // Bytes 0 and 5 live, bytes 1-4 constant: 2 live passes.
  for (int threads : {1, 2, 4, 7})
    expect_matches_stable_sort(keys_with_digits(20'000, 0x21, 0x0F, 3),
                               threads);
}

TEST(RadixSortConstantDigits, EveryDigitConstant) {
  // No live pass at all: the input order is kept as it is.
  for (int threads : {1, 4})
    expect_matches_stable_sort(keys_with_digits(5'000, 0x00, 0x99, 4),
                               threads);
}

TEST(RadixSortConstantDigits, EdgeKeysBelow24Bits) {
  // The sort_radix key with ids below 2^24 and many duplicate edges.
  using graph::Edge;
  pcq::util::SplitMix64 rng(9);
  std::vector<Edge> edges(40'000);
  for (auto& e : edges)
    e = {static_cast<graph::VertexId>(rng.next_below(1u << 24)),
         static_cast<graph::VertexId>(rng.next_below(64))};
  auto expected = edges;
  std::stable_sort(expected.begin(), expected.end());
  for (int threads : {1, 4, 16}) {
    auto v = edges;
    parallel_radix_sort(std::span<Edge>(v), threads, [](const Edge& e) {
      return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
    });
    EXPECT_EQ(v, expected) << "threads=" << threads;
  }
}

class RadixSortProperty
    : public testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(RadixSortProperty, MatchesStdSort) {
  const auto [n, threads] = GetParam();
  auto v = random_values(n, 31 * n + threads, 0);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_radix_sort_u64(v, threads);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixSortProperty,
    testing::Combine(testing::Values<std::size_t>(0, 1, 2, 255, 256, 257, 4096,
                                                  65'537),
                     testing::Values(1, 2, 3, 4, 8, 16, 64)));

}  // namespace
}  // namespace pcq::par
