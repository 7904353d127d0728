// Non-commutative and exotic-monoid scans.
//
// The chunked prefix sum (Algorithm 1) requires only *associativity* — the TCSR snapshot reconstruction relies on that (its
// symmetric-difference monoid happens to be commutative, but nothing in
// the schedule may assume it). Every other scan test in the suite uses
// commutative operations, so an accidentally transposed combine
// (op(b, a) instead of op(a, b)) would slip through. These tests close
// that hole with string concatenation (free monoid, maximally
// non-commutative) and 2x2 matrix products.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "par/prefix_sum.hpp"
#include "util/rng.hpp"

namespace pcq::par {
namespace {

TEST(ScanMonoids, StringConcatenationChunked) {
  // Inclusive scan of single-char strings must spell out the prefixes of
  // the original sequence in order.
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz";
  for (int threads : {1, 2, 3, 4, 8, 16}) {
    std::vector<std::string> v;
    for (char c : alphabet) v.emplace_back(1, c);
    chunked_inclusive_scan(std::span<std::string>(v), threads,
                           [](const std::string& a, const std::string& b) {
                             return a + b;
                           });
    for (std::size_t i = 0; i < v.size(); ++i)
      ASSERT_EQ(v[i], alphabet.substr(0, i + 1)) << "threads=" << threads;
  }
}

/// 2x2 integer matrix; default-constructed is the identity.
struct Mat2 {
  std::array<std::int64_t, 4> m{1, 0, 0, 1};
  friend Mat2 operator*(const Mat2& a, const Mat2& b) {
    return Mat2{{a.m[0] * b.m[0] + a.m[1] * b.m[2],
                 a.m[0] * b.m[1] + a.m[1] * b.m[3],
                 a.m[2] * b.m[0] + a.m[3] * b.m[2],
                 a.m[2] * b.m[1] + a.m[3] * b.m[3]}};
  }
  friend bool operator==(const Mat2&, const Mat2&) = default;
};

TEST(ScanMonoids, MatrixProductsChunkedMatchesSequential) {
  pcq::util::SplitMix64 rng(7);
  std::vector<Mat2> input(257);
  for (auto& x : input)
    x = Mat2{{static_cast<std::int64_t>(rng.next_below(3)),
              static_cast<std::int64_t>(rng.next_below(3)),
              static_cast<std::int64_t>(rng.next_below(3)),
              static_cast<std::int64_t>(rng.next_below(3))}};

  std::vector<Mat2> expected = input;
  for (std::size_t i = 1; i < expected.size(); ++i)
    expected[i] = expected[i - 1] * expected[i];

  // Fibonacci via Q-matrix powers: the scan of n copies of Q yields
  // Q^(i+1), whose top-left entry is F(i+2) — a closed-form answer that
  // does not lean on the sequential reference.
  const Mat2 q{{1, 1, 1, 0}};
  const std::vector<Mat2> powers_of_q(12, q);
  const std::int64_t fib[] = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233};

  auto mul = [](const Mat2& a, const Mat2& b) { return a * b; };
  for (int threads : {2, 4, 8, 64}) {
    std::vector<Mat2> v = input;
    chunked_inclusive_scan(std::span<Mat2>(v), threads, mul);
    ASSERT_EQ(v, expected) << "threads=" << threads;

    std::vector<Mat2> f = powers_of_q;
    chunked_inclusive_scan(std::span<Mat2>(f), threads, mul);
    for (std::size_t i = 0; i < f.size(); ++i)
      ASSERT_EQ(f[i].m[0], fib[i + 1]) << "threads=" << threads << " i=" << i;
  }
}

TEST(ScanMonoids, SingleElementAndEmpty) {
  std::vector<std::string> one{"x"};
  chunked_inclusive_scan(std::span<std::string>(one), 8,
                         [](const std::string& a, const std::string& b) {
                           return a + b;
                         });
  EXPECT_EQ(one[0], "x");
  std::vector<std::string> none;
  chunked_inclusive_scan(std::span<std::string>(none), 8,
                         [](const std::string& a, const std::string& b) {
                           return a + b;
                         });
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace pcq::par
