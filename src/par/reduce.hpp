// Parallel reductions and histograms.
//
// The histogram strategies here are the *alternatives* to the paper's
// run-counting degree computation (src/csr/degree.hpp) and exist so the S5
// ablation bench can compare them; they are also used where inputs are not
// sorted and run-counting does not apply.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/threads.hpp"

namespace pcq::par {

/// Parallel fold of value_of(i) for i in [0, n) with associative `op`;
/// `init` must be the identity. The projection lets callers reduce a field
/// of their records (an edge endpoint, a sort key) without a copy.
template <typename T, typename Op, typename ValueFn>
T parallel_map_reduce(std::size_t n, T init, int num_threads, Op op,
                      ValueFn&& value_of) {
  const auto p = static_cast<std::size_t>(clamp_threads(num_threads));
  const std::size_t chunks = num_nonempty_chunks(n, p);
  if (chunks == 0) return init;
  std::vector<T> partial(chunks, init);
  parallel_for_chunks(n, static_cast<int>(chunks),
                      [&](std::size_t c, ChunkRange r) {
                        T acc = init;
                        for (std::size_t i = r.begin; i < r.end; ++i)
                          acc = op(acc, value_of(i));
                        partial[c] = acc;
                      });
  T acc = init;
  for (const T& x : partial) acc = op(acc, x);
  return acc;
}

/// Parallel fold of `v` with associative `op`; `init` must be the identity.
template <typename T, typename Op = std::plus<T>>
T parallel_reduce(std::span<const T> v, T init, int num_threads, Op op = {}) {
  return parallel_map_reduce(v.size(), init, num_threads, op,
                             [v](std::size_t i) { return v[i]; });
}

/// Histogram via std::atomic fetch-add on each bucket. Simple, but all
/// threads contend on hot buckets (exactly the high-degree nodes a social
/// network has many of).
std::vector<std::uint32_t> inline histogram_atomic(
    std::span<const std::uint32_t> keys, std::size_t buckets, int num_threads) {
  std::vector<std::atomic<std::uint32_t>> counts(buckets);
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);
  parallel_for(keys.size(), num_threads, [&](std::size_t i) {
    counts[keys[i]].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<std::uint32_t> out(buckets);
  for (std::size_t b = 0; b < buckets; ++b)
    out[b] = counts[b].load(std::memory_order_relaxed);
  return out;
}

/// Histogram via one private histogram per thread, merged with a
/// bucket-parallel reduction. No contention, but O(p * buckets) extra
/// memory — prohibitive at social-network scale, cheap at small p.
std::vector<std::uint32_t> inline histogram_per_thread(
    std::span<const std::uint32_t> keys, std::size_t buckets, int num_threads) {
  const auto p = static_cast<std::size_t>(clamp_threads(num_threads));
  const std::size_t chunks = num_nonempty_chunks(keys.size(), p);
  std::vector<std::vector<std::uint32_t>> local(
      chunks == 0 ? 1 : chunks, std::vector<std::uint32_t>(buckets, 0));
  parallel_for_chunks(keys.size(), static_cast<int>(p),
                      [&](std::size_t c, ChunkRange r) {
                        auto& h = local[c];
                        for (std::size_t i = r.begin; i < r.end; ++i) ++h[keys[i]];
                      });
  std::vector<std::uint32_t> out(buckets, 0);
  parallel_for(buckets, static_cast<int>(p), [&](std::size_t b) {
    std::uint32_t acc = 0;
    for (const auto& h : local) acc += h[b];
    out[b] = acc;
  });
  return out;
}

}  // namespace pcq::par
