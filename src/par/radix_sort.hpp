// Parallel LSD radix sort for unsigned 64-bit keys.
//
// The CSR pipeline's unsorted path is dominated by sorting the edge list;
// comparison sorting costs O(n log n) while an 8-bit-digit radix sort does
// at most 8 passes of counting + scatter, each parallelised with the same
// chunk/prefix-sum machinery as the rest of the library (per-chunk
// histograms, exclusive offsets via scan, chunk-private scatter windows).
// Only live digits move data: digits above the maximum key are skipped, and
// a digit that is the same in every key (byte 3 of an edge key
// (u << 32) | v while ids stay below 2^24) is counted but not scattered.
// Keys are extracted by a caller-provided projection so graph::Edge sorts
// by the packed (u, v) pair without materialising keys twice.
//
// Stability: each pass is stable (chunk-ordered scatter), so the full sort
// is stable — required for sorting edges by source while preserving a
// previous by-destination pass if callers compose passes manually.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/reduce.hpp"
#include "par/threads.hpp"

namespace pcq::par {

/// Sorts `v` by `key(v[i])` ascending, where Key returns std::uint64_t.
/// Uses 8-bit digits, so 32-bit keys cost at most 4 passes, not 8.
template <typename T, typename KeyFn>
void parallel_radix_sort(std::span<T> v, int num_threads, KeyFn&& key) {
  // The ping-pong buffer is raw storage that the first scatter writes
  // element by element, so T must be copyable and destructible as bytes.
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  const std::size_t n = v.size();
  if (n < 2) return;
  const auto p = static_cast<std::size_t>(clamp_threads(num_threads));
  const std::size_t chunks = num_nonempty_chunks(n, p);
  constexpr unsigned kDigitBits = 8;
  constexpr std::size_t kBuckets = 1u << kDigitBits;

  const std::uint64_t max_key = parallel_map_reduce(
      n, std::uint64_t{0}, static_cast<int>(chunks),
      [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); },
      [&](std::size_t i) -> std::uint64_t { return key(v[i]); });

  // Uninitialised, so each page is first touched by the parallel scatter
  // that fills it, not zeroed by this thread.
  std::allocator<T> alloc;
  auto release = [&alloc, n](T* ptr) { alloc.deallocate(ptr, n); };
  const std::unique_ptr<T, decltype(release)> buffer(alloc.allocate(n),
                                                     release);
  std::span<T> src = v;
  std::span<T> dst(buffer.get(), n);

  // counts[c][b]: occurrences of digit b in chunk c.
  std::vector<std::vector<std::uint64_t>> counts(
      chunks, std::vector<std::uint64_t>(kBuckets));

  for (unsigned shift = 0; shift < 64; shift += kDigitBits) {
    if (shift > 0 && (max_key >> shift) == 0) break;

    // Pass 1: per-chunk digit histograms (no sharing, no atomics).
    parallel_for_chunks(n, static_cast<int>(chunks),
                        [&](std::size_t c, ChunkRange r) {
                          auto& h = counts[c];
                          std::fill(h.begin(), h.end(), 0);
                          for (std::size_t i = r.begin; i < r.end; ++i)
                            ++h[(key(src[i]) >> shift) & (kBuckets - 1)];
                        });

    // Pass 2: exclusive offsets in (bucket-major, chunk-minor) order — the
    // scatter window of chunk c for digit b. Sequential O(chunks * 256),
    // negligible next to the O(n) passes. A bucket holding all n keys
    // means this digit is constant: the scatter would copy src unchanged.
    std::uint64_t running = 0;
    bool constant_digit = false;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t bucket_begin = running;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::uint64_t count = counts[c][b];
        counts[c][b] = running;
        running += count;
      }
      if (running - bucket_begin == n) constant_digit = true;
    }
    if (constant_digit) continue;

    // Pass 3: stable scatter; each chunk owns disjoint windows.
    parallel_for_chunks(n, static_cast<int>(chunks),
                        [&](std::size_t c, ChunkRange r) {
                          auto& offsets = counts[c];
                          for (std::size_t i = r.begin; i < r.end; ++i) {
                            const std::size_t b =
                                (key(src[i]) >> shift) & (kBuckets - 1);
                            dst[offsets[b]++] = src[i];
                          }
                        });

    std::swap(src, dst);
  }

  // An odd number of passes leaves the result in the buffer.
  if (src.data() != v.data()) {
    parallel_for(n, static_cast<int>(p),
                 [&](std::size_t i) { v[i] = src[i]; });
  }
}

/// Convenience overload for plain integer arrays.
inline void parallel_radix_sort_u64(std::span<std::uint64_t> v,
                                    int num_threads) {
  parallel_radix_sort(v, num_threads,
                      [](std::uint64_t x) { return x; });
}

}  // namespace pcq::par
