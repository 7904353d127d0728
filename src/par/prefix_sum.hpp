// Parallel prefix sums (scans).
//
// The paper's Algorithm 1 computes an in-place inclusive prefix sum with p
// processors in three phases:
//
//   1. each processor scans its own contiguous chunk independently;
//   2. sync(); under a lock, the running total is carried across chunk
//      *last* elements in chunk order (vec[end-1] += vec[start-1]);
//   3. sync(); each processor (except the first) adds the previous chunk's
//      final total to every element of its chunk except the last, which
//      phase 2 already finalized.
//
// `chunked_inclusive_scan` implements exactly this schedule. The sync()
// points are realised as fork-join boundaries and the locked carry loop
// as a single-threaded pass — operationally identical to the paper's
// lock-step description and immune to its chunk-ordering hazard (a chunk
// whose lock acquisition beat its left neighbour's would otherwise read a
// stale carry).
//
// The scan is generic over the combining operation: ordinary + for degree
// arrays, and symmetric difference (XOR of edge sets) for the time-evolving
// differential CSR of Section IV, which reuses this exact schedule. It is
// the library's one parallel scan; the sequential scan below is the S4
// ablation bench's baseline and the serial fallback for a single chunk.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "obs/trace.hpp"
#include "par/chunking.hpp"
#include "par/parallel_for.hpp"
#include "par/threads.hpp"

namespace pcq::par {

/// In-place inclusive scan of `v` with `op`, sequentially. Baseline.
template <typename T, typename Op = std::plus<T>>
void sequential_inclusive_scan(std::span<T> v, Op op = {}) {
  for (std::size_t i = 1; i < v.size(); ++i) v[i] = op(v[i - 1], v[i]);
}

/// In-place inclusive scan of `v` with `op` using `num_threads` chunks —
/// the paper's Algorithm 1. `op` must be associative.
template <typename T, typename Op = std::plus<T>>
void chunked_inclusive_scan(std::span<T> v, int num_threads, Op op = {}) {
  const std::size_t n = v.size();
  const auto p = static_cast<std::size_t>(clamp_threads(num_threads));
  const std::size_t chunks = num_nonempty_chunks(n, p);
  if (n < 2) return;
  if (chunks <= 1) {
    sequential_inclusive_scan(v, op);
    return;
  }

  // Phase 1 (lines 2-3): independent local scans. The join at the end of
  // parallel_for_chunks is the paper's first sync().
  {
    PCQ_TRACE_SCOPE("scan.local", chunks);
    parallel_for_chunks(n, static_cast<int>(chunks),
                        [&](std::size_t, ChunkRange r) {
                          for (std::size_t i = r.begin + 1; i < r.end; ++i)
                            v[i] = op(v[i - 1], v[i]);
                        });
  }

  // Phase 2 (lines 6-9): carry the running total across chunk last
  // elements, in chunk order. The paper serialises this with a lock; a
  // single ordered pass is the same schedule.
  {
    PCQ_TRACE_SCOPE("scan.carry", chunks);
    for (std::size_t c = 1; c < chunks; ++c) {
      const ChunkRange r = chunk_range(n, chunks, c);
      v[r.end - 1] = op(v[r.begin - 1], v[r.end - 1]);
    }
  }

  // Phase 3 (lines 11-13): after the second sync(), every chunk except the
  // first adds its left neighbour's total to its interior elements. The
  // last element was finalized by phase 2 and is skipped.
  {
    PCQ_TRACE_SCOPE("scan.distribute", chunks);
    parallel_for_chunks(n, static_cast<int>(chunks),
                        [&](std::size_t c, ChunkRange r) {
                          if (c == 0) return;
                          const T carry = v[r.begin - 1];
                          for (std::size_t i = r.begin; i + 1 < r.end; ++i)
                            v[i] = op(carry, v[i]);
                        });
  }
}

/// Converts a per-node degree array into a CSR offset array of size
/// degrees.size() + 1, where offsets[i] is the index of node i's first
/// neighbour and offsets[n] == total degree. Uses the paper's chunked scan.
std::vector<std::uint64_t> offsets_from_degrees(
    std::span<const std::uint32_t> degrees, int num_threads);

}  // namespace pcq::par
