// parallel_for / parallel_for_chunks — the one fork-join runtime.
//
// Two idioms cover everything in the paper:
//   * parallel_for:        independent per-element loops (query batches),
//   * parallel_for_chunks: the chunk-per-processor pattern of Algorithms
//                          1-5, where the body needs to know its chunk id
//                          and bounds (for spill arrays indexed by pid).
//
// Both run on a persistent team of std::thread workers owned by the calling
// thread (parallel_for.cpp): chunk 0 runs on the caller, chunk c on team
// member c, and the call returns once every chunk is done (the paper's
// sync()). A call made from inside a chunk body runs its chunks inline, in
// chunk order, on that thread. An exception escaping a body terminates.
#pragma once

#include <cstddef>

#include "par/chunking.hpp"
#include "par/threads.hpp"

namespace pcq::par {

namespace detail {

using ChunkBody = void (*)(void* ctx, std::size_t chunk) noexcept;

/// Runs body(ctx, c) for every c in [0, chunks), chunks >= 2, on the calling
/// thread's team (inline and in order when called from inside a chunk).
void fork_join(std::size_t chunks, ChunkBody body, void* ctx);

}  // namespace detail

/// Runs fn(chunk_id, range) once per chunk, with chunk `c` handled by
/// processor `c`. This mirrors the paper's "do in parallel: for each
/// processor" blocks: chunk id == processor id, and boundaries come from
/// chunk_range so cooperating algorithms can reason about neighbours.
template <typename Fn>
void parallel_for_chunks(std::size_t n, int num_threads, Fn&& fn) {
  const std::size_t p = static_cast<std::size_t>(clamp_threads(num_threads));
  const std::size_t chunks = num_nonempty_chunks(n, p);
  if (chunks <= 1) {
    if (n > 0) fn(std::size_t{0}, ChunkRange{0, n});
    return;
  }
  struct Job {
    Fn& fn;
    std::size_t n, chunks;
  } job{fn, n, chunks};
  detail::fork_join(
      chunks,
      [](void* ctx, std::size_t c) noexcept {
        Job& j = *static_cast<Job*>(ctx);
        j.fn(c, chunk_range(j.n, j.chunks, c));
      },
      &job);
}

/// Runs fn(i) for i in [0, n) using `num_threads` threads with static
/// scheduling. fn must be safe to call concurrently for distinct i.
template <typename Fn>
void parallel_for(std::size_t n, int num_threads, Fn&& fn) {
  parallel_for_chunks(n, num_threads, [&fn](std::size_t, ChunkRange r) {
    for (std::size_t i = r.begin; i < r.end; ++i) fn(i);
  });
}

}  // namespace pcq::par
