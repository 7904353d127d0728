#include "par/parallel_for.hpp"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "par/threads.hpp"

namespace pcq::par {
namespace {

/// A number no other thread of this process ever had. Unlike
/// std::thread::id, it is never recycled when a thread exits, so equal
/// serials in two calls mean the same thread really served both.
std::uint64_t thread_serial() {
  static std::atomic<std::uint64_t> next{0};
  thread_local const std::uint64_t serial =
      next.fetch_add(1, std::memory_order_relaxed);
  return serial;
}

/// The serial of the thread that ran each chunk of one call at p threads.
std::vector<std::uint64_t> chunk_threads(int p) {
  std::vector<std::uint64_t> serials(static_cast<std::size_t>(p));
  parallel_for_chunks(serials.size() * 100, p, [&](std::size_t c, ChunkRange) {
    serials[c] = thread_serial();
  });
  return serials;
}

TEST(ClampThreads, Bounds) {
  EXPECT_GE(clamp_threads(0), 1);          // 0 -> hardware concurrency
  EXPECT_EQ(clamp_threads(-5), clamp_threads(0));
  EXPECT_EQ(clamp_threads(7), 7);
  EXPECT_EQ(clamp_threads(5000), 1024);    // default limit
  EXPECT_EQ(clamp_threads(50, 8), 8);      // explicit limit
}

#if defined(__linux__)
TEST(HardwareThreads, ProcessMaskNotCallingThreadMask) {
  // Asked first from a thread pinned to one CPU, it still reports the
  // process's count: the mask is read at load, on the main thread.
  int pinned_view = 0;
  std::thread([&pinned_view] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0)
      pinned_view = hardware_threads();
  }).join();
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(hardware_threads(), CPU_COUNT(&mask));
  if (pinned_view != 0) {
    EXPECT_EQ(pinned_view, CPU_COUNT(&mask));
  }
}
#endif

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (int p : {1, 2, 4, 8, 16, 64}) {  // 16, 64 oversubscribe
    std::vector<std::atomic<int>> visits(1000);
    for (auto& v : visits) v.store(0);
    parallel_for(1000, p, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < 1000; ++i)
      ASSERT_EQ(visits[i].load(), 1) << "i=" << i << " p=" << p;
  }
}

TEST(ParallelFor, ZeroIterations) {
  bool called = false;
  parallel_for(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleIterationRunsInline) {
  std::size_t seen = 99;
  parallel_for(1, 8, [&](std::size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ParallelForChunks, ChunksPartitionRange) {
  for (int p : {1, 2, 3, 4, 8, 64}) {
    std::vector<std::atomic<int>> visits(777);
    for (auto& v : visits) v.store(0);
    std::atomic<int> chunk_invocations{0};
    parallel_for_chunks(777, p, [&](std::size_t, ChunkRange r) {
      chunk_invocations.fetch_add(1);
      for (std::size_t i = r.begin; i < r.end; ++i)
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < 777; ++i) ASSERT_EQ(visits[i].load(), 1);
    EXPECT_EQ(chunk_invocations.load(), std::min<int>(p, 777));
  }
}

TEST(ParallelForChunks, ChunkIdsAreDistinctAndDense) {
  constexpr int kThreads = 8;
  std::vector<std::atomic<int>> seen(kThreads);
  for (auto& s : seen) s.store(0);
  parallel_for_chunks(10'000, kThreads, [&](std::size_t c, ChunkRange) {
    seen[c].fetch_add(1);
  });
  for (int c = 0; c < kThreads; ++c) EXPECT_EQ(seen[c].load(), 1) << c;
}

TEST(ParallelForChunks, FewerElementsThanThreads) {
  std::atomic<int> invocations{0};
  std::atomic<std::size_t> covered{0};
  parallel_for_chunks(3, 16, [&](std::size_t, ChunkRange r) {
    invocations.fetch_add(1);
    covered.fetch_add(r.size());
  });
  EXPECT_EQ(invocations.load(), 3);
  EXPECT_EQ(covered.load(), 3u);
}

TEST(ParallelForChunks, EmptyRangeNoInvocation) {
  bool called = false;
  parallel_for_chunks(0, 4, [&](std::size_t, ChunkRange) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunks, BoundsMatchChunkRangeFunction) {
  constexpr std::size_t kN = 12345;
  constexpr std::size_t kP = 7;
  parallel_for_chunks(kN, static_cast<int>(kP), [&](std::size_t c, ChunkRange r) {
    EXPECT_EQ(r, chunk_range(kN, kP, c));
  });
}

TEST(ParallelForChunks, ChunkZeroOnCallerOthersOnDistinctThreads) {
  for (int p : {2, 4, 16}) {  // 16 oversubscribes a 4-core host
    const std::vector<std::uint64_t> serials = chunk_threads(p);
    EXPECT_EQ(serials[0], thread_serial()) << "p=" << p;
    EXPECT_EQ(std::set<std::uint64_t>(serials.begin(), serials.end()).size(),
              serials.size())
        << "p=" << p;
  }
}

TEST(ParallelForChunks, TeamPersistsAcrossCalls) {
  // A runtime that spawned threads per call would hand out new serials.
  for (int p : {4, 16}) {
    const std::vector<std::uint64_t> first = chunk_threads(p);
    EXPECT_EQ(chunk_threads(p), first) << "p=" << p;
  }
}

TEST(ParallelForChunks, RoundsReadPlainSlotsWrittenByOtherChunks) {
  // Round-synchronous loops (a frontier sweep, a label-propagation pass)
  // fork many times from one caller, and each round reads plain slots that
  // other team members wrote in the round before. Only the fork-join
  // boundary orders those accesses; TSan flags a runtime that misses it.
  constexpr int kRounds = 1000;
  for (int p : {2, 4, 16}) {
    const auto np = static_cast<std::size_t>(p);
    std::vector<std::uint64_t> prev(np), next(np), expect(np), scratch(np);
    std::iota(prev.begin(), prev.end(), std::uint64_t{1});
    expect = prev;
    for (int round = 0; round < kRounds; ++round) {
      parallel_for_chunks(np, p, [&](std::size_t c, ChunkRange) {
        next[c] = prev[(c + 1) % np] * 3 + c;
      });
      std::swap(prev, next);
      for (std::size_t c = 0; c < np; ++c)
        scratch[c] = expect[(c + 1) % np] * 3 + c;
      std::swap(expect, scratch);
    }
    EXPECT_EQ(prev, expect) << "p=" << p;
  }
}

TEST(ParallelForChunks, NestedCallRunsInlineInChunkOrder) {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 300;
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  for (auto& v : visits) v.store(0);
  std::atomic<int> misplaced{0};
  parallel_for_chunks(kOuter, 4, [&](std::size_t outer, ChunkRange) {
    const std::uint64_t self = thread_serial();
    std::size_t expected_chunk = 0;
    parallel_for_chunks(kInner, 4, [&](std::size_t c, ChunkRange r) {
      if (thread_serial() != self || c != expected_chunk++)
        misplaced.fetch_add(1);
      for (std::size_t i = r.begin; i < r.end; ++i)
        visits[outer * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
    if (expected_chunk != 4) misplaced.fetch_add(1);
  });
  for (std::size_t i = 0; i < visits.size(); ++i)
    ASSERT_EQ(visits[i].load(), 1) << "i=" << i;
  EXPECT_EQ(misplaced.load(), 0);
}

TEST(ParallelForChunks, ConcurrentCallersEachSeeEveryChunkOnce) {
  // Every caller thread forks its own team; teams grow as p varies.
  constexpr int kCallers = 8;
  std::atomic<int> bad_rounds{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t)
    callers.emplace_back([&bad_rounds, t] {
      for (int round = 0; round < 50; ++round) {
        const int p = 2 + (t + round) % 4;
        std::vector<std::atomic<int>> seen(static_cast<std::size_t>(p));
        for (auto& s : seen) s.store(0);
        parallel_for_chunks(1000, p, [&](std::size_t c, ChunkRange) {
          seen[c].fetch_add(1, std::memory_order_relaxed);
        });
        for (auto& s : seen)
          if (s.load() != 1) bad_rounds.fetch_add(1);
      }
    });
  for (auto& c : callers) c.join();
  EXPECT_EQ(bad_rounds.load(), 0);
}

}  // namespace
}  // namespace pcq::par
